"""Each benchmark check passes on the program's real output and fails on a
perturbed copy of it. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hyperlocal.hypergraph import GadgetParams, Hypergraph  # noqa: E402
from hyperlocal.pnorm import pnorm_solve  # noqa: E402
from hyperlocal.quadratic import DiffusionConfig, solve  # noqa: E402
from hyperlocal.sweep import sweepcut  # noqa: E402
from hyperlocal.synth import planted_hypergraph, sample_seeds  # noqa: E402


def _gadget_chain():
    """Ten blocks of the chain with the cli-gadgets sidecar: (Hypergraph, Instance)."""
    n, edges, rows = workloads.chain_inputs(blocks=10, with_gadgets=True)
    h = Hypergraph(n, edges, [[GadgetParams(c, d) for c, d in row] for row in rows])
    return h, checks.Instance(n, edges, rows)


@pytest.fixture(scope="module")
def p2_run():
    h, inst = _gadget_chain()
    seeds = [3, 17, 21, 30, 44]
    cfg = DiffusionConfig(kappa=0.001, gamma=0.1, rho=0.5)
    res = solve(h, seeds, cfg)
    return inst, seeds, cfg, res, sweepcut(h, res.x)


@pytest.fixture(scope="module")
def pnorm_run():
    g, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05, 1000)
    inst = checks.Instance(g.num_nodes, g.hyperedges)
    seeds = list(sample_seeds(labels, 0, 5, "degree_proportional", 7, degrees=inst.degrees))
    kappa = sum(inst.degrees[v] for v in seeds) / workloads.PNORM_MASS_RATIO
    cfg = DiffusionConfig(kappa=kappa, gamma=0.1, rho=0.5, p=1.4)
    res = pnorm_solve(g, seeds, cfg)
    return inst, seeds, cfg, res, sweepcut(g, res.x)


# At p = 2 and kappa = 0.001 (cli-gadgets) scaling x by 0.999 lifts a
# seed's residual r to 0.999 r + 0.001 d > kappa d. At p = 1.4 and the
# planted-pnorm kappa (~0.025) a seed's residual moves by only ~0.04% of d
# per 0.1% of scale, inside the method's own (1 - rho) kappa d slack, so a
# scaled x still meets every condition the method guarantees; 2% is caught.
@pytest.mark.parametrize("run, scale", [("p2_run", 0.999), ("pnorm_run", 0.98)])
def test_residual_check_fails_on_x_scaled(request, run, scale):
    inst, seeds, cfg, res, _ = request.getfixturevalue(run)
    x = res.state.x
    assert checks.residual_violations(inst, seeds, x, cfg.kappa, cfg.gamma, cfg.p) == []
    scaled = {k: scale * v for k, v in x.items()}
    assert checks.residual_violations(inst, seeds, scaled, cfg.kappa, cfg.gamma, cfg.p)


@pytest.mark.parametrize("run", ["p2_run", "pnorm_run"])
def test_sweep_check_fails_on_node_dropped(request, run):
    inst, _, _, res, prof = request.getfixturevalue(run)
    x = res.state.x
    assert checks.sweep_violations(inst, x, prof.best_set, prof.best_conductance) == []
    for drop in (prof.best_set[0], prof.best_set[-1]):
        short = tuple(v for v in prof.best_set if v != drop)
        assert checks.sweep_violations(inst, x, short, prof.best_conductance)


def test_ledger_check_fails_above_the_bound(p2_run):
    inst, seeds, cfg, res, _ = p2_run
    args = (cfg.kappa, cfg.gamma, cfg.rho)
    assert checks.ledger_violations(inst, seeds, res.sum_pushed_degree, *args) == []
    cap = checks.ledger_cap(inst, seeds, *args)
    assert checks.ledger_violations(inst, seeds, cap * (1 + 1e-12), *args)


def test_cli_check_fails_on_cluster_from_another_run(tmp_path):
    _, inst = _gadget_chain()
    graph, sidecar = tmp_path / "g.hgr", tmp_path / "g.gadgets"
    workloads.write_inputs(inst, graph, sidecar)
    seed_files = []
    for i, seeds in enumerate(([3, 17, 21, 30, 44], [203, 210, 222, 240, 249])):
        seed_files.append(tmp_path / f"s{i}.txt")
        seed_files[-1].write_text("".join(f"{v + 1}\n" for v in seeds))
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "hyperlocal.cli", "diffuse", "--graph", str(graph),
           "--gadgets", str(sidecar), "--seeds", *map(str, seed_files),
           "--kappa", "0.01", "0.001", "--emit-aux", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = subprocess.run(cmd, env=env, timeout=300).returncode
    bad, records = checks.cli_violations(inst, code, str(out), 4, 0.1, 2.0)
    assert bad == [] and len(records) == 4
    assert checks.cli_violations(inst, 3, str(out), 4, 0.1, 2.0)[0]
    assert checks.cli_violations(inst, code, str(out), 3, 0.1, 2.0)[0]
    shutil.copy(out / "run002.cluster.txt", out / "run000.cluster.txt")
    bad, _ = checks.cli_violations(inst, code, str(out), 4, 0.1, 2.0)
    assert any(m.startswith("run 0:") for m in bad)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    layer = [(name, unit) for name, unit, _, _ in workloads.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer + [
        ("trace.overhead_s", "s")]
