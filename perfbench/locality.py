"""Reference figures for the locality ratios, from one traced sweep over
chain sizes: hypergraph.parse_s, quadratic.solve_s and sweep.sweepcut_s at
10, 100 and 1000 blocks of the chain fixture (five uniform seeds in block 0,
kappa 0.01, as in acceptance check 6). Run from the root of a checkout:

    python3 perfbench/locality.py
"""
from __future__ import annotations

import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

LAYERS = ("hypergraph.parse", "quadratic.solve", "sweep.sweepcut")
BLOCKS = (10, 100, 1000)
QUERIES = 5


def main() -> int:
    workdir = os.path.join(ROOT, "perfbench_out", "locality")
    os.makedirs(workdir, exist_ok=True)
    rows = []
    try:
        for blocks in BLOCKS:
            bench = workloads.Bench(ROOT, workdir, None, 0, traced=True)
            try:
                inst, graph, _ = workloads.make_chain(bench, False, blocks)
                h = bench.setup(graph)
                rng = random.Random(blocks)
                cfg = workloads.DiffusionConfig(kappa=0.01, gamma=workloads.GAMMA,
                                                rho=workloads.RHO)
                for _ in range(QUERIES):
                    seeds, truth = workloads.chain_seeds(rng, inst, 0)
                    bench.query(h, inst, [(seeds, cfg, truth)])
            finally:
                bench.close()
            if bench.problems or bench.failed:
                print(f"{blocks} blocks: {bench.failed} failed ops, checks: {bench.problems}")
                return 1
            rows.append((blocks, inst.n, len(inst.edges),
                         [bench.tracer.median(name) for name in LAYERS]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'blocks':>7} {'n':>7} {'m':>7} " + " ".join(f"{n + '_s':>20}" for n in LAYERS))
    for blocks, n, m, vals in rows:
        print(f"{blocks:>7} {n:>7} {m:>7} " + " ".join(f"{v:>20.4f}" for v in vals))
    base = rows[0][3]
    for blocks, _, _, vals in rows[1:]:
        print(f"ratio {blocks}/{rows[0][0]} blocks: " + "  ".join(
            f"{name} {v / b:.2f}x" for name, v, b in zip(LAYERS, vals, base)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
