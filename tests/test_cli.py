"""End-to-end tests of the command-line driver, run in-process via main()."""
import json
import math

import pytest

from hyperlocal.cli import _one_based, main
from hyperlocal.hypergraph import parse_hypergraph
from hyperlocal.pnorm import pnorm_solve
from hyperlocal.quadratic import DiffusionConfig, solve
from hyperlocal.sweep import profile_csv, sweepcut

TRIANGLE = "3 1\n1 2 3\n"
H44_TEXT = "4 2\n1 2 3\n2 3 4\n"


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.hgr"
    p.write_text(TRIANGLE)
    return p


@pytest.fixture
def quad_files(tmp_path):
    g = tmp_path / "quad.hgr"
    g.write_text("4 1\n1 2 3 4\n")
    side = tmp_path / "quad.gadgets"
    side.write_text("1:2\n")
    return g, side


def read_solution(path):
    out = {}
    for line in path.read_text().splitlines()[1:]:
        vid, val = line.split(",")
        out[int(vid) - 1] = float(val)
    return out


def test_diffuse_matches_library_composition(tri_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.1", "--out", str(out)])
    assert rc == 0
    h = parse_hypergraph(TRIANGLE)
    res = solve(h, [0], DiffusionConfig(kappa=0.1))
    got = read_solution(out / "solution.csv")
    assert set(got) == set(res.x)
    for k, v in res.x.items():
        assert got[k] == pytest.approx(v, abs=1e-11)
    cluster = [int(t) - 1 for t in (out / "cluster.txt").read_text().split()]
    assert cluster == sorted(sweepcut(h, res.x).best_set)
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["converged"] is True
    assert rep["pushes"] == res.pushes
    assert rep["seeds"] == [1]
    assert rep["support_size"] == len(res.x)
    assert rep["best_conductance"] == pytest.approx(
        sweepcut(h, res.x).best_conductance)


def test_diffuse_report_timings(tri_file, tmp_path):
    out = tmp_path / "out"
    assert main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
                 "--kappa", "0.1", "0.05", "--out", str(out)]) == 0
    reports = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    for rep in reports:
        timings = rep["timings"]
        assert set(timings) == {"load_s", "solve_s", "sweep_s", "write_s"}
        assert all(type(v) is float and v >= 0 for v in timings.values())
        assert timings["solve_s"] == rep["wall_time_s"]
    # One graph load per process, reported on every record.
    assert reports[0]["timings"]["load_s"] == reports[1]["timings"]["load_s"]


def test_seed_file_comment_lines(tri_file, tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("% seeds of block 0\n1 %2\n\t% 3 x\n2\n")
    out = tmp_path / "out"
    assert main(["diffuse", "--graph", str(tri_file), "--seeds", str(seeds),
                 "--kappa", "0.1", "--out", str(out)]) == 0
    assert json.loads((out / "report.jsonl").read_text())["seeds"] == [1, 2]


def test_seed_file_bad_token_is_io_error(tri_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1\n2 x\n")
    assert main(["diffuse", "--graph", str(tri_file), "--seeds", str(seeds),
                 "--kappa", "0.1", "--out", str(tmp_path / "out")]) == 2
    assert f"{seeds}: non-integer node id 'x'" in capsys.readouterr().err


def test_diffuse_pnorm_dispatch(tri_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.1", "--p", "1.4", "--out", str(out)])
    assert rc == 0
    h = parse_hypergraph(TRIANGLE)
    res = pnorm_solve(h, [0], DiffusionConfig(kappa=0.1, p=1.4))
    got = read_solution(out / "solution.csv")
    for k, v in res.x.items():
        assert got[k] == pytest.approx(v, abs=1e-9)


def test_diffuse_reports_root_find_counters(tri_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.1", "--p", "1.4", "--out", str(out)])
    assert rc == 0
    h = parse_hypergraph(TRIANGLE)
    res = pnorm_solve(h, [0], DiffusionConfig(kappa=0.1, p=1.4))
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["root_evals"] == res.state.root_evals > 0


@pytest.mark.parametrize("p", [2.0, 1.4])
def test_diffuse_reports_work_counters(tmp_path, p):
    graph = tmp_path / "h44.hgr"
    graph.write_text(H44_TEXT)
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(graph), "--seed-nodes", "1",
               "--kappa", "0.01", "--p", repr(p), "--out", str(out)])
    assert rc == 0
    res = pnorm_solve(parse_hypergraph(H44_TEXT), [0], DiffusionConfig(kappa=0.01, p=p))
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["walk_pushes"] == res.state.walk_pushes <= rep["pushes"]
    assert rep["peak_queue"] == res.state.peak_queue >= 1
    if p < 2.0:
        assert rep["walk_pushes"] == rep["pushes"]


def test_diffuse_multi_kappa_run_prefixes(tri_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.1", "0.05", "--out", str(out)])
    assert rc == 0
    assert (out / "run000.solution.csv").exists()
    assert (out / "run001.solution.csv").exists()
    reports = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert [r["kappa"] for r in reports] == [0.1, 0.05]
    assert all(r["converged"] for r in reports)


def test_diffuse_batch_runs_match_single_runs(tri_file, tmp_path):
    kappas = ["0.1", "0.02", "0.05"]
    args = ["diffuse", "--graph", str(tri_file), "--seed-nodes", "1", "--kappa"]
    batch = tmp_path / "batch"
    assert main(args + kappas + ["--out", str(batch)]) == 0
    for idx, kappa in enumerate(kappas):
        single = tmp_path / f"single{idx}"
        assert main(args + [kappa, "--out", str(single)]) == 0
        assert ((batch / f"run{idx:03d}.solution.csv").read_bytes()
                == (single / "solution.csv").read_bytes())


def test_diffuse_emit_aux(tri_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.1", "--emit-aux", "--out", str(out)])
    assert rc == 0
    lines = (out / "aux.csv").read_text().splitlines()
    assert lines[0] == "gadget_id,x_a,x_b"
    assert len(lines) == 2  # one gadget touched
    _, xa, xb = lines[1].split(",")
    assert float(xa) >= float(xb) > 0


def test_diffuse_gadget_sidecar(quad_files, tmp_path):
    g, side = quad_files
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(g), "--gadgets", str(side),
               "--seed-nodes", "1", "--kappa", "0.05", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "report.jsonl").read_text())["support_size"] > 0


def test_diffuse_delta_below_one_is_usage_error(tri_file, tmp_path):
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.1", "--delta", "0.5", "--out", str(tmp_path / "out")])
    assert rc == 1


def test_delta_with_gadgets_is_usage_error(quad_files, tmp_path, capsys):
    g, side = quad_files
    x = tmp_path / "x.csv"
    x.write_text("node_id,x\n1,0.5\n")
    common = ["--graph", str(g), "--gadgets", str(side), "--delta", "3"]
    assert main(["diffuse", *common, "--seed-nodes", "1", "--kappa", "0.05",
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    assert main(["sweep", *common, "--x", str(x)]) == 1
    assert main(["check", *common, "--kappa", "0.1"]) == 1
    assert "--delta and --gadgets exclude each other" in capsys.readouterr().err


def test_nonfinite_sidecar_delta_is_format_error(quad_files, tmp_path):
    g, side = quad_files
    side.write_text("1:inf\n")
    rc = main(["diffuse", "--graph", str(g), "--gadgets", str(side),
               "--seed-nodes", "1", "--kappa", "0.05", "--out", str(tmp_path / "out")])
    assert rc == 2


def test_sidecar_format_error_names_the_sidecar(tmp_path, capsys):
    graph = tmp_path / "t.hgr"
    graph.write_text(H44_TEXT)
    side = tmp_path / "t.gad"
    side.write_text("1:2\nx:1\n")
    rc = main(["diffuse", "--graph", str(graph), "--gadgets", str(side),
               "--seed-nodes", "1", "--kappa", "0.05", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"hyperlocal: error: {side}: line 2: non-numeric gadget token 'x:1'\n"


def test_diffuse_all_zero_vector_warns_but_succeeds(tri_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "1.0", "--out", str(out)])
    assert rc == 0
    assert "all zero" in capsys.readouterr().err
    assert (out / "cluster.txt").read_text() == ""
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["best_conductance"] is None
    assert rep["support_size"] == 0


def test_diffuse_all_zero_vector_emits_header_only_aux(tmp_path, capsys):
    graph = tmp_path / "h44.hgr"
    graph.write_text(H44_TEXT)
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(graph), "--seed-nodes", "1",
               "--kappa", "2", "--emit-aux", "--out", str(out)])
    assert rc == 0
    assert "all zero" in capsys.readouterr().err
    assert sorted(f.name for f in out.iterdir()) == [
        "aux.csv", "cluster.txt", "report.jsonl", "solution.csv"]
    assert (out / "aux.csv").read_text() == "gadget_id,x_a,x_b\n"
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["best_conductance"] is None
    assert rep["best_set_size"] == 0


def test_diffuse_push_cap_exits_nonconverged(tri_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.01", "--max-pushes", "2", "--out", str(out)])
    assert rc == 3
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["converged"] is False
    assert rep["pushes"] == 2
    res = solve(parse_hypergraph(TRIANGLE), [0], DiffusionConfig(kappa=0.01, max_pushes=2))
    assert rep["aux_pushes"] == res.state.aux_pushes > 0
    assert not (out / "solution.csv").exists()


def test_diffuse_missing_graph_is_io_error(tmp_path):
    rc = main(["diffuse", "--graph", str(tmp_path / "nope.hgr"),
               "--seed-nodes", "1", "--kappa", "0.1", "--out", str(tmp_path)])
    assert rc == 2


def test_diffuse_malformed_graph_is_io_error(tmp_path):
    bad = tmp_path / "bad.hgr"
    bad.write_text("2 1\n1 9\n")
    rc = main(["diffuse", "--graph", str(bad), "--seed-nodes", "1",
               "--kappa", "0.1", "--out", str(tmp_path)])
    assert rc == 2


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--seed-nodes", "1", "--kappa", "0.1", "--out", "x"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_reproduces_profile_csv(tri_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
          "--kappa", "0.1", "--out", str(out)])
    rc = main(["sweep", "--graph", str(tri_file), "--x", str(out / "solution.csv")])
    assert rc == 0
    h = parse_hypergraph(TRIANGLE)
    x = read_solution(out / "solution.csv")
    assert capsys.readouterr().out == profile_csv(sweepcut(h, x))


def test_sweep_to_file(tri_file, tmp_path):
    xcsv = tmp_path / "x.csv"
    xcsv.write_text("node_id,x\n1,0.9\n2,0.6\n")
    dest = tmp_path / "profile.csv"
    rc = main(["sweep", "--graph", str(tri_file), "--x", str(xcsv),
               "--out", str(dest)])
    assert rc == 0
    assert dest.read_text().startswith("rank,node,x,")


@pytest.mark.parametrize("rows, line, message", [
    ("1,0.5\n2,0.3\n1,0.1\n", 4, "node id 1 repeated"),
    ("1,0.5\n2,nan\n", 3, "x of node 2 is not finite"),
    ("1,0.5\n3,inf\n", 3, "x of node 3 is not finite"),
    ("1,0.5\n3,-inf\n", 3, "x of node 3 is not finite"),
])
def test_sweep_rejects_repeated_or_nonfinite_rows(tri_file, tmp_path, capsys, rows, line, message):
    """A node given twice, or an x that is not finite, is an input error
    naming its line; the sweep would otherwise keep the last row, drop a nan
    or rank an infinite x first."""
    xcsv = tmp_path / "x.csv"
    xcsv.write_text("node_id,x\n" + rows)
    assert main(["sweep", "--graph", str(tri_file), "--x", str(xcsv)]) == 2
    assert capsys.readouterr().err == f"hyperlocal: error: {xcsv}:{line}: {message}\n"


# ---------------------------------------------------------------------------
# eval


def eval_files(tmp_path, pred, truth):
    p = tmp_path / "pred.txt"
    t = tmp_path / "truth.txt"
    p.write_text("".join(f"{v}\n" for v in pred))
    t.write_text("".join(f"{v}\n" for v in truth))
    return p, t


def test_eval_half_overlap(tmp_path, capsys):
    p, t = eval_files(tmp_path, [1, 2], [2, 3])
    assert main(["eval", "--pred", str(p), "--truth", str(t)]) == 0
    assert capsys.readouterr().out.strip() == "0.5000 0.5000 0.5000"


def test_eval_perfect(tmp_path, capsys):
    p, t = eval_files(tmp_path, [4, 5], [5, 4])
    main(["eval", "--pred", str(p), "--truth", str(t)])
    assert capsys.readouterr().out.strip() == "1.0000 1.0000 1.0000"


def test_eval_empty_prediction(tmp_path, capsys):
    p, t = eval_files(tmp_path, [], [1])
    main(["eval", "--pred", str(p), "--truth", str(t)])
    assert capsys.readouterr().out.strip() == "0.0000 0.0000 0.0000"


def test_eval_append_csv(tmp_path, capsys):
    p, t = eval_files(tmp_path, [1], [1])
    log = tmp_path / "scores.csv"
    main(["eval", "--pred", str(p), "--truth", str(t), "--append-csv", str(log)])
    main(["eval", "--pred", str(p), "--truth", str(t), "--append-csv", str(log)])
    lines = log.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("pred,")


@pytest.mark.parametrize("which", ["pred", "truth"])
def test_eval_malformed_file_is_io_error(tmp_path, capsys, which):
    p, t = eval_files(tmp_path, [1, 2], [2, 3])
    bad = p if which == "pred" else t
    bad.write_text("% header line\n1\n2.5\n")
    assert main(["eval", "--pred", str(p), "--truth", str(t)]) == 2
    assert capsys.readouterr().err == \
        f"hyperlocal: error: {bad}: non-integer node id '2.5'\n"


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic_and_parses(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["gen", "--blocks", "20,20", "--epb", "30", "--sizes", "3:5",
            "--cross", "0.1", "--rng", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "graph.hgr").read_text() == (b / "graph.hgr").read_text()
    assert (a / "labels.txt").read_text() == (b / "labels.txt").read_text()
    h = parse_hypergraph((a / "graph.hgr").read_text())
    assert h.num_nodes == 40
    assert (a / "labels.txt").read_text().splitlines()[0] == "1 1"


def test_gen_rejects_bad_sizes(tmp_path):
    rc = main(["gen", "--blocks", "4,4", "--epb", "5", "--sizes", "3:6",
               "--rng", "1", "--out", str(tmp_path / "g")])
    assert rc == 1


def test_gen_has_no_delta_flag(tmp_path, capsys):
    """.hgr carries no gadget parameters, so gen takes no --delta."""
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--blocks", "20,20", "--epb", "30", "--sizes", "3:5", "--rng", "7",
              "--delta", "2", "--out", str(tmp_path / "g")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --delta 2" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_chain_scope_links_only_adjacent_blocks(tmp_path):
    out = tmp_path / "g"
    assert main(["gen", "--blocks", "10,10,10,10", "--epb", "40", "--sizes", "3:5",
                 "--cross", "0.5", "--scope", "chain", "--rng", "3", "--out", str(out)]) == 0
    label = dict(map(int, line.split()) for line in (out / "labels.txt").read_text().splitlines())
    h = parse_hypergraph((out / "graph.hgr").read_text())
    spans = [max(label[v + 1] for v in e) - min(label[v + 1] for v in e) for e in h.hyperedges]
    assert set(spans) == {0, 1}


# ---------------------------------------------------------------------------
# check


def test_check_battery_passes_default_instance(capsys):
    assert main(["check", "--kappa", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "min-conductance family preserved" in out
    assert "push replay agreement" in out
    assert "reference optimum dominates" in out


def test_check_battery_pnorm(capsys):
    assert main(["check", "--kappa", "0.1", "--p", "1.4"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_check_gadgets_or_seeds_without_graph_is_usage_error(quad_files, tmp_path):
    _, side = quad_files
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("2\n")
    assert main(["check", "--gadgets", str(side), "--kappa", "0.1"]) == 1
    assert main(["check", "--seeds", str(seeds), "--kappa", "0.1"]) == 1


def test_check_pnorm_battery_has_no_push_width_option(capsys):
    # The p-norm push stops on its residual, so no width option can coarsen
    # it into a wrong answer (--eps 0.5 once gave residual -2.0): the
    # residual and replay checks pass and --eps is a usage error.
    assert main(["check", "--kappa", "0.1", "--p", "1.4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "ok   solver residual bounds" in out
    assert "ok   push replay agreement" in out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--kappa", "0.1", "--p", "1.4", "--eps", "0.5"])
    assert exc.value.code == 1


def test_diffuse_solver_failure_exits_three(tri_file, tmp_path, capsys):
    # At p = 1.01 no float x_i lands the 3-node hyperedge's push residual in
    # [0, kappa*d_i]: the solver raises and the CLI reports it in one line.
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "0.01", "--p", "1.01", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("hyperlocal: error: p-norm push on node")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "solution.csv").exists()


def test_diffuse_failed_run_is_reported_with_one_based_ids(tri_file, tmp_path, capsys):
    # kappa 1 pushes nothing and converges; kappa 0.01 at p = 1.01 raises on
    # library node 0, the CLI's node 1. The report keeps both runs.
    with pytest.raises(RuntimeError, match="^p-norm push on node 0 "):
        pnorm_solve(parse_hypergraph(TRIANGLE), [1], DiffusionConfig(kappa=0.01, p=1.01))
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "2",
               "--kappa", "1", "0.01", "--p", "1.01", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("hyperlocal: error: p-norm push on node 1 cannot meet")
    reports = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert [(r["run"], r["kappa"], r["seeds"]) for r in reports] == [(0, 1.0, [2]), (1, 0.01, [2])]
    first, failed = reports
    assert first["converged"] is True and "error" not in first
    assert first["support_size"] == len(read_solution(out / "run000.solution.csv"))
    assert first["best_set_size"] == len((out / "run000.cluster.txt").read_text().split())
    assert failed["converged"] is False
    assert failed["error"] == err.removeprefix("hyperlocal: error: ")
    assert sorted(p.name for p in out.iterdir()) == [
        "report.jsonl", "run000.cluster.txt", "run000.solution.csv"]


def test_one_based_names_gadgets_too():
    assert _one_based(RuntimeError("p-norm auxpush on gadget 9 did not settle (residual 1e-3)")) \
        == "p-norm auxpush on gadget 10 did not settle (residual 1e-3)"


def test_check_help_names_its_kappa_default(capsys):
    """check's --kappa defaults to 0.1, and its help says so rather than
    calling the flag required."""
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--help"])
    assert exit_info.value.code == 0
    kappa_help = " ".join(capsys.readouterr().out.split("--kappa KAPPA")[-1].split())
    assert kappa_help.startswith("sparsity threshold kappa (default 0.1)")
    assert "required" not in kappa_help


def test_diffuse_rejects_gamma_kappa_that_underflows(tri_file, tmp_path, capsys):
    # gamma * kappa = 1e-400 is 0.0 in floats: a usage error naming the
    # cause, before any solve, not a ZeroDivisionError traceback or a
    # solution written as converged.
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "1e-200", "--gamma", "1e-200", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "hyperlocal: error: gamma*kappa underflows to 0: 1e-200*1e-200\n"
    assert not out.exists()


def test_diffuse_reports_unrepresentable_ledger_bound_as_null(tri_file, tmp_path):
    # At p = 1.01 the bound's 100th powers leave the float range. kappa = 1
    # pushes nothing, so the run converges and the record is written.
    out = tmp_path / "out"
    rc = main(["diffuse", "--graph", str(tri_file), "--seed-nodes", "1",
               "--kappa", "1", "--gamma", "0.001", "--p", "1.01", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.jsonl").read_text())
    assert rep["converged"] is True and rep["pushes"] == 0
    assert rep["ledger_bound"] is None


def test_check_missing_graph_is_io_error(tmp_path):
    assert main(["check", "--graph", str(tmp_path / "nope.hgr"),
                 "--kappa", "0.1"]) == 2
