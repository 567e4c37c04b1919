"""Command-line driver: diffuse, sweep, eval, gen, check.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 solver non-convergence,
solver failure or failed check. All randomness enters through explicit --rng
flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

from .hypergraph import (
    GadgetParams,
    Hypergraph,
    HypergraphFormatError,
    _parse_edges,
    _uniform_gadgets,
    format_hgr,
    parse_gadget_lines,
    parse_hypergraph,
)
from .oracles import (
    brute_min_conductance,
    cut_preservation_check,
    kkt_check,
    objective_value,
    reduced_min_conductance_family,
    min_conductance_family,
    reference_qp_solver,
    replay_pushes,
)
from .pnorm import pnorm_solve
from .quadratic import DiffusionConfig, ledger_bound
from .sweep import prf1, profile_csv, sweepcut
from .synth import format_labels, planted_hypergraph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOCONV = 3

_KAPPA_HELP = ("sparsity threshold kappa (%s); no value suits every graph -- "
               "scale it down with graph size: 0.01-0.1 at toy scale, "
               "~2.5e-3 around 1e5 hyperedges, ~2.5e-4 around 1e6")

_DELTA_HELP = ("uniform gadget threshold delta >= 1 for every hyperedge "
               "(default 1.0); excludes --gadgets, whose sidecar sets every delta")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _CliIOError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliIOError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, body: str) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise _CliIOError(f"cannot write {path}: {exc}") from exc


def _delta(args) -> float:
    """The uniform --delta; the sidecar sets every delta, so it excludes --gadgets."""
    if args.gadgets and args.delta is not None:
        raise ValueError("--delta and --gadgets exclude each other "
                         "(the sidecar gives every gadget's delta)")
    return 1.0 if args.delta is None else args.delta


def _load_graph(args) -> Hypergraph:
    """Parse the .hgr (and the --gadgets sidecar, if given), then build once.
    Each input text is passed straight to its parser, so it is freed once
    parsed, before the next file is read and before the build."""
    delta = _delta(args)
    path = args.graph
    try:
        n, edges = _parse_edges(_read_text(path))
        if args.gadgets:
            path = args.gadgets
            rows = parse_gadget_lines(_read_text(path), len(edges))
    except HypergraphFormatError as exc:
        raise _CliIOError(f"{path}: {exc}") from exc
    if not args.gadgets:
        # A bad --delta is a ValueError: exit 1.
        rows = _uniform_gadgets(len(edges), GadgetParams(1.0, delta))
    return Hypergraph(n, edges, rows)


def _read_ids(text: str, what: str):
    """The integers of a node-id file, in file order. A line whose first
    token starts with "%" is a comment, and so is any one token that does."""
    ids = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0].startswith("%"):
            continue
        for tok in toks:
            if tok.startswith("%"):
                continue
            try:
                ids.append(int(tok))
            except ValueError:
                raise _CliIOError(f"{what}: non-integer node id {tok!r}") from None
    return ids


def _parse_id_list(text: str, n: int, what: str):
    ids = []
    for v in _read_ids(text, what):
        if not 1 <= v <= n:
            raise _CliIOError(f"{what}: node id {v} out of range 1..{n}")
        ids.append(v - 1)
    if not ids:
        raise _CliIOError(f"{what}: no node ids found")
    return sorted(set(ids))


def _solution_csv(x: dict) -> str:
    rows = sorted(x.items(), key=lambda t: (-t[1], t[0]))
    lines = ["node_id,x"]
    lines.extend(f"{v + 1},{val:.12g}" for v, val in rows)
    return "\n".join(lines) + "\n"


def _cluster_lines(nodes) -> str:
    return "".join(f"{v + 1}\n" for v in sorted(nodes))


def _delta_max(h) -> float:
    return float(h.gadget_delta.max()) if h.num_gadgets else 1.0


def _one_based(exc) -> str:
    """A solver error's message with its node or gadget id 1-based, as the
    CLI's inputs and outputs number them (the library's ids are 0-based)."""
    return re.sub(r"\b(node|gadget) (\d+)\b", lambda m: f"{m[1]} {int(m[2]) + 1}", str(exc))


def _run_one_diffusion(h, seeds, cfg, out_prefix, emit_aux, delta_max, report):
    """Solve, sweep and write one run, filling in its report record."""
    timings = report["timings"]
    t0 = time.perf_counter()
    res = pnorm_solve(h, seeds, cfg)
    solve_s = round(time.perf_counter() - t0, 6)
    bound = ledger_bound(cfg, res.seed_volume, delta_max)
    timings.update(solve_s=solve_s, sweep_s=0.0, write_s=0.0)
    report.update({
        "wall_time_s": solve_s,
        "converged": res.converged,
        "pushes": res.pushes,
        "aux_pushes": res.state.aux_pushes,
        "walk_pushes": res.state.walk_pushes,
        "peak_queue": res.state.peak_queue,
        "root_evals": res.state.root_evals,
        "sum_pushed_degree": res.sum_pushed_degree,
        "ledger_bound": None if math.isinf(bound) else bound,
        "support_size": len(res.x),
    })
    if not res.converged:
        return

    best_set, best = (), math.inf
    if res.x:
        t0 = time.perf_counter()
        profile = sweepcut(h, res.x)
        timings["sweep_s"] = round(time.perf_counter() - t0, 6)
        best_set, best = profile.best_set, profile.best_conductance
    else:
        print(f"warning: diffusion vector is all zero (kappa={cfg.kappa} "
              "at or above the seed residual scale); emitting an empty cluster",
              file=sys.stderr)
    report["best_conductance"] = None if math.isinf(best) else best
    report["best_set_size"] = len(best_set)
    t1 = time.perf_counter()
    _write_text(out_prefix + "solution.csv", _solution_csv(res.x))
    _write_text(out_prefix + "cluster.txt", _cluster_lines(best_set))
    if emit_aux:
        lines = ["gadget_id,x_a,x_b"]
        n = h.num_nodes
        for j in sorted(res.state.touched_gadgets):
            xa = res.state.x.get(n + 2 * j, 0.0)
            xb = res.state.x.get(n + 2 * j + 1, 0.0)
            lines.append(f"{j + 1},{xa:.12g},{xb:.12g}")
        _write_text(out_prefix + "aux.csv", "\n".join(lines) + "\n")
    timings["write_s"] = round(time.perf_counter() - t1, 6)


def _cmd_diffuse(args) -> int:
    t0 = time.perf_counter()
    h = _load_graph(args)
    load_s = round(time.perf_counter() - t0, 6)
    seed_sets = []
    if args.seed_nodes:
        seed_sets.append(("inline", _parse_id_list(args.seed_nodes.replace(",", " "),
                                                   h.num_nodes, "--seed-nodes")))
    for path in args.seeds or []:
        seed_sets.append((path, _parse_id_list(_read_text(path), h.num_nodes, path)))
    if not seed_sets:
        raise _CliIOError("no seeds given (use --seeds or --seed-nodes)")

    runs = []
    for tag, seeds in seed_sets:
        for kappa in args.kappa:
            cfg = DiffusionConfig(kappa=kappa, gamma=args.gamma, rho=args.rho,
                                  p=args.p, max_pushes=args.max_pushes)
            runs.append((tag, seeds, cfg))

    outdir = args.out.rstrip("/") or "."
    delta_max = _delta_max(h)
    reports, failure = [], None
    for idx, (tag, seeds, cfg) in enumerate(runs):
        prefix = (os.path.join(outdir, "") if len(runs) == 1
                  else os.path.join(outdir, f"run{idx:03d}."))
        report = {"seeds": [v + 1 for v in seeds], "kappa": cfg.kappa, "gamma": cfg.gamma,
                  "rho": cfg.rho, "p": cfg.p, "timings": {"load_s": load_s},
                  "graph": args.graph, "seed_source": tag, "run": idx}
        reports.append(report)
        try:
            _run_one_diffusion(h, seeds, cfg, prefix, args.emit_aux, delta_max, report)
        except RuntimeError as exc:
            # The failed run gets a record too, and ends the command.
            report.update(converged=False, error=_one_based(exc))
            failure = exc
            break

    body = "".join(json.dumps(rep, sort_keys=True) + "\n" for rep in reports)
    _write_text(os.path.join(outdir, "report.jsonl"), body)
    if failure is not None:
        raise failure
    return EXIT_OK if all(rep["converged"] for rep in reports) else EXIT_NOCONV


def _cmd_sweep(args) -> int:
    h = _load_graph(args)
    x = {}
    for ln, raw in enumerate(_read_text(args.x).splitlines(), start=1):
        line = raw.strip()
        if not line or line.lower().startswith("node_id"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise _CliIOError(f"{args.x}:{ln}: expected 'node_id,x'")
        try:
            v, val = int(parts[0]), float(parts[1])
        except ValueError:
            raise _CliIOError(f"{args.x}:{ln}: bad row {line!r}") from None
        if not 1 <= v <= h.num_nodes:
            raise _CliIOError(f"{args.x}:{ln}: node id {v} out of range")
        if not math.isfinite(val):
            raise _CliIOError(f"{args.x}:{ln}: x of node {v} is not finite")
        if v - 1 in x:
            raise _CliIOError(f"{args.x}:{ln}: node id {v} repeated")
        x[v - 1] = val
    try:
        profile = sweepcut(h, x)
    except ValueError as exc:
        raise _CliIOError(str(exc)) from None
    body = profile_csv(profile)
    if args.out:
        _write_text(args.out, body)
    else:
        sys.stdout.write(body)
    return EXIT_OK


def _cmd_eval(args) -> int:
    pred = set(_read_ids(_read_text(args.pred), args.pred))
    truth = set(_read_ids(_read_text(args.truth), args.truth))
    p, r, f1 = prf1(pred, truth)
    print(f"{p:.4f} {r:.4f} {f1:.4f}")
    if args.append_csv:
        new = not os.path.exists(args.append_csv)
        try:
            with open(args.append_csv, "a", encoding="utf-8") as fh:
                if new:
                    fh.write("pred,truth,precision,recall,f1\n")
                fh.write(f"{args.pred},{args.truth},{p:.4f},{r:.4f},{f1:.4f}\n")
        except OSError as exc:
            raise _CliIOError(f"cannot append to {args.append_csv}: {exc}") from exc
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        blocks = [int(t) for t in args.blocks.split(",") if t]
        lo, hi = (int(t) for t in args.sizes.split(":"))
    except ValueError:
        raise ValueError(f"bad --blocks/--sizes ({args.blocks!r}, {args.sizes!r})") from None
    # Infeasible parameter combinations surface as ValueError -> exit 1.
    h, labels = planted_hypergraph(blocks, args.epb, (lo, hi), args.cross,
                                   args.rng, cross_scope=args.scope)
    outdir = args.out.rstrip("/") or "."
    _write_text(os.path.join(outdir, "graph.hgr"), format_hgr(h))
    _write_text(os.path.join(outdir, "labels.txt"), format_labels(labels))
    print(f"wrote {os.path.join(outdir, 'graph.hgr')} "
          f"({h.num_nodes} nodes, {len(h.hyperedges)} hyperedges) and labels.txt")
    return EXIT_OK


_CHECK_DEFAULT = "4 2\n1 2 3\n2 3 4\n"


def _cmd_check(args) -> int:
    if args.graph:
        h = _load_graph(args)
        seeds = (_parse_id_list(_read_text(args.seeds), h.num_nodes, args.seeds)
                 if args.seeds else [0])
    elif args.gadgets or args.seeds:
        raise ValueError("--gadgets and --seeds need --graph")
    else:
        h = parse_hypergraph(_CHECK_DEFAULT, default_delta=_delta(args))
        seeds = [0]
    cfg = DiffusionConfig(kappa=args.kappa, gamma=args.gamma, rho=args.rho, p=args.p)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        failures += 0 if ok else 1

    if h.num_nodes <= 12 and h.num_nodes + 2 * h.num_gadgets <= 22:
        phi_h, fam_h = min_conductance_family(h)
        phi_g, fam_g = reduced_min_conductance_family(h)
        report("min-conductance family preserved",
               fam_h == fam_g and abs(phi_h - phi_g) <= 1e-12 * max(1.0, phi_h),
               f"phi {phi_h:.6g} vs {phi_g:.6g}, "
               f"{len(fam_h)} vs {len(fam_g)} minimizers")
    else:
        print("skip min-conductance family (instance too large)")
    if h.num_gadgets <= 8 and h.num_nodes <= 12:
        bad = []
        for mask in range(1 << h.num_nodes):
            s = [v for v in range(h.num_nodes) if mask >> v & 1]
            hc, dc, equal = cut_preservation_check(h, s)
            if not equal:
                bad.append((s, hc, dc))
        report("cut preservation over all subsets", not bad, str(bad[:3]))
    else:
        print("skip cut preservation (instance too large)")

    events = []
    res = pnorm_solve(h, seeds, cfg, on_event=lambda k, p: events.append((k, p)))
    rep = kkt_check(h, seeds, cfg, res.x)
    report("solver residual bounds",
           max(rep.max_neg_residual, rep.max_excess_residual) <= 1e-8
           and rep.max_aux_residual <= 1e-8 and rep.max_box_violation <= 1e-12,
           f"neg={rep.max_neg_residual:.2e} excess={rep.max_excess_residual:.2e} "
           f"aux={rep.max_aux_residual:.2e} box={rep.max_box_violation:.2e}")

    full = replay_pushes(h, seeds, cfg, events)
    size = h.num_nodes + 2 * h.num_gadgets
    sparse = [res.state.x.get(i, 0.0) for i in range(size)]
    dev = max(abs(a - b) for a, b in zip(full, sparse))
    report("push replay agreement", dev <= 1e-6, f"max dev {dev:.2e}")

    if h.num_nodes + 2 * h.num_gadgets <= 200:
        ref = reference_qp_solver(h, seeds, cfg)
        ref_rep = kkt_check(h, seeds, cfg, ref)
        f_ref = objective_value(h, seeds, cfg, ref)
        f_push = objective_value(h, seeds, cfg, res.x)
        report("reference optimum dominates",
               f_ref <= f_push + 1e-12 * abs(f_ref) and ref_rep.ok(1e-8),
               f"F_ref={f_ref:.6g} F_push={f_push:.6g}")
    else:
        print("skip reference comparison (instance too large)")

    bound = ledger_bound(cfg, res.seed_volume, _delta_max(h))
    report("push ledger within bound", res.sum_pushed_degree <= bound,
           f"{res.sum_pushed_degree:.6g} <= {bound:.6g}")

    if h.num_nodes <= 20:
        best_set, best_phi = brute_min_conductance(h)
        print(f"info brute min conductance: {[v + 1 for v in best_set]} phi={best_phi:.6g}")
    return EXIT_OK if failures == 0 else EXIT_NOCONV


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="hyperlocal",
                  description="Strongly local hypergraph diffusion toolkit.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def common_solver_flags(p, kappa_multi):
        p.add_argument("--gamma", type=float, default=0.1,
                       help="locality parameter (default 0.1)")
        p.add_argument("--rho", type=float, default=0.5,
                       help="push approximation parameter in (0,1) (default 0.5)")
        p.add_argument("--delta", type=float, default=None,
                       help=_DELTA_HELP)
        p.add_argument("--p", type=float, default=2.0,
                       help="norm exponent in (1,2] (default 2.0, closed-form path)")
        if kappa_multi:
            p.add_argument("--kappa", type=float, nargs="+", required=True,
                           help=_KAPPA_HELP % "required")
        else:
            p.add_argument("--kappa", type=float, default=0.1,
                           help=_KAPPA_HELP % "default %(default)s")

    d = sub.add_parser("diffuse", help="run a localized diffusion and sweepcut")
    d.add_argument("--graph", required=True, help=".hgr hypergraph file")
    d.add_argument("--gadgets", help="per-edge gadget sidecar file (c:delta tokens)")
    d.add_argument("--seeds", nargs="+", help="seed node files (1-based ids)")
    d.add_argument("--seed-nodes", help="inline comma-separated 1-based seed ids")
    common_solver_flags(d, kappa_multi=True)
    d.add_argument("--max-pushes", type=int, default=None,
                   help="stop a run after this many pushes: its report record "
                        "says converged false, it writes no solution or cluster "
                        "file, and the command exits 3")
    d.add_argument("--emit-aux", action="store_true",
                   help="also write aux.csv with touched auxiliary coordinates")
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(func=_cmd_diffuse)

    s = sub.add_parser("sweep", help="sweep an existing solution vector")
    s.add_argument("--graph", required=True)
    s.add_argument("--gadgets")
    s.add_argument("--x", required=True, help="solution CSV (node_id,x)")
    s.add_argument("--delta", type=float, default=None,
                   help=_DELTA_HELP)
    s.add_argument("--out", help="profile CSV path (default: stdout)")
    s.set_defaults(func=_cmd_sweep)

    e = sub.add_parser("eval", help="precision/recall/F1 of a prediction file")
    e.add_argument("--pred", required=True, help="predicted node ids, one per line")
    e.add_argument("--truth", required=True, help="ground-truth node ids")
    e.add_argument("--append-csv", help="append a result row to this CSV")
    e.set_defaults(func=_cmd_eval)

    g = sub.add_parser("gen", help="generate a planted-cluster hypergraph")
    g.add_argument("--blocks", required=True, help="comma-separated block sizes")
    g.add_argument("--epb", type=int, required=True, help="hyperedges per block")
    g.add_argument("--sizes", required=True, help="edge size range lo:hi")
    g.add_argument("--cross", type=float, default=0.05,
                   help="cross-block edge fraction (default 0.05)")
    g.add_argument("--scope", choices=("any", "chain"), default="any",
                   help="cross edges go to any other block, or only the next")
    g.add_argument("--rng", type=int, required=True, help="generator seed")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("check", help="run the oracle battery on a small instance")
    c.add_argument("--graph", help="optional .hgr file (default: built-in example)")
    c.add_argument("--gadgets")
    c.add_argument("--seeds", help="seed node file (default: node 1)")
    common_solver_flags(c, kappa_multi=False)
    c.set_defaults(func=_cmd_check)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliIOError as exc:
        print(f"hyperlocal: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hyperlocal: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # A push or settle that cannot meet its residual bound.
        print(f"hyperlocal: error: {_one_based(exc)}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
