"""Show that loading grows with the hypergraph and a query does not.

Builds chains of planted communities of increasing length, writes each to a
temporary .hgr file and loads it back with parse_hypergraph. The load
columns give the parse time (the text already read) and what tracemalloc
sees: the memory the loaded graph holds and the peak during the parse. Then
it seeds in the first block and reports how many nodes the solver ever
touches next to the degree-weighted push ledger and its a priori bound, and
the solve and sweep times next to the number of swept nodes. Run from the
repository root:

    PYTHONPATH=src python scripts/locality_scaling.py --chain-lengths 10 100 1000

With the defaults, 8334 blocks is about 1M hyperedges and 41667 about 5M.
"""
import argparse
import gc
import os
import tempfile
import time
import tracemalloc

from hyperlocal.hypergraph import format_hgr, parse_hypergraph
from hyperlocal.quadratic import DiffusionConfig, ledger_bound, solve
from hyperlocal.sweep import sweepcut
from hyperlocal.synth import planted_hypergraph, sample_seeds


def traced_parse(text):
    """(MB held by the parsed graph, MB at the peak of the parse)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = parse_hypergraph(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del h
    return (held - base) / 2 ** 20, (peak - base) / 2 ** 20


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chain-lengths", type=int, nargs="+",
                    default=[10, 30, 100])
    ap.add_argument("--block-size", type=int, default=50)
    ap.add_argument("--edges-per-block", type=int, default=120)
    ap.add_argument("--size-min", type=int, default=3)
    ap.add_argument("--size-max", type=int, default=5)
    ap.add_argument("--cross", type=float, default=0.05)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--kappa", type=float, default=0.01)
    ap.add_argument("--rho", type=float, default=0.5)
    ap.add_argument("--rng", type=int, default=4242)
    args = ap.parse_args()

    cfg = DiffusionConfig(gamma=args.gamma, kappa=args.kappa, rho=args.rho)
    base = None
    for k in args.chain_lengths:
        g, labels = planted_hypergraph(
            [args.block_size] * k, args.edges_per_block,
            (args.size_min, args.size_max), args.cross, args.rng,
            cross_scope="chain", delta=1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "chain.hgr")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_hgr(g))
            del g
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        held_mb, peak_mb = traced_parse(text)
        t0 = time.perf_counter()
        h = parse_hypergraph(text)
        load_dt = time.perf_counter() - t0
        del text
        seeds = sample_seeds(labels, 0, args.seeds, "uniform", 99,
                             degrees=h.degrees)
        t0 = time.perf_counter()
        res = solve(h, seeds, cfg)
        dt = time.perf_counter() - t0
        t0 = time.perf_counter()
        prof = sweepcut(h, res.x)
        sweep_dt = time.perf_counter() - t0
        touched = {v for v in res.state.x if v < h.num_nodes}
        touched.update(v for v in res.state.r if v < h.num_nodes)
        bound = ledger_bound(cfg, res.seed_volume, 1.0)
        if base is None:
            base = len(touched)
        print(f"{k:5d} blocks: n={h.num_nodes:7d} edges={len(h.hyperedges):7d} "
              f"load {load_dt:.3f}s held {held_mb:.1f} MB peak {peak_mb:.1f} MB | "
              f"touched={len(touched):4d} ({len(touched) / base:.2f}x of first) "
              f"pushed degree={res.sum_pushed_degree:.0f} of bound {bound:.0f} "
              f"pushes={res.pushes} solve {dt:.3f}s "
              f"sweep {sweep_dt:.4f}s over {len(prof.order)} nodes", flush=True)
        del h, res, prof


if __name__ == "__main__":
    main()
