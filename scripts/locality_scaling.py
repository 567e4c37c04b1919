"""Show that the diffusion's footprint does not grow with the hypergraph.

Builds chains of planted communities of increasing length, always seeding in
the first block, and reports how many nodes the solver ever touches next to
the degree-weighted push ledger and its a priori bound, and the solve and
sweep times next to the number of swept nodes. Run from the repository root:

    PYTHONPATH=src python scripts/locality_scaling.py --chain-lengths 10 100 1000
"""
import argparse
import time

from hyperlocal.quadratic import DiffusionConfig, ledger_bound, solve
from hyperlocal.sweep import sweepcut
from hyperlocal.synth import planted_hypergraph, sample_seeds


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
        h, labels = planted_hypergraph(
            [args.block_size] * k, args.edges_per_block,
            (args.size_min, args.size_max), args.cross, args.rng,
            cross_scope="chain", delta=1.0)
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
        print(f"{k:4d} blocks: n={h.num_nodes:6d} edges={len(h.hyperedges):6d} "
              f"touched={len(touched):4d} ({len(touched) / base:.2f}x of first) "
              f"pushed degree={res.sum_pushed_degree:.0f} of bound {bound:.0f} "
              f"pushes={res.pushes} solve {dt:.3f}s "
              f"sweep {sweep_dt:.4f}s over {len(prof.order)} nodes")


if __name__ == "__main__":
    main()
