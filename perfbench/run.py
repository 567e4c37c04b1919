"""Benchmark of hyperlocal: local diffusion queries, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-local --seed 0 --seconds 27 --trace 0

--workload is chain-local, planted-pnorm, cli-gadgets or all. With --trace 0
the run prints every end-to-end metric; with --trace 1 it repeats each query
with spans and the solver's on_event hook attached and prints the per-layer
metrics, writing the spans to perfbench_out/trace-<workload>-<seed>.jsonl.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
NAMES = ("chain-local", "planted-pnorm", "cli-gadgets")


def source_digest():
    """Digest of the program and benchmark sources, for the load_mb cache."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "hyperlocal"), HERE):
        for f in sorted(os.listdir(d)):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_workload(workloads, name, seed, seconds, traced):
    workdir = os.path.join(OUT, f"{name}-{seed}-t{int(traced)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cache = os.path.join(OUT, "cache", f"load_mb-{name}-{source_digest()}.json")
    bench = workloads.Bench(ROOT, workdir, cache, seconds, traced)
    try:
        workloads.WORKLOADS[name](bench, seed)
        if traced:
            bench.cli_startup()
        metrics = bench.metrics()
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}")
    print(f"  rounds {bench.rounds} in {bench.measured_s:.1f} s  ops attempted "
          f"{bench.attempted}  failed {bench.failed}  check failures {len(bench.problems)}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<28} {value:>14.6g} {unit}")
    if traced:
        bench.tracer.write(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))
        print("  self time by span (s):")
        for span, took in sorted(bench.tracer.self_times().items()):
            print(f"    {span:<26} {took:>10.4f}")
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperlocal", "__init__.py")):
        print(f"perfbench: no hyperlocal package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(workloads, name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
