"""The three workloads and the timed operations they are made of.

An operation (op) is one in-process query (solve or pnorm_solve, then
sweepcut, on an already loaded graph), the four in-process queries that
replay one cli-gadgets process, or one `hyperlocal diffuse` process. A
single client runs the ops back to back (a closed loop), in whole rounds.
The number of rounds is --seconds over the workload's nominal round time
(ROUND_S), so every run of a workload at the same --seconds makes the same
ops and its medians are over the same number of samples on any host. CLI
children run one at a time, so load stays within two cores.

The chain graph and its gadget sidecar are fixed (the locality fixture of
acceptance check 6 at 1000 blocks) and so is the order of the blocks the
queries visit; the seed draws the seed nodes. The planted-pnorm fixtures are
the thirty of acceptance check 7, visited in order. Fixing the graphs keeps
the quality metrics of one seed comparable with those of another: they then
differ by the seed nodes only, not by which blocks were drawn.
"""
from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext

import checks
from spans import Tracer

from hyperlocal.hypergraph import Hypergraph, parse_gadget_lines, parse_hypergraph
from hyperlocal.pnorm import pnorm_solve
from hyperlocal.quadratic import DiffusionConfig, solve
from hyperlocal.sweep import boundary_delta_bar, sweepcut
from hyperlocal.synth import planted_hypergraph, sample_seeds

GAMMA, RHO = 0.1, 0.5
CHAIN_BLOCKS, BLOCK = 1000, 50
# Nine blocks spread along the chain, visited in every round with fresh seed
# nodes, so every run's medians are over the same blocks. The last two blocks
# are left out: they send their cross edges to each other, and the sweep
# rightly prefers their union to either block.
QUERY_BLOCKS = tuple(range(0, CHAIN_BLOCKS - 2, 111))
GADGET_BLOCKS = (0, 444)  # the two seed files of each cli-gadgets process
PNORM_P = 1.4
# p = 1.4 cost climbs steeply with the seed volume vol(R) at a fixed kappa;
# kappa = vol(R) / 3000 gives every query the same mass-to-threshold ratio,
# reaches the whole block and keeps one query near half a second.
PNORM_MASS_RATIO = 3000.0
CLI_TIMEOUT_S = 90.0
# Seconds one round takes on the 2-core host the benchmark was tuned on;
# a run makes round(--seconds / ROUND_S) rounds, at least one.
ROUND_S = {"chain-local": 5.4, "planted-pnorm": 2.1, "cli-gadgets": 9.0}
SETUP_LOADS = 5  # timed loads of the chain workloads; setup_s is their median

END_TO_END = [
    ("setup_s", "s"), ("load_mb", "MB"), ("query_s", "s"), ("queries_per_s", "1/s"),
    ("cli_s", "s"), ("cli_peak_mb", "MB"), ("conductance", "1"), ("f1", "1"),
]

# (metric, unit, span name, count key or None for the span's duration)
PER_LAYER = [
    ("hypergraph.parse_s", "s", "hypergraph.parse", None),
    ("hypergraph.build_s", "s", "hypergraph.build", None),
    ("hypergraph.gadgets_parse_s", "s", "hypergraph.gadgets_parse", None),
    ("quadratic.solve_s", "s", "quadratic.solve", None),
    ("quadratic.pushes", "count", "quadratic.solve", "pushes"),
    ("quadratic.aux_pushes", "count", "quadratic.solve", "aux_pushes"),
    ("quadratic.aux_moved_ratio", "1", "quadratic.solve", "aux_moved_ratio"),
    ("quadratic.pushed_degree", "1", "quadratic.solve", "pushed_degree"),
    ("quadratic.ledger_ratio", "1", "quadratic.solve", "ledger_ratio"),
    ("quadratic.touched_nodes", "count", "quadratic.solve", "touched_nodes"),
    ("quadratic.touched_gadgets", "count", "quadratic.solve", "touched_gadgets"),
    ("pnorm.solve_s", "s", "pnorm.solve", None),
    ("pnorm.pushes", "count", "pnorm.solve", "pushes"),
    ("pnorm.aux_pushes", "count", "pnorm.solve", "aux_pushes"),
    ("pnorm.aux_moved_ratio", "1", "pnorm.solve", "aux_moved_ratio"),
    ("pnorm.touched_gadgets", "count", "pnorm.solve", "touched_gadgets"),
    ("sweep.sweepcut_s", "s", "sweep.sweepcut", None),
    ("sweep.swept_nodes", "count", "sweep.sweepcut", "swept_nodes"),
    ("sweep.best_set_size", "count", "sweep.sweepcut", "best_set_size"),
    ("sweep.delta_bar_s", "s", "sweep.delta_bar", None),
    ("cli.run_wall_s", "s", "cli.process", "run_wall_s"),
    ("cli.self_s", "s", "cli.process", "self_s"),
    ("cli.startup_s", "s", "cli.startup", None),
    ("cli.output_bytes", "B", "cli.process", "output_bytes"),
    ("synth.generate_s", "s", "synth.generate", None),
]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, body):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)


class _EventCounts:
    """on_event hook of the traced run: auxpush calls and those that moved."""

    def __init__(self):
        self.aux = self.moved = 0

    def __call__(self, kind, payload):
        if kind == "auxpush":
            self.aux += 1
            self.moved += payload["da"] > 0 or payload["db"] > 0


class Bench:
    """Ops, samples and checks of one run."""

    def __init__(self, root, workdir, cache, seconds, traced):
        self.workdir = workdir
        self.cache = cache
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.samples = defaultdict(list)
        self.attempted = self.failed = 0
        self.rounds, self.measured_s = 0, 0.0
        self.problems = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root
        self._files = 0
        # Started before anything large is loaded (see spawner.py).
        self._spawner = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        """Stop the spawner and wait for it."""
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=CLI_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()

    def spawn(self, cmd, stderr_path):
        """Run cmd to its end from the spawner: (returncode, seconds, peak RSS in MB)."""
        req = {"cmd": cmd, "env": self.env, "cwd": self.root, "stderr": stderr_path,
               "timeout": CLI_TIMEOUT_S}
        self._spawner.stdin.write(json.dumps(req) + "\n")
        self._spawner.stdin.flush()
        rep = json.loads(self._spawner.stdout.readline())
        return rep["returncode"], rep["seconds"], rep["peak_kb"] / 1024.0

    def span(self, name, **counts):
        return self.tracer.span(name, **counts) if self.tracer else nullcontext({})

    def path(self, stem):
        self._files += 1
        return os.path.join(self.workdir, f"{stem}{self._files}")

    def problem(self, what):
        self.problems.append(what)
        print(f"CHECK FAILED: {what}", file=sys.stderr)

    def loop(self, round_fn, round_s):
        """round(seconds / round_s) whole rounds, at least one."""
        t0 = time.perf_counter()
        for k in range(max(1, round(self.seconds / round_s))):
            round_fn(k)
        self.rounds, self.measured_s = k + 1, time.perf_counter() - t0

    # --- set-up -----------------------------------------------------------

    def _load(self, graph, sidecar):
        with self.span("hypergraph.parse"):
            h = parse_hypergraph(_read(graph))
        rows = h.gadgets
        if sidecar:
            with self.span("hypergraph.gadgets_parse"):
                rows = parse_gadget_lines(_read(sidecar), len(h.hyperedges))
        if sidecar or self.tracer:
            with self.span("hypergraph.build"):
                h = Hypergraph(h.num_nodes, h.hyperedges, rows)
        return h

    def load(self, graph, sidecar=None):
        """Parse plus build, timed as one set-up."""
        with self.span("setup"):
            t0 = time.perf_counter()
            h = self._load(graph, sidecar)
            self.samples["setup_s"].append(time.perf_counter() - t0)
        return h

    def measure_load_mb(self, graph, sidecar=None):
        """Memory the loaded Hypergraph holds, from a separate untimed load.

        tracemalloc slows the 120k-edge load about 14x (15 s, 36 s with the
        sidecar), so the figure is kept in self.cache: a path whose name
        carries the workload and a digest of the program and benchmark
        sources. The inputs measured here do not depend on the seed.
        """
        if os.path.exists(self.cache):
            with open(self.cache, encoding="utf-8") as fh:
                self.samples["load_mb"].append(json.load(fh))
            return
        tracer, self.tracer = self.tracer, None  # no spans, no extra build
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = self._load(graph, sidecar)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            self.tracer = tracer
        del h
        self.samples["load_mb"].append(held / 2 ** 20)
        os.makedirs(os.path.dirname(self.cache), exist_ok=True)
        _write(self.cache + ".tmp", json.dumps(held / 2 ** 20))
        os.replace(self.cache + ".tmp", self.cache)

    def setup(self, graph, sidecar=None):
        """load_mb (skipped without a cache path), then SETUP_LOADS timed
        loads; returns the last graph.

        The benchmark's own objects made so far (the Instance the checks
        read) are first moved out of the collector's reach with gc.freeze,
        so that a full collection during a load or query scans what the
        program allocated, as it would in a process that holds only the
        loaded graph, and not the benchmark's copy of the inputs as well.
        """
        gc.collect()
        gc.freeze()
        if self.cache:
            self.measure_load_mb(graph, sidecar)
        for _ in range(SETUP_LOADS):
            h = None  # drop the previous graph before building the next
            h = self.load(graph, sidecar)
        return h

    # --- ops --------------------------------------------------------------

    def query(self, h, inst, jobs):
        """One op: each (seeds, cfg, truth) of jobs solved and swept in turn
        (cli-gadgets passes the four runs of one CLI process), timed as one
        query_s sample, then the checks and, when traced, the same again
        with spans.

        The four runs of a cli-gadgets op fall in two cost classes of two
        runs each (kappa 0.01 and 0.001), so a median over single runs would
        sit in the gap between the classes and move with the slowest cheap
        run and the fastest dear one; the op's total does not."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            results = []
            for seeds, cfg, _ in jobs:
                res = (solve if cfg.p == 2.0 else pnorm_solve)(h, seeds, cfg)
                results.append((res, sweepcut(h, res.x)))
            took = time.perf_counter() - t0
        except Exception as exc:  # a raising call is a failed op; the run goes on
            self.failed += 1
            print(f"OP FAILED: query {[j[0] for j in jobs]}: {exc!r}", file=sys.stderr)
            return
        self.samples["query_s"].append(took)
        self.samples["queries"].append(len(jobs))
        for (seeds, cfg, truth), (res, prof) in zip(jobs, results):
            bad = checks.residual_violations(inst, seeds, res.state.x, cfg.kappa, cfg.gamma, cfg.p)
            bad += checks.sweep_violations(inst, res.state.x, prof.best_set, prof.best_conductance)
            if cfg.p == 2.0:
                bad += checks.ledger_violations(inst, seeds, res.sum_pushed_degree,
                                                cfg.kappa, cfg.gamma, cfg.rho)
            for what in bad:
                self.problem(f"query {seeds} kappa={cfg.kappa}: {what}")
            self.samples["conductance"].append(prof.best_conductance)
            self.samples["f1"].append(checks.f1_score(prof.best_set, truth))
        if self.tracer:
            self._traced_query(h, inst, jobs)

    def _traced_query(self, h, inst, jobs):
        """The same op again, with spans and the on_event hook attached."""
        took = 0.0
        with self.tracer.span("query"):
            for seeds, cfg, _ in jobs:
                layer = "quadratic" if cfg.p == 2.0 else "pnorm"
                events = _EventCounts()
                with self.tracer.span(layer + ".solve") as s:
                    res = (solve if cfg.p == 2.0 else pnorm_solve)(h, seeds, cfg,
                                                                  on_event=events)
                with self.tracer.span("sweep.sweepcut") as w:
                    prof = sweepcut(h, res.x)
                with self.tracer.span("sweep.delta_bar"):
                    boundary_delta_bar(h, prof.best_set)
                took += w["end"] - s["start"]
                st = res.state
                s.update(pushes=st.pushes, aux_pushes=st.aux_pushes,
                         aux_moved_ratio=events.moved / max(events.aux, 1),
                         pushed_degree=res.sum_pushed_degree,
                         touched_nodes=len({v for v in (*st.x, *st.r) if v < h.num_nodes}),
                         touched_gadgets=len(st.touched_gadgets))
                if layer == "quadratic":
                    s["ledger_ratio"] = res.sum_pushed_degree / checks.ledger_cap(
                        inst, seeds, cfg.kappa, cfg.gamma, cfg.rho)
                w.update(swept_nodes=len(prof.order), best_set_size=len(prof.best_set))
        self.samples["traced_query_s"].append(took)

    def cli(self, inst, graph, sidecar, seed_sets, kappas, p, truths):
        """One `hyperlocal diffuse` process over seed_sets x kappas, then its checks."""
        self.attempted += 1
        seed_files = []
        for seeds in seed_sets:
            seed_files.append(self.path("seeds"))
            _write(seed_files[-1], "".join(f"{v + 1}\n" for v in seeds))
        outdir = self.path("cli")
        cmd = [sys.executable, "-m", "hyperlocal.cli", "diffuse", "--graph", graph]
        cmd += ["--gadgets", sidecar] if sidecar else []
        cmd += ["--seeds", *seed_files, "--kappa", *map(repr, kappas), "--p", repr(p),
                "--gamma", repr(GAMMA), "--rho", repr(RHO), "--emit-aux", "--out", outdir]
        with self.span("cli.process") as sp:
            code, took, peak_mb = self.spawn(cmd, outdir + ".stderr")
        if code != 0:
            self.failed += 1
            print(f"OP FAILED: {' '.join(cmd)} exited {code}: "
                  f"{_read(outdir + '.stderr')[-500:]}", file=sys.stderr)
            return
        self.samples["cli_s"].append(took)
        self.samples["cli_peak_mb"].append(peak_mb)
        bad, records = checks.cli_violations(inst, code, outdir,
                                             len(seed_sets) * len(kappas), GAMMA, p)
        for what in bad:
            self.problem(f"cli {outdir}: {what}")
        for rec in records:
            _, cluster = checks.read_cli_run(outdir, rec["run"], len(records), inst.n)
            self.samples["conductance"].append(rec["best_conductance"])
            self.samples["f1"].append(checks.f1_score(cluster, truths[rec["run"] // len(kappas)]))
        if self.tracer:
            walls = [rec["wall_time_s"] for rec in records]
            sp.update(run_wall_s=statistics.median(walls),
                      self_s=sp["end"] - sp["start"] - sum(walls),
                      output_bytes=sum(os.path.getsize(os.path.join(outdir, f))
                                       for f in os.listdir(outdir)))

    def cli_startup(self):
        """A process that only imports hyperlocal.cli, three times (traced run only)."""
        for _ in range(3):
            with self.span("cli.startup"):
                code, _, _ = self.spawn([sys.executable, "-c", "import hyperlocal.cli"],
                                        os.path.join(self.workdir, "startup.stderr"))
            if code != 0:
                raise RuntimeError(f"importing hyperlocal.cli exited {code}")

    # --- results ------------------------------------------------------------

    def metrics(self):
        if self.tracer:
            out = {name: (self.tracer.median(span, key), unit)
                   for name, unit, span, key in PER_LAYER}
            out["trace.overhead_s"] = (statistics.median(self.samples["traced_query_s"])
                                       - statistics.median(self.samples["query_s"]), "s")
            return out
        s = self.samples
        values = {
            "setup_s": statistics.median(s["setup_s"]),
            "load_mb": statistics.median(s["load_mb"]),
            "query_s": statistics.median(s["query_s"]),
            "queries_per_s": sum(s["queries"]) / sum(s["query_s"]),
            "cli_s": statistics.median(s["cli_s"]),
            "cli_peak_mb": statistics.median(s["cli_peak_mb"]),
            "conductance": statistics.median(s["conductance"]),
            "f1": statistics.median(s["f1"]),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}


# --- inputs -------------------------------------------------------------------

def chain_inputs(blocks=CHAIN_BLOCKS, with_gadgets=False):
    """The chain fixture as (n, edges, gadget rows or None). The sidecar rows
    give each edge one or two gadgets, c = 1, distinct delta in {1, 2, 3},
    from a fixed rng."""
    g, _ = planted_hypergraph([BLOCK] * blocks, 120, (3, 5), 0.05, 4242,
                              cross_scope="chain", delta=1.0)
    if not with_gadgets:
        return g.num_nodes, g.hyperedges, None
    rng = random.Random("cli-gadgets sidecar")
    rows = [[(1.0, float(d)) for d in rng.sample((1, 2, 3), 1 + rng.randrange(2))]
            for _ in g.hyperedges]
    return g.num_nodes, g.hyperedges, rows


def write_inputs(inst, graph, sidecar=None):
    """The .hgr text (1-based ids) and, given a path, the c:delta sidecar."""
    _write(graph, f"{inst.n} {len(inst.edges)}\n" + "".join(
        " ".join(str(v + 1) for v in e) + "\n" for e in inst.edges))
    if sidecar:
        _write(sidecar, "".join(" ".join(f"{c:g}:{d:g}" for c, d in row) + "\n"
                                for row in inst.rows))


def make_chain(bench, with_gadgets, blocks=CHAIN_BLOCKS):
    """Generate and write the chain: (Instance, .hgr path, sidecar path or None)."""
    with bench.span("synth.generate"):
        n, edges, rows = chain_inputs(blocks, with_gadgets)
    inst = checks.Instance(n, edges, rows)
    graph = bench.path("chain.hgr")
    sidecar = bench.path("gadgets.txt") if with_gadgets else None
    write_inputs(inst, graph, sidecar)
    return inst, graph, sidecar


def chain_seeds(rng, inst, block):
    """Five uniform seeds of positive degree in the block, and the block."""
    members = range(block * BLOCK, (block + 1) * BLOCK)
    eligible = [v for v in members if inst.degrees[v] > 0]
    return sorted(rng.sample(eligible, 5)), set(members)


# --- workloads ------------------------------------------------------------------

def chain_local(bench, seed):
    """Load once, query many: p = 2 queries on the 50k-node chain, each
    round eight in-process queries and one single-query CLI process, one
    per block of QUERY_BLOCKS."""
    rng = random.Random(f"chain-local/{seed}")
    inst, graph, _ = make_chain(bench, with_gadgets=False)
    h = bench.setup(graph)
    cfg = DiffusionConfig(kappa=0.01, gamma=GAMMA, rho=RHO)

    def one_round(k):
        for block in QUERY_BLOCKS[:-1]:
            seeds, truth = chain_seeds(rng, inst, block)
            bench.query(h, inst, [(seeds, cfg, truth)])
        seeds, truth = chain_seeds(rng, inst, QUERY_BLOCKS[-1])
        bench.cli(inst, graph, None, [seeds], [cfg.kappa], 2.0, [truth])

    bench.loop(one_round, ROUND_S["chain-local"])


def planted_pnorm(bench, seed):
    """p = 1.4 on the planted two-block fixtures: per round one fixture is
    loaded, queried in process from block 0 and from block 1, and by a CLI
    process from a third seed set in block 0."""
    rng = random.Random(f"planted-pnorm/{seed}")

    def one_round(k):
        with bench.span("synth.generate"):
            g, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05, 1000 + k % 30,
                                           delta=1.0)
        inst = checks.Instance(g.num_nodes, g.hyperedges)
        graph = bench.path("planted.hgr")
        write_inputs(inst, graph)
        if k == 0:
            bench.measure_load_mb(graph)
        h = bench.load(graph)
        picks = []
        for block in (0, 1, 0):
            seeds = sample_seeds(labels, block, 5, "degree_proportional",
                                 rng.getrandbits(63), degrees=inst.degrees)
            kappa = sum(inst.degrees[v] for v in seeds) / PNORM_MASS_RATIO
            truth = {v for v, lab in enumerate(labels) if lab == block}
            picks.append((list(seeds), kappa, truth))
        for seeds, kappa, truth in picks[:2]:
            cfg = DiffusionConfig(kappa=kappa, gamma=GAMMA, rho=RHO, p=PNORM_P)
            bench.query(h, inst, [(seeds, cfg, truth)])
        seeds, kappa, truth = picks[2]
        bench.cli(inst, graph, None, [seeds], [kappa], PNORM_P, [truth])

    bench.loop(one_round, ROUND_S["planted-pnorm"])


def cli_gadgets(bench, seed):
    """What a CLI user pays: per round one `hyperlocal diffuse` process on
    the chain with a gadget sidecar, two seed files (GADGET_BLOCKS) x
    kappa {0.01, 0.001}, then the same four runs in process as one op."""
    rng = random.Random(f"cli-gadgets/{seed}")
    inst, graph, sidecar = make_chain(bench, with_gadgets=True)
    h = bench.setup(graph, sidecar)
    kappas = [0.01, 0.001]
    cfgs = [DiffusionConfig(kappa=kappa, gamma=GAMMA, rho=RHO) for kappa in kappas]

    def one_round(k):
        picks = [chain_seeds(rng, inst, block) for block in GADGET_BLOCKS]
        bench.cli(inst, graph, sidecar, [s for s, _ in picks], kappas, 2.0,
                  [t for _, t in picks])
        bench.query(h, inst, [(seeds, cfg, truth) for seeds, truth in picks for cfg in cfgs])

    bench.loop(one_round, ROUND_S["cli-gadgets"])


WORKLOADS = {"chain-local": chain_local, "planted-pnorm": planted_pnorm,
             "cli-gadgets": cli_gadgets}
