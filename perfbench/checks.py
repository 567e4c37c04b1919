"""Correctness checks for the benchmark, written apart from the solver modules.

Everything here is recomputed from the edge list and the gadget parameters
the benchmark itself generated. Nothing is imported from `hyperlocal`, so a
fault in the program's residual, cut or degree code cannot hide itself.
Each check returns a list of human-readable violations; empty means pass.

Tolerances are the ones the repository already states: 1e-8 on node and
auxiliary residuals at p = 2 (`hyperlocal check`), 1e-6 at p < 2
(`tests/test_pnorm.py`), and 1e-12 on the box 0 <= x <= 1.
"""
from __future__ import annotations

import json
import math
import os

BOX_TOL = 1e-12
SWEEP_RTOL = 1e-9


def residual_tol(p: float) -> float:
    return 1e-8 if p == 2.0 else 1e-6


class Instance:
    """A hypergraph as the benchmark wrote it: 0-based edges plus, per edge,
    a list of (c, delta) gadgets in file order. Gadget j (edge-major) owns
    the auxiliary pair n + 2j, n + 2j + 1 of the solver's reduced ids."""

    def __init__(self, n, edges, gadget_rows=None):
        self.n = n
        self.edges = edges
        self.rows = gadget_rows or [[(1.0, 1.0)] for _ in edges]
        self.gad_edge, self.gad_c, self.gad_delta = [], [], []
        self.node_edges = [[] for _ in range(n)]
        self.node_gadgets = [[] for _ in range(n)]
        self.degrees = [0.0] * n
        for k, (e, row) in enumerate(zip(edges, self.rows)):
            for v in e:
                self.node_edges[v].append(k)
            for c, delta in row:
                j = len(self.gad_edge)
                self.gad_edge.append(k)
                self.gad_c.append(c)
                self.gad_delta.append(delta)
                for v in e:
                    self.node_gadgets[v].append(j)
                    self.degrees[v] += c * min(1.0, len(e) - 1, delta)
        self.total_volume = sum(self.degrees)

    def penalty(self, k: int, inside: int) -> float:
        size = len(self.edges[k])
        small = min(inside, size - inside)
        return sum(c * min(small, delta) for c, delta in self.rows[k]) if small else 0.0

    def conductance(self, nodes) -> float:
        s = set(nodes)
        counts = {}
        for v in s:
            for k in self.node_edges[v]:
                counts[k] = counts.get(k, 0) + 1
        cut = sum(self.penalty(k, c) for k, c in counts.items())
        vol = sum(self.degrees[v] for v in s)
        side = min(vol, self.total_volume - vol)
        return cut / side if side > 0 else math.inf


def _pw(z: float, q: float) -> float:
    return z ** q if z > 0.0 else 0.0


def residual_violations(inst: Instance, seeds, x, kappa, gamma, p):
    """Node residuals in [0, kappa*d_i], auxiliary residuals ~0, 0 <= x <= 1.

    x maps reduced ids to values (missing = 0). Only the seeds, the nodes
    with x > 0 and the members of gadgets with a positive auxiliary are
    recomputed: any other node has x = 0 and zero on all its auxiliaries,
    so its residual is exactly 0.
    """
    q = p - 1.0
    tol = residual_tol(p)
    n = inst.n
    seeds = set(seeds)
    out = []
    for key, val in x.items():
        if not -BOX_TOL <= val <= 1.0 + BOX_TOL:
            out.append(f"x[{key}] = {val!r} outside [0, 1]")
    gadgets = {(key - n) // 2 for key, val in x.items() if key >= n and val > 0}
    nodes = set(seeds) | {v for v, val in x.items() if v < n and val > 0}
    for v in list(nodes):
        gadgets.update(inst.node_gadgets[v])
    for j in gadgets:
        nodes.update(inst.edges[inst.gad_edge[j]])

    def xv(key):
        return x.get(key, 0.0)

    for v in nodes:
        xi = xv(v)
        acc = 0.0
        for j in inst.node_gadgets[v]:
            xa, xb = xv(n + 2 * j), xv(n + 2 * j + 1)
            acc += inst.gad_c[j] * (_pw(xb - xi, q) - _pw(xi - xa, q))
        diff = (1.0 if v in seeds else 0.0) - xi
        seed_term = math.copysign(abs(diff) ** q, diff) if diff else 0.0
        r = acc / gamma + inst.degrees[v] * seed_term
        if not -tol <= r <= kappa * inst.degrees[v] + tol:
            out.append(f"node {v}: residual {r:.3e} outside [0, {kappa * inst.degrees[v]:.3e}]")
    for j in gadgets:
        xa, xb = xv(n + 2 * j), xv(n + 2 * j + 1)
        c = inst.gad_c[j]
        core = c * inst.gad_delta[j] * _pw(xa - xb, q)
        ra, rb = -core, core
        for u in inst.edges[inst.gad_edge[j]]:
            ra += c * _pw(xv(u) - xa, q)
            rb -= c * _pw(xb - xv(u), q)
        if max(abs(ra), abs(rb)) > tol:
            out.append(f"gadget {j}: auxiliary residuals ({ra:.3e}, {rb:.3e})")
    return out


def sweep_order(x, n):
    """Positive support over original nodes, x descending, ties by id."""
    items = [(v, val) for v, val in x.items() if v < n and val > 0]
    items.sort(key=lambda t: (-t[1], t[0]))
    return [v for v, _ in items]


def prefix_conductances(inst: Instance, order):
    """Conductance of every prefix of order, from in-counts kept here."""
    counts = {}
    cut = vol = 0.0
    conds = []
    for v in order:
        for k in inst.node_edges[v]:
            c = counts.get(k, 0)
            counts[k] = c + 1
            cut += inst.penalty(k, c + 1) - inst.penalty(k, c)
        vol += inst.degrees[v]
        side = min(vol, inst.total_volume - vol)
        conds.append(cut / side if side > 0 else math.inf)
    return conds


def sweep_violations(inst: Instance, x, best_set, best_conductance):
    """The minimum prefix conductance equals best_conductance and is reached
    at best_set, which must be a prefix of the sweep order."""
    order = sweep_order(x, inst.n)
    conds = prefix_conductances(inst, order)
    low = min(conds, default=math.inf)
    out = []
    if not math.isclose(low, best_conductance, rel_tol=SWEEP_RTOL):
        out.append(f"min prefix conductance {low!r} != reported {best_conductance!r}")
    size = len(best_set)
    if size == 0 or size > len(order) or set(order[:size]) != set(best_set):
        out.append(f"best set of {size} nodes is not a prefix of the sweep order")
    elif conds[size - 1] > low * (1.0 + SWEEP_RTOL):
        out.append(f"best set conductance {conds[size - 1]!r} above the minimum {low!r}")
    return out


def ledger_cap(inst: Instance, seeds, kappa, gamma, rho) -> float:
    """The proved p = 2 bound (1+gamma) vol(R) / (gamma kappa (1-rho))."""
    vol = sum(inst.degrees[v] for v in set(seeds))
    return (1.0 + gamma) * vol / (gamma * kappa * (1.0 - rho))


def ledger_violations(inst: Instance, seeds, pushed_degree, kappa, gamma, rho):
    cap = ledger_cap(inst, seeds, kappa, gamma, rho)
    return [] if pushed_degree <= cap else [f"pushed degree {pushed_degree!r} > bound {cap!r}"]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _run_prefix(outdir, idx, runs):
    return os.path.join(outdir, "") if runs == 1 else os.path.join(outdir, f"run{idx:03d}.")


def read_cli_run(outdir, idx, runs, n):
    """(x over reduced ids, cluster as 0-based ids) from one run's files."""
    prefix = _run_prefix(outdir, idx, runs)
    x = {}
    for line in _read(prefix + "solution.csv").splitlines()[1:]:
        node, val = line.split(",")
        x[int(node) - 1] = float(val)
    if os.path.exists(prefix + "aux.csv"):
        for line in _read(prefix + "aux.csv").splitlines()[1:]:
            j, xa, xb = line.split(",")
            j = int(j) - 1
            for key, val in ((n + 2 * j, float(xa)), (n + 2 * j + 1, float(xb))):
                if val:
                    x[key] = val
    cluster = [int(t) - 1 for t in _read(prefix + "cluster.txt").split()]
    return x, cluster


def cli_violations(inst: Instance, returncode, outdir, expected_runs, gamma, p):
    """Exit code 0, one report.jsonl record per run, and for each run: the
    residual check on solution.csv plus aux.csv, cluster.txt at the top of
    the solution, and its conductance recomputed here equal to the record's.
    Returns (violations, records)."""
    if returncode != 0:
        return [f"exit code {returncode}"], []
    records = [json.loads(line) for line in _read(os.path.join(outdir, "report.jsonl")).splitlines()]
    if len(records) != expected_runs:
        return [f"{len(records)} report records for {expected_runs} runs"], records
    out = []
    for rec in records:
        idx = rec["run"]
        x, cluster = read_cli_run(outdir, idx, expected_runs, inst.n)
        seeds = [v - 1 for v in rec["seeds"]]
        out += [f"run {idx}: {m}" for m in residual_violations(inst, seeds, x, rec["kappa"], gamma, p)]
        inside = set(cluster)
        if not inside:
            out.append(f"run {idx}: empty cluster.txt")
            continue
        low = min(x[v] for v in inside if v in x) if inside <= x.keys() else -1.0
        high = max((val for v, val in x.items() if v < inst.n and v not in inside), default=0.0)
        if low < high * (1.0 - SWEEP_RTOL):
            out.append(f"run {idx}: cluster.txt is not the top of solution.csv")
        phi = inst.conductance(inside)
        if not math.isclose(phi, rec["best_conductance"], rel_tol=SWEEP_RTOL):
            out.append(f"run {idx}: cluster.txt conductance {phi!r} != reported "
                       f"{rec['best_conductance']!r}")
    return out, records


def f1_score(pred, truth) -> float:
    pred, truth = set(pred), set(truth)
    hit = len(pred & truth)
    return 2.0 * hit / (len(pred) + len(truth)) if pred or truth else 0.0
