"""Independent brute-force and dense reference computations.

Everything here exists to validate the sparse solvers and the gadget
reduction on small instances. The residual formulas are re-derived from the
objective rather than imported from the solver modules on purpose: apart
from the Hypergraph/ReducedGraph containers, no code is shared with them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, cut_value
from .reduction import build_localized_cut_graph, build_reduced_graph

BRUTE_NODE_CAP = 20
GADGET_ENUM_CAP = 8
REDUCED_NODE_CAP = 22
REFERENCE_SIZE_CAP = 2000
REFERENCE_TOL = 1e-10  # reference_qp_solver's KKT violation target
REFERENCE_MAX_SWEEPS = 200000
_CHUNK = 1 << 16
_TIE = 1e-12  # relative width of the minimizers' band


def _min_family(count, degrees, total, cut_of, n):
    """(phi_min, set of all minimizing subsets) over the 2^count subsets of
    `count` weighted coordinates, enumerated in chunks of bit rows. cut_of
    maps a chunk's 0/1 membership rows to their cuts; a minimizer is
    reported as the frozenset of its members below n."""
    shifts = np.arange(count, dtype=np.uint32)
    vmin = math.inf
    chunks = []
    for lo in range(0, 1 << count, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, 1 << count), dtype=np.uint32)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.int8)
        vol = bits.astype(np.float64) @ degrees
        minside = np.minimum(vol, total - vol)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(minside > 0, cut_of(bits) / np.where(minside > 0, minside, 1.0),
                           np.inf)
        chunks.append((lo, phi))
        vmin = min(vmin, phi.min())
    family = set()
    if not math.isfinite(vmin):
        return math.inf, family
    cutoff = vmin + _TIE * max(1.0, abs(vmin))
    for lo, phi in chunks:
        for off in np.flatnonzero(phi <= cutoff):
            mask = lo + int(off)
            family.add(frozenset(v for v in range(n) if (mask >> v) & 1))
    return float(vmin), family


def brute_min_conductance(h: Hypergraph):
    """Exact minimum-conductance set by exhaustive enumeration (n <= 20).

    Ties within 1e-12 are broken toward the lexicographically earliest
    sorted node tuple of `min_conductance_family`. Returns ((nodes...), phi),
    or ((0,), inf) when no subset has finite conductance.
    """
    phi, family = min_conductance_family(h)
    if not family:
        return (0,), math.inf
    return min(tuple(sorted(s)) for s in family), phi


def min_conductance_family(h: Hypergraph):
    """(phi_min, set of all minimizing subsets as frozensets), minimizers
    taken within a relative 1e-12 of phi_min."""
    n = h.num_nodes
    if n > BRUTE_NODE_CAP:
        raise ValueError(f"n={n} exceeds brute-force cap {BRUTE_NODE_CAP}")
    luts = [np.array([h.edge_penalty(k, c) for c in range(len(e) + 1)])
            for k, e in enumerate(h.hyperedges)]
    edge_idx = [np.array(e, dtype=np.int64) for e in h.hyperedges]

    def cut_of(bits):
        cut = np.zeros(len(bits))
        for lut, idx in zip(luts, edge_idx):
            cut += lut[bits[:, idx].sum(axis=1)]
        return cut

    return _min_family(n, h.degrees, h.total_volume, cut_of, n)


def reduced_min_conductance_family(h: Hypergraph):
    """Minimum conductance over ALL subsets T of the reduced graph's nodes,
    using the reduced degree vector (auxiliaries weigh 0), reported as
    (phi_min, set of frozensets T & V). Exponential in n + 2*gadgets."""
    g = build_reduced_graph(h)
    if g.node_count > REDUCED_NODE_CAP:
        raise ValueError(f"reduced node count {g.node_count} too large to enumerate")

    def cut_of(bits):
        cut = np.zeros(len(bits))
        for tail, head, w in g.arcs:
            cut += w * (bits[:, tail] * (1 - bits[:, head]))
        return cut

    return _min_family(g.node_count, g.degree_vector, float(g.degree_vector.sum()), cut_of,
                       h.num_nodes)


def cut_preservation_check(h: Hypergraph, s):
    """Compare the hypergraph cut of S against the minimum directed cut over
    every auxiliary placement (all 4^gadgets of them, enumerated outright)."""
    g_count = h.num_gadgets
    if g_count > GADGET_ENUM_CAP:
        raise ValueError(f"{g_count} gadgets exceed enumeration cap {GADGET_ENUM_CAP}")
    s = set(s)
    n = h.num_nodes
    g = build_reduced_graph(h)
    pl = np.arange(1 << (2 * g_count), dtype=np.int64)

    def node_in(v):
        if v < n:
            return 1.0 if v in s else 0.0
        return ((pl >> (v - n)) & 1).astype(np.float64)

    cut = np.zeros(len(pl))
    for tail, head, w in g.arcs:
        cut = cut + w * node_in(tail) * (1.0 - node_in(head))
    min_cut = float(cut.min())
    hyper_cut = cut_value(h, s)
    return hyper_cut, min_cut, abs(hyper_cut - min_cut) <= 1e-12


# ---------------------------------------------------------------------------
# Dense reference solver and KKT checking.

def _pow(z: float, q: float) -> float:
    return z * z if q == 2.0 else z ** q


def _coord_min_quad(x, outs, ins, lin):
    """argmin over t >= 0 of sum_out w(t-x_h)+^2/2 + sum_in w(x_t-t)+^2/2 + lin*t.

    Exact breakpoint walk on the increasing piecewise-linear derivative;
    flat zero stretches resolve to their left endpoint.
    """
    h0 = lin
    slope = 0.0
    events = []
    for hd, w in outs:
        z = x[hd]
        if z <= 0.0:
            slope += w
        else:
            events.append((z, w))
    for tl, w in ins:
        z = x[tl]
        if z > 0.0:
            h0 -= w * z
            slope += w
            events.append((z, -w))
    if h0 >= 0.0:
        return 0.0
    events.sort()
    t_cur, h_cur = 0.0, h0
    k = 0
    while True:
        t_next = events[k][0] if k < len(events) else math.inf
        if slope > 0.0:
            t_star = t_cur - h_cur / slope
            if t_star <= t_next:
                return t_star
        if not math.isfinite(t_next):
            raise RuntimeError("coordinate derivative never becomes nonnegative")
        h_cur += slope * (t_next - t_cur)
        t_cur = t_next
        if h_cur >= 0.0:
            return t_cur
        while k < len(events) and events[k][0] == t_next:
            slope += events[k][1]
            k += 1


def _coord_min(x, outs, ins, lin, p):
    """argmin over t >= 0 of sum_out w(t-x_h)+^p/p + sum_in w(x_t-t)+^p/p
    + lin*t: the exact walk at p = 2, 80 bisection steps on the derivative
    otherwise."""
    if p == 2.0:
        return _coord_min_quad(x, outs, ins, lin)
    q = p - 1.0

    def deriv(t):
        val = lin
        for hd, w in outs:
            if t > x[hd]:
                val += w * (t - x[hd]) ** q
        for tl, w in ins:
            if x[tl] > t:
                val -= w * (x[tl] - t) ** q
        return val

    if deriv(0.0) >= 0.0:
        return 0.0
    hi = max((x[tl] for tl, _ in ins), default=0.0)
    if hi <= 0.0:
        return 0.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class KKTReport:
    max_neg_residual: float
    max_excess_residual: float
    max_slackness: float
    max_aux_residual: float
    max_box_violation: float

    @property
    def max_violation(self) -> float:
        return max(self.max_neg_residual, self.max_excess_residual,
                   self.max_slackness, self.max_aux_residual,
                   self.max_box_violation)

    def ok(self, tol: float) -> bool:
        return self.max_violation <= tol


def _residuals_from_vector(h: Hypergraph, seeds, cfg, x):
    """Node residuals over V and (r_a, r_b) per gadget from a dense vector
    over V ++ auxiliaries. Formula re-derived from the objective gradient."""
    q = cfg.p - 1.0
    n = h.num_nodes
    seeds = set(seeds)
    g_node = np.array([_one_node_residual(h, seeds, cfg, x, v, x[v]) for v in range(n)])
    aux = np.zeros((h.num_gadgets, 2))
    for j in range(h.num_gadgets):
        c = h.c_of[j]
        wab = h.wab_of[j]
        xa = x[n + 2 * j]
        xb = x[n + 2 * j + 1]
        gap = _pow(xa - xb, q) if xa > xb else 0.0
        ra = -wab * gap
        rb = wab * gap
        for v in h.members_of[j]:
            if x[v] > xa:
                ra += c * _pow(x[v] - xa, q)
            if xb > x[v]:
                rb -= c * _pow(xb - x[v], q)
        aux[j] = (ra, rb)
    return g_node, aux


def _gadget_arc_lists(h: Hypergraph, j: int, n: int):
    a = n + 2 * j
    b = a + 1
    c = h.c_of[j]
    members = h.members_of[j]
    outs_a = [(b, h.wab_of[j])]
    ins_a = [(v, c) for v in members]
    outs_b = [(v, c) for v in members]
    ins_b = [(a, h.wab_of[j])]
    return a, b, outs_a, ins_a, outs_b, ins_b


def _settle_gadget(h: Hypergraph, full, cfg, j: int) -> None:
    """Exact alternating 1-D minimization of one gadget's auxiliary pair,
    in place, until the pair stops moving."""
    a, b, outs_a, ins_a, outs_b, ins_b = _gadget_arc_lists(h, j, h.num_nodes)
    for _ in range(10000):
        na = _coord_min(full, outs_a, ins_a, 0.0, cfg.p)
        moved = abs(na - full[a])
        full[a] = na
        nb = _coord_min(full, outs_b, ins_b, 0.0, cfg.p)
        moved = max(moved, abs(nb - full[b]))
        full[b] = nb
        if moved < 1e-15:
            break


def reconstruct_aux(h: Hypergraph, x, cfg) -> np.ndarray:
    """Extend a vector over V to V ++ auxiliaries by exact per-gadget energy
    minimization (alternating 1-D minimizations until the pair settles)."""
    n = h.num_nodes
    full = np.zeros(n + 2 * h.num_gadgets)
    full[:n] = x[:n]
    for j in range(h.num_gadgets):
        _settle_gadget(h, full, cfg, j)
    return full


def _one_node_residual(h: Hypergraph, seeds_set, cfg, full, v: int, value: float) -> float:
    """Residual of original node v if its coordinate were `value`, all other
    coordinates taken from the dense vector `full`."""
    q = cfg.p - 1.0
    n = h.num_nodes
    acc = 0.0
    for j in h.incident_gadgets[v]:
        c = h.c_of[j]
        xa = full[n + 2 * j]
        xb = full[n + 2 * j + 1]
        if xb > value:
            acc += c * _pow(xb - value, q)
        if value > xa:
            acc -= c * _pow(value - xa, q)
    diff = (1.0 if v in seeds_set else 0.0) - value
    seedterm = math.copysign(_pow(abs(diff), q), diff) if diff != 0 else 0.0
    return acc / cfg.gamma + h.degrees[v] * seedterm


def replay_pushes(h: Hypergraph, seeds, cfg, events) -> np.ndarray:
    """Re-execute a recorded push sequence with independent dense arithmetic.

    `events` is the recorded stream of ("hyperpush", payload) and
    ("auxpush", payload) pairs in execution order, payloads carrying "node"
    resp. "gadget" ids. Each hyperpush is replayed as a bisection root-find
    of the densely recomputed residual against its rho*kappa*d_i target; each
    auxpush as exact alternating minimization of the gadget pair. The solver
    under test never sees this trajectory, so coordinatewise agreement of the
    endpoints validates every push's arithmetic from scratch.
    """
    n = h.num_nodes
    seeds_set = set(seeds)
    full = np.zeros(n + 2 * h.num_gadgets)
    for kind, payload in events:
        if kind == "hyperpush":
            v = payload["node"]
            target = cfg.rho * cfg.kappa * h.degrees[v]
            lo = full[v]
            hi = 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if _one_node_residual(h, seeds_set, cfg, full, v, mid) > target:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-15:
                    break
            full[v] = 0.5 * (lo + hi)
        elif kind == "auxpush":
            _settle_gadget(h, full, cfg, int(payload["gadget"]))
        else:
            raise ValueError(f"unknown replay event kind: {kind!r}")
    return full


def _dense_vector(h: Hypergraph, x, cfg) -> np.ndarray:
    size = h.num_nodes + 2 * h.num_gadgets
    if isinstance(x, dict):
        has_aux = any(k >= h.num_nodes for k in x)
        vec = np.zeros(size if has_aux else h.num_nodes)
        for k, v in x.items():
            vec[k] = v
        x = vec
    x = np.asarray(x, dtype=float)
    if len(x) == size:
        return x
    if len(x) == h.num_nodes:
        return reconstruct_aux(h, x, cfg)
    raise ValueError(f"solution vector has length {len(x)}, expected {h.num_nodes} or {size}")


def kkt_check(h: Hypergraph, seeds, cfg, x) -> KKTReport:
    """Max violation per optimality condition: negative residuals, residuals
    above kappa*d, complementary slackness, auxiliary residuals, box bounds.
    Auxiliary values are reconstructed when x only covers V."""
    full = _dense_vector(h, x, cfg)
    g_node, aux = _residuals_from_vector(h, seeds, cfg, full)
    kd = cfg.kappa * h.degrees
    neg = float(max(0.0, (-g_node).max())) if len(g_node) else 0.0
    excess = float(max(0.0, (g_node - kd).max()))
    slack = float(np.abs((kd - g_node) * full[:h.num_nodes]).max())
    aux_res = float(np.abs(aux).max()) if len(aux) else 0.0
    box = float(max(0.0, (-full).max(), (full - 1.0).max()))
    return KKTReport(neg, excess, slack, aux_res, box)


def objective_value(h: Hypergraph, seeds, cfg, x) -> float:
    """F(x) on the localized graph: sum_arcs w*(x_tail-x_head)+^p / p plus
    kappa*gamma*sum_V d_v x_v, with x_s=1 and x_t=0."""
    full = _dense_vector(h, x, cfg)
    g = build_localized_cut_graph(build_reduced_graph(h), sorted(set(seeds)), cfg.gamma)
    xs = np.zeros(g.node_count)
    xs[:len(full)] = full
    xs[g.source_id] = 1.0
    p = cfg.p
    total = 0.0
    for tail, head, w in g.arcs:
        z = xs[tail] - xs[head]
        if z > 0:
            total += w * _pow(z, p) / p
    total += cfg.kappa * cfg.gamma * float(h.degrees @ full[:h.num_nodes])
    return total


def reference_qp_solver(h: Hypergraph, seeds, cfg) -> np.ndarray:
    """Dense minimizer of the localized objective by cyclic exact coordinate
    minimization; independent of the push solvers. Returns x over V ++ aux."""
    size = h.num_nodes + 2 * h.num_gadgets
    if size > REFERENCE_SIZE_CAP:
        raise ValueError(f"{size} coordinates exceed reference cap {REFERENCE_SIZE_CAP}")
    seeds = sorted(set(seeds))
    g = build_localized_cut_graph(build_reduced_graph(h), seeds, cfg.gamma)
    nn = g.node_count
    outs = [[] for _ in range(nn)]
    ins = [[] for _ in range(nn)]
    for tail, head, w in g.arcs:
        if w == 0.0:
            continue
        outs[tail].append((head, w))
        ins[head].append((tail, w))
    lin = cfg.kappa * cfg.gamma * g.degree_vector
    x = np.zeros(nn)
    x[g.source_id] = 1.0
    order = [v for v in range(nn) if v not in (g.source_id, g.sink_id)]
    for sweep in range(1, REFERENCE_MAX_SWEEPS + 1):
        max_move = 0.0
        for v in order:
            if not outs[v] and not ins[v]:
                continue
            t = _coord_min(x, outs[v], ins[v], lin[v], cfg.p)
            move = abs(t - x[v])
            x[v] = t
            if move > max_move:
                max_move = move
        if sweep % 8 == 0 or max_move < 1e-13:  # a KKT check every 8 sweeps
            report = kkt_check(h, seeds, cfg, x[:size])
            if report.max_violation <= REFERENCE_TOL:
                return x[:size].copy()
            if max_move == 0.0:
                raise RuntimeError(
                    f"reference solver stalled at violation {report.max_violation:g}")
    raise RuntimeError(f"reference solver did not reach tol {REFERENCE_TOL} "
                       f"in {REFERENCE_MAX_SWEEPS} sweeps")
