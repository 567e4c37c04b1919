"""Strongly local quadratic diffusion over the implicit gadget graph.

State lives in sparse dicts keyed by reduced-graph node ids (originals
0..n-1, auxiliaries n+2j / n+2j+1 for gadget j); missing keys are exactly 0.
The solver repeatedly takes a node whose residual violates r_i > kappa*d_i
off a FIFO queue, raises x_i until the residual drops to rho*kappa*d_i
(hyperpush), then restores the residuals of the touched gadgets' auxiliary
pairs to zero (auxpush) and propagates the resulting nonnegative residual
bumps to the gadgets' other members. Everything is O(size of the touched
region); the full graph is never materialized.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .hypergraph import Hypergraph

# r_i counts as violating when r_i > kappa*d_i*(1 + VIOLATION_GUARD); the
# slack stops rounding dust from re-enqueueing settled nodes forever.
VIOLATION_GUARD = 1e-12


@dataclass
class DiffusionConfig:
    kappa: float
    gamma: float = 0.1
    rho: float = 0.5
    p: float = 2.0
    eps: float = 1e-8
    max_pushes: int | None = None  # None: no cap; else stop unconverged after this many

    def __post_init__(self):
        if not (0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (0 < self.kappa < math.inf):
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not (0 < self.rho < 1):
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        if not (1 < self.p <= 2):
            raise ValueError(f"p must be in (1,2], got {self.p}")
        if not (0 < self.eps < math.inf):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.max_pushes is not None and self.max_pushes < 0:
            raise ValueError(f"max_pushes must be >= 0, got {self.max_pushes}")


@dataclass
class DiffusionState:
    x: dict = field(default_factory=dict)
    r: dict = field(default_factory=dict)
    seeds: frozenset = frozenset()
    queue: deque = field(default_factory=deque)
    in_queue: set = field(default_factory=set)
    touched_gadgets: set = field(default_factory=set)
    pushes: int = 0
    aux_pushes: int = 0
    root_evals: int = 0        # p-norm push residual + settle defect evaluations
    settle_fallbacks: int = 0  # p-norm settles that fell back to _settle_levels
    sum_pushed_degree: float = 0.0
    seed_volume: float = 0.0


@dataclass
class SolveResult:
    x: dict                  # positive entries over original nodes
    state: DiffusionState    # full internals, auxiliary values included
    converged: bool          # False: cfg.max_pushes ran out, state.queue is nonempty
    pushes: int
    sum_pushed_degree: float
    seed_volume: float


def aux_ids(h: Hypergraph, j: int):
    a = h.num_nodes + 2 * j
    return a, a + 1


def init_state(h: Hypergraph, seeds, cfg: DiffusionConfig) -> DiffusionState:
    seeds = sorted(set(int(v) for v in seeds))
    if not seeds:
        raise ValueError("seed set is empty")
    for v in seeds:
        if not (0 <= v < h.num_nodes):
            raise ValueError(f"seed {v} out of range")
        if h.degree_of[v] <= 0:
            raise ValueError(f"seed {v} has zero degree")
    state = DiffusionState(seeds=frozenset(seeds))
    state.seed_volume = float(sum(h.degree_of[v] for v in seeds))
    thresh = 1.0 + VIOLATION_GUARD
    for v in seeds:
        d = h.degree_of[v]
        state.r[v] = d
        if d > cfg.kappa * d * thresh:
            state.queue.append(v)
            state.in_queue.add(v)
    return state


def node_residual(h: Hypergraph, state: DiffusionState, cfg: DiffusionConfig, i: int) -> float:
    """Recompute r_i from scratch (the incremental r is validated against this)."""
    x = state.x
    xi = x.get(i, 0.0)
    n = h.num_nodes
    acc = 0.0
    for j in h.incident_gadgets[i]:
        c = h.c_of[j]
        a = n + 2 * j
        xa = x.get(a, 0.0)
        xb = x.get(a + 1, 0.0)
        if xb > xi:
            acc += c * (xb - xi)
        if xi > xa:
            acc -= c * (xi - xa)
    ind = 1.0 if i in state.seeds else 0.0
    return acc / cfg.gamma + h.degree_of[i] * (ind - xi)


def aux_residuals(h: Hypergraph, state: DiffusionState, j: int):
    """(r_a, r_b) of gadget j, recomputed. Assumes x_a >= x_b (maintained)."""
    x = state.x
    a, b = aux_ids(h, j)
    xa = x.get(a, 0.0)
    xb = x.get(b, 0.0)
    c = h.c_of[j]
    wab = h.wab_of[j]
    ra = -wab * (xa - xb)
    rb = wab * (xa - xb)
    for v in h.members_of[j]:
        xv = x.get(v, 0.0)
        if xv > xa:
            ra += c * (xv - xa)
        if xb > xv:
            rb -= c * (xb - xv)
    return ra, rb


def _scan_node(h, state, cfg, i):
    """One pass over i's incident gadgets: fresh residual plus push caches.

    Returns (r_i, aux list [(c, x_a, x_b)], (s_a, s_b, a_min, b_min)).
    s_a / s_b are the strictly active arc weights; a_min is the smallest
    x_a >= x_i (non-strict, so a tie disables the fast path), b_min the
    smallest x_b > x_i; both +inf when no candidate exists.
    """
    x = state.x
    xi = x.get(i, 0.0)
    n = h.num_nodes
    acc = 0.0
    s_a = s_b = 0.0
    a_min = b_min = math.inf
    adjacent = []
    for j in h.incident_gadgets[i]:
        c = h.c_of[j]
        a = n + 2 * j
        xa = x.get(a, 0.0)
        xb = x.get(a + 1, 0.0)
        adjacent.append((c, xa, xb))
        if xb > xi:
            acc += c * (xb - xi)
            s_b += c
            if xb < b_min:
                b_min = xb
        if xi > xa:
            acc -= c * (xi - xa)
            s_a += c
        elif xa < a_min:
            a_min = xa
    ind = 1.0 if i in state.seeds else 0.0
    ri = acc / cfg.gamma + h.degree_of[i] * (ind - xi)
    return ri, adjacent, (s_a, s_b, a_min, b_min)


def _solve_push_amount(cfg, xi, ri, di, adjacent, caches):
    """The unique Delta > 0 with residual(x_i + Delta) = rho*kappa*d_i.

    Fast path: one linear solve, valid while no adjacent auxiliary value is
    crossed or tied. Otherwise walk the breakpoints of the piecewise-linear
    residual; the target is always reached at some t <= 1.
    """
    gamma = cfg.gamma
    target = cfg.rho * cfg.kappa * di
    s_a, s_b, a_min, b_min = caches
    delta = (ri - target) / ((s_a + s_b) / gamma + di)
    if xi + delta <= min(a_min, b_min):
        return delta

    # Right-derivative weight at t = xi: a-side ties included, b-side strict.
    w_active = 0.0
    events = []  # (t, dw): at t the active weight changes by dw
    for c, xa, xb in adjacent:
        if xa <= xi:
            w_active += c
        else:
            events.append((xa, c))
        if xb > xi:
            w_active += c
            events.append((xb, -c))
    events.sort()
    t_cur, f_cur = xi, ri
    k = 0
    while True:
        slope = w_active / gamma + di
        t_next = events[k][0] if k < len(events) else math.inf
        t_star = t_cur + (f_cur - target) / slope
        if t_star <= t_next:
            return t_star - xi
        f_cur -= slope * (t_next - t_cur)
        t_cur = t_next
        while k < len(events) and events[k][0] == t_next:
            w_active += events[k][1]
            k += 1


def hyperpush(h: Hypergraph, state: DiffusionState, cfg: DiffusionConfig, i: int) -> float:
    """Raise x_i so its residual falls to rho*kappa*d_i; returns Delta x_i."""
    di = h.degree_of[i]
    ri, adjacent, caches = _scan_node(h, state, cfg, i)
    if ri <= cfg.kappa * di:
        raise ValueError(f"hyperpush on non-violating node {i} (r={ri:g}, kd={cfg.kappa * di:g})")
    return _apply_hyperpush(h, state, cfg, i, ri, di, adjacent, caches)


def _apply_hyperpush(h, state, cfg, i, ri, di, adjacent, caches):
    xi = state.x.get(i, 0.0)
    delta = _solve_push_amount(cfg, xi, ri, di, adjacent, caches)
    state.x[i] = xi + delta
    state.r[i] = cfg.rho * cfg.kappa * di
    state.pushes += 1
    state.sum_pushed_degree += di
    return delta


def auxpush(h: Hypergraph, state: DiffusionState, cfg: DiffusionConfig, j: int,
            i: int | None = None, dxi: float | None = None):
    """Restore gadget j's residuals to zero after node i was raised by dxi.

    Returns the nonnegative increments (Delta x_a, Delta x_b). Residuals of
    the gadget's members are bumped by the (nonnegative) amounts induced by
    the auxiliary movement, and members pushed above the violation threshold
    are enqueued. The state is authoritative: residuals are recomputed here,
    so the push is correct even when both perturbation terms are active.
    """
    x = state.x
    a = h.num_nodes + 2 * j
    b = a + 1
    c = h.c_of[j]
    wab = h.wab_of[j]
    members = h.members_of[j]
    state.touched_gadgets.add(j)
    xa0 = x.get(a, 0.0)
    xb0 = x.get(b, 0.0)
    if i is not None and dxi is not None:
        # Nothing moved into the active range: both residuals untouched.
        xi_new = x.get(i, 0.0)
        if xi_new <= xa0 and xb0 <= xi_new - dxi:
            return 0.0, 0.0

    xa, xb = xa0, xb0
    member_x = [(v, x.get(v, 0.0)) for v in members]
    tol = 1e-15 * (1.0 + wab + c * len(members))

    for _round in range(4 * len(members) + 8):
        # One pass: the residuals, the active weights z and the nearest
        # breakpoints above x_a and x_b. A member at x_v == x_b counts in z_b
        # and subtracts an exact 0.0 from r_b, which leaves r_b unchanged.
        ra = -wab * (xa - xb)
        rb = wab * (xa - xb)
        z_a = z_b = 0.0
        xmin_a = xmin_b = math.inf
        for _, xv in member_x:
            if xv > xa:
                ra += c * (xv - xa)
                z_a += c
                if xv < xmin_a:
                    xmin_a = xv
            if xv <= xb:
                rb -= c * (xb - xv)
                z_b += c
            elif xv < xmin_b:
                xmin_b = xv
        if ra <= tol and rb <= tol:
            break
        if ra < 0.0:
            ra = 0.0
        if rb < 0.0:
            rb = 0.0
        det = wab * (z_a + z_b) + z_a * z_b
        if det <= 0:
            break  # both residuals are zero up to rounding (see module tests)
        da = (ra * (wab + z_b) + wab * rb) / det
        db = (wab * ra + (wab + z_a) * rb) / det
        theta = 1.0
        if da > 0 and xa + da > xmin_a:
            theta = min(theta, (xmin_a - xa) / da)
        if db > 0 and xb + db > xmin_b:
            theta = min(theta, (xmin_b - xb) / db)
        xa += theta * da
        xb += theta * db
        if theta == 1.0:
            break
    else:
        raise RuntimeError(f"auxpush on gadget {j} did not settle")

    if xa > 0:
        x[a] = xa
    if xb > 0:
        x[b] = xb
    da_total = xa - xa0
    db_total = xb - xb0
    if da_total > 0 or db_total > 0:
        gamma = cfg.gamma
        thresh = 1.0 + VIOLATION_GUARD
        for v, xv in member_x:
            bump = 0.0
            if xv > xa0:
                bump += c * (min(xv, xa) - xa0)       # (xv-xa0)+ - (xv-xa)+
            if xb > xv:
                bump += c * (xb - max(xv, xb0))       # (xb-xv)+ - (xb0-xv)+
            if bump > 0.0:
                rv = state.r.get(v, 0.0) + bump / gamma
                state.r[v] = rv
                if v not in state.in_queue and rv > cfg.kappa * h.degree_of[v] * thresh:
                    state.queue.append(v)
                    state.in_queue.add(v)
    state.aux_pushes += 1
    return da_total, db_total


def _drive(h, seeds, cfg, scan, push, auxpush, on_event=None) -> SolveResult:
    """The FIFO push loop of both solvers: dequeue, re-check, push, settle
    the incident gadgets. scan/push/auxpush are the solver's kernels.

    Once cfg.max_pushes pushes are spent, the next violating node goes back
    to the queue front and the partial result comes back with
    converged=False.
    """
    state = init_state(h, seeds, cfg)
    thresh = 1.0 + VIOLATION_GUARD
    queue = state.queue
    while queue:
        i = queue.popleft()
        state.in_queue.discard(i)
        di = h.degree_of[i]
        ri, adjacent, caches = scan(h, state, cfg, i)
        if ri <= cfg.kappa * di * thresh:
            state.r[i] = ri
            continue
        if cfg.max_pushes is not None and state.pushes >= cfg.max_pushes:
            queue.appendleft(i)
            state.in_queue.add(i)
            break
        dxi = push(h, state, cfg, i, ri, di, adjacent, caches)
        if on_event is not None:
            on_event("hyperpush", {"node": i, "dx": dxi, "d": di, "r_before": ri})
        for j in h.incident_gadgets[i]:
            da, db = auxpush(h, state, cfg, j, i, dxi)
            if on_event is not None:
                on_event("auxpush", {"gadget": j, "node": i, "da": da, "db": db})
    xv = {v: val for v, val in state.x.items() if v < h.num_nodes and val > 0}
    return SolveResult(x=xv, state=state, converged=not queue, pushes=state.pushes,
                       sum_pushed_degree=state.sum_pushed_degree,
                       seed_volume=state.seed_volume)


def solve(h: Hypergraph, seeds, cfg: DiffusionConfig, on_event=None) -> SolveResult:
    """Run the diffusion to convergence (or to cfg.max_pushes); x restricted
    to positive original entries."""
    return _drive(h, seeds, cfg, _scan_node, _apply_hyperpush, auxpush, on_event)


def ledger_bound(cfg: DiffusionConfig, seed_volume: float, delta_max: float, p: float = 2.0) -> float:
    """Bound on the pushed-degree ledger sum for a converged run.

    Returns (gk + delta_max) vol(R) / (gk (1 - rho)) at p = 2, gk =
    gamma*kappa, and ((gk + delta_max) / (gk (1 - rho)))**q vol(R) / (p - 1)
    with q = 1/(p - 1) for p < 2.

    At p = 2 the per-push argument proves a different form. The residual
    mass (node residuals plus auxiliary residuals over gamma) starts at
    vol(R), auxpushes conserve it and it ends nonnegative. A push on i
    starts from r_i > kappa*d_i and ends at rho*kappa*d_i; at most one side
    of each gadget is active, so r_i falls at slope at most
    d_i (1 + gamma) / gamma and the mass drops by at least
    gk (1 - rho) d_i / (1 + gamma). Summing gives
    sum d_i <= (1 + gamma) vol(R) / (gk (1 - rho)), which implies the
    returned value only when delta_max >= 1 + gamma (1 - kappa). Below that
    the returned form is unproved here; no run has exceeded it (largest
    ratio 1/3 over 1600 delta = 1 solves with gamma in {0.1, 1, 5, 20} and
    kappa in {0.1, 0.01}). The p < 2 form is not derived in this module.
    """
    gk = cfg.gamma * cfg.kappa
    if p == 2.0:
        return (gk + delta_max) * seed_volume / (gk * (1 - cfg.rho))
    q = 1.0 / (p - 1.0)
    return (gk + delta_max) ** q * seed_volume / ((p - 1.0) * (gk * (1 - cfg.rho)) ** q)
