"""Strongly local quadratic diffusion over the implicit gadget graph.

State lives in sparse dicts keyed by reduced-graph node ids (originals
0..n-1, auxiliaries n+2j / n+2j+1 for gadget j); missing keys are exactly 0.
The solver repeatedly takes a node whose residual violates r_i > kappa*d_i
off a FIFO queue, raises x_i until the residual drops to rho*kappa*d_i
(hyperpush), then restores the residuals of the touched gadgets' auxiliary
pairs to zero and propagates the resulting nonnegative residual bumps to the
gadgets' other members. Everything is O(size of the touched region); the
full graph is never materialized.

`_drive` is the push loop of both solvers; each solver hands it three
kernels (scan, push, settle). The p = 2 `settle` settles every gadget
incident to the pushed node in one pass: the state's containers, gamma and
kappa are read once per pass, a gadget's (w_ab, members, tol, round cap)
come from one memoized record (h.settle_of), members' values are gathered
once per edge, and c, x_a and x_b come from the push's own scan. The
per-gadget loop it replaced is kept in the tests as the bit-for-bit
reference.

Work counters on DiffusionState: pushes, aux_pushes (settles that ran the
pair solve), walk_pushes (pushes that walked the residual's breakpoints
instead of the one linear solve), peak_queue and sum_pushed_degree.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

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
    max_pushes: int | None = None  # None: no cap; else stop unconverged after this many

    def __post_init__(self):
        # Python floats: a numpy scalar here would make every x and r value
        # a numpy scalar, which slows the push arithmetic about twofold.
        self.kappa = float(self.kappa)
        self.gamma = float(self.gamma)
        self.rho = float(self.rho)
        self.p = float(self.p)
        if self.max_pushes is not None:
            self.max_pushes = int(self.max_pushes)
        if not (0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (0 < self.kappa < math.inf):
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not (0 < self.rho < 1):
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        if not (1 < self.p <= 2):
            raise ValueError(f"p must be in (1,2], got {self.p}")
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
    root_evals: int = 0        # p-norm push residual + settle residual evaluations
    walk_pushes: int = 0       # pushes off the one-solve fast path (every p < 2 push)
    peak_queue: int = 0        # longest the queue got
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


def _scan_node(h, state, cfg, i):
    """One pass over i's incident gadgets: fresh residual plus push caches.

    Returns (r_i, aux list [(c, x_a, x_b)], (s_a, s_b, a_min, b_min)).
    s_a / s_b are the strictly active arc weights; a_min is the smallest
    x_a >= x_i (non-strict, so a tie disables the fast path), b_min the
    smallest x_b > x_i; both +inf when no candidate exists.
    """
    xget = state.x.get
    c_of = h.c_of
    xi = xget(i, 0.0)
    n = h.num_nodes
    acc = 0.0
    s_a = s_b = 0.0
    a_min = b_min = math.inf
    adjacent = []
    append = adjacent.append
    for j in h.incident_gadgets[i]:
        c = c_of[j]
        a = n + 2 * j
        xa = xget(a, 0.0)
        xb = xget(a + 1, 0.0)
        append((c, xa, xb))
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


def _solve_push_amount(cfg, xi, ri, di, adjacent, caches, state=None):
    """The unique Delta > 0 with residual(x_i + Delta) = rho*kappa*d_i.

    Fast path: one linear solve, valid while no adjacent auxiliary value is
    crossed or tied. Otherwise walk the breakpoints of the piecewise-linear
    residual; the target is always reached at some t <= 1. A walk is counted
    in state.walk_pushes when state is given.
    """
    gamma = cfg.gamma
    target = cfg.rho * cfg.kappa * di
    s_a, s_b, a_min, b_min = caches
    delta = (ri - target) / ((s_a + s_b) / gamma + di)
    if xi + delta <= min(a_min, b_min):
        return delta
    if state is not None:
        state.walk_pushes += 1

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
    events.append((math.inf, 0.0))  # sentinel: a finite t_star stops here
    t_cur, f_cur = xi, ri
    k = 0
    while True:
        slope = w_active / gamma + di
        t_next = events[k][0]
        t_star = t_cur + (f_cur - target) / slope
        if t_star <= t_next:
            return t_star - xi
        f_cur -= slope * (t_next - t_cur)
        t_cur = t_next
        while events[k][0] == t_next:
            w_active += events[k][1]
            k += 1


def _apply_hyperpush(h, state, cfg, i, ri, di, adjacent, caches):
    xi = state.x.get(i, 0.0)
    delta = _solve_push_amount(cfg, xi, ri, di, adjacent, caches, state)
    state.x[i] = xi + delta
    state.r[i] = cfg.rho * cfg.kappa * di
    state.pushes += 1
    state.sum_pushed_degree += di
    return delta


def settle(h: Hypergraph, state: DiffusionState, cfg: DiffusionConfig, i: int, dxi: float,
           adjacent, on_event=None):
    """Settle every gadget incident to i after the push raised x_i by dxi,
    in h.incident_gadgets[i] order, emitting one "auxpush" event each.

    adjacent is the push's scan, (c, x_a, x_b) per gadget of
    h.incident_gadgets[i]; the push changed only x_i, so its auxiliary
    values are still current. A pair is left as it is when the new x_i is
    not above x_a and the old one (x_i - dxi) not below x_b; dxi = inf
    settles every pair. Otherwise x_a and x_b rise until both residuals are
    zero (a damped 2x2 solve that stops at member breakpoints), the members'
    residuals take the induced nonnegative bumps, and members pushed over
    the violation threshold are enqueued.

    A settle writes only auxiliary values, so the member values gathered for
    one gadget hold for the next gadget of the same edge: gadgets of an
    edge share one `members` tuple and sit side by side in
    incident_gadgets[i].
    """
    x = state.x
    xget = x.get
    r = state.r
    rget = r.get
    in_queue = state.in_queue
    enqueue = state.queue.append
    mark = in_queue.add
    zeros = repeat(0.0)  # the default of each member's x.get
    records = h.settle_of
    degree_of = h.degree_of
    n = h.num_nodes
    gamma = cfg.gamma
    kappa = cfg.kappa
    thresh = 1.0 + VIOLATION_GUARD
    inf = math.inf
    xi = x[i]
    xi_old = xi - dxi
    gadgets = h.incident_gadgets[i]
    settled = 0
    last = None
    state.touched_gadgets.update(gadgets)
    for j, (c, xa0, xb0) in zip(gadgets, adjacent):
        # Nothing moved into the active range: both residuals untouched.
        if xi <= xa0 and xb0 <= xi_old:
            if on_event is not None:
                on_event("auxpush", {"gadget": j, "node": i, "da": 0.0, "db": 0.0})
            continue
        wab, members, tol, rounds = records[j]
        if members is not last:
            last = members
            member_x = list(map(xget, members, zeros))
        xa, xb = xa0, xb0
        for _round in range(rounds):
            # One pass: the residuals, the active weights z and the nearest
            # breakpoints above x_a and x_b. A member at x_v == x_b counts in
            # z_b and subtracts an exact 0.0 from r_b, which leaves r_b
            # unchanged.
            rb = wab * (xa - xb)
            ra = -rb  # == -wab * (xa - xb): negation is exact
            z_a = z_b = 0.0
            xmin_a = xmin_b = inf
            for xv in member_x:
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
            step_a = (ra * (wab + z_b) + wab * rb) / det
            step_b = (wab * ra + (wab + z_a) * rb) / det
            theta = 1.0
            if step_a > 0 and xa + step_a > xmin_a:
                t = (xmin_a - xa) / step_a
                if t < theta:
                    theta = t
            if step_b > 0 and xb + step_b > xmin_b:
                t = (xmin_b - xb) / step_b
                if t < theta:
                    theta = t
            xa += theta * step_a
            xb += theta * step_b
            if theta == 1.0:
                break
        else:
            raise RuntimeError(f"auxpush on gadget {j} did not settle")

        a = n + 2 * j
        if xa > 0:
            x[a] = xa
        if xb > 0:
            x[a + 1] = xb
        da = xa - xa0
        db = xb - xb0
        if da > 0 or db > 0:
            # Member v gains c*((xv-xa0)+ - (xv-xa)+) + c*((xb-xv)+ - (xb0-xv)+),
            # which is c*da (c*db) for a member at or past the new x_a (at or
            # below the old x_b).
            bump_a = c * da
            bump_b = c * db
            for v, xv in zip(members, member_x):
                if xv > xa0:
                    bump = bump_a if xv >= xa else c * (xv - xa0)
                    if xb > xv:
                        bump += bump_b if xv <= xb0 else c * (xb - xv)
                elif xb > xv:
                    bump = bump_b if xv <= xb0 else c * (xb - xv)
                else:
                    continue
                if bump > 0.0:
                    rv = rget(v, 0.0) + bump / gamma
                    r[v] = rv
                    if v not in in_queue and rv > kappa * degree_of[v] * thresh:
                        enqueue(v)
                        mark(v)
        settled += 1
        if on_event is not None:
            on_event("auxpush", {"gadget": j, "node": i, "da": da, "db": db})
    state.aux_pushes += settled


def _drive(h, seeds, cfg, scan, push, settle, on_event=None) -> SolveResult:
    """The FIFO push loop of both solvers: dequeue, re-check, push, settle.

    scan(h, state, cfg, i) -> (r_i, adjacent, caches) recomputes i's
    residual; push(h, state, cfg, i, r_i, d_i, adjacent, caches) raises x_i
    and returns Delta x_i; settle(h, state, cfg, i, Delta x_i, adjacent,
    on_event) settles every gadget incident to i, in incident_gadgets[i]
    order, emitting one "auxpush" event each.

    Once cfg.max_pushes pushes are spent, the next violating node goes back
    to the queue front and the partial result comes back with
    converged=False. state.peak_queue is the longest the queue got.
    """
    state = init_state(h, seeds, cfg)
    thresh = 1.0 + VIOLATION_GUARD
    queue = state.queue
    peak = 0
    while queue:
        length = len(queue)
        if length > peak:
            peak = length
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
        settle(h, state, cfg, i, dxi, adjacent, on_event)
    state.peak_queue = peak
    xv = {v: val for v, val in state.x.items() if v < h.num_nodes and val > 0}
    return SolveResult(x=xv, state=state, converged=not queue, pushes=state.pushes,
                       sum_pushed_degree=state.sum_pushed_degree,
                       seed_volume=state.seed_volume)


def solve(h: Hypergraph, seeds, cfg: DiffusionConfig, on_event=None) -> SolveResult:
    """Run the p = 2 diffusion to convergence (or to cfg.max_pushes); x
    restricted to positive original entries. p < 2 raises ValueError: its
    kernels are pnorm.pnorm_solve's."""
    if cfg.p != 2.0:
        raise ValueError(f"solve runs p = 2 only, got p = {cfg.p}; use pnorm_solve")
    return _drive(h, seeds, cfg, _scan_node, _apply_hyperpush, settle, on_event)


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
    Near p = 1 its q-th powers leave the float range; the bound is then
    math.inf.
    """
    gk = cfg.gamma * cfg.kappa
    if p == 2.0:
        return (gk + delta_max) * seed_volume / (gk * (1 - cfg.rho))
    q = 1.0 / (p - 1.0)
    try:
        return (gk + delta_max) ** q * seed_volume / ((p - 1.0) * (gk * (1 - cfg.rho)) ** q)
    except (OverflowError, ZeroDivisionError):
        return math.inf
