"""Localized p-norm diffusion (1 < p <= 2) over gadget-reduced hypergraphs.

Same push dynamics and queue policy as the quadratic solver, with every flow
term raised to the q = p-1 power. The closed forms are gone, so each push
and each auxiliary settle is a monotone one-dimensional root-find inside a
guaranteed bracket, stopped on the residual rather than on a coordinate
width (near a member value the q-power turns coordinate error into
first-order residual error):

- a hyperpush brackets the crossing of its target on [x_i, 1] with Illinois
  (modified regula falsi) steps until the residual lands within
  tau*kappa*d_i of rho*kappa*d_i, tau = _PUSH_TOL, as the nonlinear push of
  Liu and Gleich (NeurIPS 2020) solves each push equation to a residual
  tolerance;
- an auxiliary settle runs a safeguarded Newton iteration on x_a alone (the
  gap, and hence x_b, follows from the a-side equation in closed form). If
  its pair misses the residual bound, x_a is kept and x_b alone is bisected
  on its own side's equation, inside the same routine `_settle_pair`.

So a push leaves its node's residual in [0, kappa*d_i] and a settle leaves
its pair within `_settle_bound`, or the solve raises RuntimeError naming the
node or gadget. A push raises when no float meets its bound: as p nears 1
the residual can jump by more than kappa*d_i across one float step of x_i
(p <= 1.05 on a single 3-node hyperedge).

On the planted p = 1.4 fixtures a push evaluates the residual about 12
times and a settle the defect about 7.6 times (80-step bisection: 31).

state.root_evals counts every kind of evaluation; every push is a
root-find, so each counts in state.walk_pushes.
"""

from __future__ import annotations

import math

from .hypergraph import Hypergraph
from .quadratic import VIOLATION_GUARD, DiffusionConfig, SolveResult, _drive, aux_ids, solve

_BISECT_ITERS = 80  # caps the evaluations of each stage of one _settle_pair
_PUSH_TOL = 1e-9    # tau: a push lands r_i within tau*kappa*d_i of its target


def _gap(z: float, q: float) -> float:
    return z ** q if z > 0.0 else 0.0


def _residual_at(cfg, adjacent, ind, di, t):
    q = cfg.p - 1.0
    acc = 0.0
    for c, xa, xb in adjacent:
        if xb > t:
            acc += c * (xb - t) ** q
        if t > xa:
            acc -= c * (t - xa) ** q
    diff = ind - t
    if diff > 0.0:
        seed = diff ** q
    elif diff < 0.0:
        seed = -((-diff) ** q)
    else:
        seed = 0.0
    return acc / cfg.gamma + di * seed


def _scan(h, state, cfg, i):
    x = state.x
    xi = x.get(i, 0.0)
    n = h.num_nodes
    adjacent = []
    for j in h.incident_gadgets[i]:
        a = n + 2 * j
        adjacent.append((h.c_of[j], x.get(a, 0.0), x.get(a + 1, 0.0)))
    ind = 1.0 if i in state.seeds else 0.0
    ri = _residual_at(cfg, adjacent, ind, h.degree_of[i], xi)
    return ri, adjacent, None


def _push(h, state, cfg, i, ri, di, adjacent, caches):
    """Raise x_i until the recomputed residual lands within tau*kappa*d_i of
    its rho*kappa*d_i target (tau = _PUSH_TOL) and store that residual.

    The residual f is strictly decreasing in the coordinate, f(x_i) = r_i is
    above the target and f(1) is nonpositive, so the crossing lies in
    [x_i, 1]. Illinois (modified regula falsi) steps shrink a bracket [L, U]
    with f(L) > target >= f(U) until an evaluated point lands in the band.
    When three steps in a row have not halved the bracket, the next one
    bisects it, which bounds the loop (bisecting after every step that does
    not halve it costs 18 evaluations per push on the planted p = 1.4
    fixtures instead of 12). If the bracket shrinks to two adjacent floats
    first, the end whose residual is nearer the target is taken when that
    residual lies in [0, kappa*d_i]; otherwise RuntimeError names the node.
    """
    xi = state.x.get(i, 0.0)
    ind = 1.0 if i in state.seeds else 0.0
    kd = cfg.kappa * di
    target = cfg.rho * kd
    band = min(_PUSH_TOL, cfg.rho, 1.0 - cfg.rho) * kd  # keeps the band in [0, kd]
    lo, r_lo = xi, ri
    hi = t = 1.0
    r_hi = rt = _residual_at(cfg, adjacent, ind, di, hi)
    evals = 1
    f_lo = r_lo - target
    f_hi = r_hi - target
    side = 0
    bisect = False
    w1 = w2 = w3 = hi - lo  # bracket widths before the last three steps
    while abs(rt - target) > band:
        w3, w2, w1 = w2, w1, hi - lo
        t = 0.5 * (lo + hi) if bisect else lo + f_lo * (w1 / (f_lo - f_hi))
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                t, rt = (lo, r_lo) if r_lo - target < target - r_hi else (hi, r_hi)
                if not 0.0 <= rt <= kd:
                    raise RuntimeError(
                        f"p-norm push on node {i} cannot meet its residual "
                        f"target (residual {rt:.3g}, target {target:.3g})")
                break
        rt = _residual_at(cfg, adjacent, ind, di, t)
        evals += 1
        if rt > target:
            lo, r_lo, f_lo = t, rt, rt - target
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            hi, r_hi, f_hi = t, rt, rt - target
            if side < 0:
                f_lo *= 0.5
            side = -1
        bisect = hi - lo > 0.5 * w3
    state.x[i] = t
    state.r[i] = rt
    state.root_evals += evals
    state.walk_pushes += 1
    state.pushes += 1
    state.sum_pushed_degree += di
    return t - xi


def _settle_pair(member_x, c, wab, q, xa0, xb0, tol, state=None):
    """Joint root of the gadget pair via safeguarded Newton on x_a alone.

    Any candidate x_a pins the core level y = above(x_a) through the a-side
    equation, and the gap follows in closed form G = (y/w_ab)^(1/q), so the
    pair is (x_a, x_a - G) with the a-residual zero by construction. The
    remaining b-side defect D(x_a) = below(x_a - G) - y is strictly
    increasing in x_a (above falls, the gap shrinks, so x_a - G rises) and
    changes sign on [x_min, x_max], giving a guaranteed bracket. Newton
    starts at xa0 when it lies inside and uses the slope
    D' = c*q*sum(x_b - x_v)^(q-1) * (1 - G') - y', G' = G*y'/(q*y), summed
    in the same two member passes as D. Each evaluation shrinks the bracket
    by the sign of D; a step that leaves the bracket, that is not at most half
    the step before, or that has D' <= 0 becomes a bisection step. At most
    80 evaluations are made. The iteration stops on the residual, not on a
    coordinate tolerance: fractional powers turn coordinate error beside a
    member value into first-order residual error ((1e-15)^q is ~1e-6 for
    q=0.4).

    The pair's residuals come from the last evaluation's member sums. When
    they miss the bound of `_settle_bound`, x_a is kept and x_b alone is
    bisected on the b-side equation, at most 80 more evaluations: with x_a
    pinned against one member value, the composed x_b = x_a - G can sit
    within 1e-12 of another, where the q-power turns its rounding into
    residual error that no x_a can remove. Evaluations of both stages are
    added to state.root_evals when state is given.
    """
    xs = sorted(xv for _, xv in member_x)
    xmin = xs[0]
    xmax = xs[-1]
    if xmax <= xmin:
        return max(xmax, xa0), max(xmax, xb0)
    settle = 0.01 * tol
    inv_q = 1.0 / q
    lo, hi = xmin, xmax
    t = xa0 if xmin < xa0 < xmax else 0.5 * (xmin + xmax)
    last_step = xmax - xmin
    evals = 0
    while True:
        evals += 1
        acc = slope_a = 0.0
        for xv in reversed(xs):
            if xv <= t:
                break
            d = xv - t
            g = d ** q
            acc += g
            slope_a += g / d
        y = c * acc
        gap = (y / wab) ** inv_q
        xb = t - gap
        acc = slope_b = 0.0
        for xv in xs:
            if xv >= xb:
                break
            d = xb - xv
            g = d ** q
            acc += g
            slope_b += g / d
        defect = c * acc - y
        if abs(defect) <= settle or evals == _BISECT_ITERS:
            break
        if defect > 0.0:
            hi = t
        else:
            lo = t
        dy = -c * q * slope_a
        dgap = gap * dy / (q * y) if y > 0.0 else 0.0
        slope = c * q * slope_b * (1.0 - dgap) - dy
        step = defect / slope if slope > 0.0 else math.inf
        # Newton only inside the bracket and only while each step is at most
        # half the one before; otherwise bisect (a Newton 2-cycle otherwise
        # shrinks the bracket by rounding dust per step).
        if lo < t - step < hi and abs(step) <= 0.5 * last_step:
            t -= step
        else:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            step = t - mid
            t = mid
        last_step = abs(step)
    xa = max(t, xa0)
    if xa == t and xb >= xb0:
        core = wab * (t - xb) ** q
        ra, rb = y - core, core - c * acc
    else:
        xb = max(xb, xb0)
        ra, rb = _pair_residuals(member_x, c, wab, q, xa, xb)
    err = max(abs(ra), abs(rb))
    if err > 10 * tol and err > _settle_bound(tol, wab, c, q, max(xmax, xa)):
        # Keep x_a and bisect x_b alone on f(u) = w_ab*(x_a - u)^q - below(u),
        # strictly decreasing on [x_min, x_a]; f(xb) = rb picks the side of
        # xb the root is on. Keep the evaluated point of smallest |f|.
        lo, hi = (xb, xa) if rb > 0.0 else (xmin, xb)
        best = abs(rb)
        for _ in range(_BISECT_ITERS):
            u = 0.5 * (lo + hi)
            if not lo < u < hi:
                break
            evals += 1
            f = wab * (xa - u) ** q
            for xv in xs:
                if xv >= u:
                    break
                f -= c * (u - xv) ** q
            if abs(f) < best:
                best, xb = abs(f), u
                if best <= settle:
                    break
            if f > 0.0:
                lo = u
            else:
                hi = u
        xb = max(xb, xb0)
    if state is not None:
        state.root_evals += evals
    return xa, xb


def _settle_bound(tol, wab, c, q, xtop):
    """The residual a settled pair may carry: 10*tol of solver slack plus a
    floor. When the root sits within one ulp of a member value, the nearest
    representable pair still carries up to (w_ab + c) * ulp^q of residual
    (the q-power jumps that much across a single float step)."""
    return 10 * tol + 2 * (wab + c) * math.ulp(xtop) ** q


def _pair_residuals(member_x, c, wab, q, xa, xb):
    """(r_a, r_b) of a gadget pair at (xa, xb), x_a >= x_b, in one pass."""
    ra = -wab * (xa - xb) ** q if xa > xb else 0.0
    rb = -ra
    for _, xv in member_x:
        if xv > xa:
            ra += c * (xv - xa) ** q
        if xb > xv:
            rb -= c * (xb - xv) ** q
    return ra, rb


def pnorm_auxpush(h: Hypergraph, state, cfg: DiffusionConfig, j: int, i: int, dxi: float):
    """Drive gadget j's p-power residuals to ~zero via the pair root-find
    after node i was raised by dxi.

    Same contract as one gadget of the quadratic settle: returns nonnegative
    increments (Delta x_a, Delta x_b), bumps member residuals by the induced
    nonnegative amounts, and enqueues members pushed above the violation
    threshold. The settled pair's residuals are recomputed once; a pair that
    misses the bound of `_settle_bound` raises RuntimeError rather than
    being stored.
    """
    x = state.x
    a, b = aux_ids(h, j)
    c = h.c_of[j]
    wab = h.wab_of[j]
    q = cfg.p - 1.0
    members = h.members_of[j]
    state.touched_gadgets.add(j)
    xa0 = x.get(a, 0.0)
    xb0 = x.get(b, 0.0)
    xi_new = x.get(i, 0.0)
    if xi_new <= xa0 and xb0 <= xi_new - dxi:
        return 0.0, 0.0

    xa, xb = xa0, xb0
    member_x = [(v, x.get(v, 0.0)) for v in members]
    tol = 1e-9 * (1.0 + wab + c * len(members))
    ra, rb = _pair_residuals(member_x, c, wab, q, xa, xb)
    if ra > tol or rb > tol:
        xa, xb = _settle_pair(member_x, c, wab, q, xa0, xb0, tol, state)
        ra, rb = _pair_residuals(member_x, c, wab, q, xa, xb)
        err = max(abs(ra), abs(rb))
        if err > 10 * tol:
            xmax = max(xv for _, xv in member_x)
            if err > _settle_bound(tol, wab, c, q, max(xmax, xa)):
                raise RuntimeError(
                    f"p-norm auxpush on gadget {j} did not settle "
                    f"(residual {err:.3g})")

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
                bump += c * ((xv - xa0) ** q - _gap(xv - xa, q))
            if xb > xv:
                bump += c * ((xb - xv) ** q - _gap(xb0 - xv, q))
            if bump > 0.0:
                rv = state.r.get(v, 0.0) + bump / gamma
                state.r[v] = rv
                if v not in state.in_queue and rv > cfg.kappa * h.degree_of[v] * thresh:
                    state.queue.append(v)
                    state.in_queue.add(v)
    state.aux_pushes += 1
    return da_total, db_total


def _settle(h, state, cfg, i, dxi, adjacent, on_event):
    """The settle kernel of _drive: pnorm_auxpush on each gadget incident to i."""
    for j in h.incident_gadgets[i]:
        da, db = pnorm_auxpush(h, state, cfg, j, i, dxi)
        if on_event is not None:
            on_event("auxpush", {"gadget": j, "node": i, "da": da, "db": db})


def pnorm_solve(h: Hypergraph, seeds, cfg: DiffusionConfig, on_event=None) -> SolveResult:
    """Run the p-norm diffusion to convergence (or to cfg.max_pushes).

    p = 2 runs quadratic.solve. The general kernels also run at p = 2 when
    handed to _drive directly, which the cross-solver agreement checks do;
    both kernel sets share _drive's queue policy.
    """
    if cfg.p == 2.0:
        return solve(h, seeds, cfg, on_event)
    return _drive(h, seeds, cfg, _scan, _push, _settle, on_event)
