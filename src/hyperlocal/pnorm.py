"""Localized p-norm diffusion (1 < p <= 2) over gadget-reduced hypergraphs.

Same push dynamics and queue policy as the quadratic solver, with every flow
term raised to the q = p-1 power. The closed forms are gone, so hyperpushes
become bisection root-finds on [x_i, 1] and auxiliary settles become a single
bisection on x_a (the gap, and hence x_b, follows from the a-side equation in
closed form).

Residual nonnegativity is only guaranteed up to the bisection truncation: if
L is the local Lipschitz (for p < 2: Holder) modulus of the residual in the
pushed coordinate, the stored residual sits within 2*eps*L of the exact
crossing. L is finite whenever the active gaps at the accepted point are
bounded away from zero, which the tests check empirically rather than assume.
"""

from __future__ import annotations

import math

from .hypergraph import Hypergraph
from .quadratic import (
    VIOLATION_GUARD,
    DiffusionConfig,
    SolveResult,
    _apply_hyperpush,
    _drive,
    _scan_node,
    aux_ids,
    auxpush,
)

_BISECT_ITERS = 80


def _gap(z: float, q: float) -> float:
    return z ** q if z > 0.0 else 0.0


def pnorm_node_residual(h: Hypergraph, state, cfg: DiffusionConfig, i: int) -> float:
    """Fresh p-power residual of original node i from the live state."""
    return _scan(h, state, cfg, i)[0]


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


def pnorm_aux_residuals(h: Hypergraph, state, cfg: DiffusionConfig, j: int):
    """Fresh (r_a, r_b) of gadget j with p-power flow terms."""
    x = state.x
    a, b = aux_ids(h, j)
    xa = x.get(a, 0.0)
    xb = x.get(b, 0.0)
    q = cfg.p - 1.0
    c = h.gadget_c[j]
    core = h.gadget_wab[j] * _gap(xa - xb, q)
    ra = -core
    rb = core
    for v in h.gadget_members(j):
        xv = x.get(v, 0.0)
        ra += c * _gap(xv - xa, q)
        rb -= c * _gap(xb - xv, q)
    return ra, rb


def _scan(h, state, cfg, i):
    x = state.x
    xi = x.get(i, 0.0)
    n = h.num_nodes
    adjacent = []
    for j in h.incident_gadgets[i]:
        a = n + 2 * j
        adjacent.append((h.gadget_c[j], x.get(a, 0.0), x.get(a + 1, 0.0)))
    ind = 1.0 if i in state.seeds else 0.0
    ri = _residual_at(cfg, adjacent, ind, h.degrees[i], xi)
    return ri, adjacent, None


def _push(h, state, cfg, i, ri, di, adjacent, caches):
    """Bisect the recomputed residual down to its rho*kappa*d_i target.

    The bracket is [x_i, 1]: the residual is strictly decreasing in the
    coordinate and nonpositive at 1, so the crossing is interior. The stored
    residual is the recomputed value at the accepted point (<= target by the
    bisection invariant), not the target itself.
    """
    xi = state.x.get(i, 0.0)
    ind = 1.0 if i in state.seeds else 0.0
    target = cfg.rho * cfg.kappa * di
    lo, hi = xi, 1.0
    for _ in range(200):
        if hi - lo <= cfg.eps:
            break
        mid = 0.5 * (lo + hi)
        if _residual_at(cfg, adjacent, ind, di, mid) > target:
            lo = mid
        else:
            hi = mid
    xnew = hi
    state.x[i] = xnew
    state.r[i] = _residual_at(cfg, adjacent, ind, di, xnew)
    state.pushes += 1
    state.sum_pushed_degree += di
    return xnew - xi


def _settle_pair(member_x, c, wab, q, xa0, xb0, tol):
    """Joint root of the gadget pair via bisection on x_a alone.

    Any candidate x_a pins the core level y = above(x_a) through the a-side
    equation, and the gap follows in closed form G = (y/w_ab)^(1/q), so the
    pair is (x_a, x_a - G) with the a-residual zero by construction. The
    remaining b-side defect below(x_a - G) - y is strictly increasing in x_a
    (above falls, the gap shrinks, so x_a - G rises) and changes sign on
    [x_min, x_max], giving a guaranteed bracket. The bisection runs to full
    depth instead of stopping at a coordinate tolerance: fractional powers
    turn coordinate error beside a member value into first-order residual
    error ((1e-15)^q is ~1e-6 for q=0.4), so the bracket must shrink to
    sub-ulp width before the composed pair is trustworthy.
    """
    xs = sorted(xv for _, xv in member_x)
    xmin = xs[0]
    xmax = xs[-1]
    if xmax <= xmin:
        return max(xmax, xa0), max(xmax, xb0)
    settle = 0.01 * tol
    inv_q = 1.0 / q

    def pair_at(t):
        acc = 0.0
        for xv in reversed(xs):
            if xv <= t:
                break
            acc += (xv - t) ** q
        y = c * acc
        return t - (y / wab) ** inv_q, y

    lo, hi = xmin, xmax
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        xb_mid, y = pair_at(mid)
        acc = 0.0
        for xv in xs:
            if xv >= xb_mid:
                break
            acc += (xb_mid - xv) ** q
        defect = c * acc - y
        if abs(defect) <= settle:
            lo = hi = mid
            break
        if defect > 0.0:
            hi = mid
        else:
            lo = mid
    xa = 0.5 * (lo + hi)
    xb, _ = pair_at(xa)
    return max(xa, xa0), max(min(xb, xa), xb0)


def _settle_levels(member_x, c, wab, q, tol):
    """Slow-path joint root: bisect the shared flow level y = w_ab*G^q.

    Each coordinate is recovered independently as the inverse of its own
    one-sided member sum at level y. That costs two inner bisections per
    outer step, but it keeps both residuals function-accurate even when the
    root pins x_a and x_b against two different member values at once; the
    composed form quantizes the derived coordinate by (1 + dG/dx_a) ulps,
    which the q-power amplifies past any fixed tolerance in that corner.
    """
    xs = [xv for _, xv in member_x]
    xmax = max(xs)
    xmin = min(xs)
    settle = 0.01 * tol

    def above(t):
        acc = 0.0
        for xv in xs:
            acc += c * _gap(xv - t, q)
        return acc

    def below(u):
        acc = 0.0
        for xv in xs:
            acc += c * _gap(u - xv, q)
        return acc

    def invert(f, lo, hi):
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if abs(fm) <= settle:
                return mid
            if fm > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def inv_a(y):
        lo = xmin - (y / c) ** (1.0 / q) - 1.0
        return invert(lambda t: above(t) - y, lo, xmax)

    def inv_b(y):
        hi = xmax + (y / c) ** (1.0 / q) + 1.0
        return invert(lambda u: y - below(u), xmin, hi)

    lo_y, hi_y = 0.0, above(xmin)
    for _ in range(_BISECT_ITERS):
        y = 0.5 * (lo_y + hi_y)
        if inv_a(y) - inv_b(y) - (y / wab) ** (1.0 / q) > 0.0:
            lo_y = y
        else:
            hi_y = y
    y = 0.5 * (lo_y + hi_y)
    return inv_a(y), inv_b(y)


def pnorm_auxpush(h: Hypergraph, state, cfg: DiffusionConfig, j: int,
                  i: int | None = None, dxi: float | None = None):
    """Drive gadget j's p-power residuals to ~zero via the pair bisection.

    Same contract as the quadratic auxpush: returns nonnegative increments
    (Delta x_a, Delta x_b), bumps member residuals by the induced nonnegative
    amounts, and enqueues members pushed above the violation threshold.
    """
    x = state.x
    a, b = aux_ids(h, j)
    c = h.gadget_c[j]
    wab = h.gadget_wab[j]
    q = cfg.p - 1.0
    members = h.gadget_members(j)
    state.touched_gadgets.add(j)
    xa0 = x.get(a, 0.0)
    xb0 = x.get(b, 0.0)
    if i is not None and dxi is not None:
        xi_new = x.get(i, 0.0)
        if xi_new <= xa0 and xb0 <= xi_new - dxi:
            return 0.0, 0.0

    xa, xb = xa0, xb0
    member_x = [(v, x.get(v, 0.0)) for v in members]
    xmax = max(xv for _, xv in member_x)
    scale = 1.0 + wab + c * len(members)
    tol = 1e-9 * scale

    def r_a(t, u):
        acc = -wab * _gap(t - u, q)
        for _, xv in member_x:
            acc += c * _gap(xv - t, q)
        return acc

    def r_b(t, u):
        acc = wab * _gap(t - u, q)
        for _, xv in member_x:
            acc -= c * _gap(u - xv, q)
        return acc

    if r_a(xa, xb) > tol or r_b(xa, xb) > tol:
        xa, xb = _settle_pair(member_x, c, wab, q, xa0, xb0, tol)
        ra = r_a(xa, xb)
        rb = r_b(xa, xb)
        # When the root sits within one ulp of a member value, the nearest
        # representable pair still carries up to (w_ab + c) * ulp^q of
        # residual (the q-power jumps that much across a single float step),
        # so the sanity check allows that floor on top of the solver slack.
        floor = (wab + c) * math.ulp(max(xmax, xa)) ** q
        if max(abs(ra), abs(rb)) > 10 * tol + 2 * floor:
            xa, xb = _settle_levels(member_x, c, wab, q, tol)
            xa = max(xa, xa0)
            xb = max(min(xb, xa), xb0)
            ra = r_a(xa, xb)
            rb = r_b(xa, xb)
            if max(abs(ra), abs(rb)) > 10 * tol + 2 * floor:
                raise RuntimeError(
                    f"p-norm auxpush on gadget {j} did not settle")

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
                if v not in state.in_queue and rv > cfg.kappa * h.degrees[v] * thresh:
                    state.queue.append(v)
                    state.in_queue.add(v)
    state.aux_pushes += 1
    return da_total, db_total


def pnorm_solve(h: Hypergraph, seeds, cfg: DiffusionConfig, on_event=None,
                force_general: bool = False) -> SolveResult:
    """Run the p-norm diffusion to convergence (or to cfg.max_pushes).

    p = 2 runs the closed-form quadratic kernels unless force_general is set
    (the general kernels at p = 2 exist for cross-solver agreement checks;
    both run the same driver and queue policy).
    """
    if cfg.p == 2.0 and not force_general:
        return _drive(h, seeds, cfg, _scan_node, _apply_hyperpush, auxpush, on_event)
    return _drive(h, seeds, cfg, _scan, _push, pnorm_auxpush, on_event)
