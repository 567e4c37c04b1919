"""Tests for the p-norm solver: residual recomputation, the p=2 crossover,
the bracketed root-finders of the push and the gadget settle (against
reference plain bisections), and the push machinery on stiff gadgets."""
import math
import random

import numpy as np
import pytest

import hyperlocal.pnorm as pnorm_mod
from helpers import (
    bisection_push,
    bisection_settle_pair,
    delta_max,
    fresh_residuals,
    random_instance,
    random_seeds,
)
from hyperlocal.hypergraph import Hypergraph, parse_hypergraph
from hyperlocal.oracles import kkt_check, replay_pushes
from hyperlocal.pnorm import (
    _PUSH_TOL,
    _push,
    _residual_at,
    _scan,
    _settle_pair,
    pnorm_solve,
    settle,
)
from hyperlocal.quadratic import (
    DiffusionConfig,
    DiffusionState,
    _drive,
    _scan_node,
    ledger_bound,
    solve,
)
from hyperlocal.synth import planted_hypergraph, sample_seeds

TRIANGLE = parse_hypergraph("3 1\n1 2 3\n")
EDGE = Hypergraph(2, [(0, 1)])


def cfg(**kw):
    kw.setdefault("kappa", 0.1)
    kw.setdefault("p", 1.4)
    return DiffusionConfig(**kw)


def state_with(h, seeds, x=None):
    s = DiffusionState(seeds=frozenset(seeds))
    s.seed_volume = float(sum(h.degrees[v] for v in seeds))
    if x:
        s.x.update(x)
    return s


# ---------------------------------------------------------------------------
# Residual recomputation


def test_residual_power_two_equals_quadratic():
    c2 = cfg(p=2.0)
    st0 = state_with(H := parse_hypergraph("4 2\n1 2 3\n2 3 4\n"), [1],
                     {0: 0.3, 1: 0.7, 4: 0.25, 5: 0.1, 6: 0.05})
    for v in range(H.num_nodes):
        assert _scan(H, st0, c2, v)[0] == _scan_node(H, st0, c2, v)[0]


def test_residual_at_zero_is_degree():
    st0 = state_with(TRIANGLE, [0])
    assert fresh_residuals(TRIANGLE, st0, cfg())[0][0] == 1.0


def test_residual_isolated_seed_half_mass():
    # No gadget flow (x_a ties x_i from above, x_b sits below): only the seed
    # term d_i * (1 - x_i)^(p-1) remains.
    st0 = state_with(EDGE, [0], {0: 0.5, 2: 0.5, 3: 0.2})
    r = fresh_residuals(EDGE, st0, cfg(p=1.4))[0][0]
    assert r == pytest.approx(0.5 ** 0.4, abs=1e-15)
    assert r == pytest.approx(0.7578582832551991, abs=1e-12)


def test_residual_seed_term_sign_flips_above_indicator():
    # A non-seed with positive x owes mass back: -d_i * x_i^(p-1).
    st0 = state_with(EDGE, [1], {0: 0.5, 2: 0.5, 3: 0.2})
    r = fresh_residuals(EDGE, st0, cfg(p=1.4))[0][0]
    assert r == pytest.approx(-(0.5 ** 0.4), abs=1e-14)


# ---------------------------------------------------------------------------
# Solve: routing, frozen regression, postconditions


def test_power_two_routes_to_closed_form():
    h = random_instance(31, max_n=10, max_m=14, max_size=4)
    seeds = random_seeds(h, 31)
    c = cfg(kappa=0.1, p=2.0)
    a = pnorm_solve(h, seeds, c)
    b = solve(h, seeds, c)
    assert a.x == b.x
    assert a.pushes == b.pushes


@pytest.mark.parametrize("seed", [5, 41])
def test_general_kernel_agrees_with_closed_form_at_p_two(seed):
    h = random_instance(seed, max_n=10, max_m=12, max_size=4)
    seeds = random_seeds(h, seed)
    c = cfg(kappa=0.1, p=2.0)
    gen = _drive(h, seeds, c, _scan, _push, settle)
    closed = solve(h, seeds, c)
    tol = 1e-4
    keys = set(gen.x) | set(closed.x)
    for k in keys:
        assert gen.x.get(k, 0.0) == pytest.approx(closed.x.get(k, 0.0), abs=tol)


def test_solve_kappa_one_zero_vector():
    res = pnorm_solve(TRIANGLE, [0], cfg(kappa=1.0))
    assert res.x == {}


def test_triangle_regression_and_kkt():
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5, p=1.4)
    events = []
    res = pnorm_solve(TRIANGLE, [0], c, on_event=lambda k, p: events.append((k, dict(p))))
    assert res.converged
    pinned = (0.0759499443292889, 0.07106648126419735, 0.07112226277820702)
    replayed = replay_pushes(TRIANGLE, [0], c, events)
    for v, want in enumerate(pinned):
        assert res.x[v] == pytest.approx(want, abs=1e-9)
        assert res.x[v] == pytest.approx(replayed[v], abs=1e-9)
    rep = kkt_check(TRIANGLE, [0], c, res.state.x)
    assert rep.max_neg_residual <= 1e-6
    assert rep.max_excess_residual <= 1e-6
    assert rep.max_aux_residual <= 1e-7
    assert rep.max_box_violation <= 1e-12


def test_solve_push_cap_carries_partial_state():
    res = pnorm_solve(TRIANGLE, [0], cfg(kappa=0.01, p=1.4, max_pushes=3))
    assert not res.converged
    assert res.pushes == 3
    assert len(res.state.queue) > 0


@pytest.mark.parametrize("seed", [9, 27])
def test_solve_postconditions_random(seed):
    h = random_instance(seed, max_n=12, max_m=14, max_size=5)
    seeds = random_seeds(h, seed)
    c = cfg(kappa=0.1, p=1.5)
    moves = []
    res = pnorm_solve(h, seeds, c,
                      on_event=lambda k, p: moves.append(min(p.values())
                                                         if k == "auxpush" else p["dx"]))
    assert res.converged
    st1 = res.state
    g_node, aux = fresh_residuals(h, st1, c)
    for v in range(h.num_nodes):
        g = g_node[v]
        assert g >= -1e-6
        assert g <= c.kappa * h.degrees[v] + 1e-6
    for j in st1.touched_gadgets:
        ra, rb = aux[j]
        assert abs(ra) <= 1e-6 and abs(rb) <= 1e-6
    for k, v in st1.x.items():
        assert -1e-12 <= v <= 1 + 1e-12
    for j in range(h.num_gadgets):
        a = h.num_nodes + 2 * j
        assert st1.x.get(a, 0.0) >= st1.x.get(a + 1, 0.0) - 1e-12
    assert res.sum_pushed_degree <= ledger_bound(c, res.seed_volume, delta_max(h))


@pytest.mark.parametrize("p", [1.01, 1.05])
def test_small_p_hyperedge_raises(p):
    """Near p = 1 the residual jumps by more than kappa*d_i across one float
    step of x_i, so no push lands in [0, kappa*d_i]: the solve raises rather
    than report a negative residual as converged (node 0 once ended at
    -7.24 with converged=True at p = 1.01)."""
    with pytest.raises(RuntimeError, match="p-norm push on node"):
        pnorm_solve(TRIANGLE, [0], cfg(kappa=0.01, p=p))


def test_planted_fixture_meets_kkt_at_small_kappa():
    """Acceptance check 7's fixture 1000 with its two seeds at p = 1.4 and
    kappa = 0.0025: no node residual is negative beyond kkt_check's 1e-6.
    A push that stopped on a width in x left node 373 at -0.0156."""
    h, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05, 1000, delta=1.0)
    seeds = sample_seeds(labels, 0, 2, "degree_proportional", 12345, degrees=h.degrees)
    c = cfg(kappa=0.0025, gamma=0.1, rho=0.5, p=1.4)
    res = pnorm_solve(h, seeds, c)
    assert res.converged
    rep = kkt_check(h, seeds, c, res.state.x)
    assert rep.max_neg_residual <= 1e-6
    assert rep.max_excess_residual <= 1e-6


@pytest.mark.parametrize("p", [2.0, 1.4])
def test_numpy_scalar_config_keeps_python_floats(p):
    """A kappa summed from h.degrees is a numpy scalar; the config stores
    Python floats, so none reaches the state's values."""
    h = random_instance(9, max_n=12, max_m=14, max_size=5)
    seeds = random_seeds(h, 9)
    c = cfg(kappa=np.float64(0.1), gamma=np.float64(0.1), rho=np.float64(0.5), p=p,
            max_pushes=np.int64(10 ** 6))
    assert type(c.kappa) is float and type(c.p) is float and type(c.max_pushes) is int
    res = pnorm_solve(h, seeds, c)
    assert res.pushes > 0
    assert all(type(v) is float for v in res.state.x.values())
    assert all(type(v) is float for v in res.state.r.values())


def test_mass_identity_generalizes():
    c = cfg(kappa=0.1, p=1.4)
    res = pnorm_solve(TRIANGLE, [0], c)
    st1 = res.state
    q = c.p - 1.0
    total = sum(fresh_residuals(TRIANGLE, st1, c)[0])
    expect = 1.0 * (1.0 - st1.x.get(0, 0.0)) ** q
    expect -= sum(1.0 * st1.x.get(v, 0.0) ** q for v in (1, 2))
    assert total == pytest.approx(expect, abs=1e-6)


def test_pnorm_ledger_bound_exceeds_quadratic_scale():
    # Sanity on the exponent: for p < 2 the bound blows up as kappa shrinks
    # much faster than the quadratic one.
    b14 = ledger_bound(cfg(kappa=0.001, p=1.4), 1.0, 1.0)
    b20 = ledger_bound(cfg(kappa=0.001, p=2.0), 1.0, 1.0)
    assert b14 > b20 > 0


def test_pnorm_ledger_bound_out_of_float_range_is_inf():
    # At p = 1.01 the 100th power of gk*(1 - rho) = 5e-4 underflows to 0,
    # and that of gk + delta_max overflows once delta_max is 1e4.
    c = cfg(kappa=0.01, p=1.01)
    assert ledger_bound(c, 1.0, 1.0) == math.inf
    assert ledger_bound(c, 1.0, 1e4) == math.inf


# ---------------------------------------------------------------------------
# Auxiliary settling


def settle_node(h, state, c, i, dxi):
    """settle on i's gadgets after x_i rose by dxi, handed the scan a push
    would hand it; returns the (da, db) of each "auxpush" event."""
    moves = []
    settle(h, state, c, i, dxi, _scan(h, state, c, i)[1],
           lambda kind, p: moves.append((p["da"], p["db"])))
    return moves


def test_auxpush_restores_zero_residuals():
    c = cfg(p=1.4)
    st0 = state_with(EDGE, [0], {0: 0.11})
    [(da, db)] = settle_node(EDGE, st0, c, 0, 0.11)
    assert da > 0 and db > 0
    assert st0.aux_pushes == 1
    ra, rb = fresh_residuals(EDGE, st0, c)[1][0]
    scale = 1e-9 * (1.0 + 1.0 + 1.0 * 2)
    assert abs(ra) <= 10 * scale and abs(rb) <= 10 * scale
    assert st0.x[2] >= st0.x[3]


def test_auxpush_trivial_exit():
    c = cfg(p=1.4)
    st0 = state_with(EDGE, [0], {0: 0.5, 2: 0.6})
    assert settle_node(EDGE, st0, c, 0, 0.2) == [(0.0, 0.0)]
    assert st0.aux_pushes == 0
    assert st0.touched_gadgets == {0}


def test_auxpush_survives_tiny_gap():
    # Near-degenerate optimum: members almost tied pushes the optimal pair
    # gap toward zero, where the q-1 < 0 power makes the coupling between
    # the two coordinates arbitrarily stiff; the push must still settle.
    c = cfg(p=1.36)
    st0 = state_with(EDGE, [0], {0: 1e-9})
    settle_node(EDGE, st0, c, 0, 1e-9)
    ra, rb = fresh_residuals(EDGE, st0, c)[1][0]
    assert abs(ra) <= 1e-7 and abs(rb) <= 1e-7


def test_settle_pair_direct():
    # The pair solver alone, against residual recomputation at its output.
    member_x = [0.8, 0.2, 0.500001]
    q = 0.4
    xa, xb = _settle_pair(member_x, 1.0, 1.5, q, 0.0, 0.0, 1e-10)
    assert xa >= xb >= 0.0
    ra = -1.5 * (xa - xb) ** q if xa > xb else 0.0
    rb = -ra
    for xv in member_x:
        if xv > xa:
            ra += (xv - xa) ** q
        if xb > xv:
            rb -= (xb - xv) ** q
    assert abs(ra) <= 1e-7 and abs(rb) <= 1e-7


def test_member_bumps_match_recomputation():
    # After a settle, incrementally bumped member residuals must equal the
    # fresh recomputation (the drive loop relies on this to enqueue).
    h = parse_hypergraph("3 1\n1 2 3\n")
    c = cfg(p=1.4)
    st0 = state_with(h, [0], {0: 0.2, 1: 0.05})
    st0.r[1], st0.r[2] = fresh_residuals(h, st0, c)[0][1:]
    settle_node(h, st0, c, 0, 0.2)
    g = fresh_residuals(h, st0, c)[0]
    assert st0.r[1] == pytest.approx(g[1], abs=1e-7)
    assert st0.r[2] == pytest.approx(g[2], abs=1e-7)


# ---------------------------------------------------------------------------
# Root-finders against the reference bisections (tests/helpers.py)


def _push_case(rng, p):
    """(cfg, x_i, is_seed, r_i, d_i, adjacent) of a push whose residual r_i at
    x_i is above kappa*d_i. Auxiliary values tie x_i, each other or a dyadic
    point of [x_i, 1], and the crossing of the target can sit on such a
    point."""
    while True:
        xi = rng.uniform(1e-6, 0.6) if rng.random() < 0.7 else 10 ** -rng.uniform(1, 9)
        grid = [xi + (1.0 - xi) * k / 2 ** m for m in (1, 2, 3, 20) for k in range(1, 2 ** min(m, 3))]
        adjacent = []
        for _ in range(rng.randint(1, 6)):
            c = rng.choice([1.0, 0.5, 2.0, rng.uniform(0.1, 3.0)])
            xb = rng.uniform(0.0, 1.0)
            xa = rng.uniform(xb, 1.0)
            roll = rng.random()
            if roll < 0.3:
                xa, xb = (xi, min(xb, xi)) if rng.random() < 0.5 else (max(xa, xi), xi)
            elif roll < 0.45:
                xa = xb
            elif roll < 0.65:
                xb = rng.choice(grid)
                xa = max(xa, xb)
            adjacent.append((c, xa, xb))
        seed = rng.random() < 0.5
        ind = 1.0 if seed else 0.0
        di = sum(c for c, _, _ in adjacent)
        gamma = rng.choice([0.1, 1.0])
        probe = DiffusionConfig(kappa=0.5, gamma=gamma, p=p)
        ri = _residual_at(probe, adjacent, ind, di, xi)
        if ri <= 0.0:
            continue
        kappa = ri / di * rng.uniform(0.05, 0.9)
        if rng.random() < 0.3:
            # Put the crossing on a dyadic point: target = rho*kappa*d_i is
            # f there up to rounding.
            f_grid = _residual_at(probe, adjacent, ind, di, rng.choice(grid))
            if 0.0 < f_grid < probe.rho * ri:
                kappa = f_grid / (probe.rho * di)
        return DiffusionConfig(kappa=kappa, gamma=gamma, p=p), xi, seed, ri, di, adjacent


@pytest.mark.parametrize("p", [1.3, 1.4, 1.5, 1.7, 2.0])
@pytest.mark.parametrize("stream", ["1e-08", "0.0001", "0.5"])
def test_push_matches_bisection_reference(p, stream):
    """20 lists per (p, rng stream), 300 in all. A push raises RuntimeError
    exactly when the reference bisection with the same stop does. Otherwise
    it moves x_i within [x_i, 1] and stores the fresh residual there, inside
    [0, kappa*d_i] and within tau*kappa*d_i of its target, so within
    2*tau*kappa*d_i of the reference's. Outside the band the bracket has
    collapsed: the neighbouring float lies across the target and is no
    nearer to it, and the reference keeps the same float."""
    rng = random.Random(f"push/{p}/{stream}")
    ties = landed = 0
    for _ in range(20):
        c, xi, seed, ri, di, adjacent = _push_case(rng, p)
        ties += any(xi in (xa, xb) or xa == xb for _, xa, xb in adjacent)
        st, ref = (state_with(EDGE, [0] if seed else [], {0: xi}) for _ in range(2))
        try:
            dx = _push(None, st, c, 0, ri, di, adjacent, None)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                bisection_push(None, ref, c, 0, ri, di, adjacent, None)
            continue
        bisection_push(None, ref, c, 0, ri, di, adjacent, None)
        landed += 1
        ind = 1.0 if seed else 0.0
        x, r = st.x[0], st.r[0]
        kd = c.kappa * di
        target = c.rho * kd
        assert xi <= x <= 1.0 and dx == x - xi
        assert r == _residual_at(c, adjacent, ind, di, x)
        assert 0.0 <= r <= kd, (xi, adjacent)
        if abs(r - target) > _PUSH_TOL * kd:
            other = math.nextafter(x, 1.0 if r > target else 0.0)
            r_other = _residual_at(c, adjacent, ind, di, other)
            assert (r_other <= target) if r > target else (r_other > target)
            assert abs(r - target) <= abs(r_other - target), (xi, adjacent)
            assert (ref.x[0], ref.r[0]) == (x, r), (xi, adjacent)
        else:
            assert abs(ref.r[0] - r) <= 2 * _PUSH_TOL * kd, (xi, adjacent)
        assert st.root_evals >= 1
    assert ties > 0
    assert landed == 20  # all 300 land today


def test_push_takes_nearer_float_when_band_is_empty():
    """A gadget with x_a = x_b = 1/2 gives the seed's p = 1.4 residual an
    infinite slope there: it falls by 4.2e-6 across the one float step above
    1/2, far more than the 1.5e-9 band. With the target 1e-6 inside that
    step, from either end, the push keeps the end nearer the target."""
    adjacent = [(1.0, 0.5, 0.5)]
    probe = cfg(kappa=1.0)
    up = math.nextafter(0.5, 1.0)
    f_half, f_up = (_residual_at(probe, adjacent, 1.0, 1.0, t) for t in (0.5, up))
    for target, want in ((f_half - 1e-6, 0.5), (f_up + 1e-6, up)):
        c = cfg(kappa=target / 0.5)
        st = state_with(EDGE, [0], {0: 0.0})
        _push(None, st, c, 0, _residual_at(c, adjacent, 1.0, 1.0, 0.0), 1.0, adjacent, None)
        assert st.x[0] == want
        assert abs(st.r[0] - target) == pytest.approx(1e-6, rel=1e-6)


def _members(rng):
    """2-7 member values in [0, 1], with exact ties, zeros and near-ties
    1e-12..1e-6 apart."""
    scale = 1.0 if rng.random() < 0.5 else 10 ** -rng.uniform(2, 7)
    xs = []
    for _ in range(rng.randint(2, 7)):
        roll = rng.random()
        if xs and roll < 0.35:
            xs.append(min(1.0, rng.choice(xs) + rng.choice([0.0, 1e-12, 1e-10, 1e-8, 1e-6])))
        elif roll < 0.45:
            xs.append(0.0)
        else:
            xs.append(scale * rng.random())
    return xs


def _pair_error(xs, c, wab, q, xa, xb):
    ra = -wab * (xa - xb) ** q if xa > xb else 0.0
    rb = -ra
    for xv in xs:
        if xv > xa:
            ra += c * (xv - xa) ** q
        if xb > xv:
            rb -= c * (xb - xv) ** q
    return max(abs(ra), abs(rb))


@pytest.mark.parametrize("q", [0.3, 0.4, 0.6, 1.0])
def test_settle_pair_meets_auxpush_bound(q):
    """On 80 member sets per q (320 in all) the Newton settle, like the
    reference bisection, meets the residual bound 10*tol + 2*floor that
    settle checks before it stores the pair. The start
    is the previous root with one member lowered, as after a push, or
    (0, 0) for a fresh gadget. Then 50 near-lattice sets per q, members
    k*s (k = 0..3, s = 6.6e-5) each within 1e-6 relative, w_ab = c = 1,
    from (0, 0): before the reference bisected x_b alone, its composed x_b
    missed the bound on such sets at q = 0.3 and 0.4."""
    rng = random.Random(f"settle/{q}")
    near_ties = 0
    cases = []
    for _ in range(80):
        xs = _members(rng)
        c = rng.choice([1.0, 0.5, 2.0])
        wab = c * rng.choice([1.0, 2.0, 3.0, rng.uniform(1.0, 4.0)])
        tol = 1e-9 * (1.0 + wab + c * len(xs))
        xa0 = xb0 = 0.0
        if rng.random() < 0.75:
            before = list(xs)
            k = rng.randrange(len(xs))
            before[k] *= rng.random()
            xa0, xb0 = bisection_settle_pair(list(enumerate(before)), c, wab, q, 0.0, 0.0, tol)
        near_ties += any(0.0 < abs(u - v) <= 1e-10 for u in xs for v in xs)
        cases.append((xs, c, wab, tol, xa0, xb0))
    for _ in range(50):
        xs = [k * 6.6e-5 * (1.0 + rng.uniform(-1e-6, 1e-6)) for k in range(4)]
        cases.append((xs, 1.0, 1.0, 6e-9, 0.0, 0.0))
    for xs, c, wab, tol, xa0, xb0 in cases:
        # The reference takes (id, value) pairs, _settle_pair the values.
        for settle, member_x in ((_settle_pair, xs), (bisection_settle_pair, list(enumerate(xs)))):
            xa, xb = settle(member_x, c, wab, q, xa0, xb0, tol)
            assert xa >= xb >= xb0 and xa >= xa0
            floor = (wab + c) * math.ulp(max(max(xs), xa)) ** q
            err = _pair_error(xs, c, wab, q, xa, xb)
            assert err <= 10 * tol + 2 * floor, (settle.__name__, xs, c, wab, xa0, xb0)
    assert near_ties > 0


def test_settle_pair_escapes_newton_cycle():
    # From a p = 1.4 planted run: plain Newton from xa0 bounces between two
    # points with defects of about -0.0087 and 0.0166 while the bracket
    # shrinks by ~1e-14 per step. Bisecting whenever a step is not at most
    # half the one before breaks the cycle.
    xs = [0.0, 2.980232238769531e-07, 3.978604765699885e-06, 6.526694755047574e-06]
    tol = 6e-09
    q = 1.4 - 1.0
    xa, xb = _settle_pair(xs, 1.0, 1.0, q,
                          3.60271913254819e-06, 6.787435100488048e-07, tol)
    floor = 2.0 * math.ulp(xs[-1]) ** q
    assert _pair_error(xs, 1.0, 1.0, q, xa, xb) <= 10 * tol + 2 * floor


# Settles whose Newton pair missed the auxpush bound, logged as
# (member values, c, wab, q, tol, xa0, xb0) from p = 1.4 solves: four from the
# planted-pnorm benchmark (seeds 0-2), five from acceptance check 2. In
# each, Newton's x_a sits within 2e-15 of a member value, its a-residual is
# below 4e-16, and the composed x_b = x_a - G leaves a b-residual of 3.5e-7
# to 2.0e-5 against bounds of 6.9e-8 to 3.0e-7.
MISSED_SETTLES = [
    ([2.101062081705811e-06, 2.0116567611694336e-07,
      8.717177429895528e-07, 3.7401862316742873e-06,
      1.4156103134155273e-07, 4.6193594455123943e-07],
     1.0, 1.0, 0.3999999999999999, 8e-09,
     2.1005864453005236e-06, 2.987606302173801e-07),
    ([2.1830185410468963e-06, 3.129243850708008e-07,
      3.3900099278306626e-06, 2.36183219481982e-06,
      1.3336534822050439e-06],
     1.0, 1.0, 0.3999999999999999, 7.000000000000001e-09,
     2.3610513056134374e-06, 1.180525653066495e-06),
    ([5.6624404720651e-07, 2.086162567138672e-07,
      1.2814993477495219e-06, 9.238717153526028e-07],
     1.0, 1.0, 0.3999999999999999, 6.000000000000001e-09,
     9.16438968482391e-07, 5.513785892152599e-07),
    ([3.7997961044311523e-07, 7.599592208862305e-07, 0.0,
      1.1399385887456148e-06],
     1.0, 1.0, 0.3999999999999999, 6.000000000000001e-09,
     5.066394805904387e-07, 2.533197402946469e-07),
    ([0.006112183523889651, 0.0061140204390734785,
      0.006115856162751023, 0.0061103685339016205],
     1.0, 1.0, 0.3999999999999999, 6.000000000000001e-09,
     0.006114011668820915, 0.006111575481052503),
    ([0.006279886281267662, 0.006281959773524925,
      0.006284032145858565, 0.006277827225945824],
     1.0, 1.0, 0.3999999999999999, 6.000000000000001e-09,
     0.006281873013919162, 0.006279850119932552),
    ([0.000317821340546402, 0.0003178883692555941,
      0.00031843954319846077, 0.0003169722347410816,
      0.0003174563744940275, 0.0003175755476737349,
      0.00031766492270154326, 0.0003179479623928585],
     1.0, 1.0, 0.3999999999999999, 1e-08,
     0.0003179194897018252, 0.0003174458622214656),
    ([0.0005707100824126666, 0.0005675081621527942,
      0.0005671954159693036, 0.0005680294482263135,
      0.0005691761714387262, 0.0005676421940353889],
     1.0, 1.0, 0.3999999999999999, 8e-09,
     0.0005683603172345818, 0.0005675444630304374),
    ([0.0006625664033462566, 0.0006522687937856491,
      0.0006628789716863171, 0.0006598261814518112,
      0.0006523581277419725, 0.0006516656629152239,
      0.000654107838381373, 0.0006612111035877126],
     1.0, 1.0, 0.3999999999999999, 1e-08,
     0.0006612110635940519, 0.0006525292128982396),
]


@pytest.mark.parametrize("case", MISSED_SETTLES)
def test_settle_pair_meets_bound_where_newton_missed(case):
    """_settle_pair alone meets the auxpush bound on settles whose Newton
    pair missed it; the x_b stage's evaluations are counted."""
    xs, c, wab, q, tol, xa0, xb0 = case
    st = DiffusionState()
    xa, xb = _settle_pair(xs, c, wab, q, xa0, xb0, tol, st)
    assert xa >= xb >= xb0 and xa >= xa0
    floor = (wab + c) * math.ulp(max(max(xs), xa)) ** q
    assert _pair_error(xs, c, wab, q, xa, xb) <= 10 * tol + 2 * floor
    assert st.root_evals > 0


def _clustered_members(rng, lattice):
    """2-8 member values at a scale in [1e-7, 1e-2]: all within 1e-6
    relative of one base value or, with lattice set, k*s for k = 0, 1, ...
    with each spacing within 1e-6 relative of s. The lattice pins the joint
    root of a gadget with w_ab = c on two member values at once."""
    s = 10 ** -rng.uniform(2, 7)
    n = rng.randint(2, 8)
    if lattice:
        return [k * s * (1.0 + rng.choice([0.0, rng.uniform(-1e-6, 1e-6)]))
                for k in range(n)]
    return [s * (1.0 + rng.uniform(-1e-6, 1e-6)) for _ in range(n)]


@pytest.mark.parametrize("q", [0.3, 0.4, 0.6])
def test_settle_pair_meets_bound_on_clustered_members(q):
    """Seeded search, 300 member sets per (q, family), 1800 in all: no
    settle misses the auxpush bound. Without the x_b stage the Newton pair
    misses on 7 of the lattice sets and on none of the clustered ones. The start is the settled root of the set with one
    member lowered, as in a solve, or (0, 0). (A start pair whose x_b sits
    above the root leaves no pair at or above it within the bound.)"""
    for lattice in (False, True):
        rng = random.Random(f"clustered/{q}/{lattice}")
        for _ in range(300):
            xs = _clustered_members(rng, lattice)
            c = rng.choice([1.0, 0.5, 2.0])
            wab = c * rng.choice([1.0, 2.0, 3.0])
            tol = 1e-9 * (1.0 + wab + c * len(xs))
            xa0 = xb0 = 0.0
            if rng.random() < 0.75:
                before = list(xs)
                before[rng.randrange(len(xs))] *= rng.random()
                xa0, xb0 = _settle_pair(before, c, wab, q, 0.0, 0.0, tol)
            xa, xb = _settle_pair(xs, c, wab, q, xa0, xb0, tol)
            assert xa >= xb >= xb0 and xa >= xa0
            floor = (wab + c) * math.ulp(max(max(xs), xa)) ** q
            err = _pair_error(xs, c, wab, q, xa, xb)
            assert err <= 10 * tol + 2 * floor, (xs, c, wab, xa0, xb0)


def test_unsettled_pair_raises(monkeypatch):
    """A settle that leaves its pair outside the bound fails loudly: with
    _settle_pair handing back its start pair, the solve raises instead of
    returning a result."""
    monkeypatch.setattr(pnorm_mod, "_settle_pair",
                        lambda member_x, c, wab, q, xa0, xb0, tol, state=None: (xa0, xb0))
    with pytest.raises(RuntimeError, match="gadget 0 did not settle"):
        pnorm_solve(TRIANGLE, [0], cfg(kappa=0.01, p=1.4))


def test_root_find_work_counters(monkeypatch):
    """On planted fixture 1000 at p = 1.4 (kappa = vol(R)/3000, the
    benchmark's setting) a settle takes at most 10 defect evaluations and a
    push at most 16 residual evaluations on average (bisection took about
    31 and 28), and root_evals is exactly their sum."""
    h, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05, 1000, delta=1.0)
    seeds = sample_seeds(labels, 0, 5, "degree_proportional", 1000, degrees=h.degrees)
    c = cfg(kappa=sum(h.degrees[v] for v in seeds) / 3000.0, p=1.4)
    work = {"push": [0, 0], "settle": [0, 0]}

    def counted(name, fn, state_at):
        def wrapper(*args):
            st = args[state_at]
            before = st.root_evals
            out = fn(*args)
            work[name][0] += 1
            work[name][1] += st.root_evals - before
            return out
        return wrapper

    monkeypatch.setattr(pnorm_mod, "_push", counted("push", pnorm_mod._push, 1))
    monkeypatch.setattr(pnorm_mod, "_settle_pair",
                        counted("settle", pnorm_mod._settle_pair, 7))
    res = pnorm_solve(h, seeds, c)
    assert res.converged
    (pushes, push_evals), (settles, settle_evals) = work["push"], work["settle"]
    assert pushes == res.pushes and settles > 0
    assert res.state.root_evals == push_evals + settle_evals
    assert push_evals <= 16 * pushes
    assert settle_evals <= 10 * settles
