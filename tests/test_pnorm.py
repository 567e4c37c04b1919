"""Tests for the p-norm solver: residual recomputation, the p=2 crossover,
and the bisection-based push machinery on stiff gadgets."""
import math

import pytest

from helpers import delta_max, random_instance, random_seeds
from hyperlocal.hypergraph import Hypergraph, parse_hypergraph
from hyperlocal.oracles import kkt_check
from hyperlocal.pnorm import (
    _settle_pair,
    pnorm_aux_residuals,
    pnorm_auxpush,
    pnorm_node_residual,
    pnorm_solve,
)
from hyperlocal.quadratic import (
    DiffusionConfig,
    DiffusionState,
    aux_ids,
    ledger_bound,
    node_residual,
    solve,
)

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
        assert pnorm_node_residual(H, st0, c2, v) == node_residual(H, st0, c2, v)


def test_residual_at_zero_is_degree():
    st0 = state_with(TRIANGLE, [0])
    assert pnorm_node_residual(TRIANGLE, st0, cfg(), 0) == 1.0


def test_residual_isolated_seed_half_mass():
    # No gadget flow (x_a ties x_i from above, x_b sits below): only the seed
    # term d_i * (1 - x_i)^(p-1) remains.
    st0 = state_with(EDGE, [0], {0: 0.5, 2: 0.5, 3: 0.2})
    r = pnorm_node_residual(EDGE, st0, cfg(p=1.4), 0)
    assert r == pytest.approx(0.5 ** 0.4, abs=1e-15)
    assert r == pytest.approx(0.7578582832551991, abs=1e-12)


def test_residual_seed_term_sign_flips_above_indicator():
    # A non-seed with positive x owes mass back: -d_i * x_i^(p-1).
    st0 = state_with(EDGE, [1], {0: 0.5, 2: 0.5, 3: 0.2})
    r = pnorm_node_residual(EDGE, st0, cfg(p=1.4), 0)
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
    gen = pnorm_solve(h, seeds, c, force_general=True)
    closed = solve(h, seeds, c)
    tol = max(10 * c.eps, 1e-4)
    keys = set(gen.x) | set(closed.x)
    for k in keys:
        assert gen.x.get(k, 0.0) == pytest.approx(closed.x.get(k, 0.0), abs=tol)


def test_solve_kappa_one_zero_vector():
    res = pnorm_solve(TRIANGLE, [0], cfg(kappa=1.0))
    assert res.x == {}


def test_triangle_regression_and_kkt():
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5, p=1.4)
    res = pnorm_solve(TRIANGLE, [0], c)
    assert res.converged
    assert res.x[0] == pytest.approx(0.07595059948794577, abs=1e-9)
    assert res.x[1] == pytest.approx(0.07106714249674145, abs=1e-9)
    assert res.x[2] == pytest.approx(0.07112292602155018, abs=1e-9)
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
    for v in range(h.num_nodes):
        g = pnorm_node_residual(h, st1, c, v)
        assert g >= -1e-6
        assert g <= c.kappa * h.degrees[v] + 1e-6
    for j in st1.touched_gadgets:
        ra, rb = pnorm_aux_residuals(h, st1, c, j)
        assert abs(ra) <= 1e-6 and abs(rb) <= 1e-6
    for k, v in st1.x.items():
        assert -1e-12 <= v <= 1 + 1e-12
    for j in range(h.num_gadgets):
        a, b = aux_ids(h, j)
        assert st1.x.get(a, 0.0) >= st1.x.get(b, 0.0) - 1e-12
    assert res.sum_pushed_degree <= ledger_bound(c, res.seed_volume, delta_max(h), p=c.p)


def test_mass_identity_generalizes():
    c = cfg(kappa=0.1, p=1.4)
    res = pnorm_solve(TRIANGLE, [0], c)
    st1 = res.state
    q = c.p - 1.0
    total = sum(pnorm_node_residual(TRIANGLE, st1, c, v) for v in range(3))
    expect = 1.0 * (1.0 - st1.x.get(0, 0.0)) ** q
    expect -= sum(1.0 * st1.x.get(v, 0.0) ** q for v in (1, 2))
    assert total == pytest.approx(expect, abs=1e-6)


def test_pnorm_ledger_bound_exceeds_quadratic_scale():
    # Sanity on the exponent: for p < 2 the bound blows up as kappa shrinks
    # much faster than the quadratic one.
    c_small = cfg(kappa=0.001)
    b14 = ledger_bound(c_small, 1.0, 1.0, p=1.4)
    b20 = ledger_bound(c_small, 1.0, 1.0, p=2.0)
    assert b14 > b20 > 0


# ---------------------------------------------------------------------------
# Auxiliary settling


def test_auxpush_restores_zero_residuals():
    c = cfg(p=1.4)
    st0 = state_with(EDGE, [0], {0: 0.11})
    da, db = pnorm_auxpush(EDGE, st0, c, 0, i=0, dxi=0.11)
    assert da > 0 and db > 0
    ra, rb = pnorm_aux_residuals(EDGE, st0, c, 0)
    scale = 1e-9 * (1.0 + 1.0 + 1.0 * 2)
    assert abs(ra) <= 10 * scale and abs(rb) <= 10 * scale
    assert st0.x[2] >= st0.x[3]


def test_auxpush_trivial_exit():
    c = cfg(p=1.4)
    st0 = state_with(EDGE, [0], {0: 0.5, 2: 0.6})
    assert pnorm_auxpush(EDGE, st0, c, 0, i=0, dxi=0.2) == (0.0, 0.0)


def test_auxpush_survives_tiny_gap():
    # Near-degenerate optimum: members almost tied pushes the optimal pair
    # gap toward zero, where the q-1 < 0 power makes the coupling between
    # the two coordinates arbitrarily stiff; the push must still settle.
    c = cfg(p=1.36)
    st0 = state_with(EDGE, [0], {0: 1e-9})
    pnorm_auxpush(EDGE, st0, c, 0, i=0, dxi=1e-9)
    ra, rb = pnorm_aux_residuals(EDGE, st0, c, 0)
    assert abs(ra) <= 1e-7 and abs(rb) <= 1e-7


def test_settle_pair_direct():
    # The pair solver alone, against residual recomputation at its output.
    member_x = [(0, 0.8), (1, 0.2), (2, 0.500001)]
    q = 0.4
    xa, xb = _settle_pair(member_x, 1.0, 1.5, q, 0.0, 0.0, 1e-10)
    assert xa >= xb >= 0.0
    ra = -1.5 * (xa - xb) ** q if xa > xb else 0.0
    rb = -ra
    for _, xv in member_x:
        if xv > xa:
            ra += (xv - xa) ** q
        if xb > xv:
            rb -= (xb - xv) ** q
    assert abs(ra) <= 1e-7 and abs(rb) <= 1e-7


def test_member_bumps_match_recomputation():
    # After an auxpush, incrementally bumped member residuals must equal the
    # fresh recomputation (the drive loop relies on this to enqueue).
    h = parse_hypergraph("3 1\n1 2 3\n")
    c = cfg(p=1.4)
    st0 = state_with(h, [0], {0: 0.2, 1: 0.05})
    st0.r[1] = pnorm_node_residual(h, st0, c, 1)
    st0.r[2] = pnorm_node_residual(h, st0, c, 2)
    pnorm_auxpush(h, st0, c, 0, i=0, dxi=0.2)
    assert st0.r[1] == pytest.approx(pnorm_node_residual(h, st0, c, 1), abs=1e-7)
    assert st0.r[2] == pytest.approx(pnorm_node_residual(h, st0, c, 2), abs=1e-7)
