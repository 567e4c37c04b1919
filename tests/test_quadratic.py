"""Tests for the quadratic push solver: frozen micro-examples, invariant
batteries, and the conserved-aggregate accounting behind the push ledger."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    delta_max,
    fresh_residuals,
    random_instance,
    random_seeds,
    reference_auxpush,
    reference_solve,
)
from hyperlocal.hypergraph import GadgetParams, Hypergraph, parse_hypergraph
from hyperlocal.oracles import _residuals_from_vector
from hyperlocal.pnorm import pnorm_solve
from hyperlocal.quadratic import (
    DiffusionConfig,
    DiffusionState,
    VIOLATION_GUARD,
    _apply_hyperpush,
    _scan_node,
    _solve_push_amount,
    init_state,
    ledger_bound,
    settle,
    solve,
)
from hyperlocal.synth import SplitMix64, planted_hypergraph, sample_seeds

H44 = parse_hypergraph("4 2\n1 2 3\n2 3 4\n")
EDGE = Hypergraph(2, [(0, 1)])


def cfg(**kw):
    kw.setdefault("kappa", 0.1)
    return DiffusionConfig(**kw)


def state_with(h, seeds, x=None):
    s = DiffusionState(seeds=frozenset(seeds))
    s.seed_volume = float(sum(h.degrees[v] for v in seeds))
    if x:
        s.x.update(x)
    return s


# ---------------------------------------------------------------------------
# Config validation


@pytest.mark.parametrize("bad", [
    dict(kappa=0.0),
    dict(kappa=-0.1),
    dict(kappa=0.1, gamma=0.0),
    dict(kappa=0.1, gamma=-1.0),
    dict(kappa=0.1, rho=0.0),
    dict(kappa=0.1, rho=1.0),
    dict(kappa=0.1, p=1.0),
    dict(kappa=0.1, p=2.5),
    dict(kappa=0.1, p=math.nan),
    dict(kappa=math.inf),
    dict(kappa=math.nan),
    dict(kappa=0.1, gamma=math.inf),
    dict(kappa=0.1, rho=math.nan),
    dict(kappa=0.1, max_pushes=-1),
    dict(kappa=1e-200, gamma=1e-200),
])
def test_config_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        DiffusionConfig(**bad)


def test_config_defaults():
    c = DiffusionConfig(kappa=0.01)
    assert (c.gamma, c.rho, c.p) == (0.1, 0.5, 2.0)
    assert c.max_pushes is None


# ---------------------------------------------------------------------------
# init_state


def test_init_single_seed_residual_is_degree():
    st0 = init_state(H44, [1], cfg())
    assert st0.x == {}
    assert st0.r == {1: 2.0}
    assert list(st0.queue) == [1]


def test_init_two_seeds_mass_is_seed_volume():
    st0 = init_state(H44, [0, 3], cfg())
    assert st0.r == {0: 1.0, 3: 1.0}
    assert sum(st0.r.values()) == st0.seed_volume == 2.0
    assert sorted(st0.queue) == [0, 3]


def test_init_kappa_one_queues_nothing():
    st0 = init_state(H44, [1], cfg(kappa=1.0))
    assert len(st0.queue) == 0


@pytest.mark.parametrize("seeds,err", [
    ([], "empty"),
    ([7], "out of range"),
    ([-1], "out of range"),
])
def test_init_rejects_bad_seeds(seeds, err):
    with pytest.raises(ValueError, match=err):
        init_state(H44, seeds, cfg())


def test_init_rejects_zero_degree_seed():
    h = Hypergraph(3, [(0, 1)])
    with pytest.raises(ValueError, match="zero degree"):
        init_state(h, [2], cfg())


# ---------------------------------------------------------------------------
# Residual recomputation


def test_residual_at_zero_is_degree_for_seeds():
    g, _ = fresh_residuals(H44, state_with(H44, [1]), cfg())
    assert g[1] == 2.0
    assert g[3] == 0.0


def test_residual_saturated_seed_two_unit_gadgets():
    # x_1 = 1 with both gadget pairs at zero: -(1/0.1)*2 + d*(1-1) = -20.
    st0 = state_with(H44, [1], {1: 1.0})
    assert fresh_residuals(H44, st0, cfg(gamma=0.1))[0][1] == pytest.approx(-20.0, abs=1e-12)


def test_aux_residuals_zero_state():
    st0 = state_with(EDGE, [0])
    assert tuple(fresh_residuals(EDGE, st0, cfg())[1][0]) == (0.0, 0.0)


def test_aux_residuals_one_raised_member():
    st0 = state_with(EDGE, [0], {0: 0.5})
    ra, rb = fresh_residuals(EDGE, st0, cfg())[1][0]
    assert ra == pytest.approx(0.5, abs=1e-15)
    assert rb == 0.0


def test_aux_residuals_hand_solved_fixpoint():
    st0 = state_with(EDGE, [0], {0: 0.11, 2: 0.0733333, 3: 0.0366667})
    ra, rb = fresh_residuals(EDGE, st0, cfg())[1][0]
    assert abs(ra) <= 1e-6
    assert abs(rb) <= 1e-6


# ---------------------------------------------------------------------------
# hyperpush


def push(h, state, c, i):
    """One hyperpush of node i through the solver's scan and push kernels."""
    ri, adjacent, caches = _scan_node(h, state, c, i)
    return _apply_hyperpush(h, state, c, i, ri, h.degree_of[i], adjacent, caches)


def test_first_push_walks_the_tied_breakpoint():
    # From the cold state the auxiliary pair ties x_i, so the fast-path guard
    # fails and the piecewise walk prices the a-arc in: slope 1/gamma + d.
    st0 = init_state(EDGE, [0], cfg(kappa=0.1, gamma=0.1, rho=0.5))
    dx = push(EDGE, st0, cfg(kappa=0.1, gamma=0.1, rho=0.5), 0)
    assert dx == pytest.approx(0.95 / 11.0, abs=1e-15)
    assert st0.x[0] == pytest.approx(0.95 / 11.0, abs=1e-15)
    assert st0.r[0] == pytest.approx(0.05, abs=1e-15)
    assert st0.pushes == 1 and st0.sum_pushed_degree == 1.0


def test_fast_path_when_auxiliaries_clear_the_target():
    # x_a parked at 0.96 leaves the whole step on one linear piece.
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5)
    st0 = state_with(EDGE, [0], {2: 0.96})
    st0.r[0] = 1.0
    dx = push(EDGE, st0, c, 0)
    assert dx == pytest.approx(0.95, abs=1e-15)
    assert fresh_residuals(EDGE, st0, c)[0][0] == pytest.approx(0.05, abs=1e-12)


def test_push_caches_match_fresh_scan():
    c = cfg(kappa=0.1)
    st0 = state_with(EDGE, [0], {2: 0.96})
    st0.r[0] = 1.0
    ri, adjacent, caches = _scan_node(EDGE, st0, c, 0)
    assert ri == pytest.approx(1.0)
    assert adjacent == [(1.0, 0.96, 0.0)]
    assert caches == (0.0, 0.0, 0.96, math.inf)
    push(EDGE, st0, c, 0)


def test_push_residual_lands_on_target_across_breakpoints():
    # Several auxiliary levels between x_i and the landing point force the
    # breakpoint walk through multiple pieces.
    h = Hypergraph(3, [(0, 1), (0, 2), (0, 1, 2)])
    c = cfg(kappa=0.1, gamma=0.2, rho=0.3)
    n = h.num_nodes  # gadget j's pair is n + 2j, n + 2j + 1
    st0 = state_with(h, [0], {
        n: 0.02, n + 1: 0.01,
        n + 2: 0.10, n + 3: 0.04,
        n + 4: 0.30, n + 5: 0.25,
    })
    dx = push(h, st0, c, 0)
    assert dx > 0
    assert fresh_residuals(h, st0, c)[0][0] == pytest.approx(c.rho * c.kappa * h.degrees[0], abs=1e-9)


def test_solve_push_amount_matches_bisection():
    # Independent check of the breakpoint walk against plain bisection on the
    # recomputed residual.
    h = Hypergraph(3, [(0, 1), (0, 2), (0, 1, 2)])
    c = cfg(kappa=0.05, gamma=0.15, rho=0.4)
    n = h.num_nodes  # gadget j's pair is n + 2j, n + 2j + 1
    st0 = state_with(h, [0], {
        n: 0.07, n + 1: 0.03,
        n + 4: 0.11, n + 5: 0.02,
    })
    ri, adjacent, caches = _scan_node(h, st0, c, 0)
    di = h.degrees[0]
    dx = _solve_push_amount(c, 0.0, ri, di, adjacent, caches)
    target = c.rho * c.kappa * di

    def residual_at(t):
        probe = state_with(h, [0], dict(st0.x))
        probe.x[0] = t
        return fresh_residuals(h, probe, c)[0][0]

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if residual_at(mid) > target:
            lo = mid
        else:
            hi = mid
    assert dx == pytest.approx(0.5 * (lo + hi), abs=1e-12)


# ---------------------------------------------------------------------------
# settle


def settle_node(h, state, c, i, dxi):
    """settle on i's gadgets after x_i rose by dxi, handed the scan a push
    would hand it; returns the (da, db) of each "auxpush" event."""
    moves = []
    settle(h, state, c, i, dxi, _scan_node(h, state, c, i)[1],
           lambda kind, p: moves.append((p["da"], p["db"])))
    return moves


def test_auxpush_trivial_when_italics_stay_clear():
    c = cfg()
    st0 = state_with(EDGE, [0], {0: 0.5, 2: 0.6})
    assert settle_node(EDGE, st0, c, 0, 0.2) == [(0.0, 0.0)]
    assert 3 not in st0.x


def test_auxpush_not_trivial_when_b_side_was_active():
    # Settled gadget (x_1 = 0.9 gives x_a = 0.6, x_b = 0.3), then node 0 is
    # raised from 0 to 0.5. x'_0 <= x_a, but the old x_0 sat below x_b, so
    # the b-side flow changed and the full settle must run.
    c = cfg()
    st0 = state_with(EDGE, [0], {0: 0.5, 1: 0.9, 2: 0.6, 3: 0.3})
    [(da, db)] = settle_node(EDGE, st0, c, 0, 0.5)
    assert da > 0.0 and db > 0.0
    ra, rb = fresh_residuals(EDGE, st0, c)[1][0]
    assert abs(ra) <= 1e-9 and abs(rb) <= 1e-9
    assert st0.x[2] >= st0.x[3]


def test_auxpush_hand_solved_pair():
    c = cfg(kappa=0.1, gamma=0.1)
    st0 = state_with(EDGE, [0], {0: 0.11})
    [(da, db)] = settle_node(EDGE, st0, c, 0, 0.11)
    assert da == pytest.approx(0.22 / 3.0, abs=1e-6)
    assert db == pytest.approx(0.11 / 3.0, abs=1e-6)
    ra, rb = fresh_residuals(EDGE, st0, c)[1][0]
    assert abs(ra) <= 1e-9 and abs(rb) <= 1e-9
    assert st0.x[2] >= st0.x[3]
    # The b-side rise leaks residual mass into the other member and queues it.
    assert st0.r[1] == pytest.approx(0.11 / 0.3, abs=1e-9)
    assert 1 in st0.in_queue


def test_auxpush_respects_member_breakpoints():
    # Three members at staggered values: the 2x2 solve alone would overshoot
    # x_min, so the damped iteration has to stop at each breakpoint.
    h = Hypergraph(3, [(0, 1, 2)])
    c = cfg()
    st0 = state_with(h, [0], {0: 0.9, 1: 0.3, 2: 0.05})
    settle_node(h, st0, c, 0, math.inf)
    ra, rb = fresh_residuals(h, st0, c)[1][0]
    assert abs(ra) <= 1e-9 and abs(rb) <= 1e-9
    a = h.num_nodes
    assert st0.x[a] >= st0.x[a + 1] - 1e-12


# ---------------------------------------------------------------------------
# solve end to end


def test_solve_two_node_regression():
    res = solve(EDGE, [0], cfg(kappa=0.1, gamma=0.1, rho=0.5))
    assert res.converged
    assert res.x[0] == pytest.approx(0.4772016665629735, abs=1e-12)
    assert res.x[1] == pytest.approx(0.3445382035094407, abs=1e-12)
    assert res.pushes == 42


def test_solve_kappa_one_returns_zero_vector():
    res = solve(H44, [1], cfg(kappa=1.0))
    assert res.x == {}
    assert res.pushes == 0


def test_solve_output_drops_auxiliaries_and_zeros():
    res = solve(H44, [0], cfg(kappa=0.1))
    assert all(0 <= v < H44.num_nodes for v in res.x)
    assert all(val > 0 for val in res.x.values())


def test_solve_mass_identity():
    # Recomputed total residual equals vol(R) minus the degree-weighted x
    # mass, split by seed membership.
    h = random_instance(101, max_n=14, max_m=20, max_size=5)
    seeds = random_seeds(h, 101)
    c = cfg(kappa=0.05)
    res = solve(h, seeds, c)
    st0 = res.state
    total_g = sum(fresh_residuals(h, st0, c)[0])
    expect = sum(h.degrees[v] * (1.0 - st0.x.get(v, 0.0)) for v in seeds)
    expect -= sum(h.degrees[v] * st0.x.get(v, 0.0)
                  for v in range(h.num_nodes) if v not in set(seeds))
    assert total_g == pytest.approx(expect, abs=1e-9)


def test_solve_rejects_p_below_two():
    """solve runs the p = 2 kernels only. At p = 1.4 it once returned the
    p = 2 answer as converged on this hyperedge (x_0 = 0.42011, where
    pnorm_solve gives 0.14601); now it raises and names pnorm_solve."""
    h = Hypergraph(3, [(0, 1, 2)])
    c = cfg(kappa=0.01, p=1.4)
    with pytest.raises(ValueError, match="pnorm_solve"):
        solve(h, [0], c)
    assert pnorm_solve(h, [0], c).x[0] == pytest.approx(0.14601, abs=1e-5)


def test_solve_push_cap_carries_partial_state():
    c = cfg(kappa=0.01, max_pushes=3)
    res = solve(H44, [0], c)
    assert not res.converged
    assert res.pushes == 3
    assert len(res.state.queue) > 0


# ---------------------------------------------------------------------------
# The hoisted settle pass against the per-gadget reference, bit for bit


def _check1_suite():
    """The 100 instances of acceptance check 1 with their seeds and kappas."""
    for k in range(100):
        h = random_instance(1000 + k, max_n=50, max_m=100, max_size=8)
        yield h, random_seeds(h, 1000 + k), 0.01 if k % 2 == 0 else 0.1


def _multi_gadget(h, seed):
    """h rebuilt with 1-3 distinct gadgets per edge (c from {0.5, 1, 2},
    delta from {1, 2, 3}), so one edge's gadgets share a members tuple."""
    rng = SplitMix64(seed)
    params = [GadgetParams(c, d) for c in (0.5, 1.0, 2.0) for d in (1.0, 2.0, 3.0)]
    rows = [rng.sample(params, 1 + rng.randrange(3)) for _ in range(len(h.hyperedges))]
    return Hypergraph(h.num_nodes, h.hyperedges, rows)


def _fingerprint(res, events):
    """Everything a solve leaves behind, floats as float.hex."""
    def hexed(d):
        return [(k, v.hex()) for k, v in d.items()]

    st = res.state
    stream = [(kind, {k: v.hex() if isinstance(v, float) else v for k, v in p.items()})
              for kind, p in events]
    return dict(x=hexed(st.x), r=hexed(st.r), pushes=st.pushes, aux_pushes=st.aux_pushes,
                sum_pushed_degree=st.sum_pushed_degree.hex(), queue=list(st.queue),
                in_queue=sorted(st.in_queue), touched=sorted(st.touched_gadgets),
                events=stream, out=hexed(res.x), converged=res.converged)


def _traced(fn, h, seeds, c):
    events = []
    res = fn(h, seeds, c, on_event=lambda kind, p: events.append((kind, p)))
    return _fingerprint(res, events)


@pytest.mark.parametrize("gadgets", ["one", "multi"])
@pytest.mark.parametrize("max_pushes", [None, 7])
def test_settle_pass_matches_per_gadget_reference(gadgets, max_pushes):
    """solve and pnorm_solve at p = 2 reproduce the per-gadget auxpush loop
    exactly on the check-1 suite, and on it rebuilt with 1-3 gadgets per
    edge: x, r, counters, queue, touched gadgets and the on_event stream,
    uncapped and capped at 7 pushes."""
    multi = 0
    for k, (h, seeds, kappa) in enumerate(_check1_suite()):
        if gadgets == "multi":
            h = _multi_gadget(h, 7000 + k)
            multi += h.num_gadgets > len(h.hyperedges)
        c = cfg(kappa=kappa, gamma=0.1, rho=0.5, max_pushes=max_pushes)
        want = _traced(reference_solve, h, seeds, c)
        assert _traced(solve, h, seeds, c) == want, k
        assert _traced(pnorm_solve, h, seeds, c) == want, k
        if max_pushes is not None:
            assert want["pushes"] <= max_pushes
    assert gadgets == "one" or multi >= 90  # a one-edge instance may draw one gadget


def test_settle_matches_reference_auxpush_on_each_node():
    """settle on each node in turn, with and without the (x_i, dxi) early
    exit (dxi = inf settles every pair), leaves the state and the moves that
    reference_auxpush on the node's gadgets, in incident_gadgets order,
    leaves."""
    h = _multi_gadget(random_instance(31, max_n=12, max_m=16, max_size=5), 31)
    c = cfg(kappa=0.05)
    start = {v: 0.1 * (1 + v % 7) for v in range(h.num_nodes)}
    for dxi in (math.inf, 0.3, 1e-3):
        got = state_with(h, [0], start)
        want = state_with(h, [0], start)
        for i in range(h.num_nodes):
            assert settle_node(h, got, c, i, dxi) == [
                reference_auxpush(h, want, c, j, i, dxi) for j in h.incident_gadgets[i]]
        for name in ("x", "r"):
            assert ([(k, v.hex()) for k, v in getattr(got, name).items()]
                    == [(k, v.hex()) for k, v in getattr(want, name).items()])
        assert (got.aux_pushes, list(got.queue), got.touched_gadgets) == (
            want.aux_pushes, list(want.queue), want.touched_gadgets)


def test_work_counters_on_the_chain():
    """On the chain of acceptance check 6 at p = 2 some pushes walk the
    breakpoints and most do not; at p = 1.4 every push counts as a walk.
    peak_queue is at least the seed count and never more than the nodes."""
    h, labels = planted_hypergraph([50] * 10, 120, (3, 5), 0.05, 4242,
                                   cross_scope="chain", delta=1.0)
    seeds = sample_seeds(labels, 0, 5, "uniform", 99, degrees=h.degrees)
    res = solve(h, seeds, cfg(gamma=0.1, kappa=0.01, rho=0.5))
    st2 = res.state
    assert 0 < st2.walk_pushes <= st2.pushes
    assert len(seeds) <= st2.peak_queue <= h.num_nodes
    res = pnorm_solve(h, seeds, cfg(gamma=0.1, kappa=0.01, rho=0.5, p=1.4))
    assert res.state.walk_pushes == res.state.pushes > 0
    assert res.state.peak_queue >= 1


def test_ledger_bound_formulas():
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5)
    gk = 0.01
    assert ledger_bound(c, 6.0, 1.0) == pytest.approx((gk + 1.0) * 6.0 / (gk * 0.5))
    q = 1.0 / 0.4
    expect = (gk + 2.0) ** q * 6.0 / (0.4 * (gk * 0.5) ** q)
    c14 = cfg(kappa=0.1, gamma=0.1, rho=0.5, p=1.4)
    assert ledger_bound(c14, 6.0, 2.0) == pytest.approx(expect)


@pytest.mark.parametrize("p", [2.0, 1.4])
def test_ledger_bound_is_inf_when_its_denominator_underflows(p):
    # gamma * kappa is the smallest subnormal, and times 1 - rho (about 0.1) it is
    # 0.0 in floats: no bound, rather than a ZeroDivisionError.
    c = cfg(kappa=1.0, gamma=5e-324, rho=0.9, p=p)
    assert c.gamma * c.kappa > 0
    assert ledger_bound(c, 1.0, 1.0) == math.inf


# ---------------------------------------------------------------------------
# Instrumented event-stream checks: every push is re-verified against an
# independently maintained dense shadow of the state.


def _dense(h, shadow):
    full = np.zeros(h.num_nodes + 2 * h.num_gadgets)
    for k, v in shadow.items():
        full[k] = v
    return full


def _aggregate(h, seeds, c, shadow):
    g_node, aux = _residuals_from_vector(h, seeds, c, _dense(h, shadow))
    return float(g_node.sum()) + float(aux.sum()) / c.gamma


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_event_stream_replays_every_push_from_shadow_state(seed):
    h = random_instance(seed, max_n=10, max_m=14, max_size=5)
    seeds = random_seeds(h, seed)
    c = cfg(kappa=0.1)
    shadow = {}
    seeds_set = set(seeds)
    vol = h.total_volume

    def check(kind, payload):
        if kind == "hyperpush":
            i = payload["node"]
            probe = state_with(h, seeds_set, dict(shadow))
            ri, adjacent, caches = _scan_node(h, probe, c, i)
            assert ri == pytest.approx(payload["r_before"], abs=1e-9 * (1 + vol))
            dx = _solve_push_amount(c, shadow.get(i, 0.0), ri, h.degrees[i], adjacent, caches)
            assert dx == pytest.approx(payload["dx"], abs=1e-9)
            before = _aggregate(h, seeds_set, c, shadow)
            shadow[i] = shadow.get(i, 0.0) + payload["dx"]
            after = _aggregate(h, seeds_set, c, shadow)
            drop = h.degrees[i] * payload["dx"]
            assert before - after == pytest.approx(drop, abs=1e-9 * (1 + vol))
        else:
            a = h.num_nodes + 2 * payload["gadget"]
            assert payload["da"] >= 0.0 and payload["db"] >= 0.0
            before = _aggregate(h, seeds_set, c, shadow)
            shadow[a] = shadow.get(a, 0.0) + payload["da"]
            shadow[a + 1] = shadow.get(a + 1, 0.0) + payload["db"]
            after = _aggregate(h, seeds_set, c, shadow)
            assert after == pytest.approx(before, abs=1e-9 * (1 + vol))

    res = solve(h, seeds, c, on_event=check)
    for k, v in res.state.x.items():
        assert shadow.get(k, 0.0) == pytest.approx(v, abs=1e-12)


def test_per_push_progress_constant_is_the_damped_one():
    # Worst-case progress per push: the violation can be arbitrarily close to
    # kappa*d_i while the residual slope is at most d_i*(1+gamma)/gamma (each
    # gadget activates at most one side at a time), so the guaranteed drop of
    # the conserved aggregate is gamma*kappa*(1-rho)*d_i/(1+gamma). The
    # steeper (gamma*kappa+delta_max) denominator overstates progress from
    # states like this one.
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5)
    st0 = state_with(EDGE, [0], {0: 0.2, 2: 0.13001, 3: 0.05})
    ri = fresh_residuals(EDGE, st0, c)[0][0]
    assert ri > c.kappa * 1.0 * (1.0 + VIOLATION_GUARD)
    dx = push(EDGE, st0, c, 0)
    drop = 1.0 * dx
    gk = c.gamma * c.kappa
    claimed = gk * (1 - c.rho) * 1.0 / (gk + 1.0)
    damped = gk * (1 - c.rho) * 1.0 / (1.0 + c.gamma)
    assert drop < claimed
    assert drop >= damped - 1e-15


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.01, 0.1]))
def test_solve_postconditions_random(seed, kappa):
    h = random_instance(seed, max_n=12, max_m=16, max_size=5)
    seeds = random_seeds(h, seed)
    c = cfg(kappa=kappa)
    moves = []
    res = solve(h, seeds, c, on_event=lambda k, p: moves.append(p.get("dx", min(p.get("da", 0), p.get("db", 0)))))
    assert res.converged
    assert all(m >= 0 for m in moves)
    st1 = res.state
    g_node, aux = fresh_residuals(h, st1, c)
    for v in range(h.num_nodes):
        g = g_node[v]
        assert g >= -1e-9
        assert g <= c.kappa * h.degrees[v] * (1 + 1e-9)
    for j in st1.touched_gadgets:
        ra, rb = aux[j]
        assert abs(ra) <= 1e-8 and abs(rb) <= 1e-8
    for k, v in st1.x.items():
        assert -1e-12 <= v <= 1 + 1e-12
    for j in range(h.num_gadgets):
        a = h.num_nodes + 2 * j
        assert st1.x.get(a, 0.0) >= st1.x.get(a + 1, 0.0) - 1e-12
    assert res.sum_pushed_degree <= ledger_bound(c, res.seed_volume, delta_max(h))
