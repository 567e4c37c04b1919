"""Tests for the exhaustive / dense oracle suite itself.

The oracles are the trust anchor for everything else, so they get their own
frozen examples: tiny instances whose minimum-conductance sets, auxiliary
optima, and objective values were worked out by hand.
"""
import math

import numpy as np
import pytest

from helpers import delta_max, random_instance, random_seeds
from hyperlocal.hypergraph import GadgetParams, Hypergraph, parse_hypergraph
from hyperlocal.oracles import (
    brute_min_conductance,
    cut_preservation_check,
    kkt_check,
    min_conductance_family,
    objective_value,
    reconstruct_aux,
    reduced_min_conductance_family,
    reference_qp_solver,
    replay_pushes,
)
from hyperlocal.quadratic import DiffusionConfig, ledger_bound, solve
from hyperlocal.pnorm import _PUSH_TOL, pnorm_solve

H44 = parse_hypergraph("4 2\n1 2 3\n2 3 4\n")
EDGE = Hypergraph(2, [(0, 1)])


def cfg(**kw):
    kw.setdefault("kappa", 0.1)
    return DiffusionConfig(**kw)


# ---------------------------------------------------------------------------
# brute_min_conductance


def test_brute_single_edge():
    best, phi = brute_min_conductance(EDGE)
    assert best == (0,)
    assert phi == 1.0


def test_brute_two_triangle_overlap():
    # {0,1} and {2,3} both cut two unit gadgets across volume 3; the
    # lexicographic tie rule picks (0,1).
    best, phi = brute_min_conductance(H44)
    assert best == (0, 1)
    assert phi == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_brute_disconnected_components():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    best, phi = brute_min_conductance(h)
    assert phi == 0.0
    assert best == (0, 1)


def test_brute_no_edges_is_degenerate():
    best, phi = brute_min_conductance(Hypergraph(2, []))
    assert math.isinf(phi)


def test_brute_cap():
    with pytest.raises(ValueError, match="cap"):
        brute_min_conductance(Hypergraph(21, [(0, 1)]))


def test_family_matches_brute_minimum():
    phi, family = min_conductance_family(H44)
    assert phi == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert frozenset({0, 1}) in family
    assert frozenset({2, 3}) in family
    best, phi_b = brute_min_conductance(H44)
    assert phi == phi_b
    assert frozenset(best) in family


# ---------------------------------------------------------------------------
# Reduction-side enumeration: cut preservation and family agreement


def test_cut_preservation_unit_triangle_pair():
    hyper, directed, ok = cut_preservation_check(H44, {0, 1})
    assert ok
    assert hyper == pytest.approx(2.0, abs=1e-15)
    assert directed == pytest.approx(2.0, abs=1e-15)


def test_cut_preservation_threshold_two():
    h = Hypergraph(4, [(0, 1, 2, 3)], [[GadgetParams(1.0, 2.0)]])
    hyper, directed, ok = cut_preservation_check(h, {0, 1})
    assert ok
    assert hyper == pytest.approx(2.0, abs=1e-15)


def test_cut_preservation_all_subsets_mixed_gadgets():
    h = Hypergraph(
        5,
        [(0, 1, 2), (1, 2, 3, 4)],
        [[GadgetParams(1.0, 1.0)], [GadgetParams(0.5, 2.0), GadgetParams(1.0, 1.0)]],
    )
    for mask in range(1 << 5):
        s = {v for v in range(5) if (mask >> v) & 1}
        _, _, ok = cut_preservation_check(h, s)
        assert ok, f"cut mismatch at S={sorted(s)}"


def test_cut_preservation_empty_and_full_sets():
    for s in (set(), {0, 1, 2, 3}):
        hyper, directed, ok = cut_preservation_check(H44, s)
        assert ok
        assert hyper == directed == 0.0


def test_kkt_zero_vector_large_kappa():
    rep = kkt_check(H44, [0], cfg(kappa=1.0), np.zeros(4))
    assert rep.ok(1e-12)


def test_cut_preservation_gadget_cap():
    h = Hypergraph(3, [(0, 1)] * 9)
    with pytest.raises(ValueError, match="cap"):
        cut_preservation_check(h, {0})


@pytest.mark.parametrize("text,gadget_text", [
    ("4 2\n1 2 3\n2 3 4\n", None),
    ("4 1\n1 2 3 4\n", "1:2\n"),
    ("5 3\n1 2 3\n2 4\n3 4 5\n", "1:1\n0.5:2\n1:2\n"),
])
def test_family_agreement_through_reduction(text, gadget_text):
    from hyperlocal.hypergraph import parse_gadget_lines

    h = parse_hypergraph(text)
    if gadget_text is not None:
        h = Hypergraph(h.num_nodes, h.hyperedges,
                       parse_gadget_lines(gadget_text, len(h.hyperedges)))
    phi_h, fam_h = min_conductance_family(h)
    phi_r, fam_r = reduced_min_conductance_family(h)
    assert phi_r == pytest.approx(phi_h, rel=1e-12)
    assert fam_h == fam_r


def test_reduced_family_cap():
    h = Hypergraph(12, [(0, 1)] * 6)  # 12 + 12 = 24 coordinates
    with pytest.raises(ValueError, match="too large"):
        reduced_min_conductance_family(h)


# ---------------------------------------------------------------------------
# Auxiliary reconstruction and the dense reference solver


def test_reconstruct_aux_hand_solved_pair():
    # Single unit edge, x = (0.11, 0): stationarity gives x_a = 2 x_b and
    # 0.11 - x_a = x_a - x_b, so x_b = 0.11/3.
    full = reconstruct_aux(EDGE, np.array([0.11, 0.0]), cfg())
    assert full[2] == pytest.approx(0.22 / 3.0, abs=1e-12)
    assert full[3] == pytest.approx(0.11 / 3.0, abs=1e-12)


def test_reconstruct_aux_idle_gadget_stays_zero():
    full = reconstruct_aux(H44, np.zeros(4), cfg())
    assert np.all(full == 0.0)


def test_objective_of_zero_vector_is_seed_arc_energy():
    # Only the source arc s -> seed carries flow: 0.5 * gamma*d_0 * 1^2.
    c = cfg(gamma=0.1, kappa=0.1)
    val = objective_value(EDGE, [0], c, np.zeros(2))
    assert val == pytest.approx(0.05, abs=1e-15)


def test_reference_solver_zero_when_kappa_large():
    # kappa >= 1 makes x = 0 optimal: residuals d_v never exceed kappa*d_v.
    x = reference_qp_solver(H44, [0], cfg(kappa=1.0))
    assert np.abs(x).max() <= 1e-10


def test_reference_solver_satisfies_kkt_with_slackness():
    c = cfg(kappa=0.05, gamma=0.1)
    x = reference_qp_solver(H44, [0], c)
    rep = kkt_check(H44, [0], c, x)
    assert rep.ok(1e-8), rep


def test_reference_size_cap():
    with pytest.raises(ValueError, match="cap"):
        reference_qp_solver(Hypergraph(2002, [(0, 1)]), [0], cfg())


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_reference_dominates_push_solution(seed):
    h = random_instance(seed, max_n=12, max_m=16, max_size=5)
    seeds = random_seeds(h, seed)
    c = cfg(kappa=0.05)
    res = solve(h, seeds, c)
    x_ref = reference_qp_solver(h, seeds, c)
    f_push = objective_value(h, seeds, c, res.state.x)
    f_ref = objective_value(h, seeds, c, x_ref)
    assert f_ref <= f_push + 1e-12 * max(1.0, abs(f_push))
    assert kkt_check(h, seeds, c, x_ref).ok(1e-8)


def test_push_solution_kkt_without_slackness():
    c = cfg(kappa=0.05)
    res = solve(H44, [0], c)
    rep = kkt_check(H44, [0], c, res.state.x)
    assert rep.max_neg_residual <= 1e-9
    assert rep.max_excess_residual <= 1e-9
    assert rep.max_aux_residual <= 1e-8
    assert rep.max_box_violation <= 1e-12


# ---------------------------------------------------------------------------
# Push replay


def _record_events(solver, h, seeds, c, **kw):
    events = []
    res = solver(h, seeds, c, on_event=lambda kind, payload: events.append((kind, dict(payload))), **kw)
    return res, events


def _dense_from_state(h, state):
    full = np.zeros(h.num_nodes + 2 * h.num_gadgets)
    for k, v in state.x.items():
        full[k] = v
    return full


def test_replay_matches_quadratic_trajectory():
    h = parse_hypergraph("3 1\n1 2 3\n")
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5)
    res, events = _record_events(solve, h, [0], c)
    assert res.converged
    replayed = replay_pushes(h, [0], c, events)
    assert np.abs(replayed - _dense_from_state(h, res.state)).max() <= 1e-6


def test_replay_matches_quadratic_trajectory_pairwise_triangle():
    h = parse_hypergraph("3 3\n1 2\n2 3\n1 3\n")
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5)
    res, events = _record_events(solve, h, [0], c)
    assert res.converged
    replayed = replay_pushes(h, [0], c, events)
    assert np.abs(replayed - _dense_from_state(h, res.state)).max() <= 1e-6


def test_replay_matches_pnorm_trajectory():
    h = parse_hypergraph("3 1\n1 2 3\n")
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5, p=1.4)
    res, events = _record_events(pnorm_solve, h, [0], c)
    assert res.converged
    replayed = replay_pushes(h, [0], c, events)
    assert np.abs(replayed - _dense_from_state(h, res.state)).max() <= 1e-6


def test_replay_pnorm_drift_bounded_by_push_count():
    # Each p-norm hyperpush lands its residual within tau*kappa*d_i of the
    # target, and the residual falls at slope at least (p-1)*d_i on [0, 1],
    # so a push's x_i is within tau*kappa/(p-1) of the exact crossing; the
    # replay's own bisection stops at width 1e-15. Divergence can accumulate
    # at most that much per push (contraction keeps it far below that).
    h = parse_hypergraph("3 3\n1 2\n2 3\n1 3\n")
    c = cfg(kappa=0.1, gamma=0.1, rho=0.5, p=1.4)
    res, events = _record_events(pnorm_solve, h, [0], c)
    assert res.converged
    replayed = replay_pushes(h, [0], c, events)
    per_push = _PUSH_TOL * c.kappa / (c.p - 1.0) + 1e-15
    assert np.abs(replayed - _dense_from_state(h, res.state)).max() <= res.pushes * per_push


def test_replay_on_mixed_delta_instance():
    h = random_instance(7, max_n=10, max_m=12, max_size=5)
    seeds = random_seeds(h, 7)
    c = cfg(kappa=0.05)
    res, events = _record_events(solve, h, seeds, c)
    replayed = replay_pushes(h, seeds, c, events)
    assert np.abs(replayed - _dense_from_state(h, res.state)).max() <= 1e-6


def test_replay_rejects_unknown_event():
    with pytest.raises(ValueError, match="unknown"):
        replay_pushes(EDGE, [0], cfg(), [("teleport", {"node": 0})])


# ---------------------------------------------------------------------------
# Ledger bound sanity against actual runs


@pytest.mark.parametrize("seed", [3, 19])
def test_sum_pushed_degree_below_ledger_bound(seed):
    h = random_instance(seed, max_n=16, max_m=24, max_size=5)
    seeds = random_seeds(h, seed)
    c = cfg(kappa=0.05)
    res = solve(h, seeds, c)
    bound = ledger_bound(c, res.seed_volume, delta_max(h))
    assert res.sum_pushed_degree <= bound
