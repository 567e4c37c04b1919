"""End-to-end acceptance suite: nine scenario checks, one test per check.

Every fixture is pinned by rng seed, every tolerance is written out at the
assert site. The suite covers residual and box bounds with a runtime cap,
the exact pushed-degree ledger for both solvers, dominance of an independent
reference optimizer, exhaustive cut preservation under the gadget reduction,
agreement of the general pusher with the closed-form one at p = 2, locality
of the touched set under 10x graph growth, planted-block recovery quality,
the sweep conductance guarantee, and per-push invariants under instrumented
replay.
"""
import math
import statistics
import time

import numpy as np
import pytest

from helpers import delta_max, random_instance, random_seeds
from hyperlocal.hypergraph import GadgetParams, Hypergraph, set_metrics
from hyperlocal.oracles import (
    _dense_vector,
    _residuals_from_vector,
    cut_preservation_check,
    kkt_check,
    min_conductance_family,
    objective_value,
    reduced_min_conductance_family,
    reference_qp_solver,
)
from hyperlocal import pnorm
from hyperlocal.pnorm import pnorm_solve
from hyperlocal.quadratic import DiffusionConfig, _drive, ledger_bound, solve
from hyperlocal.sweep import boundary_delta_bar, prf1, sweepcut
from hyperlocal.synth import planted_hypergraph, sample_seeds


@pytest.fixture(scope="module")
def generated_suite():
    """100 solved instances (n <= 50, m <= 100, |e| <= 8, per-gadget deltas
    from {1,2,3}), kappa alternating 0.01 / 0.1, gamma = 0.1, rho = 0.5.
    Returns the runs plus the wall time spent generating and solving."""
    runs = []
    t0 = time.perf_counter()
    for k in range(100):
        h = random_instance(1000 + k, max_n=50, max_m=100, max_size=8)
        seeds = random_seeds(h, 1000 + k)
        kappa = 0.01 if k % 2 == 0 else 0.1
        cfg = DiffusionConfig(gamma=0.1, kappa=kappa, rho=0.5)
        runs.append((h, seeds, cfg, solve(h, seeds, cfg)))
    return runs, time.perf_counter() - t0


def test_residual_and_box_bounds_on_generated_suite(generated_suite):
    """Every run converges with recomputed node residuals in
    [0, kappa*d*(1+1e-9)], auxiliary residuals within 1e-8, all coordinates
    in [0, 1+1e-12], and the whole suite done in under five seconds."""
    runs, build_elapsed = generated_suite
    t0 = time.perf_counter()
    for h, seeds, cfg, res in runs:
        assert res.converged
        full = _dense_vector(h, res.state.x, cfg)
        g_node, aux = _residuals_from_vector(h, set(seeds), cfg, full)
        assert float(g_node.min()) >= 0.0
        assert (g_node <= cfg.kappa * h.degrees * (1.0 + 1e-9)).all()
        if h.num_gadgets:
            assert float(np.abs(aux).max()) <= 1e-8
        assert float(full.min()) >= 0.0
        assert float(full.max()) <= 1.0 + 1e-12
    assert build_elapsed + time.perf_counter() - t0 < 5.0


def test_push_ledger_bound_exact(generated_suite):
    """The degree-weighted push total never exceeds
    (gk + delta_max) vol(R) / (gk (1 - rho)) with gk = gamma*kappa, as an
    exact inequality with no tolerance; the general solver at p = 1.4 obeys
    its own ledger bound on the same instances. The p = 1.4 leg re-solves
    the whole suite and is the long pole of the acceptance run."""
    runs, _ = generated_suite
    for h, seeds, cfg, res in runs:
        assert res.sum_pushed_degree <= ledger_bound(cfg, res.seed_volume, delta_max(h))
    for h, seeds, cfg, _ in runs:
        cfg14 = DiffusionConfig(gamma=cfg.gamma, kappa=cfg.kappa, rho=cfg.rho, p=1.4)
        res = pnorm_solve(h, seeds, cfg14)
        bound = ledger_bound(cfg14, res.seed_volume, delta_max(h))
        assert res.sum_pushed_degree <= bound


def test_reference_solution_dominates_push_solution():
    """An independently derived coordinate-descent reference reaches an
    objective no higher than the push solver's, up to 1e-12 relative, and
    the reference itself passes first-order optimality at 1e-8 including
    complementary slackness. The push solution's objective sits 1.1e-5 to
    2.8e-3 relative above the reference's on these 30 instances: a push
    stops at rho*kappa*d_i, short of the optimum's kappa*d_i."""
    for k in range(30):
        h = random_instance(3000 + k, max_n=30, max_m=40, max_size=6)
        seeds = random_seeds(h, 3000 + k)
        kappa = 0.1 if k % 2 == 0 else 0.01
        cfg = DiffusionConfig(gamma=0.1, kappa=kappa, rho=0.5)
        res = solve(h, seeds, cfg)
        xref = reference_qp_solver(h, seeds, cfg)
        f_ref = objective_value(h, seeds, cfg, xref)
        f_push = objective_value(h, seeds, cfg, res.state.x)
        assert f_ref <= f_push + 1e-12 * max(abs(f_push), 1e-300), (k, f_ref, f_push)
        rep = kkt_check(h, seeds, cfg, xref)
        assert rep.ok(1e-8), (k, rep)


def test_cut_preservation_exhaustive():
    """Over a fixture family of small hypergraphs crossed with three delta
    rules, every one of the 2^n subsets has hypergraph cut equal to the
    minimum directed cut of the reduced graph within 1e-12, and the
    minimum-conductance set families of both sides agree."""
    t0 = time.perf_counter()
    bases = [
        (4, ((0, 1, 2), (1, 2, 3))),
        (5, ((0, 1, 2, 3), (0, 4), (2, 3, 4))),
        (6, ((0, 1, 2), (3, 4, 5), (0, 3), (1, 4, 5))),
        (8, ((0, 1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7))),
    ]
    rules = [lambda e: 1.0, lambda e: 2.0, lambda e: float(math.ceil(len(e) / 2))]
    checked = 0
    for n, edges in bases:
        for rule in rules:
            gadgets = [[GadgetParams(1.0, rule(e))] for e in edges]
            h = Hypergraph(n, list(edges), gadgets)
            for bits in range(1 << n):
                s = [v for v in range(n) if bits >> v & 1]
                hyper_cut, directed_cut, ok = cut_preservation_check(h, s)
                assert ok, (n, s, hyper_cut, directed_cut)
                checked += 1
            assert min_conductance_family(h) == reduced_min_conductance_family(h)
    assert checked == 1104
    assert time.perf_counter() - t0 < 60.0


def test_general_p_solver_matches_quadratic_at_p2():
    """At p = 2 the general pusher reproduces the closed-form solver
    coordinatewise within 1e-4 under the same queue policy
    and rho."""
    for k in range(30):
        h = random_instance(5000 + k, max_n=30, max_m=40, max_size=6)
        seeds = random_seeds(h, 5000 + k)
        kappa = 0.1 if k % 2 == 0 else 0.01
        cfg = DiffusionConfig(gamma=0.1, kappa=kappa, rho=0.5, p=2.0)
        a = solve(h, seeds, cfg)
        b = _drive(h, seeds, cfg, pnorm._scan, pnorm._push, pnorm.settle)
        tol = 1e-4
        keys = set(a.state.x) | set(b.state.x)
        worst = max(abs(a.state.x.get(i, 0.0) - b.state.x.get(i, 0.0)) for i in keys)
        assert worst <= tol, (k, worst)


def test_touched_set_stays_local_as_graph_grows():
    """Seeding five nodes in the first block of a chain of planted 50-node
    communities: the touched-node count at 100 blocks exceeds the count at
    10 blocks by less than 10% while the hypergraph grows 10x, all within
    30 seconds."""
    t0 = time.perf_counter()
    touched = {}
    for kblocks in (10, 100):
        h, labels = planted_hypergraph([50] * kblocks, 120, (3, 5), 0.05, 4242,
                                       cross_scope="chain", delta=1.0)
        seeds = sample_seeds(labels, 0, 5, "uniform", 99, degrees=h.degrees)
        cfg = DiffusionConfig(gamma=0.1, kappa=0.01, rho=0.5)
        res = solve(h, seeds, cfg)
        reach = {v for v in res.state.x if v < h.num_nodes}
        reach.update(v for v in res.state.r if v < h.num_nodes)
        touched[kblocks] = len(reach)
    assert touched[100] < 1.10 * touched[10], touched
    assert time.perf_counter() - t0 < 30.0


def test_planted_block_recovery_f1():
    """Median sweepcut F1 against the seeded block over 30 planted two-block
    fixtures, two degree-proportional seeds each (1% of the block). The 0.8
    floor was calibrated once on these rng seeds (measured median 0.9988,
    minimum 0.9827) and stays fixed with the fixture."""
    f1s = []
    for k in range(30):
        h, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05, 1000 + k,
                                       delta=1.0)
        seeds = sample_seeds(labels, 0, 2, "degree_proportional", 12345,
                             degrees=h.degrees)
        cfg = DiffusionConfig(gamma=0.1, kappa=0.0025, rho=0.5)
        res = solve(h, seeds, cfg)
        prof = sweepcut(h, res.x)
        truth = [v for v, lab in enumerate(labels) if lab == 0]
        f1s.append(prf1(prof.best_set, truth)[2])
    assert statistics.median(f1s) >= 0.8, sorted(f1s)


def test_sweep_conductance_guarantee():
    """Single degree-proportional seed, near-zero kappa, gamma set slightly
    above 8*phi(S*): the sweep conductance stays at or below
    dbar * sqrt(32 gamma ln(100 vol(S*) / d_seed)) in at least 90% of 50
    trials over the planted fixtures."""
    passes = 0
    for trial in range(50):
        h, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05,
                                       1000 + trial % 30, delta=1.0)
        truth = [v for v, lab in enumerate(labels) if lab == 0]
        _, vol, phi = set_metrics(h, truth)
        gamma = min(0.99, 8.0 * phi * 1.02)
        seeds = sample_seeds(labels, 0, 1, "degree_proportional", 777 + trial,
                             degrees=h.degrees)
        d_seed = float(h.degrees[seeds[0]])
        cfg = DiffusionConfig(gamma=gamma, kappa=1e-6, rho=0.5)
        res = solve(h, seeds, cfg)
        prof = sweepcut(h, res.x)
        rhs = boundary_delta_bar(h, prof.best_set) * math.sqrt(
            32.0 * gamma * math.log(100.0 * vol / d_seed))
        passes += prof.best_conductance <= rhs
    assert passes >= 45, passes


def test_invariant_replay_at_every_push():
    """Instrumented replay over ten instances, five all-delta=1 and five with
    mixed deltas. After every push, recomputed from a shadow of the state:
    node residuals >= -1e-9, coordinates in [0, 1+1e-12], x_a >= x_b - 1e-12
    in every gadget, and each auxiliary push conserves the total residual
    mass M (node residuals plus gamma-scaled auxiliary residuals) within
    1e-9. Each node push on i, per unit of d_i and within 1e-9:

    (a) lowers M by exactly dx, the amount x_i rose: the arc terms of i's
        gadgets cancel between r_i and the auxiliary residuals, leaving the
        -d_i*dx of i's own seed term;
    (b) leaves i's recomputed residual at rho*kappa*d_i, the push target;
    (c) lowers M by at least gamma*(r_before - rho*kappa*d_i)/(1+gamma),
        where r_before, the payload's pre-push residual, matches the shadow.

    (c) is the per-push progress the push step guarantees. As x_i rises,
    r_i falls at slope w/gamma + d_i, where w sums the weights c_j of the
    active arcs at i. Since x_a >= x_b, each gadget has at most one active
    side, so w <= sum_j c_j = d_i and the slope is at most d_i(1+gamma)/gamma.
    Taking r_i from r_before down to rho*kappa*d_i therefore needs
    dx >= gamma*(r_before - rho*kappa*d_i)/(d_i(1+gamma)). The bound is
    attained when every gadget at i keeps one side active throughout, and
    with r_before > kappa*d_i it implies the damped constant
    gk(1-rho)d_i/(1+gamma), gk = gamma*kappa, which is asserted as well.

    The steeper constant gk(1-rho)d_i/(gk+delta_max) is not a per-push
    guarantee: for delta_max = 1, gk+1 < 1+gamma, and
    test_quadratic.py::test_per_push_progress_constant_is_the_damped_one
    builds a push that falls short of it, as do all-delta=1 runs here."""
    worst_damped = (math.inf, None)
    worst_progress = (math.inf, None)
    worst_flow = (0.0, None)
    worst_target = (0.0, None)
    worst_r_before = (0.0, None)
    worst_cons = (0.0, None)
    min_g = (math.inf, None)
    max_x = (0.0, None)
    min_gap = (math.inf, None)

    for k in range(10):
        deltas = (1.0,) if k < 5 else (1.0, 2.0, 3.0)
        h = random_instance(9100 + k, max_n=25, max_m=40, max_size=6, deltas=deltas)
        seeds = random_seeds(h, 9100 + k)
        cfg = DiffusionConfig(gamma=0.1, kappa=0.1 if k % 2 == 0 else 0.01, rho=0.5)
        gk = cfg.gamma * cfg.kappa
        damped = gk * (1.0 - cfg.rho) / (1.0 + cfg.gamma)
        n = h.num_nodes
        full = np.zeros(n + 2 * h.num_gadgets)
        seeds_set = set(seeds)
        g_node, aux = _residuals_from_vector(h, seeds_set, cfg, full)
        totals = {"mass": float(g_node.sum()) + float(aux.sum()) / cfg.gamma,
                  "g_node": g_node, "events": 0}

        def check(kind, payload):
            nonlocal worst_damped, worst_progress, worst_flow, worst_target
            nonlocal worst_r_before, worst_cons, min_g, max_x, min_gap
            totals["events"] += 1
            tag = (k, totals["events"], kind)
            if kind == "hyperpush":
                full[payload["node"]] += payload["dx"]
            else:
                a = n + 2 * payload["gadget"]
                full[a] += payload["da"]
                full[a + 1] += payload["db"]
            g_node, aux_r = _residuals_from_vector(h, seeds_set, cfg, full)
            mass = float(g_node.sum()) + float(aux_r.sum()) / cfg.gamma
            if kind == "hyperpush":
                i = payload["node"]
                di = h.degrees[i]
                target = cfg.rho * cfg.kappa * di
                r_before = payload["r_before"]
                drop = (totals["mass"] - mass) / di
                if drop - damped < worst_damped[0]:
                    worst_damped = (drop - damped, tag)
                flow = abs(drop - payload["dx"])
                if flow > worst_flow[0]:
                    worst_flow = (flow, tag)
                miss = abs(g_node[i] - target) / di
                if miss > worst_target[0]:
                    worst_target = (miss, tag)
                stale = abs(r_before - totals["g_node"][i]) / di
                if stale > worst_r_before[0]:
                    worst_r_before = (stale, tag)
                margin = drop - cfg.gamma * (r_before - target) / ((1.0 + cfg.gamma) * di)
                if margin < worst_progress[0]:
                    worst_progress = (margin, tag)
            elif abs(mass - totals["mass"]) > worst_cons[0]:
                worst_cons = (abs(mass - totals["mass"]), tag)
            totals["mass"] = mass
            totals["g_node"] = g_node
            if float(g_node.min()) < min_g[0]:
                min_g = (float(g_node.min()), tag)
            if float(full[:n].max()) > max_x[0]:
                max_x = (float(full[:n].max()), tag)
            if h.num_gadgets:
                gap = float((full[n::2] - full[n + 1::2]).min())
                if gap < min_gap[0]:
                    min_gap = (gap, tag)

        res = solve(h, seeds, cfg, on_event=check)
        assert res.converged

    assert min_g[0] >= -1e-9, min_g
    assert max_x[0] <= 1.0 + 1e-12, max_x
    assert min_gap[0] >= -1e-12, min_gap
    assert worst_cons[0] <= 1e-9, worst_cons
    assert worst_damped[0] >= -1e-9, worst_damped
    assert worst_flow[0] <= 1e-9, worst_flow
    assert worst_target[0] <= 1e-9, worst_target
    assert worst_r_before[0] <= 1e-9, worst_r_before
    assert worst_progress[0] >= -1e-9, (
        "a push decreased the residual mass by less than "
        "gamma(r_before - rho*kappa*d_i)/(1+gamma), worst shortfall per unit "
        f"degree and (instance, event, kind): {worst_progress}")
