"""Sweepcut and metric tests."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import full_scan_delta_bar, full_scan_sweepcut, random_instance
from hyperlocal.hypergraph import GadgetParams, Hypergraph, _Rows, parse_hypergraph, set_metrics
from hyperlocal.quadratic import DiffusionConfig, solve
from hyperlocal.sweep import boundary_delta_bar, prf1, profile_csv, sweepcut
from hyperlocal.synth import SplitMix64, planted_hypergraph, sample_seeds

H44 = parse_hypergraph("4 2\n1 2 3\n2 3 4\n")


def test_two_step_profile():
    prof = sweepcut(H44, {0: 0.9, 1: 0.6})
    assert prof.order == [0, 1]
    assert prof.prefix_conductance == pytest.approx([1.0, 2.0 / 3.0])
    assert prof.best_set == (0, 1)
    assert prof.best_conductance == pytest.approx(2.0 / 3.0)
    assert prof.prefix_vol == [1.0, 3.0]
    assert prof.prefix_cut == pytest.approx([1.0, 2.0])


def test_single_entry():
    prof = sweepcut(H44, {2: 0.3})
    assert prof.best_set == (2,)
    assert prof.best_conductance == pytest.approx(set_metrics(H44, {2})[2])


def test_ties_break_by_ascending_id():
    prof = sweepcut(H44, {3: 0.5, 1: 0.5, 2: 0.5})
    assert prof.order == [1, 2, 3]


def test_all_zero_rejected():
    with pytest.raises(ValueError, match="positive"):
        sweepcut(H44, {})
    with pytest.raises(ValueError, match="positive"):
        sweepcut(H44, {0: 0.0, 1: -0.5})


def test_auxiliary_entries_ignored():
    prof = sweepcut(H44, {0: 0.9, 1: 0.6, 4: 5.0, 7: 3.0})
    assert prof.order == [0, 1]


def test_negative_node_id_rejected():
    with pytest.raises(ValueError, match="negative"):
        sweepcut(H44, {0: 0.9, -1: 0.5})


def test_full_support_prefix_is_skipped_for_best():
    # The last prefix covers all of V: min side volume 0, conductance inf.
    prof = sweepcut(H44, {0: 0.9, 1: 0.7, 2: 0.5, 3: 0.3})
    assert math.isinf(prof.prefix_conductance[-1])
    assert prof.best_set == (0, 1)


def test_scale_invariance():
    x = {0: 0.9, 2: 0.4, 3: 0.1}
    a = sweepcut(H44, x)
    b = sweepcut(H44, {k: 17.0 * v for k, v in x.items()})
    assert a.order == b.order
    assert a.best_set == b.best_set
    assert a.best_conductance == pytest.approx(b.best_conductance)


def test_best_is_minimum_over_prefixes():
    prof = sweepcut(H44, {0: 0.9, 2: 0.4, 3: 0.1})
    finite = [c for c in prof.prefix_conductance if math.isfinite(c)]
    assert prof.best_conductance == min(finite)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_incremental_cut_matches_scratch_metrics(seed):
    h = random_instance(seed, max_n=50, max_m=60, max_size=6, min_n=4)
    rng = SplitMix64(seed ^ 0xC0FFEE)
    support = rng.sample(range(h.num_nodes), 1 + rng.randrange(h.num_nodes - 1))
    x = {v: rng.random() + 1e-9 for v in support}
    prof = sweepcut(h, x)
    for r in range(len(prof.order)):
        prefix = set(prof.order[: r + 1])
        cut, vol, phi = set_metrics(h, prefix)
        assert prof.prefix_cut[r] == pytest.approx(cut, abs=1e-9)
        assert prof.prefix_vol[r] == pytest.approx(vol, abs=1e-9)
        if math.isfinite(phi) or math.isfinite(prof.prefix_conductance[r]):
            assert prof.prefix_conductance[r] == pytest.approx(phi, abs=1e-9)


# ---------------------------------------------------------------------------
# boundary_delta_bar


def test_delta_bar_unit_edges():
    assert boundary_delta_bar(H44, {0, 1}) == 1.0


def test_delta_bar_caps_at_half_edge_size():
    h = Hypergraph(4, [(0, 1, 2, 3)], [[GadgetParams(1.0, 5.0)]])
    assert boundary_delta_bar(h, {0}) == 2.0


def test_delta_bar_no_boundary():
    assert boundary_delta_bar(H44, set()) == 0.0
    assert boundary_delta_bar(H44, {0, 1, 2, 3}) == 0.0


def test_delta_bar_multi_gadget_takes_saturation_cap():
    h = Hypergraph(6, [(0, 1, 2, 3, 4, 5)],
                   [[GadgetParams(1.0, 1.0), GadgetParams(0.5, 2.0)]])
    assert boundary_delta_bar(h, {0}) == 2.0


# ---------------------------------------------------------------------------
# the local sweep against a full scan of the hypergraph


def multigadget_instance(seed):
    """10-40 nodes, edges of 2-6 nodes carrying 1-3 gadgets with distinct
    deltas; with probability 1/4 a second component that x never reaches."""
    rng = SplitMix64(seed)
    n = 10 + rng.randrange(31)
    split = n // 2 if rng.randrange(4) == 0 else n
    edges, gadgets = [], []
    for _ in range(1 + rng.randrange(60)):
        lo, hi = (0, split) if split == n or rng.randrange(2) else (split, n)
        size = 2 + rng.randrange(min(6, hi - lo) - 1)
        edges.append(tuple(sorted(rng.sample(range(lo, hi), size))))
        deltas = rng.sample([1.0, 1.5, 2.0, 3.0, 7.0], 1 + rng.randrange(3))
        gadgets.append([GadgetParams(0.25 + rng.random(), d) for d in deltas])
    return Hypergraph(n, edges, gadgets), split


def sweep_case(seed):
    """A multi-gadget instance and a dict x over part of its first component,
    with tied values and a few auxiliary entries past num_nodes."""
    h, split = multigadget_instance(seed)
    rng = SplitMix64(seed ^ 0x5EEB)
    support = rng.sample(range(split), 1 + rng.randrange(split))
    levels = [rng.random() + 1e-9 for _ in range(1 + rng.randrange(4))]
    x = {v: levels[rng.randrange(len(levels))] for v in support}
    for aux in range(h.num_nodes, h.num_nodes + 1 + rng.randrange(4)):
        x[aux] = 2.0
    return h, x


@pytest.mark.parametrize("seed", range(150))
def test_local_sweep_matches_full_scan(seed):
    h, x = sweep_case(seed)
    prof = sweepcut(h, x)
    assert prof == full_scan_sweepcut(h, x)
    for r in range(len(prof.order) + 1):
        prefix = prof.order[:r]
        assert boundary_delta_bar(h, prefix) == full_scan_delta_bar(h, prefix)
    outside = [h.num_nodes, h.num_nodes + 5, -1]
    assert boundary_delta_bar(h, prof.order + outside) == full_scan_delta_bar(h, prof.order)


def test_sweep_cases_cover_both_boundary_kinds():
    """The cases above reach tied values and best sets with and without
    crossing edges (a whole component: cut 0, delta_bar 0)."""
    crossing = closed = tied = 0
    for seed in range(150):
        h, x = sweep_case(seed)
        prof = full_scan_sweepcut(h, x)
        tied += len(set(prof.x_values)) < len(prof.x_values)
        if prof.best_set and full_scan_delta_bar(h, prof.best_set) > 0:
            crossing += 1
        elif prof.best_set:
            closed += 1
    assert crossing and closed and tied, (crossing, closed, tied)


class _CountingSequence:
    """Wraps a memoized view, counting indexed reads and whole iterations."""

    def __init__(self, items):
        self.items = items
        self.reads = 0
        self.iterations = 0

    def __getitem__(self, k):
        self.reads += 1
        return self.items[k]

    def __iter__(self):
        self.iterations += 1
        return iter(self.items)


CHAIN_CFG = DiffusionConfig(gamma=0.1, kappa=0.01, rho=0.5)


def _chain(kblocks):
    """The chain of acceptance check 6 with `kblocks` blocks and five seeds
    in block 0."""
    h, labels = planted_hypergraph([50] * kblocks, 120, (3, 5), 0.05, 4242,
                                   cross_scope="chain", delta=1.0)
    return h, sample_seeds(labels, 0, 5, "uniform", 99, degrees=h.degrees)


def test_sweep_work_stays_flat_as_chain_grows():
    """The chain of acceptance check 6 at 10 and 100 blocks, seeded in block
    0: sweepcut plus boundary_delta_bar never iterate the views they read
    whole, and read exactly as many entries at both sizes."""
    reads = {}
    for kblocks in (10, 100):
        h, seeds = _chain(kblocks)
        res = solve(h, seeds, CHAIN_CFG)
        wrapped = {name: _CountingSequence(getattr(h, name))
                   for name in ("incident_gadgets", "edge_of", "degree_of")}
        for name, seq in wrapped.items():
            setattr(h, name, seq)
        wrapped["gadgets.memo"] = h.gadgets.memo = _CountingSequence(h.gadgets.memo)
        prof = sweepcut(h, res.x)
        boundary_delta_bar(h, prof.best_set)
        assert all(seq.iterations == 0 for seq in wrapped.values())
        reads[kblocks] = {name: seq.reads for name, seq in wrapped.items()}
        assert all(reads[kblocks].values())
    assert reads[10] == reads[100], reads


class _Untouchable:
    """Stands in for an array that a strongly local query must not read."""

    def __getattr__(self, name):
        raise AssertionError(f"a query read a whole array ({name})")

    def __getitem__(self, k):
        raise AssertionError("a query indexed a whole array")

    def __iter__(self):
        raise AssertionError("a query iterated a whole array")

    def __len__(self):
        raise AssertionError("a query took the length of a whole array")


_ARRAYS = ("edge_offsets", "edge_members", "gadget_edge", "gadget_c", "gadget_delta",
           "incidence_offsets", "incidence", "degrees")
_VIEWS = ("incident_gadgets", "degree_of", "members_of", "edge_of", "c_of", "wab_of",
          "settle_of")


def test_query_reads_a_local_memo_of_python_scalars(monkeypatch):
    """Solve, sweep and boundary_delta_bar on the chain at 10 and 100 blocks
    read the hypergraph only through its memoized views: the arrays are
    never touched, the row views are never iterated, and every view holds
    as many entries at both sizes. Every value that reaches the state and
    the profile is a Python float, not a numpy scalar, and the settle
    records hold only Python scalars and tuples."""
    def no_iteration(self):
        raise AssertionError("a query iterated a row view whole")

    monkeypatch.setattr(_Rows, "__iter__", no_iteration)
    held = {}
    for kblocks in (10, 100):
        h, seeds = _chain(kblocks)
        for name in _ARRAYS:
            setattr(h, name, _Untouchable())
        res = solve(h, seeds, CHAIN_CFG)
        prof = sweepcut(h, res.x)
        boundary_delta_bar(h, prof.best_set)
        held[kblocks] = {name: len(getattr(h, name)) for name in _VIEWS}
        held[kblocks]["hyperedges"] = len(h.hyperedges.memo)
        held[kblocks]["gadgets"] = len(h.gadgets.memo)
        assert all(held[kblocks].values())
        for values in (res.state.x.values(), res.state.r.values(), prof.prefix_vol):
            assert all(type(v) is float for v in values)
        for wab, members, tol, rounds in h.settle_of.values():
            assert (type(wab), type(tol), type(rounds)) == (float, float, int)
            assert type(members) is tuple and all(type(v) is int for v in members)
    assert held[10] == held[100], held


# ---------------------------------------------------------------------------
# prf1 and CSV export


@pytest.mark.parametrize("pred,truth,expect", [
    ({1, 2}, {2, 3}, (0.5, 0.5, 0.5)),
    ({1, 2}, {1, 2}, (1.0, 1.0, 1.0)),
    ({1}, {2}, (0.0, 0.0, 0.0)),
    (set(), {1}, (0.0, 0.0, 0.0)),
])
def test_prf1(pred, truth, expect):
    assert prf1(pred, truth) == pytest.approx(expect)


def test_profile_csv_golden():
    prof = sweepcut(H44, {0: 0.9, 1: 0.6})
    assert profile_csv(prof) == (
        "rank,node,x,prefix_vol,prefix_cut,prefix_conductance\n"
        "1,1,0.9,1,1,1\n"
        "2,2,0.6,3,2,0.666666666667\n"
    )


def test_profile_csv_renders_inf():
    prof = sweepcut(H44, {0: 1.0, 1: 0.9, 2: 0.8, 3: 0.7})
    assert profile_csv(prof).strip().endswith(",inf")
