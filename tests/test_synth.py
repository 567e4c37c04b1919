"""Generator determinism, planted structure, and seed-sampling distribution
checks."""
import math
from collections import Counter

import pytest

from hyperlocal.hypergraph import GadgetParams, Hypergraph, format_hgr, parse_hypergraph, set_metrics
from hyperlocal.synth import SplitMix64, format_labels, planted_hypergraph, sample_seeds


def gen(**kw):
    kw.setdefault("blocks", [20, 20])
    kw.setdefault("edges_per_block", 40)
    kw.setdefault("edge_size_range", (3, 6))
    kw.setdefault("cross_edge_fraction", 0.05)
    kw.setdefault("rng_seed", 7)
    return planted_hypergraph(**kw)


# ---------------------------------------------------------------------------
# SplitMix64 stream


def test_splitmix_reference_stream():
    # First outputs of the published constants from seed 0; anchors the
    # generator across platforms.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix_random_unit_interval():
    rng = SplitMix64(123)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_splitmix_randrange_rejection_is_uniform_ish():
    rng = SplitMix64(5)
    counts = Counter(rng.randrange(3) for _ in range(3000))
    assert set(counts) == {0, 1, 2}
    assert all(abs(c - 1000) < 150 for c in counts.values())


def test_splitmix_sample_distinct_sorted_domain():
    rng = SplitMix64(99)
    got = rng.sample(range(10, 30), 7)
    assert len(got) == len(set(got)) == 7
    assert all(10 <= v < 30 for v in got)


# ---------------------------------------------------------------------------
# planted_hypergraph


def test_identical_bytes_on_repeated_calls():
    h1, l1 = gen(blocks=[100, 100], edges_per_block=300, rng_seed=7)
    h2, l2 = gen(blocks=[100, 100], edges_per_block=300, rng_seed=7)
    assert format_hgr(h1) == format_hgr(h2)
    assert l1 == l2


def test_different_seed_changes_edges():
    h1, _ = gen(rng_seed=7)
    h2, _ = gen(rng_seed=8)
    assert format_hgr(h1) != format_hgr(h2)


def test_labels_partition_nodes_in_block_order():
    h, labels = gen(blocks=[5, 7, 3], edges_per_block=4, edge_size_range=(2, 3))
    assert h.num_nodes == 15
    assert list(labels) == [0] * 5 + [1] * 7 + [2] * 3


def test_zero_cross_fraction_gives_zero_block_conductance():
    h, labels = gen(cross_edge_fraction=0.0)
    block0 = {v for v, b in enumerate(labels) if b == 0}
    cut, _, phi = set_metrics(h, block0)
    assert cut == 0.0
    assert phi == 0.0


def test_full_cross_fraction_straddles_blocks():
    h, labels = gen(cross_edge_fraction=1.0)
    for edge in h.hyperedges:
        assert len({labels[v] for v in edge}) == 2


def test_cross_edges_raise_block_conductance():
    h, labels = gen(cross_edge_fraction=0.3, rng_seed=11)
    block0 = {v for v, b in enumerate(labels) if b == 0}
    _, _, phi = set_metrics(h, block0)
    assert 0.0 < phi < 1.0


def test_chain_scope_limits_cross_edges_to_neighbors():
    h, labels = gen(blocks=[10, 10, 10, 10], cross_edge_fraction=1.0,
                    cross_scope="chain", edge_size_range=(2, 3))
    for edge in h.hyperedges:
        touched = sorted({labels[v] for v in edge})
        assert len(touched) == 2
        assert touched[1] - touched[0] == 1


def test_block_prefix_is_stable_under_chain_growth():
    # Adding more blocks must not change the edges generated for the earlier
    # blocks (the locality acceptance comparison depends on this).
    short, _ = gen(blocks=[30, 30], edges_per_block=25, cross_scope="chain",
                   edge_size_range=(2, 4), rng_seed=13)
    long_, _ = gen(blocks=[30, 30, 30, 30], edges_per_block=25, cross_scope="chain",
                   edge_size_range=(2, 4), rng_seed=13)
    short_edges = set(short.hyperedges)
    long_edges = set(long_.hyperedges)
    missing = short_edges - long_edges
    # Only edges of the last short-chain block may differ (its cross edges
    # attach backwards at the chain end but forwards mid-chain).
    assert all(any(v >= 30 for v in e) for e in missing)


def test_delta_parameter_sets_gadget_caps():
    h, _ = gen(delta=2.0)
    assert all(float(d) == 2.0 for d in h.gadget_delta)


@pytest.mark.parametrize("delta", [1.0, 2.0])
def test_delta_gadgets_match_per_edge_lists(delta):
    """The generator's uniform gadget arrays are those of one GadgetParams
    list per edge, byte for byte."""
    h, _ = gen(delta=delta)
    ref = Hypergraph(h.num_nodes, list(h.hyperedges),
                     [[GadgetParams(1.0, delta)] for _ in h.hyperedges])
    for name in ("gadget_edge", "gadget_c", "gadget_delta", "degrees", "incidence"):
        got, want = getattr(h, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_generated_instances_parse_clean():
    h, _ = gen(rng_seed=21)
    rt = parse_hypergraph(format_hgr(h))
    assert list(rt.hyperedges) == list(h.hyperedges)
    assert all(len(e) >= 2 for e in h.hyperedges)
    assert all(0 <= v < h.num_nodes for e in h.hyperedges for v in e)


@pytest.mark.parametrize("kw,err", [
    (dict(blocks=[]), "block"),
    (dict(edge_size_range=(1, 3)), "size"),
    (dict(edge_size_range=(4, 3)), "size"),
    (dict(blocks=[4, 20], edge_size_range=(3, 6)), "block"),
    (dict(cross_edge_fraction=1.5), "fraction"),
    (dict(edges_per_block=0), "edges_per_block"),
    (dict(cross_scope="ring"), "scope"),
])
def test_generator_validation(kw, err):
    with pytest.raises(ValueError, match=err):
        gen(**kw)


def test_format_labels_one_based():
    _, labels = gen(blocks=[2, 2], edges_per_block=1, edge_size_range=(2, 2))
    text = format_labels(labels)
    assert text.splitlines()[0] == "1 1"
    assert text.splitlines()[-1] == "4 2"


# ---------------------------------------------------------------------------
# sample_seeds


def test_whole_block_returned_when_k_equals_size():
    h, labels = gen(blocks=[6, 8], edges_per_block=10, edge_size_range=(2, 3))
    got = sample_seeds(labels, 1, 8, "uniform", 3)
    assert got == tuple(range(6, 14))


def test_degree_proportional_degenerate_block():
    # Only one node of the block carries degree: it must always be drawn.
    labels = [0, 0, 0]
    degrees = [0.0, 2.5, 0.0]
    for s in range(5):
        assert sample_seeds(labels, 0, 1, "degree_proportional", s, degrees=degrees) == (1,)


def test_sampling_is_deterministic():
    h, labels = gen(blocks=[100, 100], edges_per_block=200)
    a = sample_seeds(labels, 0, 10, "uniform", 42)
    b = sample_seeds(labels, 0, 10, "uniform", 42)
    assert a == b and len(a) == 10
    assert all(labels[v] == 0 for v in a)


def test_uniform_seeds_are_distinct_nodes_of_the_block():
    h, labels = gen()
    got = sample_seeds(labels, 1, 5, "uniform", 9)
    assert len(set(got)) == 5
    assert all(labels[v] == 1 for v in got)


def test_degree_proportional_marginals():
    # chi^2-style sanity: 10^4 single draws from a 4-node block with degree
    # weights 1:2:3:4; each empirical count within 3 sigma of expectation.
    labels = [0, 0, 0, 0]
    degrees = [1.0, 2.0, 3.0, 4.0]
    n_draws = 10 ** 4
    counts = Counter()
    for s in range(n_draws):
        counts[sample_seeds(labels, 0, 1, "degree_proportional", s, degrees=degrees)[0]] += 1
    total_w = sum(degrees)
    for v, w in enumerate(degrees):
        p = w / total_w
        mean = n_draws * p
        sigma = math.sqrt(n_draws * p * (1 - p))
        assert abs(counts[v] - mean) <= 3 * sigma, (v, counts[v], mean, sigma)


@pytest.mark.parametrize("kw,err", [
    (dict(k=50), "draw"),
    (dict(block=9), "block"),
    (dict(mode="lottery"), "mode"),
])
def test_sample_seeds_validation(kw, err):
    h, labels = gen(blocks=[6, 8], edges_per_block=10, edge_size_range=(2, 3))
    args = dict(labels=labels, block=0, k=2, mode="uniform", rng_seed=1)
    args.update(kw)
    with pytest.raises(ValueError, match=err):
        sample_seeds(args["labels"], args["block"], args["k"], args["mode"], args["rng_seed"])
