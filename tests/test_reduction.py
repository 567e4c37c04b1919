import math

import pytest

from hyperlocal.hypergraph import GadgetParams, Hypergraph, cut_value, parse_hypergraph
from hyperlocal.reduction import build_localized_cut_graph, build_reduced_graph

FOUR_TWO = "4 2\n1 2 3\n2 3 4\n"


def test_reduced_counts():
    h = parse_hypergraph(FOUR_TWO)
    g = build_reduced_graph(h)
    assert g.node_count == 8
    assert len(g.arcs) == 14
    assert [arc for arc in g.arcs if arc[0] >= 4 and arc[1] >= 4] == [(4, 5, 1.0), (6, 7, 1.0)]
    assert list(g.degree_vector) == [1, 2, 2, 1, 0, 0, 0, 0]


def test_reduced_no_edges():
    g = build_reduced_graph(Hypergraph(3, []))
    assert g.node_count == 3
    assert g.arcs == []


def test_reduced_arc_weights():
    h = Hypergraph(2, [(0, 1)], [[GadgetParams(2.0, 1.5)]])
    g = build_reduced_graph(h)
    a, b = 2, 3
    assert g.arcs == [(0, a, 2.0), (1, a, 2.0), (b, 0, 2.0), (b, 1, 2.0), (a, b, 3.0)]


def test_localized_arcs():
    h = parse_hypergraph(FOUR_TWO)
    g = build_localized_cut_graph(build_reduced_graph(h), {0}, 0.1)
    s, t = g.source_id, g.sink_id
    assert (s, t) == (8, 9)
    extra = g.arcs[14:]
    assert extra == [(8, 0, pytest.approx(0.1)),
                     (1, 9, pytest.approx(0.2)),
                     (2, 9, pytest.approx(0.2)),
                     (3, 9, pytest.approx(0.1))]


def test_localized_all_seeds():
    h = parse_hypergraph(FOUR_TWO)
    g = build_localized_cut_graph(build_reduced_graph(h), {0, 1, 2, 3}, 0.5)
    extra = g.arcs[14:]
    assert all(arc[0] == g.source_id for arc in extra)
    assert len(extra) == 4


def test_localized_errors():
    h = parse_hypergraph(FOUR_TWO)
    g = build_reduced_graph(h)
    with pytest.raises(ValueError):
        build_localized_cut_graph(g, {0}, 0.0)
    with pytest.raises(ValueError):
        build_localized_cut_graph(g, set(), 0.1)
    lonely = build_reduced_graph(Hypergraph(3, [(0, 1)]))  # node 2 has degree 0
    with pytest.raises(ValueError):
        build_localized_cut_graph(lonely, {2}, 0.1)


def test_volume_matches_through_reduction():
    h = parse_hypergraph(FOUR_TWO)
    g = build_reduced_graph(h)
    # auxiliaries weigh nothing, so any T has vol_G(T) = vol_H(T & V)
    for t_set in ({0, 4, 5}, {1, 2, 6}, set(), {0, 1, 2, 3, 4, 5, 6, 7}):
        vol_g = sum(g.degree_vector[v] for v in t_set)
        vol_h = h.volume([v for v in t_set if v < 4])
        assert vol_g == vol_h


def test_min_placement_reproduces_hypergraph_cut():
    """Brute-force the auxiliary placements on a 2-gadget instance: the best
    directed cut over placements must equal the hypergraph cut for every S."""
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)],
                   [[GadgetParams(1.0, 1.0)], [GadgetParams(1.0, 2.0)]])
    g = build_reduced_graph(h)
    n = 4
    for mask in range(1 << n):
        s = {v for v in range(n) if mask >> v & 1}
        best = math.inf
        for place in range(4 ** h.num_gadgets):
            t_set = set(s)
            code = place
            for j in range(h.num_gadgets):
                bits = code % 4
                code //= 4
                if bits & 1:
                    t_set.add(n + 2 * j)
                if bits & 2:
                    t_set.add(n + 2 * j + 1)
            best = min(best, sum(w for tail, head, w in g.arcs
                                 if tail in t_set and head not in t_set))
        assert best == pytest.approx(cut_value(h, s), abs=1e-12)
