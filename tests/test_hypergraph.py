import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlocal.hypergraph import (
    GadgetParams,
    Hypergraph,
    HypergraphFormatError,
    conductance,
    cut_value,
    format_hgr,
    parse_gadget_lines,
    parse_hypergraph,
    set_metrics,
    splitting_penalty,
)

FOUR_TWO = "4 2\n1 2 3\n2 3 4\n"


def test_parse_basic_degrees():
    h = parse_hypergraph(FOUR_TWO, default_delta=1.0)
    assert h.num_nodes == 4
    assert len(h.hyperedges) == 2
    assert list(h.degrees) == [1.0, 2.0, 2.0, 1.0]
    assert h.total_volume == 6.0
    assert h.max_edge_size == 3


def test_parse_min_dominates_large_delta():
    h = parse_hypergraph("3 1\n1 2 3\n", default_delta=5.0)
    assert list(h.degrees) == [1.0, 1.0, 1.0]


def test_parse_comments_and_crlf():
    h = parse_hypergraph("% header comment\r\n4 2\r\n1 2 3\r\n% mid\r\n2 3 4  \r\n")
    assert len(h.hyperedges) == 2


@pytest.mark.parametrize("text", [
    "2 1\n1 1\n",          # duplicate node in a hyperedge
    "nope 1\n1 2\n",       # malformed header
    "2 1\n1 5\n",          # id out of range
    "3 1\n2\n",            # hyperedge of size < 2
    "2 1\n1 x\n",          # non-numeric token
    "3 2\n1 2\n",          # fewer edges than promised
    "2 1\n1 2\n1 2\n",     # more edges than promised
])
def test_parse_errors(text):
    with pytest.raises(HypergraphFormatError):
        parse_hypergraph(text)


def test_gadget_params_validation():
    with pytest.raises(ValueError):
        GadgetParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GadgetParams(1.0, 0.5)
    for c, delta in [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError):
            GadgetParams(c, delta)
    g = GadgetParams(2.0, 1.5)
    assert g.c == 2.0 and g.delta == 1.5


def test_splitting_penalty_examples():
    assert splitting_penalty([GadgetParams(1.0, 2.0)], 3, 5) == 2.0
    assert splitting_penalty([GadgetParams(3.0, 2.0)], 0, 5) == 0.0
    assert splitting_penalty([GadgetParams(1.0, 1000.0)], 1, 4) == 1.0
    # gadget lists add up
    two = [GadgetParams(1.0, 1.0), GadgetParams(0.5, 3.0)]
    assert splitting_penalty(two, 2, 6) == 1.0 + 0.5 * 2


def test_multigadget_degrees():
    h = Hypergraph(3, [(0, 1, 2)], [[GadgetParams(1.0, 1.0), GadgetParams(0.5, 2.0)]])
    assert list(h.degrees) == [1.5, 1.5, 1.5]
    assert h.num_gadgets == 2


def test_set_metrics_example():
    h = parse_hypergraph(FOUR_TWO)
    cut, vol, phi = set_metrics(h, {0, 1})
    assert cut == 2.0
    assert vol == 3.0
    assert phi == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_set_metrics_degenerate_sides():
    h = parse_hypergraph(FOUR_TWO)
    assert set_metrics(h, set()) == (0.0, 0.0, math.inf)
    cut, vol, phi = set_metrics(h, {0, 1, 2, 3})
    assert cut == 0.0 and phi == math.inf
    assert conductance(h, {0}) == 1.0


def test_parse_gadget_sidecar():
    rows = parse_gadget_lines("1:2 0.5:3\n2:1\n", 2)
    assert rows[0] == [GadgetParams(1.0, 2.0), GadgetParams(0.5, 3.0)]
    assert rows[1] == [GadgetParams(2.0, 1.0)]
    with pytest.raises(HypergraphFormatError):
        parse_gadget_lines("1:2\n", 2)          # row count mismatch
    with pytest.raises(HypergraphFormatError):
        parse_gadget_lines("1-2\n", 1)          # not c:delta
    with pytest.raises(HypergraphFormatError):
        parse_gadget_lines("0:1\n", 1)          # c must be positive
    with pytest.raises(HypergraphFormatError):
        parse_gadget_lines("1:inf\n", 1)        # delta must be finite
    with pytest.raises(HypergraphFormatError):
        parse_gadget_lines("inf:1\n", 1)        # c must be finite


def test_sidecar_repeated_tokens_share_params():
    rows = parse_gadget_lines("1:2 2:1\n2:1\n1:2 1:2\n", 3)
    assert rows == [[GadgetParams(1.0, 2.0), GadgetParams(2.0, 1.0)],
                    [GadgetParams(2.0, 1.0)],
                    [GadgetParams(1.0, 2.0), GadgetParams(1.0, 2.0)]]
    assert rows[2][0] is rows[2][1] is rows[0][0]


@pytest.mark.parametrize("bad, why", [("0:1", "positive"), ("1-2", "c:delta"),
                                      ("x:1", "non-numeric")])
def test_sidecar_bad_token_keeps_its_line(bad, why):
    # A bad token is never memoized: its first use, on line 3, is the one
    # reported, after valid tokens on lines 1-2 and before its repeat.
    text = f"1:2\n1:2 2:1\n2:1 {bad}\n{bad}\n"
    with pytest.raises(HypergraphFormatError, match=f"^line 3: .*{why}") as exc:
        parse_gadget_lines(text, 4)
    assert bad in str(exc.value) or why == "positive"
    with pytest.raises(HypergraphFormatError, match=f"^line 1: .*{why}"):
        parse_gadget_lines(f"{bad}\n", 1)


def test_format_hgr_round_trip():
    h = parse_hypergraph(FOUR_TWO)
    again = parse_hypergraph(format_hgr(h))
    assert again.hyperedges == h.hyperedges
    assert again.num_nodes == h.num_nodes


def test_repr_smoke():
    h = parse_hypergraph(FOUR_TWO)
    assert "4" in repr(h)


edge_sizes = st.integers(min_value=2, max_value=6)


@st.composite
def small_hypergraphs(draw, max_n=9, max_m=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    edges = []
    gadgets = []
    for _ in range(m):
        size = draw(st.integers(min_value=2, max_value=min(6, n)))
        edge = tuple(sorted(draw(st.permutations(range(n)))[:size]))
        edges.append(edge)
        delta = draw(st.sampled_from([1.0, 2.0, 3.0, math.ceil(size / 2)]))
        c = draw(st.sampled_from([1.0, 0.5, 2.0]))
        gadgets.append([GadgetParams(c, delta)])
    return Hypergraph(n, edges, gadgets)


@given(small_hypergraphs(), st.integers(min_value=0, max_value=2 ** 9 - 1))
@settings(max_examples=120, deadline=None)
def test_cut_complement_symmetry(h, mask):
    s = {v for v in range(h.num_nodes) if mask >> v & 1}
    comp = set(range(h.num_nodes)) - s
    assert cut_value(h, s) == pytest.approx(cut_value(h, comp), abs=1e-12)
    assert conductance(h, s) == pytest.approx(conductance(h, comp), abs=1e-12) \
        or (math.isinf(conductance(h, s)) and math.isinf(conductance(h, comp)))


@given(st.integers(min_value=2, max_value=6),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0]),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=80, deadline=None)
def test_penalty_symmetry_and_submodularity(size, delta, c):
    gl = [GadgetParams(c, delta)]
    pen = [splitting_penalty(gl, k, size) for k in range(size + 1)]
    for k in range(size + 1):
        assert pen[k] == pytest.approx(pen[size - k], abs=1e-12)
    # cardinality-based submodularity: f(A)+f(B) >= f(A|B)+f(A&B) reduces to
    # concavity of the count profile; check all subset pairs on one edge.
    edge = list(range(size))
    for amask in range(1 << size):
        for bmask in range(1 << size):
            fa = pen[bin(amask).count("1")]
            fb = pen[bin(bmask).count("1")]
            fu = pen[bin(amask | bmask).count("1")]
            fi = pen[bin(amask & bmask).count("1")]
            assert fa + fb >= fu + fi - 1e-12


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=30, deadline=None)
def test_large_delta_is_plain_min(size):
    delta = math.ceil(size / 2)
    gl = [GadgetParams(1.0, float(delta))]
    for k in range(size + 1):
        assert splitting_penalty(gl, k, size) == min(k, size - k)
