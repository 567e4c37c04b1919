import gc
import math
import time
import tracemalloc
from functools import partial
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceHypergraph,
    full_scan_cut_value,
    reference_parse_edges,
    reference_parse_gadget_lines,
)
from hyperlocal import hypergraph
from hyperlocal.hypergraph import (
    _BREAK,
    _BYTE_KIND,
    _SPACE,
    _UNICODE_WHITESPACE,
    MAX_NODES,
    GadgetParams,
    GadgetRows,
    Hypergraph,
    HypergraphFormatError,
    IdOutOfRange,
    _gadget_arrays,
    _parse_edges,
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


@pytest.mark.parametrize("bad", [-1, 4, 10])
def test_volume_and_set_metrics_reject_out_of_range_ids(bad):
    """An id outside [0, n) raises ValueError naming it, and is never read
    as a degree (-1 as node n - 1's, say) or left to numpy's IndexError."""
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3), (2, 3)])
    for metric in (h.volume, partial(set_metrics, h)):
        with pytest.raises(ValueError, match=rf"^node id {bad} out of range$"):
            metric([0, bad])
    assert h.volume([0, 3]) == 3.0


@pytest.mark.parametrize("bad", [-1, 4, 10])
def test_cut_value_rejects_out_of_range_ids(bad):
    """cut_value raises on an id outside [0, n), as set_metrics does, rather
    than returning the cut of the set without it."""
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3), (2, 3)])
    with pytest.raises(IdOutOfRange, match=rf"^node id {bad} out of range$"):
        cut_value(h, {0, bad})
    assert cut_value(h, {0}) == 1.0


@pytest.mark.parametrize("n, message", [(0, "hypergraph needs at least one node"),
                                        (MAX_NODES + 1, f"at most {MAX_NODES} nodes")])
def test_node_count_outside_the_id_range_is_rejected(n, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        Hypergraph(n, [])


@pytest.mark.parametrize("gadgets, message", [
    (parse_gadget_lines("1:2\n", 1), "need exactly one gadget list per hyperedge"),
    ([[GadgetParams()]], "need exactly one gadget list per hyperedge"),
    ([[GadgetParams()], []], "empty gadget list"),
])
def test_gadget_rows_must_match_the_edges(gadgets, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Hypergraph(4, [(0, 1, 2), (2, 3)], gadgets)


@pytest.mark.parametrize("in_count", [-1, 4])
def test_splitting_penalty_rejects_in_count_outside_the_edge(in_count):
    with pytest.raises(ValueError, match=rf"^in_count {in_count} outside \[0, 3\]$"):
        splitting_penalty([GadgetParams()], in_count, 3)


# (view, id kind, count) of every id-keyed view of
# Hypergraph(4, [(0, 1, 2), (1, 2, 3), (2, 3)]): one gadget per edge.
ID_VIEWS = [("incident_gadgets", "node", 4), ("degree_of", "node", 4),
            ("members_of", "gadget", 3), ("edge_of", "gadget", 3), ("c_of", "gadget", 3),
            ("wab_of", "gadget", 3), ("settle_of", "gadget", 3),
            ("hyperedges.memo", "edge", 3), ("gadgets.memo", "edge", 3)]


@pytest.mark.parametrize("name,kind,count", ID_VIEWS)
@pytest.mark.parametrize("where", ["below", "above"])
def test_views_reject_keys_outside_their_range(name, kind, count, where):
    """A key outside [0, count) raises an error that is both an IndexError
    and a ValueError, naming the id, and nothing is memoized under it: -1
    is not read as the last entry, count not left to numpy's IndexError."""
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3), (2, 3)])
    view = attrgetter(name)(h)
    key = -1 if where == "below" else count
    for error in (IndexError, ValueError):
        with pytest.raises(error, match=rf"^{kind} id {key} out of range$"):
            view[key]
    assert len(view) == 0
    assert h.hyperedges[-1] == (2, 3) and h.gadgets[-1] == [GadgetParams()]
    for rows in (h.hyperedges, h.gadgets):
        # An index below -count is named as given, not as -count added to it.
        with pytest.raises(IndexError, match=r"^edge id -4 out of range$"):
            rows[-4]


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
    assert list(rows) == [[GadgetParams(1.0, 2.0), GadgetParams(2.0, 1.0)],
                          [GadgetParams(2.0, 1.0)],
                          [GadgetParams(1.0, 2.0), GadgetParams(1.0, 2.0)]]


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
    assert list(again.hyperedges) == list(h.hyperedges)
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
    for side in (s, comp):
        # The incident-edge cut adds the same penalties in the same order as
        # the scan over all edges, so the two agree exactly.
        assert cut_value(h, side) == full_scan_cut_value(h, side)
        assert set_metrics(h, side)[:2] == (full_scan_cut_value(h, side),
                                            float(sum(h.degrees[v] for v in side)))
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


# ---------------------------------------------------------------------------
# The columnar build and the vectorized parser against the list-based
# reference (tests/helpers.py)


def assert_same_as_reference(h, ref):
    """Every array and view of h equals the reference, floats bit for bit."""
    n, m = ref.num_nodes, len(ref.hyperedges)
    assert h.num_nodes == n
    assert list(h.hyperedges) == ref.hyperedges == [h.hyperedges[k] for k in range(m)]
    assert list(h.gadgets) == ref.gadgets == [h.gadgets[k] for k in range(m)]
    assert h.degrees.tobytes() == ref.degrees.tobytes()
    assert h.total_volume == ref.total_volume
    assert h.gadget_edge.tolist() == ref.gadget_edge
    for name in ("gadget_c", "gadget_delta"):
        assert getattr(h, name).tobytes() == np.array(getattr(ref, name), dtype=float).tobytes()
    assert [list(h.incident_gadgets[v]) for v in range(n)] == ref.incident_gadgets
    assert [h.members_of[j] for j in range(h.num_gadgets)] == \
        [ref.hyperedges[k] for k in ref.gadget_edge]
    for j in range(h.num_gadgets):
        assert (h.edge_of[j], h.c_of[j], h.wab_of[j]) == \
            (ref.gadget_edge[j], ref.gadget_c[j], ref.gadget_wab[j])
    assert all(type(h.degree_of[v]) is float and h.degree_of[v] == ref.degrees[v]
               for v in range(n))
    for k, e in enumerate(ref.hyperedges):
        for inside in range(len(e) + 1):
            assert h.edge_penalty(k, inside) == ref.edge_penalty(k, inside)


@st.composite
def edge_lists(draw):
    """(n, edges, per-edge gadget rows) with 1-3 gadgets per edge."""
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=0, max_value=8))
    edges, rows = [], []
    for _ in range(m):
        size = draw(st.integers(min_value=2, max_value=min(6, n)))
        edges.append(tuple(draw(st.permutations(range(n)))[:size]))
        rows.append([GadgetParams(draw(st.sampled_from([1.0, 0.5, 0.1, 3.0])),
                                  draw(st.sampled_from([1.0, 1.5, 2.0, 7.0])))
                     for _ in range(draw(st.integers(min_value=1, max_value=3)))])
    return n, edges, rows


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_columnar_build_matches_list_reference(case):
    n, edges, rows = case
    ref = ReferenceHypergraph(n, edges, rows)
    h = Hypergraph(n, edges, rows)
    assert_same_as_reference(h, ref)
    # Built again from h's own views, the arrays are reused as they are.
    again = Hypergraph(n, h.hyperedges, h.gadgets)
    assert again.edge_members is h.edge_members and again.gadget_c is h.gadget_c
    assert_same_as_reference(again, ref)
    assert_same_as_reference(Hypergraph(n, h.hyperedges, rows), ref)
    assert_same_as_reference(Hypergraph(n, edges), ReferenceHypergraph(n, edges))


def _argsort_incidence(h):
    """(incidence_offsets, incidence) of h by a stable argsort of the
    gadget-major pairs' node ids."""
    pair_nodes = np.concatenate(
        [h.edge_members[h.edge_offsets[k]:h.edge_offsets[k + 1]] for k in h.gadget_edge.tolist()])
    gadget_ids = np.repeat(np.arange(h.num_gadgets, dtype=np.int32),
                           np.diff(h.edge_offsets)[h.gadget_edge])
    offsets = np.zeros(h.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_nodes, minlength=h.num_nodes), out=offsets[1:])
    return offsets, gadget_ids[np.argsort(pair_nodes, kind="stable")]


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1, 70_000])
def test_incidence_sort_matches_stable_argsort(n):
    """The build sorts packed (node, gadget) keys, not the nodes with their
    pair order as the tie-break. On 35 000 edges of 1-3 gadgets drawn from
    ids on both sides of 65 536 and ids that share their low 16 bits, the
    incidence arrays are those of a stable argsort of the nodes, byte for
    byte, with those gadgets and with one gadget per edge."""
    rng = np.random.default_rng(n)
    low = rng.choice(min(n, 1 << 16), size=150, replace=False)
    pool = np.unique(np.concatenate([low, low + (1 << 16), [0, 65534, 65535, 65536, n - 1]]))
    pool = pool[pool < n]
    edges, rows = [], []
    for _ in range(35_000):
        edges.append(tuple(rng.choice(pool, size=int(rng.integers(2, 7)), replace=False).tolist()))
        rows.append([GadgetParams(1.0, float(d)) for d in range(1, int(rng.integers(2, 5)))])
    assert any(min(e) < 1 << 16 <= max(e) for e in edges) == (n > 1 << 16)
    assert sum(map(len, rows)) > 1 << 16  # gadget ids past 16 bits too
    for h in (Hypergraph(n, edges, rows), Hypergraph(n, edges)):
        offsets, incidence = _argsort_incidence(h)
        assert h.incidence_offsets.dtype == offsets.dtype
        assert h.incidence_offsets.tobytes() == offsets.tobytes()
        assert h.incidence.dtype == incidence.dtype
        assert h.incidence.tobytes() == incidence.tobytes()


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 1), (2,)]),               # short edge
    (3, [(0, 1), (1, 2, 1)]),          # duplicate within an edge
    (3, [(0, 1, 5, 1)]),               # duplicate wins over out of range
    (3, [(0, -1)]),                    # negative id
    (3, [(0, 2 ** 70)]),               # beyond int64
    (3, [(0.0, 1.0), (1, 3)]),         # int() of floats, then out of range
    (3, [("0", "x")]),                 # not a number
    (3, [(0,), ("x", 1)]),             # a short edge wins over a later non-number
])
def test_edge_list_errors_match_reference(n, edges):
    with pytest.raises(ValueError) as want:
        ReferenceHypergraph(n, edges)
    with pytest.raises(ValueError) as got:
        Hypergraph(n, edges)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_reused_edge_view_is_checked_against_the_node_count():
    h = Hypergraph(5, [(0, 4), (1, 2)])
    with pytest.raises(ValueError, match=r"^node id 4 out of range \[0, 3\)$"):
        Hypergraph(3, h.hyperedges)


def test_edge_list_error_costs_no_more_than_the_build():
    """The error is worded from the first bad edge alone: on 150k 4-node
    edges whose last edge repeats a node it takes less than twice the build
    of the good list (a re-check of every edge in Python took 5x)."""
    n = 150_000
    good = [(k, k + 1, k + 2, k + 3) for k in range(n - 3)]
    bad = good[:-1] + [(n - 4, n - 3, n - 3, n - 1)]

    def rejected():
        with pytest.raises(ValueError) as exc:
            Hypergraph(n, bad)
        assert str(exc.value) == f"duplicate node within hyperedge {bad[-1]}"

    def best_of_5(build):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            build()
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_of_5(rejected) < 2 * best_of_5(lambda: Hypergraph(n, good))


_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
_SPACES = [" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000"]
_COMMENTS = ["%", "% a comment", "%%1 2 3", "  % caf\xe9 1 x", "\t%\t-3"]
_BAD_TOKENS = ["x", "1x", "+", "-", "+-1", "1.0", "0", "-1", "-0", "9" * 25, "1%", "%1",
               "\x00", "\xe9"]


@st.composite
def hgr_texts(draw):
    """.hgr text, valid or not: random ids, signs, zero padding, separators,
    line endings, blank and comment lines, and now and then a bad token, a
    short or repeated edge, a bad header or a wrong edge count."""
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=5))
    bad = draw(st.booleans())

    def token(v):
        if bad and draw(st.integers(min_value=0, max_value=14)) == 0:
            return draw(st.sampled_from(_BAD_TOKENS + [str(n + 1)]))
        return draw(st.sampled_from(["", "+", "0", "00", "+0"])) + str(v)

    header = [str(n), str(m)]
    if bad and draw(st.integers(min_value=0, max_value=5)) == 0:
        header = draw(st.sampled_from([[str(n)], header + ["1"], ["x", str(m)],
                                       ["0", str(m)], [str(n), "-1"], ["+" + str(n), "0" + str(m)]]))
    lines = [header]
    count = m + (draw(st.sampled_from([-1, 1])) if bad and m and draw(st.booleans()) else 0)
    for _ in range(count if n >= 2 else 0):
        size = draw(st.integers(min_value=2, max_value=min(n, 5)))
        ids = list(draw(st.permutations(range(1, n + 1)))[:size])
        if bad and draw(st.integers(min_value=0, max_value=6)) == 0:
            ids = draw(st.sampled_from([ids[:1], ids + ids[:1]]))
        lines.append([token(v) for v in ids])
    out = []
    for toks in lines:
        for _ in range(draw(st.integers(min_value=0, max_value=1))):
            out.append(draw(st.sampled_from(["", " ", "\t"] + _COMMENTS)))
        sep = draw(st.sampled_from(_SPACES))
        out.append(draw(st.sampled_from(["", " "])) + sep.join(toks) + draw(st.sampled_from(["", " \t"])))
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in out]
    return "".join(line + end for line, end in zip(out, ends))[: None if draw(st.booleans()) else -1]


def _outcome(parse, text):
    try:
        n, edges = parse(text)
    except HypergraphFormatError as exc:
        return "error", str(exc)
    return "ok", n, list(edges)


@given(hgr_texts())
@settings(max_examples=400, deadline=None)
def test_vectorized_parse_matches_line_reference(text):
    got = _outcome(_parse_edges, text)
    assert got == _outcome(reference_parse_edges, text)
    if got[0] == "ok":
        n, edges = got[1:]
        assert_same_as_reference(parse_hypergraph(text, 1.5), ReferenceHypergraph(
            n, edges, [[GadgetParams(1.0, 1.5)] for _ in edges]))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@given(text=hgr_texts())
@settings(max_examples=150, deadline=None)
def test_chunked_parse_matches_line_reference(chunk, text):
    """Pieces of 1, 7 and 64 characters (extended to a line break) give the
    outcome the whole-text line parser gives."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_SCAN_CHUNK", chunk)
        assert _outcome(_parse_edges, text) == _outcome(reference_parse_edges, text)


@pytest.mark.parametrize("text, want", [
    ("3 2\r\n1 2\r\n2 3\r\n", ("ok", 3, [(0, 1), (1, 2)])),         # "\r" and "\n" split
    ("% c\n\n  \n%% 1 2\n\t\n3 1\n1 2 3\n", ("ok", 3, [(0, 1, 2)])),  # late header
    ("3 1\n1 2 3\n", ("ok", 3, [(0, 1, 2)])),                          # header alone
    ("3 2\n1 2\n2 3", ("ok", 3, [(0, 1), (1, 2)])),                     # no final newline
    ("3\xa02\u2028 1\u30002\x85+2\t03\u2029", ("ok", 3, [(0, 1), (1, 2)])),  # Unicode
    ("3 2\n1 2\n% 1 x\n2 x\n", ("error", "line 4: non-numeric node id")),  # later bad line
    ("3 2\r\n1 2\r\n-1 2\r\n", ("error", "line 3: node id -1 out of range [1, 3]")),
    # Only the later pieces hold a comment line or a separator numpy's
    # reader does not take (\x1c-\x1f), for which the scan blanks the bytes
    # between the tokens, or one it takes once mapped to ASCII (\x0b, \x85),
    # or a sign, good or bad.
    ("3 3\n1 2\n2 3\n% 1 x\n1 3\n", ("ok", 3, [(0, 1), (1, 2), (0, 2)])),
    ("3 3\n1 2\n2 3\n1\x1f3\n", ("ok", 3, [(0, 1), (1, 2), (0, 2)])),
    ("3 3\n1 2\n2 3\x1c1 3\n", ("ok", 3, [(0, 1), (1, 2), (0, 2)])),
    ("3 3\n1 2\n2 3\x0b1 3\n", ("ok", 3, [(0, 1), (1, 2), (0, 2)])),
    ("3 3\n1 2\n2 3\x851 3\n", ("ok", 3, [(0, 1), (1, 2), (0, 2)])),
    ("3 3\n1 2\n2 3\n+1 +3\n", ("ok", 3, [(0, 1), (1, 2), (0, 2)])),
    ("3 3\n1 2\n2 3\n1-2 3\n", ("error", "line 4: non-numeric node id")),
    ("3 3\n1 2\n2 3\n1 - 3\n", ("error", "line 4: non-numeric node id")),
    ("3 3\n1 2\n2 3\n1 3 +\n", ("error", "line 4: non-numeric node id")),
    ("3 3\n1 2\n2\x1f3\n1 +\n", ("error", "line 4: non-numeric node id")),
    ("3 2\n1 2\n% x-\n2 +\n", ("error", "line 4: non-numeric node id")),
    ("3 3\n1 2\n2 3\n% +\n+1 -3\n", ("error", "line 5: node id -3 out of range [1, 3]")),
])
def test_chunked_parse_at_every_piece_size(text, want):
    """Every piece size from one character to the whole text puts the piece
    boundaries at every line break in turn."""
    assert _outcome(reference_parse_edges, text) == want
    for chunk in range(1, len(text) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "_SCAN_CHUNK", chunk)
            assert _outcome(_parse_edges, text) == want, chunk


def _traced_peak(parse, *args):
    """(outcome, tracemalloc peak above the start) of one parse call."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            got = parse(*args)
        except HypergraphFormatError as exc:
            got = exc
        return got, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_parse_peak_memory_is_a_piece_plus_the_output():
    """The scan's working arrays are sized by a piece, not by the text: its
    traced peak on a 3.8 MB chain stays under 8 bytes per byte of text, also
    when the last line is bad and the error names it."""
    n = 150_000
    text = "".join([f"{n} {n - 3}\n"] + [f"{k} {k + 1} {k + 2} {k + 3}\n" for k in range(1, n - 2)])
    (num_nodes, edges), peak = _traced_peak(_parse_edges, text)
    assert (num_nodes, len(edges), edges[-1]) == (n, n - 3, (n - 4, n - 3, n - 2, n - 1))
    assert peak <= 8 * len(text), peak / len(text)
    del edges
    bad = text[:text.rindex("\n", 0, -1) + 1] + f"{n - 3} {n - 2} {n - 2} {n}\n"
    exc, peak = _traced_peak(_parse_edges, bad)
    assert str(exc) == f"line {n - 2}: duplicate node {n - 2} in hyperedge"
    assert peak <= 8 * len(bad), peak / len(bad)


@pytest.mark.parametrize("parse, lines, bad", [
    (_parse_edges, ["3 4", "1 2", "2 3", "1 3", "1 2 3"], "2 x"),
    (_parse_edges, ["3 4", "1 2", "2 3", "1 3", "1 2 3"], "2 2"),
    (partial(parse_gadget_lines, num_edges=4), ["1:2", "2:1", "1:2 2:1", "1:1"], "1:2 x:1"),
])
def test_scan_stops_at_the_piece_of_the_first_bad_line(parse, lines, bad):
    """With one line per piece, a bad line in piece k runs the byte scan
    k + 1 times: one pass, which reads no piece after the bad one."""
    calls = []

    def counted(piece):
        calls.append(piece)
        return scan(piece)

    scan = hypergraph._scan_tokens
    for k in range(1, len(lines)):
        text = "".join(line + "\n" for line in lines[:k] + [bad] + lines[k:])
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "_SCAN_CHUNK", 1)
            mp.setattr(hypergraph, "_scan_tokens", counted)
            with pytest.raises(HypergraphFormatError, match=f"^line {k + 1}: "):
                parse(text)
        assert calls == [line + "\n" for line in lines[:k] + [bad]]


@pytest.mark.parametrize("text, message", [
    ("3 1\n1 \u0662\n", "line 2: non-numeric node id"),           # Arabic-Indic 2
    ("3 1\n1 \uff12\n", "line 2: non-numeric node id"),           # full-width 2
    ("3 1\n1 0_2\n", "line 2: non-numeric node id"),
    ("\u0663 1\n1 2\n", "line 1: non-numeric header token"),
    ("1_0 0\n", "line 1: non-numeric header token"),
    (f"{MAX_NODES + 1} 0\n", f"line 1: {MAX_NODES + 1} nodes exceed the limit {MAX_NODES}"),
])
def test_parse_narrowing_against_int(text, message):
    """int() reads these, so the line-based parser took them; the .hgr parser
    takes ASCII digits with an optional sign, and at most MAX_NODES nodes."""
    reference_parse_edges(text)
    with pytest.raises(HypergraphFormatError) as exc:
        parse_hypergraph(text)
    assert str(exc.value) == message


def test_unicode_whitespace_tables_match_str():
    """The byte kinds and the translation table of the vectorized parser
    give the line breaks and separators of str.splitlines and str.split."""
    for code in range(0x110000):
        ch = chr(code)
        breaks = len(f"a{ch}a".splitlines()) == 2
        spaces = ch.isspace() and not breaks
        if code < 128:
            assert (_BYTE_KIND[code] == _BREAK) == breaks, hex(code)
            assert (_BYTE_KIND[code] == _SPACE) == spaces, hex(code)
        else:
            assert _UNICODE_WHITESPACE.get(code) == ("\n" if breaks else " " if spaces else None)


# ---------------------------------------------------------------------------
# The vectorized gadget sidecar parse against the line-by-line reference
# (tests/helpers.py)

_GOOD_GADGETS = ["1:1", "1:2", "0.5:3", "2:1.5", "1.0:2.0", "+1e0:3", "1_0:1",
                 "\u0661:\u0662", "7:1e300"]
_BAD_GADGETS = ["x:1", "1-2", "1:2:3", ":", "1:", "0:1", "-1:1", "1:0.5", "inf:1",
                "1:inf", "nan:1", "1:nan", "1e999:1", "%1:2", "1:2%"]


@st.composite
def sidecar_texts(draw):
    """(sidecar text, num_edges), valid or not: tokens drawn from a small
    pool (so most repeat), separators, line endings, blank and comment lines,
    no final newline, and now and then a malformed or non-finite token or a
    line count off by one."""
    bad = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        toks = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if bad and draw(st.integers(min_value=0, max_value=9)) == 0:
                toks.append(draw(st.sampled_from(_BAD_GADGETS)))
            else:
                toks.append(draw(st.sampled_from(_GOOD_GADGETS)))
        lines.append(toks)
    num_edges = len(lines) + (draw(st.sampled_from([-1, 1])) if bad and draw(st.booleans()) else 0)
    out = []
    for toks in lines:
        for _ in range(draw(st.integers(min_value=0, max_value=1))):
            out.append(draw(st.sampled_from(["", " ", "\t"] + _COMMENTS)))
        sep = draw(st.sampled_from(_SPACES))
        out.append(draw(st.sampled_from(["", " ", "\xa0"])) + sep.join(toks)
                   + draw(st.sampled_from(["", " \t"])))
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    return text[: None if draw(st.booleans()) else -1], max(num_edges, 0)


def _gadget_outcome(parse, text, num_edges):
    try:
        rows = parse(text, num_edges)
    except HypergraphFormatError as exc:
        return "error", str(exc)
    return "ok", list(rows)


def assert_same_gadgets(text, num_edges):
    """parse_gadget_lines gives the reference's rows, and arrays with the
    dtypes and bytes of the reference rows' arrays, or its error message."""
    want = _gadget_outcome(reference_parse_gadget_lines, text, num_edges)
    try:
        rows = parse_gadget_lines(text, num_edges)
    except HypergraphFormatError as exc:
        assert ("error", str(exc)) == want
        return
    assert isinstance(rows, GadgetRows) and ("ok", list(rows)) == want
    for got, ref in zip((rows.edge, rows.c, rows.delta), _gadget_arrays(want[1], num_edges)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 64, hypergraph._SCAN_CHUNK])
@given(case=sidecar_texts())
@settings(max_examples=150, deadline=None)
def test_sidecar_parse_matches_line_reference(chunk, case):
    """Pieces of 1, 7 and 64 characters (extended to a line break) and the
    default piece give the outcome the line parser gives."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_SCAN_CHUNK", chunk)
        assert_same_gadgets(*case)


@pytest.mark.parametrize("text, num_edges", [
    ("1:2 2:1\r\n2:1\r\n", 2),                           # "\r" and "\n" split
    ("% c 1:2\n\n  \n%%x\n\t\n1:2\n", 1),                  # comments, blank lines
    ("1:2\n3:1 1:2", 2),                                 # no final newline
    ("1:2\xa02:1\u2028 1:2\u30003:1\x85", 2),              # Unicode whitespace
    ("", 0),                                             # no edges
    ("% only a comment\n", 0),
    ("1:2\n% 1 x\n2:1 x:1\n", 2),                        # bad token on line 3
    ("1:2\n2:1\n", 3),                                   # too few lines
])
def test_sidecar_parse_at_every_piece_size(text, num_edges):
    for chunk in range(1, len(text) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "_SCAN_CHUNK", chunk)
            assert_same_gadgets(text, num_edges)


def test_sidecar_messages():
    assert _gadget_outcome(parse_gadget_lines, "1:2\n% 1 x\n2:1 x:1\n", 2) == \
        ("error", "line 3: non-numeric gadget token 'x:1'")
    assert _gadget_outcome(parse_gadget_lines, "1:2\n", 3) == \
        ("error", "gadget sidecar has 1 lines, hypergraph has 3 hyperedges")


def test_sidecar_parse_peak_memory_is_a_piece_plus_the_output():
    """The sidecar scan holds one piece's tokens at a time and no object per
    gadget: its traced peak on a 3.2 MB sidecar stays under 10 bytes per
    byte of text (the arrays it returns take about 4)."""
    n = 400_000
    pool = ["1:1", "1:2", "1:3", "0.5:2", "2:1.5"]
    text = "".join(f"{pool[k % 5]} {pool[(7 * k + 3) % 5]}\n" if k % 3 else f"{pool[k % 5]}\n"
                   for k in range(n))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = parse_gadget_lines(text, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(rows) == n and rows[n - 2] == [GadgetParams(0.5, 2.0), GadgetParams(2.0, 1.5)]
    assert peak <= 10 * len(text), peak / len(text)
