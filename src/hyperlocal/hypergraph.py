"""Hypergraph data model: parsing, splitting penalties, degrees, cuts, conductance.

Hyperedges carry one or more "gadgets" (c, delta): the penalty a set S pays on
edge e is sum_j c_j * min(|A|, |e|-|A|, delta_j) with A = e & S. delta >= 1 keeps
every per-node penalty f_e({i}) equal to sum_j c_j, which is what the degree
formula relies on.

Storage is columnar: flat numpy arrays, CSR for the ragged rows. Loading is a
few vectorized passes over the input, with no Python object per edge or per
gadget (the sidecar's str tokens live for one piece of the text). Each input
format has one parser, that pass: it stops at the first bad line and words
the error from that line's tokens. The solvers and the sweep read the arrays
through memoized views (`LazyView`) that hand out Python ints, floats and
tuples and convert each entry the first time it is read, so a query pays
for what it touches, not for the size of the hypergraph.
"""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

MAX_NODES = 2 ** 31 - 1  # node and gadget ids are stored as int32


class HypergraphFormatError(ValueError):
    """Malformed hypergraph (or gadget sidecar) text."""


@dataclass(frozen=True)
class GadgetParams:
    c: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not (0 < self.c < math.inf):
            raise ValueError(f"gadget scale c must be finite and positive, got {self.c}")
        if not (1 <= self.delta < math.inf):
            raise ValueError(f"gadget threshold delta must be finite and >= 1, got {self.delta}")


def splitting_penalty(gadgets, in_count: int, edge_size: int) -> float:
    """Penalty sum_j c_j * min(in_count, edge_size - in_count, delta_j)."""
    if not (0 <= in_count <= edge_size):
        raise ValueError(f"in_count {in_count} outside [0, {edge_size}]")
    small_side = min(in_count, edge_size - in_count)
    if small_side == 0:
        return 0.0
    return sum(g.c * min(small_side, g.delta) for g in gadgets)


class LazyView(dict):
    """key -> value converted from the arrays the first time it is read.

    A dict subclass, so a repeated read is one dict lookup; it holds only the
    keys read so far, and len() counts them.
    """

    __slots__ = ("_convert",)

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, key):
        value = self[key] = self._convert(key)
        return value


def _csr_row(offsets, values, k):
    if not 0 <= k < len(offsets) - 1:
        raise IndexError(f"row {k} out of range [0, {len(offsets) - 1})")
    return tuple(values[offsets.item(k):offsets.item(k + 1)].tolist())


def _member_row(edge_rows, gadget_edge, j):
    return edge_rows[gadget_edge.item(j)]


def _settle_record(c_of, wab_of, members_of, j):
    c, wab, members = c_of[j], wab_of[j], members_of[j]
    # The quadratic pair settle's residual tolerance and round cap.
    return wab, members, 1e-15 * (1.0 + wab + c * len(members)), 4 * len(members) + 8


def _gadget_row(num_edges, edge, c, delta, params, k):
    if not 0 <= k < num_edges:
        raise IndexError(f"row {k} out of range [0, {num_edges})")
    # Keys of edge's own dtype: mixed dtypes would make searchsorted cast
    # (copy) the whole array on every call.
    lo, hi = np.searchsorted(edge, np.array((k, k + 1), dtype=edge.dtype)).tolist()
    return list(map(params.__getitem__, zip(c[lo:hi].tolist(), delta[lo:hi].tolist())))


def _gadget_params(c_delta):
    return GadgetParams(*c_delta)


class _Rows(Sequence):
    """Read-only list over a LazyView (`memo`): len, indexing, iteration
    (which converts rows without memoizing them) and == with lists."""

    def __init__(self, count, convert):
        self.memo = LazyView(convert)
        self._count = count

    def __len__(self):
        return self._count

    def __getitem__(self, k):
        if k < 0:
            k += self._count
        if not 0 <= k < self._count:
            raise IndexError("row index out of range")
        return self.memo[k]

    def __iter__(self):
        return map(self.memo._convert, range(self._count))

    def __eq__(self, other):
        if isinstance(other, (_Rows, list)):
            return list(self) == list(other)
        return NotImplemented


class EdgeRows(_Rows):
    """Hyperedges as tuples of node ids, over validated CSR arrays: offsets
    (int64) and members (int32), every row >= 2 distinct ids."""

    def __init__(self, offsets, members):
        super().__init__(len(offsets) - 1, partial(_csr_row, offsets, members))
        self.offsets = offsets
        self.members = members


class GadgetRows(_Rows):
    """Per-edge GadgetParams lists over edge-major per-gadget arrays: edge
    (int32, ascending), c and delta (float64, validated). Equal-valued
    gadgets read from one GadgetRows are one shared (frozen) GadgetParams."""

    def __init__(self, num_edges, edge, c, delta):
        params = LazyView(_gadget_params)
        super().__init__(num_edges, partial(_gadget_row, num_edges, edge, c, delta, params))
        self.edge = edge
        self.c = c
        self.delta = delta


def _uniform_gadgets(num_edges: int, gadget: GadgetParams) -> GadgetRows:
    return GadgetRows(num_edges, np.arange(num_edges, dtype=np.int32),
                      np.full(num_edges, gadget.c, dtype=np.float64),
                      np.full(num_edges, gadget.delta, dtype=np.float64))


class Hypergraph:
    """Immutable hypergraph with per-edge gadget lists, stored as arrays.

    Node ids are 0-based. Gadget j owns the auxiliary pair n + 2j, n + 2j + 1
    of the solvers. Arrays:
      edge_offsets, edge_members   CSR rows of the hyperedges (int64, int32);
      gadget_edge, gadget_c, gadget_delta, gadget_wab   one entry per gadget,
                                   edge-major (int32, float64);
      incidence_offsets, incidence CSR rows of each node's gadget ids,
                                   ascending (int64, int32);
      degrees                      float64.
    `hyperedges[k]` (a tuple of node ids) and `gadgets[k]` (a GadgetParams
    list) are read-only list views. The solvers and the sweep read the
    memoized views `incident_gadgets[v]`, `degree_of[v]`, `members_of[j]`,
    `edge_of[j]`, `c_of[j]`, `wab_of[j]` and `delta_of[j]`, which hold
    Python values for the keys read so far. `settle_of[j]` is the record the
    p = 2 pair settle reads per gadget, (wab, members, tol, round cap): one
    lookup in place of four, filled through the views above (c comes with
    the settle's x_a and x_b from the push's scan).

    `hyperedges` and `gadgets` may be lists, or the views of another
    Hypergraph (or of `_parse_edges` and `parse_gadget_lines`), whose arrays
    are then reused.
    `gadgets=None` gives every edge one GadgetParams().
    """

    def __init__(self, num_nodes, hyperedges, gadgets=None):
        if num_nodes < 1:
            raise ValueError("hypergraph needs at least one node")
        if num_nodes > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} nodes (ids are stored as int32)")
        n = self.num_nodes = int(num_nodes)
        if isinstance(hyperedges, EdgeRows):
            offsets, members = hyperedges.offsets, hyperedges.members
            if len(members) and members.max() >= n:
                _check_rows(hyperedges, offsets, members, n)
        else:
            offsets, members = _edge_csr(hyperedges, n)
        m = len(offsets) - 1
        if gadgets is None:
            gadgets = _uniform_gadgets(m, GadgetParams())
        if isinstance(gadgets, GadgetRows):
            if len(gadgets) != m:
                raise ValueError("need exactly one gadget list per hyperedge")
            g_edge, g_c, g_delta = gadgets.edge, gadgets.c, gadgets.delta
        else:
            g_edge, g_c, g_delta = _gadget_arrays(gadgets, m)

        # Gadget-major (gadget, member) pairs. Each gadget adds
        # c * min(1, |e| - 1, delta) = c to each member (|e| >= 2, delta >= 1);
        # bincount adds in pair order, as a per-gadget `deg[v] += c` loop would.
        # With one gadget per edge (gadget j on edge j) the pairs' nodes are
        # the members themselves. Each pair temporary is dropped before the
        # next is made.
        sizes = np.diff(offsets)
        if np.array_equal(g_edge, np.arange(m, dtype=g_edge.dtype)):
            g_sizes, pair_nodes = sizes, members
        else:
            g_sizes = sizes[g_edge]
            pair_nodes = members[_row_positions(offsets[g_edge], g_sizes)]
        deg = np.bincount(pair_nodes, weights=np.repeat(g_c, g_sizes),
                          minlength=n).astype(np.float64, copy=False)  # int64 when empty
        self.incidence_offsets = _offsets(np.bincount(pair_nodes, minlength=n))
        order = np.argsort(pair_nodes, kind="stable")
        del pair_nodes
        self.incidence = np.repeat(np.arange(len(g_edge), dtype=np.int32), g_sizes)[order]
        del order

        self.edge_offsets = offsets
        self.edge_members = members
        self.gadget_edge = g_edge
        self.gadget_c = g_c
        self.gadget_delta = g_delta
        self.gadget_wab = g_c * g_delta
        self.degrees = deg
        self.total_volume = float(deg.sum())
        self.num_gadgets = len(g_edge)
        self.max_edge_size = int(sizes.max()) if m else 0
        for arr in (offsets, members, g_edge, g_c, g_delta, self.gadget_wab,
                    self.incidence_offsets, self.incidence, deg):
            arr.flags.writeable = False  # the views memoize what they read

        self.hyperedges = EdgeRows(offsets, members)
        self.gadgets = GadgetRows(m, g_edge, g_c, g_delta)
        edge_rows = self.hyperedges.memo
        self.incident_gadgets = LazyView(partial(_csr_row, self.incidence_offsets,
                                                 self.incidence))
        self.members_of = LazyView(partial(_member_row, edge_rows, g_edge))
        self.degree_of = LazyView(deg.item)
        self.edge_of = LazyView(g_edge.item)
        self.c_of = LazyView(g_c.item)
        self.wab_of = LazyView(self.gadget_wab.item)
        self.delta_of = LazyView(g_delta.item)
        self.settle_of = LazyView(partial(_settle_record, self.c_of, self.wab_of,
                                          self.members_of))

    def edge_penalty(self, k: int, in_count: int) -> float:
        return splitting_penalty(self.gadgets.memo[k], in_count,
                                 len(self.hyperedges.memo[k]))

    def volume(self, nodes) -> float:
        return float(sum(self.degree_of[v] for v in set(nodes)))

    def __repr__(self):
        return (f"Hypergraph(n={self.num_nodes}, m={len(self.hyperedges)}, "
                f"gadgets={self.num_gadgets}, vol={self.total_volume:g})")


def _offsets(counts):
    """CSR offsets (int64, leading 0) of the given row lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _row_positions(starts, lengths):
    """Concatenation of range(s, s + l) over (starts, lengths)."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _bad_rows(offsets, ids, n):
    """Per CSR row: fewer than 2 ids, an id outside [0, n), or a repeated id."""
    sizes = np.diff(offsets)
    bad = sizes < 2
    row = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    bad[row[(ids < 0) | (ids >= n)]] = True
    # A strictly ascending row repeats no id; only the other rows are sorted.
    unsorted = np.zeros(len(sizes), dtype=bool)
    unsorted[row[1:][(row[1:] == row[:-1]) & (ids[1:] <= ids[:-1])]] = True
    if unsorted.any():
        sel = unsorted[row]
        r, v = row[sel], ids[sel]
        order = np.lexsort((v, r))
        r, v = r[order], v[order]
        bad[r[1:][(r[1:] == r[:-1]) & (v[1:] == v[:-1])]] = True
    return bad


def _edge_csr(hyperedges, n):
    """Validated (offsets, int32 members) of an iterable of node-id sequences."""
    edges = list(map(tuple, hyperedges))
    sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
    count = int(sizes.sum())
    try:
        ids = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=count)
    except (TypeError, ValueError, OverflowError):
        ids = np.fromiter(map(_id_or_bad, chain.from_iterable(edges)), dtype=np.int64, count=count)
    offsets = _offsets(sizes)
    _check_rows(edges, offsets, ids, n)
    return offsets, ids.astype(np.int32)


def _id_or_bad(v):
    """int(v) clipped to [-1, MAX_NODES], or -1 when int() fails: out of
    [0, n) exactly when int(v) is, so the row is bad and _check_rows words it
    from int() of its own ids, as the per-edge check does."""
    try:
        return min(max(int(v), -1), MAX_NODES)
    except (TypeError, ValueError, OverflowError):
        return -1


def _check_rows(rows, offsets, ids, n):
    """Raise the per-edge check's error for the first row _bad_rows rejects,
    worded from that row alone."""
    bad = np.flatnonzero(_bad_rows(offsets, ids, n))
    if not len(bad):
        return
    e = tuple(int(v) for v in rows[int(bad[0])])
    if len(e) < 2:
        raise ValueError(f"hyperedge {e} has fewer than 2 nodes")
    if len(set(e)) != len(e):
        raise ValueError(f"duplicate node within hyperedge {e}")
    v = next(v for v in e if not 0 <= v < n)
    raise ValueError(f"node id {v} out of range [0, {n})")


def _gadget_arrays(gadgets, m):
    """(edge, c, delta) arrays of per-edge lists (or tuples) of GadgetParams."""
    rows = list(gadgets)
    if len(rows) != m:
        raise ValueError("need exactly one gadget list per hyperedge")
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=m)
    if m and counts.min() == 0:
        raise ValueError("empty gadget list")
    flat = list(chain.from_iterable(rows))
    c = np.fromiter((g.c for g in flat), dtype=np.float64, count=len(flat))
    delta = np.fromiter((g.delta for g in flat), dtype=np.float64, count=len(flat))
    return np.repeat(np.arange(m, dtype=np.int32), counts), c, delta


def cut_value(h: Hypergraph, s) -> float:
    """Total penalty of the edges s splits. Reads only the edges incident to
    s, and adds their penalties in ascending edge order."""
    s = set(s)
    edges = set()
    for v in s:
        if 0 <= v < h.num_nodes:
            for j in h.incident_gadgets[v]:
                edges.add(h.edge_of[j])
    total = 0.0
    for k in sorted(edges):
        e = h.hyperedges.memo[k]
        inc = sum(1 for v in e if v in s)
        if inc < len(e):
            total += h.edge_penalty(k, inc)
    return total


def set_metrics(h: Hypergraph, s):
    """Return (cut, vol, conductance) of a node set.

    Conductance is cut / min(vol(S), vol(H) - vol(S)), +inf when the smaller
    side has zero volume (empty set, full set, or isolated-node sets).
    """
    s = set(s)
    for v in s:
        if not (0 <= v < h.num_nodes):
            raise ValueError(f"node id {v} out of range")
    cut = cut_value(h, s)
    vol = h.volume(s)
    small = min(vol, h.total_volume - vol)
    cond = cut / small if small > 0 else math.inf
    return cut, vol, cond


def conductance(h: Hypergraph, s) -> float:
    return set_metrics(h, s)[2]


def parse_hypergraph(text: str, default_delta: float = 1.0) -> Hypergraph:
    """Parse hypergraph text.

    Format: first content line is "<num_nodes> <num_hyperedges>", then one line
    per hyperedge listing its 1-based node ids separated by whitespace. Lines
    starting with "%" and blank lines are ignored; CRLF endings are fine.
    Every hyperedge gets a single gadget with c = 1 and delta = default_delta.

    Raises HypergraphFormatError on a malformed header, a non-numeric token, a
    node id out of range, a duplicate node within an edge, an edge of size < 2,
    or a wrong number of edge lines. Numbers are ASCII digits with an optional
    sign; num_nodes is at most MAX_NODES.
    """
    n, edges = _parse_edges(text)
    return Hypergraph(n, edges, _uniform_gadgets(len(edges), GadgetParams(1.0, default_delta)))


# Byte kinds of the vectorized passes over .hgr and sidecar text. The breaks
# are the ASCII characters str.splitlines() ends a line at, the spaces the
# other ones str.split() separates at; the non-ASCII ones are first mapped
# onto "\n" and " ".
_DIGIT, _SIGN, _OTHER, _SPACE, _BREAK = range(5)
_BYTE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_KIND[np.frombuffer(b"0123456789", np.uint8)] = _DIGIT
_BYTE_KIND[np.frombuffer(b"+-", np.uint8)] = _SIGN
_BYTE_KIND[np.frombuffer(b" \t\x1f", np.uint8)] = _SPACE
_BYTE_KIND[np.frombuffer(b"\n\r\x0b\x0c\x1c\x1d\x1e", np.uint8)] = _BREAK
_UNICODE_WHITESPACE = str.maketrans(
    dict.fromkeys("\x85\u2028\u2029", "\n")
    | dict.fromkeys("\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                    "\u2008\u2009\u200a\u202f\u205f\u3000", " "))
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
# The scans read the text in pieces of about this many characters, each
# extended to the line break that ends its last line, so their working arrays
# stay the same size however long the text is. No line spans two pieces.
_SCAN_CHUNK = 1 << 20
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END = re.compile(f"[{_BREAKS}]")


def _pieces(text: str):
    """(lo, hi) of consecutive runs of whole lines of about _SCAN_CHUNK
    characters that cover the text. The callers slice each piece themselves,
    so that it is freed as soon as they are done with it."""
    lo = 0
    while lo < len(text):
        end = _LINE_END.search(text, lo + _SCAN_CHUNK - 1)
        hi = end.end() if end else len(text)
        yield lo, hi
        lo = hi


def _utf8(piece: str):
    """The piece's UTF-8 bytes (uint8), Unicode whitespace mapped to ASCII."""
    if not piece.isascii():
        piece = piece.translate(_UNICODE_WHITESPACE)
    return np.frombuffer(piece.encode(), dtype=np.uint8)


def _scan_tokens(piece: str):
    """Tokens of a run of whole lines, as str.split() finds them, from the
    byte tables: (buf, kind, starts, ends, line, body). buf is the piece's
    _utf8 bytes and kind their byte kinds; each token has start and end byte
    offsets and a line index (ascending); body indexes the tokens not on a
    comment line, a line whose first token starts with "%"."""
    buf = _utf8(piece)
    del piece
    kind = _BYTE_KIND[buf]
    step = np.diff((kind < _SPACE).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    del step
    line = np.searchsorted(np.flatnonzero(kind == _BREAK), starts)
    first = _row_offsets(line)[:-1]  # each line's first token
    comment = np.zeros(line[-1] + 1 if len(line) else 0, dtype=bool)
    comment[line[first[buf[starts[first]] == ord("%")]]] = True
    return buf, kind, starts, ends, line, np.flatnonzero(~comment[line])


def _row_offsets(line):
    """CSR offsets of the runs of equal values in an ascending array."""
    new_row = np.ones(len(line), dtype=bool)
    new_row[1:] = line[1:] != line[:-1]
    return np.append(np.flatnonzero(new_row), len(line))


def _line_at(text, lo, hi, pos):
    """(number, tokens) of the line that starts, or has its first token, at
    byte pos of the _utf8 bytes of the piece text[lo:hi]. Lines are numbered as
    str.splitlines() counts them, "\\r\\n" being one break; the text before
    the line is counted in place, not copied."""
    if not text.isascii():  # byte offset -> character offset: UTF-8 lead bytes
        pos = np.count_nonzero((_utf8(text[lo:hi])[:pos] & 0xC0) != 0x80)
    at = lo + pos
    end = _LINE_END.search(text, at)
    number = 1 + sum(text.count(c, 0, at) for c in _BREAKS) - text.count("\r\n", 0, at)
    return number, text[at:end.start() if end else len(text)].split()


def _parse_edges(text: str):
    """The text half of parse_hypergraph: (num_nodes, EdgeRows of 0-based
    ids), read in one pass over the text's pieces; the first bad line stops
    it. Between pieces it keeps only the header and each piece's ids and row
    sizes."""
    header = None  # (n, m), from the first content line
    ids, sizes = [], []
    for lo, hi in _pieces(text):
        header = _scan_piece(_scan_tokens(text[lo:hi]), header, ids, sizes,
                             partial(_line_at, text, lo, hi))
    if header is None:
        raise HypergraphFormatError("empty input: missing header line")
    sizes = np.concatenate(sizes)
    if len(sizes) != header[1]:
        raise HypergraphFormatError(f"header promised {header[1]} hyperedges, found {len(sizes)}")
    return header[0], EdgeRows(_offsets(sizes), np.concatenate(ids))


def _scan_piece(tokens, header, ids, sizes, line_at):
    """Scan a run of whole lines, given its _scan_tokens: append the int32
    0-based ids and the int64 row sizes of its edges to ids and sizes, and
    return the header, read from the first content line while it is None.
    line_at(byte offset of a line's first token) gives the number and tokens
    of the header and of the first bad line, for which it raises
    HypergraphFormatError."""
    buf, kind, starts, ends, line, body = tokens
    del tokens
    if header is None:
        if not len(body):
            return None
        header = _header(*line_at(starts[body[0]]))
        body = body[2:]
    # Narrowed to the edge tokens one array at a time, so that at most one
    # of them is held twice.
    starts = starts[body]
    ends = ends[body]
    line = line[body]
    del body

    offsets = _row_offsets(line)
    del line
    values = np.zeros(0, dtype=np.int64)
    odd_row = None  # the first row with a token that is not a number
    if len(starts):
        lo, hi = starts[0], ends[-1]
        buf, kind = buf[lo:hi], kind[lo:hi]
        starts -= lo
        ends -= lo
        mark = np.zeros(hi - lo + 1, dtype=np.int8)
        mark[starts] = 1
        mark[ends] = -1
        inside = np.cumsum(mark[:-1], dtype=np.int8).view(bool)
        del mark, ends
        # Edge tokens are ASCII digits, with at most a leading sign.
        odd = kind != _DIGIT
        odd &= inside
        after_sign = starts[kind[starts] == _SIGN] + 1
        after_sign = after_sign[after_sign < len(buf)]
        odd[after_sign[kind[after_sign] == _DIGIT] - 1] = False
        if odd.any():  # read only the rows before it
            token = np.searchsorted(starts, odd.argmax(), side="right") - 1
            odd_row = np.searchsorted(offsets, token, side="right") - 1
            offsets = offsets[:odd_row + 1]
            buf, inside = buf[:starts[offsets[-1]]], inside[:starts[offsets[-1]]]
        del kind, odd, after_sign
        # The edge tokens, with everything between them blanked, read in C.
        blanked = np.where(inside, buf, np.uint8(32)).tobytes()
        del buf, inside
        values = np.fromstring(blanked, dtype=np.int64, sep=" ")
        starts += lo
    values -= 1
    bad = np.flatnonzero(_bad_rows(offsets, values, header[0]))
    row = bad[0] if len(bad) else odd_row  # the first bad row
    if row is not None:
        number, row_tokens = line_at(starts[offsets[row]])
        raise HypergraphFormatError(f"line {number}: {_edge_error(row_tokens, header[0])}")
    ids.append(values.astype(np.int32))
    sizes.append(np.diff(offsets))
    return header


def _header(number, tokens):
    """(n, m) of the header line of the given number and tokens. Raises
    HypergraphFormatError unless they are two numbers, 1 <= n <= MAX_NODES
    and m >= 0."""
    if len(tokens) != 2:
        message = "header must be '<num_nodes> <num_edges>'"
    elif not all(map(_INT_TOKEN.fullmatch, tokens)):
        message = "non-numeric header token"
    else:
        n, m = int(tokens[0]), int(tokens[1])
        if n < 1 or m < 0:
            message = f"invalid header values {n} {m}"
        elif n > MAX_NODES:
            message = f"{n} nodes exceed the limit {MAX_NODES}"
        else:
            return n, m
    raise HypergraphFormatError(f"line {number}: {message}")


def _edge_error(tokens, n):
    """What is wrong with an edge line of the given tokens: the first fault
    the line-by-line reading of the format meets."""
    if not all(map(_INT_TOKEN.fullmatch, tokens)):
        return "non-numeric node id"
    if len(tokens) < 2:
        return "hyperedge has fewer than 2 nodes"
    seen = set()
    for v in map(int, tokens):
        if not 1 <= v <= n:
            return f"node id {v} out of range [1, {n}]"
        if v in seen:
            return f"duplicate node {v} in hyperedge"
        seen.add(v)


def parse_gadget_lines(text: str, num_edges: int) -> GadgetRows:
    """Parse a gadget sidecar: one line per hyperedge, "c1:delta1 c2:delta2 ...".

    Each token is a "c:delta" pair of float() numbers, c finite and positive
    and delta finite and >= 1 (as GadgetParams checks). Lines split at the
    breaks of str.splitlines() and tokens at str.split() whitespace; lines
    starting with "%" and blank lines are ignored. Returns a GadgetRows, the
    read-only list view of the gadget lists that Hypergraph.gadgets is,
    aligned with the hyperedge order; a Hypergraph built from it reuses its
    arrays.

    One pass over the text's pieces: rows come from the byte tables, tokens
    from str.split(), and each distinct token is parsed once, every token
    being read as the index of its distinct token. Raises
    HypergraphFormatError naming the line of the first bad token, at which
    the pass stops, or when the number of gadget lines is not num_edges.
    """
    cs, deltas = [], []

    def parse(tok):
        g = _gadget_token(tok)
        cs.append(g.c)
        deltas.append(g.delta)
        return len(cs) - 1

    index = LazyView(parse)  # token -> index of its distinct token; valid ones only
    picks, counts = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    for lo, hi in _pieces(text):
        piece = text[lo:hi]
        line, body = _scan_tokens(piece)[4:]
        tokens = piece.split()
        del piece
        if len(body) < len(tokens):
            tokens = list(map(tokens.__getitem__, body.tolist()))
        try:
            picks.append(np.fromiter(map(index.__getitem__, tokens), dtype=np.int32,
                                     count=len(tokens)))
        except ValueError as exc:  # raised by the first token not in index
            k = line[body[next(t for t, tok in enumerate(tokens) if tok not in index)]]
            breaks = np.flatnonzero(_BYTE_KIND[_utf8(text[lo:hi])] == _BREAK)
            number = _line_at(text, lo, hi, breaks[k - 1] + 1 if k else 0)[0]
            raise HypergraphFormatError(f"line {number}: {exc}") from None
        del tokens
        counts.append(np.diff(_row_offsets(line[body])))
    counts = np.concatenate(counts)
    if len(counts) != num_edges:
        raise HypergraphFormatError(
            f"gadget sidecar has {len(counts)} lines, hypergraph has {num_edges} hyperedges")
    picks = np.concatenate(picks)
    return GadgetRows(num_edges, np.repeat(np.arange(num_edges, dtype=np.int32), counts),
                      np.array(cs, dtype=np.float64)[picks],
                      np.array(deltas, dtype=np.float64)[picks])


def _gadget_token(tok: str) -> GadgetParams:
    """GadgetParams of one "c:delta" token; a ValueError says what is wrong."""
    parts = tok.split(":")
    if len(parts) != 2:
        raise ValueError(f"gadget token '{tok}' is not 'c:delta'")
    try:
        c, delta = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"non-numeric gadget token '{tok}'") from None
    return GadgetParams(c, delta)


def format_hgr(h: Hypergraph) -> str:
    """Inverse of parse_hypergraph: header line then one hyperedge per line,
    1-based node ids. Gadget parameters are not part of the format."""
    lines = [f"{h.num_nodes} {len(h.hyperedges)}"]
    for edge in h.hyperedges:
        lines.append(" ".join(str(v + 1) for v in edge))
    return "\n".join(lines) + "\n"
