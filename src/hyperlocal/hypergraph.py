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
tuples and convert (and range-check) each id the first time it is read, so
a query pays for what it touches, not for the size of the hypergraph.
"""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress

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


class IdOutOfRange(IndexError, ValueError):
    """A view's key outside [0, count); both errors, as numpy's AxisError is."""


class LazyView(dict):
    """id in [0, count) -> value converted from the arrays the first time it is read.

    A dict subclass, so a repeated read is one dict lookup; it holds only the
    ids read so far, and len() counts them. Any other key raises
    IdOutOfRange, before anything is converted, and is not kept.
    """

    __slots__ = ("_kind", "_count", "_convert")

    def __init__(self, kind, count, convert):
        super().__init__()
        self._kind, self._count, self._convert = kind, count, convert

    def __missing__(self, key):
        if not 0 <= key < self._count:
            raise IdOutOfRange(f"{self._kind} id {key} out of range")
        value = self[key] = self._convert(key)
        return value


def _csr_row(offsets, values, k):
    return tuple(values[offsets.item(k):offsets.item(k + 1)].tolist())


def _member_row(edge_rows, gadget_edge, j):
    return edge_rows[gadget_edge.item(j)]


def _wab(c, delta, j):
    return c.item(j) * delta.item(j)


def _settle_record(c_of, wab_of, members_of, j):
    c, wab, members = c_of[j], wab_of[j], members_of[j]
    # The quadratic pair settle's residual tolerance and round cap.
    return wab, members, 1e-15 * (1.0 + wab + c * len(members)), 4 * len(members) + 8


def _gadget_row(edge, c, delta, k):
    # Keys of edge's own dtype: mixed dtypes would make searchsorted cast
    # (copy) the whole array on every call.
    lo, hi = np.searchsorted(edge, np.array((k, k + 1), dtype=edge.dtype)).tolist()
    return list(map(GadgetParams, c[lo:hi].tolist(), delta[lo:hi].tolist()))


class _Rows(Sequence):
    """Read-only list over an edge-keyed LazyView (`memo`): len, indexing and
    iteration (which converts rows without memoizing them)."""

    def __init__(self, count, convert):
        self.memo = LazyView("edge", count, convert)

    def __len__(self):
        return self.memo._count

    def __getitem__(self, k):
        return self.memo[k + len(self) if -len(self) <= k < 0 else k]

    def __iter__(self):
        return map(self.memo._convert, range(len(self)))


class EdgeRows(_Rows):
    """Hyperedges as tuples of node ids, over validated CSR arrays: offsets
    (int64) and members (int32), every row >= 2 distinct ids."""

    def __init__(self, offsets, members):
        super().__init__(len(offsets) - 1, partial(_csr_row, offsets, members))
        self.offsets = offsets
        self.members = members


class GadgetRows(_Rows):
    """Per-edge GadgetParams lists over edge-major per-gadget arrays: edge
    (int32, ascending), c and delta (float64, validated). Each row read
    builds its own GadgetParams; `memo` keeps the rows read so far."""

    def __init__(self, num_edges, edge, c, delta):
        super().__init__(num_edges, partial(_gadget_row, edge, c, delta))
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
      gadget_edge, gadget_c, gadget_delta   one entry per gadget,
                                   edge-major (int32, float64);
      incidence_offsets, incidence CSR rows of each node's gadget ids,
                                   ascending (int64, int32);
      degrees                      float64.
    `hyperedges[k]` (a tuple of node ids) and `gadgets[k]` (a GadgetParams
    list) are read-only list views. The solvers and the sweep read the
    memoized views `incident_gadgets[v]`, `degree_of[v]`, `members_of[j]`,
    `edge_of[j]`, `c_of[j]` and `wab_of[j]` (c * delta, formed on first
    read), which hold Python values for the keys read so far.
    `settle_of[j]` is the record the p = 2 pair settle reads per gadget,
    (wab, members, tol, round cap): one lookup in place of four, filled
    through the views above (c comes with the settle's x_a and x_b from the
    push's scan). These views and `hyperedges.memo` and `gadgets.memo` raise
    IdOutOfRange (an IndexError and a ValueError) on a key out of range.

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
        # the members themselves; else they are gathered into an array made
        # before the int64 positions, which, freed first, leave no hole under it.
        if np.array_equal(g_edge, np.arange(m, dtype=g_edge.dtype)):
            g_sizes, pair_nodes = np.diff(offsets), members
        else:
            g_sizes = np.diff(offsets)[g_edge]
            pair_nodes = np.empty(int(g_sizes.sum()), dtype=members.dtype)
            np.take(members, _row_positions(offsets[g_edge], g_sizes), out=pair_nodes)
        deg = np.bincount(pair_nodes, weights=np.repeat(g_c, g_sizes),
                          minlength=n).astype(np.float64, copy=False)  # int64 when empty
        self.incidence_offsets = _offsets(np.bincount(pair_nodes, minlength=n))
        # incidence lists the pairs' gadget ids by node and, within a node,
        # ascending: the order a stable sort of the pairs by node gives. No
        # two pairs share node and gadget, so one in-place sort of the keys
        # node * 2**32 + gadget gives it, holding one 8-byte array per pair;
        # an argsort holds its int64 order and, as numpy's radix sort of
        # 16-bit keys does, a scratch array as large beside it.
        key = pair_nodes.astype(np.uint64)
        del pair_nodes
        key <<= 32
        key |= np.repeat(np.arange(len(g_edge), dtype=np.uint32), g_sizes)
        del g_sizes
        key.sort()
        key &= 0xFFFFFFFF
        self.incidence = key.astype(np.int32)
        del key

        self.edge_offsets = offsets
        self.edge_members = members
        self.gadget_edge = g_edge
        self.gadget_c = g_c
        self.gadget_delta = g_delta
        self.degrees = deg
        self.total_volume = float(deg.sum())
        self.num_gadgets = g = len(g_edge)
        for arr in (offsets, members, g_edge, g_c, g_delta, self.incidence_offsets,
                    self.incidence, deg):
            arr.flags.writeable = False  # the views memoize what they read

        self.hyperedges = EdgeRows(offsets, members)
        self.gadgets = GadgetRows(m, g_edge, g_c, g_delta)
        self.incident_gadgets = LazyView("node", n, partial(_csr_row, self.incidence_offsets,
                                                            self.incidence))
        self.members_of = LazyView("gadget", g, partial(_member_row, self.hyperedges.memo, g_edge))
        self.degree_of = LazyView("node", n, deg.item)
        self.edge_of = LazyView("gadget", g, g_edge.item)
        self.c_of = LazyView("gadget", g, g_c.item)
        self.wab_of = LazyView("gadget", g, partial(_wab, g_c, g_delta))
        self.settle_of = LazyView("gadget", g, partial(_settle_record, self.c_of, self.wab_of,
                                                       self.members_of))

    def edge_penalty(self, k: int, in_count: int) -> float:
        return splitting_penalty(self.gadgets.memo[k], in_count,
                                 len(self.hyperedges.memo[k]))

    def volume(self, nodes) -> float:
        """Sum of the distinct nodes' degrees; an id outside [0, n) raises IdOutOfRange."""
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
    """Concatenation of range(s, s + l) over (starts, lengths), every l >= 1:
    one cumsum, in place, of steps of 1 that jump to each row's start."""
    ends = np.cumsum(lengths)
    steps = np.ones(ends[-1] if len(ends) else 0, dtype=np.int64)
    if len(steps):
        steps[0] = starts[0]
        steps[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(steps, out=steps)


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


def _crossing_edges(h: Hypergraph, s: set):
    """(k, |edge k & s|) for each edge k that s splits, ascending in k. Reads
    only the edges incident to s; an id outside [0, n) raises IdOutOfRange."""
    edges = {h.edge_of[j] for v in s for j in h.incident_gadgets[v]}
    for k in sorted(edges):
        e = h.hyperedges.memo[k]
        inside = sum(1 for v in e if v in s)
        if inside < len(e):
            yield k, inside


def cut_value(h: Hypergraph, s) -> float:
    """Total penalty of the edges s splits, added in ascending edge order."""
    total = 0.0
    for k, inside in _crossing_edges(h, set(s)):
        total += h.edge_penalty(k, inside)
    return total


def set_metrics(h: Hypergraph, s):
    """Return (cut, vol, conductance) of a node set.

    Conductance is cut / min(vol(S), vol(H) - vol(S)), +inf when the smaller
    side has zero volume (empty set, full set, or isolated-node sets).
    """
    s = set(s)
    vol = h.volume(s)
    cut = cut_value(h, s)
    small = min(vol, h.total_volume - vol)
    return cut, vol, cut / small if small > 0 else math.inf


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
    """Lines of a run of whole lines, with tokens as str.split() finds them,
    from the byte tables: (buf, kind, counts, heads, comment). buf is the
    piece's _utf8 bytes and kind their byte kinds; each line with a token
    has its token count, the byte offset of its first token (ascending) and
    whether it is a comment line, one whose first token starts with "%"."""
    buf = _utf8(piece)
    del piece
    kind = _BYTE_KIND[buf]
    step = np.diff((kind < _SPACE).view(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(step == 1)
    del step
    # Tokens per line: one search per line break, not one per token.
    counts = np.diff(np.searchsorted(starts, np.flatnonzero(kind == _BREAK)),
                     prepend=0, append=len(starts))
    counts = counts[counts > 0]
    heads = starts[_offsets(counts)[:-1]]
    return buf, kind, counts, heads, buf[heads] == ord("%")


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
    buf, kind, counts, heads, comment = tokens
    del tokens
    if header is None:
        content = np.flatnonzero(~comment)
        if not len(content):
            return None
        header = _header(*line_at(heads[content[0]]))
        k = content[0] + 1  # the lines after the header
        counts, heads, comment = counts[k:], heads[k:], comment[k:]
    # The edge lines' bytes, from the first line after the header on.
    lo = heads[0] if len(heads) else len(buf)
    buf, kind, heads = buf[lo:], kind[lo:], heads - lo
    in_comment = None
    if comment.any():
        # Each byte from a comment line's first token to the next line's.
        mark = np.zeros(len(buf), dtype=np.int8)
        mark[heads] = np.diff(comment.view(np.int8), prepend=np.int8(0))
        in_comment = np.cumsum(mark, dtype=np.int8).view(bool)
        del mark
        counts, heads = counts[~comment], heads[~comment]

    # Edge tokens are ASCII digits, with at most a leading sign. Every _OTHER
    # byte lies in a token, so an odd token holds an _OTHER byte or a sign
    # that is not at a token start followed by a digit.
    odd = np.flatnonzero(kind == _OTHER)
    signs = np.flatnonzero(kind == _SIGN)
    if len(signs):
        at_start = (signs == 0) | (kind[signs - 1] >= _SPACE)
        digit_next = kind[np.minimum(signs + 1, len(kind) - 1)] == _DIGIT
        odd = np.concatenate((odd, signs[~(at_start & digit_next)]))
    if in_comment is not None:
        odd = odd[~in_comment[odd]]
    odd_row = None  # the first row with a token that is not a number
    if len(odd):  # read only the rows before it
        odd_row = np.searchsorted(heads, odd.min(), side="right") - 1
        buf, kind = buf[:heads[odd_row]], kind[:heads[odd_row]]
        if in_comment is not None:
            in_comment = in_comment[:heads[odd_row]]
    del odd, signs
    offsets = _offsets(counts[:odd_row])
    values = np.zeros(0, dtype=np.int64)
    if offsets[-1]:
        # numpy's reader takes ASCII whitespace, not \x1c-\x1f, between
        # numbers, so comment lines and those separators are blanked first.
        # It reads a number on past the end of its buffer, so each buffer
        # ends where a number cannot go on: the piece's bytes in the NUL
        # after their bytes object, or in the whitespace before the first
        # bad row; the blanked copy in a space of its own.
        if in_comment is not None or ((buf >= 0x1C) & (buf <= 0x1F)).any():
            keep = kind < _SPACE
            if in_comment is not None:
                keep &= ~in_comment
            blanked = np.full(len(buf) + 1, 32, dtype=np.uint8)
            np.copyto(blanked[:-1], buf, where=keep)
            buf = blanked
            del keep, blanked
        del kind, in_comment
        values = np.fromstring(buf, dtype=np.int64, sep=" ")
    del buf
    values -= 1
    bad = np.flatnonzero(_bad_rows(offsets, values, header[0]))
    row = bad[0] if len(bad) else odd_row  # the first bad row
    if row is not None:
        number, row_tokens = line_at(lo + heads[row])
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

    index = {}  # token -> index of its distinct token; valid ones only
    picks, rows = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    for lo, hi in _pieces(text):
        piece = text[lo:hi]
        counts, heads, comment = _scan_tokens(piece)[2:]
        tokens = piece.split()
        del piece
        if comment.any():
            tokens = list(compress(tokens, np.repeat(~comment, counts).tolist()))
            counts, heads = counts[~comment], heads[~comment]
        try:
            for tok in dict.fromkeys(tokens):
                if tok not in index:
                    index[tok] = parse(tok)
        except ValueError as exc:  # raised by the first token not in index
            t = next(t for t, tok in enumerate(tokens) if tok not in index)
            row = np.searchsorted(np.cumsum(counts), t, side="right")
            number = _line_at(text, lo, hi, heads[row])[0]
            raise HypergraphFormatError(f"line {number}: {exc}") from None
        picks.append(np.fromiter(map(index.__getitem__, tokens), dtype=np.int32,
                                 count=len(tokens)))
        del tokens
        rows.append(counts)
    counts = np.concatenate(rows)
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
