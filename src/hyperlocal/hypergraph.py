"""Hypergraph data model: parsing, splitting penalties, degrees, cuts, conductance.

Hyperedges carry one or more "gadgets" (c, delta): the penalty a set S pays on
edge e is sum_j c_j * min(|A|, |e|-|A|, delta_j) with A = e & S. delta >= 1 keeps
every per-node penalty f_e({i}) equal to sum_j c_j, which is what the degree
formula relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


class Hypergraph:
    """Immutable hypergraph with per-edge gadget lists.

    Node ids are 0-based internally. `hyperedges` is a list of tuples of
    distinct node ids (size >= 2); `gadgets[k]` is the non-empty gadget list of
    edge k. Degrees, adjacency and the flattened gadget arrays used by the
    solvers are precomputed here once.
    """

    def __init__(self, num_nodes: int, hyperedges, gadgets=None):
        if num_nodes < 1:
            raise ValueError("hypergraph needs at least one node")
        self.num_nodes = int(num_nodes)
        edges = []
        for e in hyperedges:
            e = tuple(int(v) for v in e)
            if len(e) < 2:
                raise ValueError(f"hyperedge {e} has fewer than 2 nodes")
            if len(set(e)) != len(e):
                raise ValueError(f"duplicate node within hyperedge {e}")
            for v in e:
                if not (0 <= v < num_nodes):
                    raise ValueError(f"node id {v} out of range [0, {num_nodes})")
            edges.append(e)
        self.hyperedges = edges
        if gadgets is None:
            gadgets = [[GadgetParams()] for _ in edges]
        gadgets = [list(gl) for gl in gadgets]
        if len(gadgets) != len(edges):
            raise ValueError("need exactly one gadget list per hyperedge")
        for gl in gadgets:
            if not gl:
                raise ValueError("empty gadget list")
        self.gadgets = gadgets

        self.max_edge_size = max((len(e) for e in edges), default=0)
        # Flattened gadget arrays, edge-major. One (a, b) auxiliary pair each.
        g_edge, g_c, g_wab, g_delta = [], [], [], []
        for k, gl in enumerate(self.gadgets):
            for g in gl:
                g_edge.append(k)
                g_c.append(g.c)
                g_wab.append(g.c * g.delta)
                g_delta.append(g.delta)
        self.gadget_edge = g_edge
        self.gadget_c = g_c
        self.gadget_wab = g_wab
        self.gadget_delta = g_delta
        self.num_gadgets = len(g_edge)

        deg = np.zeros(self.num_nodes)
        incident: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for j, k in enumerate(g_edge):
            e = edges[k]
            w = g_c[j] * min(1, len(e) - 1, g_delta[j])
            for v in e:
                deg[v] += w
                incident[v].append(j)
        self.degrees = deg
        self.incident_gadgets = incident
        self.total_volume = float(deg.sum())

    def gadget_members(self, j: int):
        return self.hyperedges[self.gadget_edge[j]]

    def edge_penalty(self, k: int, in_count: int) -> float:
        return splitting_penalty(self.gadgets[k], in_count, len(self.hyperedges[k]))

    def volume(self, nodes) -> float:
        return float(sum(self.degrees[v] for v in set(nodes)))

    def __repr__(self):
        return (f"Hypergraph(n={self.num_nodes}, m={len(self.hyperedges)}, "
                f"gadgets={self.num_gadgets}, vol={self.total_volume:g})")


def cut_value(h: Hypergraph, s) -> float:
    s = set(s)
    total = 0.0
    for k, e in enumerate(h.hyperedges):
        inc = sum(1 for v in e if v in s)
        if 0 < inc < len(e):
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


def _tokens(text: str):
    """Content lines of an .hgr-style file: comments and blank lines skipped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield ln, line.split()


def parse_hypergraph(text: str, default_c: float = 1.0, default_delta: float = 1.0) -> Hypergraph:
    """Parse hypergraph text.

    Format: first content line is "<num_nodes> <num_hyperedges>", then one line
    per hyperedge listing its 1-based node ids separated by whitespace. Lines
    starting with "%" and blank lines are ignored; CRLF endings are fine.
    Every hyperedge gets a single gadget (default_c, default_delta).

    Raises HypergraphFormatError on a malformed header, a non-numeric token, a
    node id out of range, a duplicate node within an edge, an edge of size < 2,
    or a wrong number of edge lines.
    """
    n, edges = _parse_edges(text)
    gadget = GadgetParams(default_c, default_delta)
    return Hypergraph(n, edges, [[gadget] for _ in edges])


def _parse_edges(text: str):
    """The text half of parse_hypergraph: (num_nodes, 0-based edge tuples)."""
    it = _tokens(text)
    try:
        ln, header = next(it)
    except StopIteration:
        raise HypergraphFormatError("empty input: missing header line") from None
    if len(header) != 2:
        raise HypergraphFormatError(f"line {ln}: header must be '<num_nodes> <num_edges>'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise HypergraphFormatError(f"line {ln}: non-numeric header token") from None
    if n < 1 or m < 0:
        raise HypergraphFormatError(f"line {ln}: invalid header values {n} {m}")

    edges = []
    for ln, toks in it:
        try:
            ids = [int(t) for t in toks]
        except ValueError:
            raise HypergraphFormatError(f"line {ln}: non-numeric node id") from None
        if len(ids) < 2:
            raise HypergraphFormatError(f"line {ln}: hyperedge has fewer than 2 nodes")
        seen = set()
        for v in ids:
            if not (1 <= v <= n):
                raise HypergraphFormatError(f"line {ln}: node id {v} out of range [1, {n}]")
            if v in seen:
                raise HypergraphFormatError(f"line {ln}: duplicate node {v} in hyperedge")
            seen.add(v)
        edges.append(tuple(v - 1 for v in ids))
    if len(edges) != m:
        raise HypergraphFormatError(f"header promised {m} hyperedges, found {len(edges)}")
    return n, edges


def parse_gadget_lines(text: str, num_edges: int):
    """Parse a gadget sidecar: one line per hyperedge, "c1:delta1 c2:delta2 ...".

    Returns a list of gadget lists aligned with the hyperedge order. Equal
    tokens share one (frozen) GadgetParams; only valid tokens are memoized,
    so every bad token is parsed, and reported, at its own line.
    """
    rows = []
    memo = {}
    for ln, toks in _tokens(text):
        gl = []
        for t in toks:
            g = memo.get(t)
            if g is None:
                parts = t.split(":")
                if len(parts) != 2:
                    raise HypergraphFormatError(f"line {ln}: gadget token '{t}' is not 'c:delta'")
                try:
                    c, delta = float(parts[0]), float(parts[1])
                except ValueError:
                    raise HypergraphFormatError(f"line {ln}: non-numeric gadget token '{t}'") from None
                try:
                    g = memo[t] = GadgetParams(c, delta)
                except ValueError as exc:
                    raise HypergraphFormatError(f"line {ln}: {exc}") from None
            gl.append(g)
        if not gl:
            raise HypergraphFormatError(f"line {ln}: empty gadget line")
        rows.append(gl)
    if len(rows) != num_edges:
        raise HypergraphFormatError(
            f"gadget sidecar has {len(rows)} lines, hypergraph has {num_edges} hyperedges")
    return rows


def format_hgr(h: Hypergraph) -> str:
    """Inverse of parse_hypergraph: header line then one hyperedge per line,
    1-based node ids. Gadget parameters are not part of the format."""
    lines = [f"{h.num_nodes} {len(h.hyperedges)}"]
    for edge in h.hyperedges:
        lines.append(" ".join(str(v + 1) for v in edge))
    return "\n".join(lines) + "\n"
