"""Explicit reduced directed graphs for the gadget construction.

Each gadget of a hyperedge e becomes an auxiliary pair (a, b) with arcs
(v, a, c) and (b, v, c) for every v in e plus (a, b, c*delta). The solvers
never build these graphs; they exist for oracles, debugging, and dumps.
Auxiliary ids are fixed: a_j = n + 2j, b_j = n + 2j + 1 in flattened gadget
order (edge-major), so fixtures can rely on them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypergraph import Hypergraph


@dataclass
class ReducedGraph:
    node_count: int
    num_original: int
    arcs: list = field(default_factory=list)          # (tail, head, weight)
    degree_vector: np.ndarray = None
    source_id: int | None = None
    sink_id: int | None = None


def build_reduced_graph(h: Hypergraph) -> ReducedGraph:
    n = h.num_nodes
    arcs = []
    for j in range(h.num_gadgets):
        a = n + 2 * j
        b = n + 2 * j + 1
        c = h.c_of[j]
        members = h.members_of[j]
        for v in members:
            arcs.append((v, a, c))
        for v in members:
            arcs.append((b, v, c))
        arcs.append((a, b, h.wab_of[j]))
    node_count = n + 2 * h.num_gadgets
    deg = np.zeros(node_count)
    deg[:n] = h.degrees
    return ReducedGraph(node_count=node_count, num_original=n, arcs=arcs,
                        degree_vector=deg)


def build_localized_cut_graph(g: ReducedGraph, seeds, gamma: float) -> ReducedGraph:
    """Attach source s (arcs to seeds, weight gamma*d) and sink t (arcs from
    non-seeds, weight gamma*d). s and t take the next two node ids."""
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    seeds = sorted(set(seeds))
    if not seeds:
        raise ValueError("seed set is empty")
    n = g.num_original
    for r in seeds:
        if not (0 <= r < n):
            raise ValueError(f"seed {r} is not an original node")
        if g.degree_vector[r] <= 0:
            raise ValueError(f"seed {r} has zero degree")
    s_id = g.node_count
    t_id = g.node_count + 1
    seed_set = set(seeds)
    arcs = list(g.arcs)
    for r in seeds:
        arcs.append((s_id, r, gamma * g.degree_vector[r]))
    for v in range(n):
        if v not in seed_set:
            arcs.append((v, t_id, gamma * g.degree_vector[v]))
    deg = np.zeros(g.node_count + 2)
    deg[:g.node_count] = g.degree_vector
    return ReducedGraph(node_count=g.node_count + 2, num_original=n, arcs=arcs,
                        degree_vector=deg, source_id=s_id, sink_id=t_id)
