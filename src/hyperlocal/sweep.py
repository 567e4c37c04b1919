"""Sweepcut rounding of diffusion vectors and cluster evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypergraph import Hypergraph, _crossing_edges


@dataclass
class SweepProfile:
    """Per-prefix conductance profile of a sweep over the positive support.

    order[i] is the node added at rank i (x descending, ties by ascending
    id); prefix_* hold the running volume, cut, and conductance after that
    addition. Prefixes whose min-side volume is zero carry conductance inf
    and are skipped when selecting best_set (earliest minimum on ties; empty
    when no prefix has finite conductance).
    """

    order: list[int]
    x_values: list[float]
    prefix_vol: list[float]
    prefix_cut: list[float]
    prefix_conductance: list[float]
    best_set: tuple[int, ...]
    best_conductance: float


def sweepcut(h: Hypergraph, x: dict) -> SweepProfile:
    """Sweep the positive support of x, a dict over node ids, from largest
    to smallest value.

    The cut is maintained incrementally via per-hyperedge in-counts: each
    step raises the counts of the swept node's edges and re-prices only
    those edges. The edges are read off the node's incident gadgets, so the
    sweep costs O(vol(support) + k log k) with k the support size,
    independent of the hypergraph's size. Entries beyond the original nodes
    (auxiliaries) are ignored and a negative id raises ValueError. The
    Cheeger-like constant of the best set is boundary_delta_bar(h,
    profile.best_set), computed on request.
    """
    if any(v < 0 for v in x):
        raise ValueError("sweepcut got a negative node id")
    items = [(v, val) for v, val in x.items() if v < h.num_nodes and val > 0]
    if not items:
        raise ValueError("sweepcut needs at least one positive entry")
    items.sort(key=lambda t: (-t[1], t[0]))

    total = h.total_volume
    edge_of = h.edge_of
    in_count: dict[int, int] = {}
    cut = 0.0
    vol = 0.0
    order: list[int] = []
    x_values: list[float] = []
    vols: list[float] = []
    cuts: list[float] = []
    conds: list[float] = []
    best_rank = -1
    best_val = math.inf
    for v, val in items:
        # Gadgets are stored edge-major, so one edge's gadgets are adjacent
        # in the incidence list and the edges come in ascending order.
        prev = -1
        for j in h.incident_gadgets[v]:
            k = edge_of[j]
            if k == prev:
                continue
            prev = k
            count = in_count.get(k, 0)
            cut -= h.edge_penalty(k, count)
            in_count[k] = count + 1
            cut += h.edge_penalty(k, count + 1)
        vol += h.degree_of[v]
        order.append(v)
        x_values.append(val)
        vols.append(vol)
        cuts.append(cut)
        side = min(vol, total - vol)
        if side <= 0:
            conds.append(math.inf)
            continue
        phi = cut / side
        conds.append(phi)
        if phi < best_val:
            best_val = phi
            best_rank = len(order) - 1

    return SweepProfile(order=order, x_values=x_values, prefix_vol=vols,
                        prefix_cut=cuts, prefix_conductance=conds,
                        best_set=tuple(order[: best_rank + 1]), best_conductance=best_val)


def boundary_delta_bar(h: Hypergraph, s) -> float:
    """max over hyperedges crossing s of min(delta_e, |e|/2), 0 if none cross.

    delta_e for a multi-gadget edge is the largest gadget cap, the point past
    which the edge's penalty saturates. Only edges with a node in s can cross
    s, so the cost is O(vol(s)) gadget visits plus the sizes of those edges.
    """
    return max((min(max(g.delta for g in h.gadgets.memo[k]), len(h.hyperedges.memo[k]) / 2.0)
                for k, _ in _crossing_edges(h, set(s))), default=0.0)


def prf1(pred, truth):
    """Precision, recall, F1 of a predicted node set against the truth set."""
    pred = set(pred)
    truth = set(truth)
    hit = len(pred & truth)
    precision = hit / len(pred) if pred else 0.0
    recall = hit / len(truth) if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def profile_csv(profile: SweepProfile) -> str:
    """Render a profile as `rank,node,x,prefix_vol,prefix_cut,prefix_conductance`
    rows (1-based ranks and node ids, header included)."""
    lines = ["rank,node,x,prefix_vol,prefix_cut,prefix_conductance"]
    for r, v in enumerate(profile.order):
        phi = profile.prefix_conductance[r]
        phi_s = "inf" if math.isinf(phi) else f"{phi:.12g}"
        lines.append(f"{r + 1},{v + 1},{profile.x_values[r]:.12g},"
                     f"{profile.prefix_vol[r]:.12g},{profile.prefix_cut[r]:.12g},{phi_s}")
    return "\n".join(lines) + "\n"
