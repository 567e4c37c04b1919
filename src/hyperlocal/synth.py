"""Deterministic synthetic hypergraph generation and seed sampling.

Acceptance thresholds are calibrated on fixtures, so generation must be
bit-identical across platforms and Python versions. All randomness therefore
flows through SplitMix64 below (a 64-bit counter-based generator small enough
to spell out in full) instead of the stdlib Mersenne machinery.
"""

from __future__ import annotations

from .hypergraph import GadgetParams, Hypergraph, _uniform_gadgets

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state advances by the golden-ratio gamma, output is a
    bijective mix of the state. Passes through ints in [0, 2^64)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"randrange needs n > 0, got {n}")
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < bound:
                return v % n

    def sample(self, seq, k: int) -> list:
        """k distinct elements via partial Fisher-Yates on a copy."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError(f"cannot sample {k} from {len(pool)} elements")
        for idx in range(k):
            swap = idx + self.randrange(len(pool) - idx)
            pool[idx], pool[swap] = pool[swap], pool[idx]
        return pool[:k]


def planted_hypergraph(blocks, edges_per_block: int, edge_size_range,
                       cross_edge_fraction: float, rng_seed: int,
                       cross_scope: str = "any", delta: float = 1.0):
    """Planted-cluster hypergraph: (Hypergraph, labels: block id per node).

    Each block draws edges_per_block hyperedges; with probability
    cross_edge_fraction an edge splits its members between the home block and
    one other block (cross_scope "any": uniform over the others; "chain": the
    next block, so block b only touches b-1 and b+1). Every block consumes
    its own generator substream seeded from the b-th draw of a master stream,
    so block b's edges do not depend on how many blocks follow it.
    """
    blocks = list(blocks)
    lo, hi = edge_size_range
    if not blocks:
        raise ValueError("need at least one block")
    if lo < 2 or hi < lo:
        raise ValueError(f"bad edge size range ({lo}, {hi})")
    if min(blocks) < hi:
        raise ValueError(f"smallest block {min(blocks)} cannot host edges of size {hi}")
    if not 0.0 <= cross_edge_fraction <= 1.0:
        raise ValueError(f"cross_edge_fraction must be in [0,1], got {cross_edge_fraction}")
    if edges_per_block < 1:
        raise ValueError("edges_per_block must be >= 1")
    if cross_scope not in ("any", "chain"):
        raise ValueError(f"unknown cross_scope {cross_scope!r}")

    offsets = []
    total = 0
    labels: list[int] = []
    for b, size in enumerate(blocks):
        offsets.append(total)
        labels.extend([b] * size)
        total += size

    master = SplitMix64(rng_seed)
    block_seeds = [master.next_u64() for _ in blocks]

    edges = []
    nblocks = len(blocks)
    for b in range(nblocks):
        rng = SplitMix64(block_seeds[b])
        home = range(offsets[b], offsets[b] + blocks[b])
        for _ in range(edges_per_block):
            cross = nblocks > 1 and rng.random() < cross_edge_fraction
            size = lo + rng.randrange(hi - lo + 1)
            if cross:
                if cross_scope == "chain":
                    other = b + 1 if b + 1 < nblocks else b - 1
                else:
                    other = rng.randrange(nblocks - 1)
                    if other >= b:
                        other += 1
                k_home = 1 + rng.randrange(size - 1)
                members = rng.sample(home, k_home)
                members += rng.sample(range(offsets[other], offsets[other] + blocks[other]),
                                      size - k_home)
            else:
                members = rng.sample(home, size)
            edges.append(tuple(sorted(members)))

    return Hypergraph(total, edges, _uniform_gadgets(len(edges), GadgetParams(1.0, delta))), labels


def sample_seeds(labels, block: int, k: int, mode: str, rng_seed: int,
                 degrees=None):
    """k distinct nodes of the given block, as a sorted tuple.

    mode "uniform" draws uniformly; "degree_proportional" draws sequentially
    without replacement with probability proportional to degree (degrees
    required). Zero-degree nodes are never eligible when degrees are given.
    """
    members = [v for v, lab in enumerate(labels) if lab == block]
    if not members:
        raise ValueError(f"block {block} has no nodes")
    if degrees is not None:
        members = [v for v in members if degrees[v] > 0]
    if k < 1 or k > len(members):
        raise ValueError(f"cannot draw {k} seeds from {len(members)} eligible nodes")
    rng = SplitMix64(rng_seed)
    if mode == "uniform":
        picked = rng.sample(members, k)
    elif mode == "degree_proportional":
        if degrees is None:
            raise ValueError("degree_proportional sampling needs the degree vector")
        pool = list(members)
        weights = [float(degrees[v]) for v in pool]
        picked = []
        for _ in range(k):
            tot = sum(weights)
            u = rng.random() * tot
            acc = 0.0
            idx = len(pool) - 1
            for t, w in enumerate(weights):
                acc += w
                if u < acc:
                    idx = t
                    break
            picked.append(pool.pop(idx))
            weights.pop(idx)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return tuple(sorted(picked))


def format_labels(labels) -> str:
    """Labels file body: `node_id block_id` per line, both 1-based."""
    return "".join(f"{v + 1} {lab + 1}\n" for v, lab in enumerate(labels))
