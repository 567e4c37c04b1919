"""Deterministic instance generators and reference implementations shared
across test modules."""

import hashlib
import math
import platform
import sys

import numpy as np

from hyperlocal import hypergraph
from hyperlocal.hypergraph import GadgetParams, Hypergraph, HypergraphFormatError, splitting_penalty
from hyperlocal.oracles import _residuals_from_vector
from hyperlocal.pnorm import _PUSH_TOL, _residual_at, pnorm_solve
from hyperlocal.quadratic import (
    VIOLATION_GUARD,
    DiffusionConfig,
    SolveResult,
    _apply_hyperpush,
    _scan_node,
    init_state,
)
from hyperlocal.sweep import SweepProfile
from hyperlocal.synth import SplitMix64, planted_hypergraph, sample_seeds


def random_instance(seed, max_n=30, max_m=60, max_size=6, deltas=(1.0, 2.0, 3.0),
                    min_n=3, max_gadgets=1):
    """Random hypergraph with one gadget (c = 1) per edge, or with
    max_gadgets > 1, 1..max_gadgets gadgets per edge with c drawn from
    {0.5, 1, 2} (those draws leave the one-gadget streams unchanged)."""
    rng = SplitMix64(seed)
    n = min_n + rng.randrange(max_n - min_n + 1)
    m = 1 + rng.randrange(max_m)
    edges = []
    gadgets = []
    for _ in range(m):
        size = 2 + rng.randrange(min(max_size, n) - 1)
        edges.append(tuple(sorted(rng.sample(range(n), size))))
        if max_gadgets == 1:
            gadgets.append([GadgetParams(1.0, deltas[rng.randrange(len(deltas))])])
        else:
            gadgets.append([GadgetParams((0.5, 1.0, 2.0)[rng.randrange(3)],
                                         deltas[rng.randrange(len(deltas))])
                            for _ in range(1 + rng.randrange(max_gadgets))])
    return Hypergraph(n, edges, gadgets)


def random_seeds(h, seed, kmax=3):
    rng = SplitMix64(seed ^ 0x5EED5EED5EED5EED)
    eligible = [v for v in range(h.num_nodes) if h.degrees[v] > 0]
    k = 1 + rng.randrange(min(kmax, len(eligible)))
    return sorted(rng.sample(eligible, k))


def delta_max(h):
    return float(max(h.gadget_delta)) if h.num_gadgets else 1.0


def fresh_residuals(h, state, cfg):
    """(node residuals over V, (r_a, r_b) per gadget) of state.x, recomputed
    from scratch by the oracle."""
    full = np.zeros(h.num_nodes + 2 * h.num_gadgets)
    for k, v in state.x.items():
        full[k] = v
    return _residuals_from_vector(h, state.seeds, cfg, full)


def full_scan_sweepcut(h, x):
    """Reference sweepcut of a dict x that indexes every hyperedge of h on
    each call."""
    items = [(v, val) for v, val in x.items() if v < h.num_nodes and val > 0]
    if not items:
        raise ValueError("sweepcut needs at least one positive entry")
    items.sort(key=lambda t: (-t[1], t[0]))

    incident_edges = {}
    for k, edge in enumerate(h.hyperedges):
        for v in edge:
            incident_edges.setdefault(v, []).append(k)

    total = h.total_volume
    in_count = [0] * len(h.hyperedges)
    cut = vol = 0.0
    order, x_values, vols, cuts, conds = [], [], [], [], []
    best_rank = -1
    best_val = math.inf
    for v, val in items:
        for k in incident_edges.get(v, ()):
            cut -= h.edge_penalty(k, in_count[k])
            in_count[k] += 1
            cut += h.edge_penalty(k, in_count[k])
        vol += h.degrees[v]
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


def full_scan_delta_bar(h, s):
    """Reference boundary_delta_bar that scans every gadget and every edge."""
    s = set(s)
    edge_delta = {}
    for j in range(h.num_gadgets):
        k = h.gadget_edge[j]
        d = float(h.gadget_delta[j])
        if d > edge_delta.get(k, 0.0):
            edge_delta[k] = d
    best = 0.0
    for k, edge in enumerate(h.hyperedges):
        inside = sum(1 for v in edge if v in s)
        if 0 < inside < len(edge):
            best = max(best, min(edge_delta.get(k, 1.0), len(edge) / 2.0))
    return best


def bisection_push(h, state, cfg, i, ri, di, adjacent, caches):
    """Reference p-norm push: plain bisection of [x_i, 1] with the push's
    stop, a residual within tau*kappa*d_i of rho*kappa*d_i, or a bracket of
    two adjacent floats whose nearer end must lie in [0, kappa*d_i]."""
    xi = state.x.get(i, 0.0)
    ind = 1.0 if i in state.seeds else 0.0
    kd = cfg.kappa * di
    target = cfg.rho * kd
    band = min(_PUSH_TOL, cfg.rho, 1.0 - cfg.rho) * kd
    lo, r_lo = xi, ri
    t = hi = 1.0
    rt = r_hi = _residual_at(cfg, adjacent, ind, di, hi)
    while abs(rt - target) > band:
        t = 0.5 * (lo + hi)
        if not lo < t < hi:
            t, rt = (lo, r_lo) if r_lo - target < target - r_hi else (hi, r_hi)
            if not 0.0 <= rt <= kd:
                raise RuntimeError(f"p-norm push on node {i} cannot meet its residual target")
            break
        rt = _residual_at(cfg, adjacent, ind, di, t)
        if rt > target:
            lo, r_lo = t, rt
        else:
            hi, r_hi = t, rt
    state.x[i] = t
    state.r[i] = rt
    state.pushes += 1
    state.sum_pushed_degree += di
    return t - xi


def bisection_settle_pair(member_x, c, wab, q, xa0, xb0, tol):
    """Reference gadget-pair settle: 80 halvings of [x_min, x_max] on x_a,
    with x_b composed from the a-side equation. When that pair misses the
    bound 10*tol + 2*(w_ab + c)*ulp(x_top)^q, x_a is kept and x_b alone is
    bisected on the b-side equation over [x_min, x_a]: near a member value
    the q-power turns the composed x_b's rounding into residual error."""
    xs = sorted(xv for _, xv in member_x)
    xmin = xs[0]
    xmax = xs[-1]
    if xmax <= xmin:
        return max(xmax, xa0), max(xmax, xb0)
    settle = 0.01 * tol
    inv_q = 1.0 / q

    def pair_at(t):
        acc = 0.0
        for xv in reversed(xs):
            if xv <= t:
                break
            acc += (xv - t) ** q
        y = c * acc
        return t - (y / wab) ** inv_q, y

    lo, hi = xmin, xmax
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        xb_mid, y = pair_at(mid)
        acc = 0.0
        for xv in xs:
            if xv >= xb_mid:
                break
            acc += (xb_mid - xv) ** q
        defect = c * acc - y
        if abs(defect) <= settle:
            lo = hi = mid
            break
        if defect > 0.0:
            hi = mid
        else:
            lo = mid
    xa = 0.5 * (lo + hi)
    xb, _ = pair_at(xa)
    xa, xb = max(xa, xa0), max(min(xb, xa), xb0)

    def b_side(u):
        f = wab * (xa - u) ** q
        for xv in xs:
            if xv >= u:
                break
            f -= c * (u - xv) ** q
        return f

    ra = -wab * (xa - xb) ** q if xa > xb else 0.0
    ra += sum(c * (xv - xa) ** q for xv in xs if xv > xa)
    if max(abs(ra), abs(b_side(xb))) <= 10 * tol + 2 * (wab + c) * math.ulp(max(xmax, xa)) ** q:
        return xa, xb
    lo, hi = xmin, xa  # b_side falls strictly from b_side(x_min) >= 0 to b_side(x_a) <= 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if b_side(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    xb = lo if abs(b_side(lo)) <= abs(b_side(hi)) else hi
    return xa, max(xb, xb0)


# ---------------------------------------------------------------------------
# The list-based data model the columnar Hypergraph replaced, kept as the
# reference its parser, arrays and cuts are compared against.


def reference_tokens(text):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield ln, line.split()


def reference_parse_edges(text):
    """Line-by-line .hgr parse: (num_nodes, list of 0-based edge tuples)."""
    it = reference_tokens(text)
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


def reference_parse_gadget_lines(text, num_edges):
    """Line-by-line sidecar parse: a list of GadgetParams lists, one per
    content line. Equal tokens share one GadgetParams; only valid tokens are
    memoized, so every bad token is parsed, and reported, at its own line."""
    rows = []
    memo = {}
    for ln, toks in reference_tokens(text):
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
        rows.append(gl)
    if len(rows) != num_edges:
        raise HypergraphFormatError(
            f"gadget sidecar has {len(rows)} lines, hypergraph has {num_edges} hyperedges")
    return rows


def second_piece_case(kind):
    """(text, num_edges) of the parse-error corpus's recipe case of the given
    kind ("hgr" or "sidecar"): about 1.2 MB of good lines whose one bad line
    starts past the scan's first piece of _SCAN_CHUNK characters, built here
    so that the corpus need not store it. num_edges is None for .hgr."""
    chunk = hypergraph._SCAN_CHUNK
    if kind == "hgr":
        good = [f"{1 + k % 998} {2 + k % 998} {3 + k % 998}\n" for k in range(chunk // 10)]
        bad = "5 x 7\n"
    else:
        good = ["1:2 0.5:3\n" if k % 2 else "2:1\n" for k in range(chunk // 6)]
        bad = "1:2 1:0.5\n"
    lines = good + [bad] + good[:100]
    body = "".join(lines)
    start = sum(map(len, good))
    if kind == "hgr":
        header = f"1000 {len(lines)}\n"
        body, start = header + body, start + len(header)
    assert chunk < start < 2 * chunk, (start, chunk)
    return body, None if kind == "hgr" else len(lines)


def corpus_text(kind, case):
    """(text, num_edges) of one parse-error corpus case: stored, or built by
    second_piece_case."""
    if case.get("recipe"):
        return second_piece_case(kind)
    return case["text"], case.get("num_edges")


def corpus_error(case):
    """The error message a corpus case records: its line number, if any,
    then its message."""
    return case["message"] if case["line"] is None else f"line {case['line']}: {case['message']}"


class ReferenceHypergraph:
    """Python lists per edge, per gadget and per node, built by loops."""

    def __init__(self, num_nodes, hyperedges, gadgets=None):
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
        g_edge, g_c, g_wab, g_delta = [], [], [], []
        for k, gl in enumerate(gadgets):
            for g in gl:
                g_edge.append(k)
                g_c.append(g.c)
                g_wab.append(g.c * g.delta)
                g_delta.append(g.delta)
        self.gadget_edge = g_edge
        self.gadget_c = g_c
        self.gadget_wab = g_wab
        self.gadget_delta = g_delta
        deg = np.zeros(self.num_nodes)
        incident = [[] for _ in range(self.num_nodes)]
        for j, k in enumerate(g_edge):
            e = edges[k]
            w = g_c[j] * min(1, len(e) - 1, g_delta[j])
            for v in e:
                deg[v] += w
                incident[v].append(j)
        self.degrees = deg
        self.incident_gadgets = incident
        self.total_volume = float(deg.sum())

    def edge_penalty(self, k, in_count):
        return splitting_penalty(self.gadgets[k], in_count, len(self.hyperedges[k]))


def full_scan_cut_value(h, s):
    """Reference cut: every hyperedge of h, in ascending order."""
    s = set(s)
    total = 0.0
    for k, e in enumerate(h.hyperedges):
        inc = sum(1 for v in e if v in s)
        if 0 < inc < len(e):
            total += h.edge_penalty(k, inc)
    return total


# ---------------------------------------------------------------------------
# The per-gadget p = 2 auxpush and the driver loop that called it once per
# incident gadget, kept as the reference the hoisted settle pass is
# compared against bit for bit.


def reference_auxpush(h, state, cfg, j, i=None, dxi=None):
    """Restore gadget j's residuals to zero after node i was raised by dxi."""
    x = state.x
    a = h.num_nodes + 2 * j
    b = a + 1
    c = h.c_of[j]
    wab = h.wab_of[j]
    members = h.members_of[j]
    state.touched_gadgets.add(j)
    xa0 = x.get(a, 0.0)
    xb0 = x.get(b, 0.0)
    if i is not None and dxi is not None:
        xi_new = x.get(i, 0.0)
        if xi_new <= xa0 and xb0 <= xi_new - dxi:
            return 0.0, 0.0

    xa, xb = xa0, xb0
    member_x = [(v, x.get(v, 0.0)) for v in members]
    tol = 1e-15 * (1.0 + wab + c * len(members))

    for _round in range(4 * len(members) + 8):
        ra = -wab * (xa - xb)
        rb = wab * (xa - xb)
        z_a = z_b = 0.0
        xmin_a = xmin_b = math.inf
        for _, xv in member_x:
            if xv > xa:
                ra += c * (xv - xa)
                z_a += c
                if xv < xmin_a:
                    xmin_a = xv
            if xv <= xb:
                rb -= c * (xb - xv)
                z_b += c
            elif xv < xmin_b:
                xmin_b = xv
        if ra <= tol and rb <= tol:
            break
        if ra < 0.0:
            ra = 0.0
        if rb < 0.0:
            rb = 0.0
        det = wab * (z_a + z_b) + z_a * z_b
        if det <= 0:
            break
        da = (ra * (wab + z_b) + wab * rb) / det
        db = (wab * ra + (wab + z_a) * rb) / det
        theta = 1.0
        if da > 0 and xa + da > xmin_a:
            theta = min(theta, (xmin_a - xa) / da)
        if db > 0 and xb + db > xmin_b:
            theta = min(theta, (xmin_b - xb) / db)
        xa += theta * da
        xb += theta * db
        if theta == 1.0:
            break
    else:
        raise RuntimeError(f"auxpush on gadget {j} did not settle")

    if xa > 0:
        x[a] = xa
    if xb > 0:
        x[b] = xb
    da_total = xa - xa0
    db_total = xb - xb0
    if da_total > 0 or db_total > 0:
        gamma = cfg.gamma
        thresh = 1.0 + VIOLATION_GUARD
        for v, xv in member_x:
            bump = 0.0
            if xv > xa0:
                bump += c * (min(xv, xa) - xa0)
            if xb > xv:
                bump += c * (xb - max(xv, xb0))
            if bump > 0.0:
                rv = state.r.get(v, 0.0) + bump / gamma
                state.r[v] = rv
                if v not in state.in_queue and rv > cfg.kappa * h.degree_of[v] * thresh:
                    state.queue.append(v)
                    state.in_queue.add(v)
    state.aux_pushes += 1
    return da_total, db_total


def reference_solve(h, seeds, cfg, on_event=None):
    """The p = 2 FIFO push loop with one reference_auxpush per incident gadget."""
    state = init_state(h, seeds, cfg)
    thresh = 1.0 + VIOLATION_GUARD
    queue = state.queue
    while queue:
        i = queue.popleft()
        state.in_queue.discard(i)
        di = h.degree_of[i]
        ri, adjacent, caches = _scan_node(h, state, cfg, i)
        if ri <= cfg.kappa * di * thresh:
            state.r[i] = ri
            continue
        if cfg.max_pushes is not None and state.pushes >= cfg.max_pushes:
            queue.appendleft(i)
            state.in_queue.add(i)
            break
        dxi = _apply_hyperpush(h, state, cfg, i, ri, di, adjacent, caches)
        if on_event is not None:
            on_event("hyperpush", {"node": i, "dx": dxi, "d": di, "r_before": ri})
        for j in h.incident_gadgets[i]:
            da, db = reference_auxpush(h, state, cfg, j, i, dxi)
            if on_event is not None:
                on_event("auxpush", {"gadget": j, "node": i, "da": da, "db": db})
    xv = {v: val for v, val in state.x.items() if v < h.num_nodes and val > 0}
    return SolveResult(x=xv, state=state, converged=not queue, pushes=state.pushes,
                       sum_pushed_degree=state.sum_pushed_degree,
                       seed_volume=state.seed_volume)


# ---------------------------------------------------------------------------
# The solver digest corpus. tests/golden/solver_digests.json holds one SHA-256
# per case, written by scripts/solver_digests.py; tests/test_golden.py
# recomputes them, so a refactor of the solvers that changes any output bit
# shows up as a digest mismatch.


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


class SolveDigest:
    """on_event hook that hashes the event stream; digest(res) then adds the
    solve's x and r (as float.hex), every counter, the queue, the touched
    gadgets and the converged flag."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def __call__(self, kind, payload):
        self._sha.update(repr((kind, sorted((k, _hexed(v)) for k, v in payload.items())))
                         .encode())

    def digest(self, res):
        st = res.state
        parts = (
            [(k, st.x[k].hex()) for k in sorted(st.x)],
            [(k, st.r[k].hex()) for k in sorted(st.r)],
            (st.pushes, st.aux_pushes, st.root_evals, st.walk_pushes, st.peak_queue,
             st.sum_pushed_degree.hex(), st.seed_volume.hex()),
            list(st.queue), sorted(st.in_queue), sorted(st.touched_gadgets),
            res.converged,
        )
        self._sha.update(repr(parts).encode())
        return self._sha.hexdigest()


def scaled_gadgets(h, k):
    """h with every gadget's c multiplied by 2^k (exact in floating point)."""
    return Hypergraph(h.num_nodes, h.hyperedges,
                      [[GadgetParams(g.c * 2.0 ** k, g.delta) for g in gl] for gl in h.gadgets])


def _scale_cases(p, ks):
    """The 3-node hyperedge with one gadget, delta 1 and c = 2^k, seeded at
    node 0 with kappa 0.01."""
    for k in ks:
        h = Hypergraph(3, [(0, 1, 2)], [[GadgetParams(2.0 ** k, 1.0)]])
        yield f"scale-p{p:g}/{k}", h, [0], DiffusionConfig(kappa=0.01, p=p)


def p2_digest_cases():
    """(name, h, seeds, cfg) of the corpus's p = 2 cases, built lazily:
    acceptance check 1's 100 instances at their kappa, uncapped and capped
    at 7 pushes; 40 instances with 1-3 gadgets per edge; five chain queries
    at 100 blocks; the scale cases of the 3-node hyperedge at c = 2^k, and
    check 1's first 10 instances with every c scaled by 2^20 and 2^-20."""
    for k in range(100):
        h = random_instance(1000 + k, max_n=50, max_m=100, max_size=8)
        seeds = random_seeds(h, 1000 + k)
        kappa = 0.01 if k % 2 == 0 else 0.1
        yield f"check1/{k}", h, seeds, DiffusionConfig(kappa=kappa)
        yield f"check1-capped/{k}", h, seeds, DiffusionConfig(kappa=kappa, max_pushes=7)
    for k in range(40):
        h = random_instance(7000 + k, max_n=12, max_m=14, max_size=5, max_gadgets=3)
        yield f"gadgets-p2/{k}", h, random_seeds(h, 7000 + k), DiffusionConfig(kappa=0.1)
    h, labels = planted_hypergraph([50] * 100, 120, (3, 5), 0.05, 4242,
                                   cross_scope="chain", delta=1.0)
    for b in range(0, 100, 20):
        seeds = sample_seeds(labels, b, 5, "uniform", 99 + b, degrees=h.degrees)
        yield f"chain/{b}", h, seeds, DiffusionConfig(kappa=0.01)
    yield from _scale_cases(2.0, (-60, -50, 0, 50, 60, 512))
    for k in range(10):
        h = random_instance(1000 + k, max_n=50, max_m=100, max_size=8)
        seeds = random_seeds(h, 1000 + k)
        kappa = 0.01 if k % 2 == 0 else 0.1
        for shift in (20, -20):
            yield (f"check1-scaled/{k}/2^{shift}", scaled_gadgets(h, shift), seeds,
                   DiffusionConfig(kappa=kappa))


def pnorm_digest_cases():
    """(name, h, seeds, cfg) of the corpus's p < 2 cases, built lazily: 12
    small one-gadget instances at p = 1.4, 10 multi-gadget ones at p = 1.4
    and 1.7 capped at 400 pushes (the dearest takes 2 331 uncapped), three
    planted p = 1.4 fixtures at the benchmark's kappa = vol(R) / 3000, and
    the scale cases of the 3-node hyperedge at c = 2^k, p = 1.4."""
    for k in range(12):
        h = random_instance(k, max_n=12, max_m=14, max_size=5)
        yield f"p1.4/{k}", h, random_seeds(h, k), DiffusionConfig(kappa=0.1, p=1.4)
    for k in range(10):
        h = random_instance(8000 + k, max_n=12, max_m=14, max_size=5, max_gadgets=3)
        p = 1.4 if k % 2 == 0 else 1.7
        cfg = DiffusionConfig(kappa=0.1, p=p, max_pushes=400)
        yield f"gadgets-p{p}/{k}", h, random_seeds(h, 8000 + k), cfg
    for fixture in (1000, 1001, 1002):
        h, labels = planted_hypergraph([200, 200], 600, (3, 6), 0.05, fixture, delta=1.0)
        seeds = sample_seeds(labels, 0, 5, "degree_proportional", fixture, degrees=h.degrees)
        kappa = sum(h.degree_of[v] for v in seeds) / 3000.0
        yield f"planted-p1.4/{fixture}", h, seeds, DiffusionConfig(kappa=kappa, p=1.4)
    yield from _scale_cases(1.4, (-30, -20, 0, 20))


def libm_tag():
    """Where the p < 2 digests hold: their arithmetic goes through libm's pow."""
    return f"{sys.platform}-{platform.machine()}-{'-'.join(platform.libc_ver())}"


def case_digest(h, seeds, cfg):
    """SHA-256 of one solve (pnorm_solve, which runs quadratic.solve at p = 2)."""
    hook = SolveDigest()
    return hook.digest(pnorm_solve(h, seeds, cfg, on_event=hook))
