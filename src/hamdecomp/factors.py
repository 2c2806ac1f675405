"""Regular-factor extraction and the exhaustive degree-factor oracle.

The oracle enumerates all 3^n partitions (S, T, U) and checks the
deficiency condition R_r(S,T) >= Q_r(S,T) exactly.  Extraction reduces the
r-factor problem to perfect matching through a slot gadget; a flow fast
path, a bipartite b-matching over a balanced orientation (the edges walked
along closed trails) that picks the arcs to drop, handles large even-degree
instances and falls back to the exact gadget matching when it comes up
short.  A flow-route factor carries the orientation's arcs it kept, so
peeling orients it without a second pass.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, OrientedGraph, balanced_orientation
from .matching import bipartite_b_matching, max_matching_general

TUTTE_CAP = 12
FLOW_FASTPATH_MIN_N = 40


# -- Tutte condition oracle ---------------------------------------------------


@dataclass
class TutteVerdict:
    exists: bool
    violation: tuple[set[int], set[int]] | None = None  # (S, T) witnessing failure
    partitions_checked: int = 0


def tutte_quantities(g: Graph, r: int, s_set: set[int], t_set: set[int]) -> tuple[int, int]:
    """R_r(S,T) and Q_r(S,T) for a partition (S, T, U) of the vertices."""
    u_set = set(range(g.n)) - s_set - t_set
    big_r = (
        sum(g.degree(v) for v in t_set)
        - g.edge_count_between(s_set, t_set)
        + r * (len(s_set) - len(t_set))
    )
    big_q = 0
    for comp in g.components(u_set):
        if (r * len(comp) + g.edge_count_between(comp, t_set)) % 2 == 1:
            big_q += 1
    return big_r, big_q


def tutte_check_exhaustive(g: Graph, r: int) -> TutteVerdict:
    """Exhaustive r-factor existence check over all 3^n partitions."""
    n = g.n
    if n > TUTTE_CAP:
        raise ValueError(f"n={n} above exhaustive cap {TUTTE_CAP}")
    if r < 1:
        raise ValueError("r must be positive")
    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    deg = [g.degree(v) for v in range(n)]
    full = (1 << n) - 1
    checked = 0
    # assignment digit per vertex: 0 -> S, 1 -> T, 2 -> U
    for code in range(3**n):
        s_mask = t_mask = 0
        c = code
        for v in range(n):
            d = c % 3
            c //= 3
            if d == 0:
                s_mask |= 1 << v
            elif d == 1:
                t_mask |= 1 << v
        checked += 1
        u_mask = full & ~s_mask & ~t_mask
        d_t = e_st = 0
        tm = t_mask
        while tm:
            b = tm & -tm
            v = b.bit_length() - 1
            tm ^= b
            d_t += deg[v]
            e_st += (adj_mask[v] & s_mask).bit_count()
        big_r = d_t - e_st + r * (s_mask.bit_count() - t_mask.bit_count())
        # odd components of G[U]
        big_q = 0
        rem = u_mask
        while rem:
            b = rem & -rem
            comp = b
            frontier = b
            while frontier:
                nxt = 0
                fm = frontier
                while fm:
                    vb = fm & -fm
                    fm ^= vb
                    nxt |= adj_mask[vb.bit_length() - 1] & rem & ~comp
                comp |= nxt
                frontier = nxt
            rem &= ~comp
            e_ct = 0
            cm = comp
            while cm:
                vb = cm & -cm
                cm ^= vb
                e_ct += (adj_mask[vb.bit_length() - 1] & t_mask).bit_count()
            if (r * comp.bit_count() + e_ct) % 2 == 1:
                big_q += 1
        if big_r < big_q:
            s_set = {v for v in range(n) if s_mask >> v & 1}
            t_set = {v for v in range(n) if t_mask >> v & 1}
            return TutteVerdict(False, (s_set, t_set), checked)
    return TutteVerdict(True, None, checked)


# -- slot gadget reduction to perfect matching --------------------------------


@dataclass
class GadgetGraph:
    """Perfect-matching gadget for the r-factor problem.

    Per host vertex v: one edge-slot node for each incident edge (ordered by
    neighbor id) and deg(v) - r core-slot nodes; core slots join every edge
    slot of v, and each host edge uv gets a connector between u's and v's
    slots for uv.  A perfect matching selects, via matched connectors, a
    spanning subgraph with every degree exactly r.
    """

    host: Graph
    r: int
    n_nodes: int
    adj: list[list[int]]
    slot_of: dict[tuple[int, int], tuple[int, int]]  # host edge -> (slot at u, slot at v)
    core_range: list[tuple[int, int]]  # core-slot node ids of v: range(*core_range[v])

    def matching_to_factor(self, match: list[int]) -> Graph:
        return Graph.from_pairs(self.host.n, [
            e for e, (su, sv) in self.slot_of.items() if match[su] == sv
        ])


def build_gadget(g: Graph, r: int) -> GadgetGraph:
    if r < 1:
        raise ValueError("r must be positive")
    if r > g.min_degree():
        raise ValueError(f"r={r} exceeds minimum degree {g.min_degree()}")
    n_nodes = 0
    edge_slot: dict[tuple[int, int], int] = {}  # (v, neighbor) -> node id
    core_range: list[tuple[int, int]] = []
    for v in range(g.n):
        nbrs = g.adj(v)
        for u in nbrs:
            edge_slot[(v, u)] = n_nodes
            n_nodes += 1
        core_range.append((n_nodes, n_nodes + len(nbrs) - r))
        n_nodes += len(nbrs) - r
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for v in range(g.n):
        lo, hi = core_range[v]
        slots = [edge_slot[(v, u)] for u in g.adj(v)]
        for c in range(lo, hi):
            adj[c] = list(slots)
            for s in slots:
                adj[s].append(c)
    slot_of: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in sorted(g.edges):
        su, sv = edge_slot[(u, v)], edge_slot[(v, u)]
        adj[su].append(sv)
        adj[sv].append(su)
        slot_of[(u, v)] = (su, sv)
    return GadgetGraph(host=g, r=r, n_nodes=n_nodes, adj=adj, slot_of=slot_of,
                       core_range=core_range)


def _seed_matching(gadget: GadgetGraph) -> list[int]:
    """Initial gadget matching: host edges taken greedily in ascending order
    while both endpoints have degree below r, then each vertex's leftover
    edge slots paired with its core slots."""
    r, deg = gadget.r, [0] * gadget.host.n
    match = [-1] * gadget.n_nodes
    for (u, v), (su, sv) in gadget.slot_of.items():  # ascending host edges
        if deg[u] < r and deg[v] < r:
            deg[u] += 1
            deg[v] += 1
            match[su] = sv
            match[sv] = su
    # v's edge slots sit just before its core slots
    for v, (lo, hi) in enumerate(gadget.core_range):
        free_slots = [s for s in range(lo - gadget.host.degree(v), lo) if match[s] == -1]
        for c, s in zip(range(lo, hi), free_slots):
            match[c] = s
            match[s] = c
    return match


# -- b-matching fast path over a balanced orientation ------------------------


def _factor_via_flow(g: Graph, r: int, rotate: int = 0) -> OrientedGraph | None:
    """Even-r factor through a balanced orientation + a bipartite b-matching.

    An arc u -> w joins u on one side to w on the other.  A factor with r/2
    arcs out of and into every vertex is the orientation minus an excess
    that drops out(x) - r/2 arcs at each tail x and in(y) - r/2 at each
    head y (Tutte 1952: an r-factor is G minus a (d - r)-factor); at the r
    extraction reaches that is about 30% of the arcs, against 70% for the
    factor itself.  Every edge of g is one arc, so in(y) = deg(y) - out(y)
    takes no pass over the arcs.  ``bipartite_b_matching`` with those
    capacities finds a maximum drop set, so one short of the capacities'
    sum means this orientation carries no factor: None.  The arcs kept, r/2
    out and r/2 in at every vertex, come back ascending as the
    ``OrientedGraph``'s ``out`` lists: the balanced orientation peeling
    needs.
    """
    assert r % 2 == 0
    half = r // 2
    out = balanced_orientation(g, rotate)
    cap_x = [len(heads) - half for heads in out]
    cap_y = [g.degree(y) - len(heads) - half for y, heads in enumerate(out)]
    drop = bipartite_b_matching(out, cap_x, cap_y)
    if sum(map(len, drop)) != sum(cap_x):
        return None
    keep = [[w for w in heads if w not in d] if d else heads for heads, d in zip(out, drop)]
    if rotate:  # a rotated scan leaves the out-lists unsorted
        for heads in keep:
            heads.sort()
    return OrientedGraph.from_out(keep)


# -- extraction ---------------------------------------------------------------


def extract_r_factor(g1: Graph, r: int) -> Graph | None:
    """Spanning subgraph with every degree exactly r, or None.

    Exactness is guaranteed by the gadget + blossom route; for large even-r
    instances the flow fast path is tried first (it can miss but never
    errs), so a None answer always reflects the exact matcher's verdict.
    """
    if r < 1 or (r * g1.n) % 2 == 1 or r > g1.min_degree():
        return None
    if r % 2 == 0 and g1.n >= FLOW_FASTPATH_MIN_N:
        for attempt in range(3):
            f = _factor_via_flow(g1, r, rotate=attempt)
            if f is not None:
                _assert_regular(f, r)
                return f
    gadget = build_gadget(g1, r)
    match = max_matching_general(gadget.adj, init=_seed_matching(gadget))
    if -1 in match:
        return None
    f = gadget.matching_to_factor(match)
    _assert_regular(f, r)
    return f


def _assert_regular(f: Graph, r: int) -> None:
    bad = [v for v, d in enumerate(f.degrees()) if d != r]
    if bad:
        raise AssertionError(f"factor not {r}-regular at vertices {bad[:5]}")


def extract_with_retry(g1: Graph, r1: int) -> tuple[Graph | None, int]:
    """Retry extraction at r1, r1-2, ... down to 2; returns (factor, r).

    Degrees above the sample's minimum cannot support a factor, so the scan
    starts at min(r1, even floor of the minimum degree).
    """
    start = min(r1, 2 * (g1.min_degree() // 2))
    r = start if start % 2 == 0 else start - 1
    while r >= 2:
        f = extract_r_factor(g1, r)
        if f is not None:
            return f, r
        r -= 2
    return None, 0

