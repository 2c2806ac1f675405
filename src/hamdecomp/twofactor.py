"""Decompose an even-regular graph into edge-disjoint 2-factors.

Euler-orient the host so in-degree equals out-degree everywhere, form the
bipartite double (one arc = one bipartite edge), and peel perfect matchings;
each matching is a permutation without fixed points or 2-cycles, i.e. a
spanning cycle cover of the host.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, balanced_orientation, check_cycle_cover, cycle_cover_edges
from .matching import hopcroft_karp


@dataclass
class Orientation:
    host: Graph
    out: list[list[int]]  # out[v] = heads of arcs leaving v, ascending

    def in_degrees(self) -> list[int]:
        ind = [0] * self.host.n
        for v in range(self.host.n):
            for u in self.out[v]:
                ind[u] += 1
        return ind

    def validate(self) -> None:
        ind = self.in_degrees()
        n_arcs = 0
        for v in range(self.host.n):
            outd = len(self.out[v])
            n_arcs += outd
            if outd != ind[v] or 2 * outd != self.host.degree(v):
                raise ValueError(f"vertex {v}: out={outd} in={ind[v]} deg={self.host.degree(v)}")
        if n_arcs != self.host.num_edges:
            raise ValueError("arc set does not biject with edge set")


def euler_orient(h: Graph) -> Orientation:
    """Orient an even-degree graph so in-degree equals out-degree at every
    vertex: the balanced orientation extraction uses, out-lists sorted."""
    odd = [v for v in range(h.n) if h.degree(v) % 2 == 1]
    if odd:
        raise ValueError(f"odd-degree vertices: {odd[:5]}")
    out: list[list[int]] = [[] for _ in range(h.n)]
    for a, b in balanced_orientation(h):
        out[a].append(b)
    for v in range(h.n):
        out[v].sort()
    return Orientation(host=h, out=out)


def matching_to_2factor(match: list[int]) -> list[list[int]]:
    """Permutation cycles of the matching = spanning cycle cover of the host."""
    n = len(match)
    seen = [False] * n
    cycles: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = match[v]
        if len(cyc) < 3:
            raise ValueError("matching induced a cycle shorter than 3")
        cycles.append(cyc)
    return cycles


@dataclass
class TwoFactorSet:
    host: Graph
    factors: list[list[list[int]]] = field(default_factory=list)

    def cycle_counts(self) -> list[int]:
        return [len(f) for f in self.factors]

    def validate(self) -> None:
        seen: set[tuple[int, int]] = set()
        for f in self.factors:
            check_cycle_cover(self.host, f, spanning=True)
            es = cycle_cover_edges(f)
            if es & seen:
                raise ValueError("factors share an edge")
            seen |= es


def peel_all(h: Graph, r: int | None = None) -> TwoFactorSet:
    """Peel an r-regular graph into exactly r/2 edge-disjoint 2-factors."""
    degs = {h.degree(v) for v in range(h.n)}
    if len(degs) != 1:
        raise ValueError(f"host not regular: degrees {sorted(degs)[:5]}")
    deg = degs.pop()
    if r is None:
        r = deg
    if r != deg or r % 2 == 1:
        raise ValueError(f"need even regular degree, got r={r}, degree={deg}")
    o = euler_orient(h)
    o.validate()
    # the bipartite double: x -> y for each arc of the orientation; ind
    # keeps its in-degrees up to date as each matching is removed
    adj_x = [list(heads) for heads in o.out]
    ind = o.in_degrees()
    tf = TwoFactorSet(host=h)
    expected = r // 2
    for round_idx in range(expected):
        left = expected - round_idx
        if any(len(heads) != left for heads in adj_x) or any(i != left for i in ind):
            raise AssertionError(f"double not {left}-regular before round {round_idx}")
        # a regular bipartite graph always has a perfect matching
        match = hopcroft_karp(adj_x, h.n)
        if -1 in match:
            raise ValueError("bipartite double has no perfect matching (input not regular?)")
        for x, y in enumerate(match):
            adj_x[x].remove(y)
            ind[y] -= 1
            if ind[y] < left - 1:
                raise AssertionError(f"round {round_idx} matched {y} twice")
        tf.factors.append(matching_to_2factor(match))
    return tf


def cycle_statistics(tf: TwoFactorSet, params=None) -> dict:
    counts = tf.cycle_counts()
    if not counts:
        return {"factors": 0}
    counts_sorted = sorted(counts)
    report = {
        "factors": len(counts),
        "per_factor": counts,
        "min": counts_sorted[0],
        "median": counts_sorted[len(counts) // 2],
        "max": counts_sorted[-1],
    }
    if params is not None:
        k0 = params.k0
        report["k0"] = k0
        report["fraction_within_k0"] = sum(1 for c in counts if c <= k0) / len(counts)
    return report
