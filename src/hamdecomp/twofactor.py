"""Decompose an even-regular graph into edge-disjoint 2-factors.

Orient the host so in-degree equals out-degree everywhere (the orientation
a flow-route factor already carries, else one along closed trails), form
the bipartite double (one arc = one bipartite edge), and peel perfect
matchings; each matching is a permutation without fixed points or
2-cycles, i.e. a spanning cycle cover of the host.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, OrientedGraph, balanced_orientation
from .matching import hopcroft_karp
from .sampler import Params


def euler_orient(h: Graph) -> OrientedGraph:
    """``h`` with an orientation in which in-degree equals out-degree at
    every vertex, out-lists ascending.  An ``OrientedGraph`` (a flow-route
    factor) is returned as it is; any other even-degree graph is oriented
    along closed trails by ``balanced_orientation``, as in extraction."""
    if isinstance(h, OrientedGraph):
        return h
    odd = [v for v in range(h.n) if h.degree(v) % 2 == 1]
    if odd:
        raise ValueError(f"odd-degree vertices: {odd[:5]}")
    return OrientedGraph.from_out(balanced_orientation(h))


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


def peel_all(h: Graph, r: int) -> TwoFactorSet:
    """Peel an r-regular graph into exactly r/2 edge-disjoint 2-factors."""
    degs = {h.degree(v) for v in range(h.n)}
    if len(degs) != 1:
        raise ValueError(f"host not regular: degrees {sorted(degs)[:5]}")
    deg = degs.pop()
    if r != deg or r % 2 == 1:
        raise ValueError(f"need even regular degree, got r={r}, degree={deg}")
    o = euler_orient(h)
    # the bipartite double (x -> y per arc) is peeled from copies of the
    # orientation's out-lists, so a factor is never changed; ind tracks its
    # in-degrees.  The balance check: out = in = r/2 on an r-regular host
    adj_x = [list(heads) for heads in o.out]
    ind = o.in_degrees()
    expected = r // 2
    if any(len(heads) != expected for heads in adj_x) or any(i != expected for i in ind):
        raise AssertionError(f"double not {expected}-regular before round 0")
    tf = TwoFactorSet(host=h)
    for round_idx in range(expected):
        # the double stays regular: each round removes one out-arc per x
        # (list.remove raises otherwise) and one in-arc per y (checked below)
        left = expected - round_idx
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


def cycle_statistics(tf: TwoFactorSet, params: Params) -> dict:
    counts = tf.cycle_counts()
    if not counts:
        return {"factors": 0}
    counts_sorted = sorted(counts)
    return {
        "factors": len(counts),
        "per_factor": counts,
        "min": counts_sorted[0],
        "median": counts_sorted[len(counts) // 2],
        "max": counts_sorted[-1],
        "k0": params.k0,
        "fraction_within_k0": sum(1 for c in counts if c <= params.k0) / len(counts),
    }
