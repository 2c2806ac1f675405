"""Decompose an even-regular graph into edge-disjoint 2-factors.

Orient the host so in-degree equals out-degree everywhere (the orientation
a flow-route factor already carries, else one along closed trails), form
the bipartite double (one arc = one bipartite edge), and peel perfect
matchings; each matching is a permutation without fixed points or
2-cycles, i.e. a spanning cycle cover of the host.
"""
from __future__ import annotations

from collections import deque
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
    """Peel an r-regular graph into exactly r/2 edge-disjoint 2-factors,
    reading only its degrees and its orientation's out- and in-degrees."""
    degs = set(h.degrees())
    if len(degs) != 1:
        raise ValueError(f"host not regular: degrees {sorted(degs)[:5]}")
    deg = degs.pop()
    if r != deg or r % 2 == 1:
        raise ValueError(f"need even regular degree, got r={r}, degree={deg}")
    o = euler_orient(h)
    # the bipartite double (x -> y per arc) is peeled from copies of the out-lists,
    # so a factor is never changed.  The balance check: out = in = r/2
    adj_x = [list(heads) for heads in o.out]
    expected = r // 2
    balanced = [expected] * h.n
    if list(map(len, adj_x)) != balanced or o.in_degrees() != balanced:
        raise AssertionError(f"double not {expected}-regular before round 0")
    tf = TwoFactorSet(host=h)
    for round_idx in range(expected):
        # a regular bipartite graph always has a perfect matching
        match = hopcroft_karp(adj_x, h.n)
        if -1 in match:
            raise ValueError("bipartite double has no perfect matching (input not regular?)")
        # the double stays regular: a permutation takes one in-arc per y (else the first
        # y seen twice is named), and list.remove one out-arc per x, keeping list order
        if len(set(match)) != h.n:
            seen: set[int] = set()
            y = next(y for y in match if y in seen or seen.add(y))
            raise AssertionError(f"round {round_idx} matched {y} twice")
        deque(map(list.remove, adj_x, match), 0)
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
