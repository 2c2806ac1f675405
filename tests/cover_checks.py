"""Structural checks on cycle covers, broken 2-factors and 2-factor sets.

The pipeline never calls these: they check its intermediate structures
from the outside, for the tests and the acceptance criteria.
"""
from hamdecomp.graph import BrokenTwoFactor, Graph, cycle_cover_edges, norm_edge
from hamdecomp.twofactor import TwoFactorSet


def path_edges(path) -> set[tuple[int, int]]:
    return {norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)}


def broken_edges(b: BrokenTwoFactor) -> set[tuple[int, int]]:
    return cycle_cover_edges(b.cycles) | path_edges(b.path)


def check_cycle_cover(g: Graph, cycles, spanning: bool = True) -> None:
    """Raise ValueError unless cycles are vertex-disjoint cycles of g."""
    seen: set[int] = set()
    for cyc in cycles:
        if len(cyc) < 3:
            raise ValueError(f"cycle of length {len(cyc)} < 3")
        for i, u in enumerate(cyc):
            if u in seen:
                raise ValueError(f"vertex {u} repeated across cycles")
            seen.add(u)
            v = cyc[(i + 1) % len(cyc)]
            if not g.has_edge(u, v):
                raise ValueError(f"({u},{v}) not an edge of the host")
    if spanning and seen != set(range(g.n)):
        raise ValueError("cycle cover is not spanning")


def validate_broken(b: BrokenTwoFactor, host: Graph | None = None) -> None:
    """Raise ValueError unless the path and cycles are vertex-disjoint,
    cycles have length >= 3, together they span 0..n-1, and (given a host)
    every edge is a host edge."""
    if not b.path:
        raise ValueError("long path must be nonempty")
    seen = set(b.path)
    if len(seen) != len(b.path):
        raise ValueError("repeated vertex on long path")
    for cyc in b.cycles:
        if len(cyc) < 3:
            raise ValueError("cycle shorter than 3")
        for u in cyc:
            if u in seen:
                raise ValueError(f"vertex {u} appears twice")
            seen.add(u)
    if seen != set(range(b.n)):
        raise ValueError("structure does not span all vertices")
    if host is not None:
        for u, v in broken_edges(b):
            if not host.has_edge(u, v):
                raise ValueError(f"({u},{v}) missing from host")


def validate_two_factors(tf: TwoFactorSet) -> None:
    """Raise ValueError unless every factor is a spanning cycle cover of the
    host and no two factors share an edge."""
    seen: set[tuple[int, int]] = set()
    for f in tf.factors:
        check_cycle_cover(tf.host, f, spanning=True)
        es = cycle_cover_edges(f)
        if es & seen:
            raise ValueError("factors share an edge")
        seen |= es
