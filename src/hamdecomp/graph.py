"""Undirected simple graphs with dense integer vertex ids.

Vertices are 0..n-1; edges are normalized (min, max) pairs so that edge
sets from different phases of the decomposition can be compared exactly.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterable, Sequence


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple graph stored only as an ascending neighbour list per vertex;
    edges, edge count and edge membership are derived from the lists."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Graph whose edges are ``pairs``: distinct (u, v) with
        0 <= u < v < n, which are not checked.  Each neighbour list is
        sorted once, in linear time when the pairs come in ascending order.
        Every entry naming vertex v is the one int object ``ids[v]``: the
        lists then point into n ints, not one per entry, which saves memory
        and keeps list scans and bisects in cache."""
        g = cls(n)
        adj, ids = g._adj, list(range(n))
        for u, v in pairs:
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        for nbrs in adj:
            nbrs.sort()
        return g

    @classmethod
    def from_lists(cls, adj: list[list[int]]) -> "Graph":
        """Graph on vertices 0..len(adj)-1 whose neighbour lists are
        ``adj``, kept, not copied.  The caller guarantees what ``from_pairs``
        produces: each list ascending, v in adj[u] exactly when u in
        adj[v], no self-loop; none of this is checked."""
        g = cls.__new__(cls)
        g.n, g._adj = len(adj), adj
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_pairs(n, ((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_pairs(n, (norm_edge(i, (i + 1) % n) for i in range(n)))

    # -- mutation -------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: {(u, v)}")
        if not self.has_edge(u, v):
            insort(self._adj[u], v)
            insort(self._adj[v], u)

    # -- queries --------------------------------------------------------------

    @property
    def edges(self) -> set[tuple[int, int]]:
        """A new set of the (min, max) edge tuples, built from the neighbour
        lists on each call; changing it leaves the graph unchanged."""
        return {(u, v) for u, nbrs in enumerate(self._adj) for v in nbrs[bisect_right(nbrs, u):]}

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj[u] if 0 <= u < self.n else ()
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return list(map(len, self._adj))

    def adj(self, v: int) -> list[int]:
        """Neighbours in ascending order; treat as read-only."""
        return self._adj[v]

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    # -- structural predicates ------------------------------------------------

    def edge_count_between(self, a: Iterable[int], b: Iterable[int]) -> int:
        """Number of edges with one endpoint in a and the other in b.

        When a == b this is the number of edges inside a, counted once.
        """
        a = set(a)
        b = set(b)
        if not a or not b:
            return 0
        if a.isdisjoint(b):
            small, big = (a, b) if len(a) <= len(b) else (b, a)
            return sum(len(big.intersection(self._adj[u])) for u in small)
        return len({norm_edge(u, v) for u in a for v in b.intersection(self._adj[u])})

    def components(self, restrict: Iterable[int] | None = None) -> list[set[int]]:
        """Connected components of the subgraph induced on restrict.

        The induced subgraph is taken as a view; no copy is made.
        """
        allowed = set(range(self.n)) if restrict is None else set(restrict)
        comps: list[set[int]] = []
        unseen = set(allowed)
        while unseen:
            root = min(unseen)
            comp = {root}
            stack = [root]
            unseen.discard(root)
            while stack:
                u = stack.pop()
                for w in unseen.intersection(self._adj[u]):
                    unseen.discard(w)
                    comp.add(w)
                    stack.append(w)
            comps.append(comp)
        return comps

    def verify_hamilton_cycle(self, cyc: Sequence[int]) -> bool:
        n, adj = self.n, self._adj
        if n < 3 or len(cyc) != n or set(cyc) != set(range(n)):
            return False
        u = cyc[-1]
        for v in cyc:
            nbrs, u = adj[u], v
            i = bisect_left(nbrs, v)
            if i == len(nbrs) or nbrs[i] != v:
                return False
        return True

    # -- serialization: "n m" header then one "u v" line per edge -------------

    def to_text(self) -> str:
        # each name is made once; a vertex's larger neighbours are one join
        names = list(map(str, range(self.n)))
        lines = [f"{self.n} {self.num_edges}"]
        for u, nbrs in enumerate(self._adj):
            larger = nbrs[bisect_right(nbrs, u):]
            if larger:
                head = names[u] + " "
                lines.append(head + ("\n" + head).join(map(names.__getitem__, larger)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        return cls.from_pairs(*read_edge_list(text))


class OrientedGraph(Graph):
    """A Graph stored as an orientation, ``out[v]`` the ascending heads of the
    arcs leaving v, and its in-degrees; the first query that reads neighbour
    lists (``edges``, ``adj``, ``==``, ...) builds them.  ``out`` is read-only."""

    __slots__ = ("out", "_ind")

    @classmethod
    def from_out(cls, out: list[list[int]]) -> "OrientedGraph":
        """The graph whose edges are the arcs v -> w, w in ``out[v]`` (no edge
        as two arcs): ``out`` is kept, not copied, and no neighbour list is built."""
        ind = [0] * len(out)
        for heads in out:
            for w in heads:
                ind[w] += 1
        g = cls.__new__(cls)
        g.n, g.out, g._ind = len(out), out, ind
        return g

    def __getattr__(self, name: str):
        if name != "_adj":  # only an unset slot gets here: build the lists once
            raise AttributeError(name)
        arcs = ((v, w) if v < w else (w, v) for v, heads in enumerate(self.out) for w in heads)
        self._adj = Graph.from_pairs(self.n, arcs)._adj
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.out[v]) + self._ind[v]

    def degrees(self) -> list[int]:
        return [len(heads) + i for heads, i in zip(self.out, self._ind)]

    def in_degrees(self) -> list[int]:
        return self._ind[:]


def read_edge_list(text: str) -> tuple[int, set[tuple[int, int]]]:
    """The vertex count n and the (min, max) edge set of the text that
    ``Graph.to_text`` writes; blank lines and lines starting with "#" are
    skipped.  Raises ValueError unless the text is an "n m" header with
    n >= 0 followed by exactly m lines of m distinct edges, none a self-loop
    and each within 0..n-1."""
    lines = [ln for ln in text.splitlines() if ln and not ln.isspace() and ln[0] != "#"]
    if not lines:
        raise ValueError("the graph file has no header")
    n, m = map(int, lines[0].split())
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        u, v = map(int, ln.split())
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range: {(u, v)}")
        edges.add((u, v) if u < v else (v, u))
    if len(edges) != m:
        raise ValueError(f"header claims {m} edges, parsed {len(edges)}")
    if len(lines) - 1 != m:
        raise ValueError(f"header claims {m} edges, but {len(lines) - 1} edge lines follow")
    return n, edges


def balanced_orientation(g: Graph, rotate: int = 0) -> list[list[int]]:
    """Out-lists of an orientation of g's edges with |out - in| <= 1 at
    every vertex and out = in at every even vertex: ``out[v]`` lists the
    heads of the arcs leaving v.

    Odd-degree vertices are joined to a virtual vertex n, which makes every
    degree even, so the edges split into closed trails (Veblen), and a
    trail walked in order leaves each vertex as often as it enters it.  A
    trail starts at each vertex in turn and keeps taking the current
    vertex's first unused edge; it can only get stuck back at its start,
    once the start has no unused edge left.  The virtual arcs are dropped.
    Edges are scanned in the order of g's lists, so with rotate = 0 each
    out-list ascends; `rotate` rotates each scan order, so retries explore
    different orientations.  Each vertex's list is read once, through the
    iterator ``unread[v]``: an edge walked out of v was consumed there, and
    one walked into v, from w, is skipped because w is in v's arrival set
    ``came[v]``.
    """
    n = g.n
    # g's own lists, read only: an odd vertex gets a new list, and
    # rotation rebinds each entry to a new list
    adj: list[list[int]] = [g.adj(v) for v in range(n)]
    odd = [v for v in range(n) if len(adj[v]) % 2 == 1]
    for v in odd:
        adj[v] = adj[v] + [n]
    adj.append(odd)
    if rotate:
        for v, nbrs in enumerate(adj):
            k = rotate % max(1, len(nbrs))
            adj[v] = nbrs[k:] + nbrs[:k]
    unread = [iter(nbrs) for nbrs in adj]
    came: list[set[int]] = [set() for _ in adj]
    out: list[list[int]] = [[] for _ in adj]
    for start in range(n + 1):
        u = start
        while True:
            arrived = came[u]
            for w in unread[u]:
                if w not in arrived:
                    break
            else:
                break
            out[u].append(w)
            came[w].add(u)
            u = w
    del out[n]
    for v in odd:
        if n in out[v]:
            out[v].remove(n)
    return out


# -- cycle covers and broken 2-factors ---------------------------------------


def cycle_cover_edges(cycles: Iterable[Sequence[int]]) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for cyc in cycles:
        k = len(cyc)
        for i in range(k):
            out.add(norm_edge(cyc[i], cyc[(i + 1) % k]))
    return out


@dataclass
class BrokenTwoFactor:
    """Vertex-disjoint cycles plus one long path, jointly spanning the host.

    Cycles keep a stored orientation; the long path's tail (last element) is
    the moving endpoint for rotations.
    """

    n: int
    cycles: list[list[int]] = field(default_factory=list)
    path: list[int] = field(default_factory=list)

    def offpath_vertices(self) -> set[int]:
        out: set[int] = set()
        for cyc in self.cycles:
            out.update(cyc)
        return out

    def cycle_index_of(self, v: int) -> int | None:
        for i, cyc in enumerate(self.cycles):
            if v in cyc:
                return i
        return None
