"""Graph core: edge counting, components, serialization, Euler circuits."""
import random

import pytest
from hypothesis import given, strategies as st

from hamdecomp import graph
from hamdecomp.graph import (
    BrokenTwoFactor,
    Graph,
    balanced_orientation,
    check_cycle_cover,
    cycle_cover_edges,
    euler_circuits,
    norm_edge,
    path_edges,
)


def random_graph_strategy(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return Graph(n, chosen)

    return build()


class TestBasics:
    def test_norm_edge(self):
        assert norm_edge(3, 1) == (1, 3)
        assert norm_edge(1, 3) == (1, 3)

    def test_add_remove(self):
        g = Graph(4)
        g.add_edge(2, 0)
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert g.degree(0) == g.degree(2) == 1
        g.add_edge(0, 2)  # idempotent
        assert g.num_edges == 1

    def test_rejects_bad_edges(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_complete_and_cycle(self):
        assert Graph.complete(5).num_edges == 10
        c = Graph.cycle(6)
        assert c.num_edges == 6
        assert all(c.degree(v) == 2 for v in range(6))

    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 3), (0, 1), (0, 4)])
        assert g.neighbors(0) == [1, 3, 4]


class TestEdgeCountBetween:
    def test_k4_bipartition(self):
        # K_4 with a={0,1}, b={2,3}: complete bipartite count 2*2
        assert Graph.complete(4).edge_count_between({0, 1}, {2, 3}) == 4

    def test_empty_set(self):
        g = Graph.complete(6)
        assert g.edge_count_between(set(), range(6)) == 0

    def test_c5_internal(self):
        # edges inside {0,1,2} of the 5-cycle: (0,1) and (1,2)
        g = Graph.cycle(5)
        assert g.edge_count_between({0, 1, 2}, {0, 1, 2}) == 2

    @given(random_graph_strategy())
    def test_symmetry_and_handshake(self, g):
        import random

        rnd = random.Random(g.n * 31 + g.num_edges)
        verts = list(range(g.n))
        a = {v for v in verts if rnd.random() < 0.5}
        b = set(verts) - a
        assert g.edge_count_between(a, b) == g.edge_count_between(b, a)
        assert sum(g.degree(v) for v in verts) == 2 * g.num_edges
        if a and b:
            internal = g.edge_count_between(a, a) + g.edge_count_between(b, b)
            assert internal + g.edge_count_between(a, b) == g.num_edges


class TestComponents:
    def test_edgeless(self):
        g = Graph(4)
        assert len(g.components()) == 4

    def test_empty_restrict(self):
        assert Graph.complete(4).components(set()) == []

    def test_two_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        comps = g.components()
        assert sorted(map(len, comps)) == [3, 3]

    @given(random_graph_strategy())
    def test_partition(self, g):
        restrict = set(range(0, g.n, 2))
        comps = g.components(restrict)
        union = set().union(*comps) if comps else set()
        assert union == restrict
        assert sum(len(c) for c in comps) == len(restrict)


class TestHamiltonVerify:
    def test_c5_true(self):
        assert Graph.cycle(5).verify_hamilton_cycle([0, 1, 2, 3, 4])

    def test_c5_false(self):
        # 0-2 is not an edge of the 5-cycle
        assert not Graph.cycle(5).verify_hamilton_cycle([0, 2, 4, 1, 3])

    def test_repeated_vertex(self):
        assert not Graph.complete(5).verify_hamilton_cycle([0, 1, 2, 3, 0])

    def test_wrong_length(self):
        assert not Graph.complete(5).verify_hamilton_cycle([0, 1, 2, 3])


class TestSerialization:
    def test_roundtrip(self):
        g = Graph(5, [(0, 1), (2, 4), (1, 3)])
        assert Graph.from_text(g.to_text()) == g

    def test_header_format(self):
        text = Graph(3, [(0, 2)]).to_text()
        assert text.splitlines()[0] == "3 1"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            Graph.from_text("3 2\n0 1\n")

    @given(random_graph_strategy())
    def test_roundtrip_property(self, g):
        assert Graph.from_text(g.to_text()) == g


class TestCycleCover:
    def test_edges(self):
        es = cycle_cover_edges([[0, 1, 2]])
        assert es == {(0, 1), (1, 2), (0, 2)}

    def test_path_edges(self):
        assert path_edges([3, 1, 2]) == {(1, 3), (1, 2)}

    def test_check_cover_good(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        check_cycle_cover(g, [[0, 1, 2], [3, 4, 5]])

    def test_check_cover_rejects_short(self):
        with pytest.raises(ValueError):
            check_cycle_cover(Graph.complete(4), [[0, 1], [2, 3]])

    def test_check_cover_rejects_nonspanning(self):
        with pytest.raises(ValueError):
            check_cycle_cover(Graph.complete(6), [[0, 1, 2]])


class TestBrokenTwoFactor:
    def test_validate_good(self):
        b = BrokenTwoFactor(n=6, cycles=[[3, 4, 5]], path=[0, 2, 1])
        b.validate()
        assert b.offpath_vertices() == {3, 4, 5}
        assert b.cycle_index_of(4) == 0
        assert b.cycle_index_of(0) is None

    def test_validate_rejects_overlap(self):
        b = BrokenTwoFactor(n=6, cycles=[[2, 4, 5]], path=[0, 2, 1])
        with pytest.raises(ValueError):
            b.validate()

    def test_validate_rejects_nonspanning(self):
        b = BrokenTwoFactor(n=7, cycles=[[3, 4, 5]], path=[0, 2, 1])
        with pytest.raises(ValueError):
            b.validate()

    def test_validate_against_host(self):
        host = Graph(4, [(0, 1), (1, 2)])
        b = BrokenTwoFactor(n=4, cycles=[], path=[0, 1, 2, 3])
        with pytest.raises(ValueError):
            b.validate(host)

    def test_spanning_path_closes_iff_edge(self):
        host = Graph.cycle(5)
        b = BrokenTwoFactor(n=5, cycles=[], path=[0, 1, 2, 3, 4])
        b.validate(host)
        assert host.has_edge(b.path[0], b.path[-1])
        assert host.verify_hamilton_cycle(b.path)


def reference_euler_circuits(adj):
    """Reference: Hierholzer's algorithm marking used edges in a set of
    ``norm_edge`` pairs."""
    ptr = [0] * len(adj)
    used = set()
    for start in range(len(adj)):
        while ptr[start] < len(adj[start]):
            stack = [start]
            circuit = []
            while stack:
                u = stack[-1]
                advanced = False
                while ptr[u] < len(adj[u]):
                    w = adj[u][ptr[u]]
                    ptr[u] += 1
                    if norm_edge(u, w) not in used:
                        used.add(norm_edge(u, w))
                        stack.append(w)
                        advanced = True
                        break
                if not advanced:
                    circuit.append(stack.pop())
            circuit.reverse()
            yield circuit


def random_even_edges(verts, rnd):
    """Edge set of the symmetric difference of a few random cycles on
    ``verts``: every degree is even."""
    edges = set()
    for _ in range(rnd.randint(1, 6)):
        cyc = rnd.sample(verts, rnd.randint(3, len(verts)))
        edges ^= {norm_edge(cyc[i], cyc[i - 1]) for i in range(len(cyc))}
    return edges


def shuffled_adjacency(n, edges, rnd):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        rnd.shuffle(nbrs)
    return adj


class TestEulerCircuits:
    def test_matches_reference_on_random_even_graphs(self):
        rnd = random.Random(11)
        for _ in range(150):
            n = rnd.randint(3, 60)
            adj = shuffled_adjacency(n, random_even_edges(list(range(n)), rnd), rnd)
            assert list(euler_circuits(adj)) == list(reference_euler_circuits(adj))

    def test_matches_reference_on_disconnected_graphs(self):
        rnd = random.Random(12)
        for _ in range(60):
            n = rnd.randint(8, 80)
            verts = list(range(n))
            rnd.shuffle(verts)
            edges, lo = set(), 0
            # two to four even components on shuffled ids; the rest isolated
            for _ in range(rnd.randint(2, 4)):
                size = rnd.randint(3, max(3, n // 4))
                if lo + size > n:
                    break
                edges |= random_even_edges(verts[lo:lo + size], rnd)
                lo += size
            adj = shuffled_adjacency(n, edges, rnd)
            got = list(euler_circuits(adj))
            assert got == list(reference_euler_circuits(adj))
            assert sum(len(c) - 1 for c in got) == len(edges)

    def test_matches_reference_on_balanced_orientation_input(self, monkeypatch):
        # the adjacency balanced_orientation builds: odd-degree vertices
        # joined to a virtual vertex, each list rotated by ``rotate``
        seen = []

        def spy(adj):
            seen.append([list(nbrs) for nbrs in adj])
            return euler_circuits(adj)

        monkeypatch.setattr(graph, "euler_circuits", spy)
        rnd = random.Random(13)
        for _ in range(20):
            n = rnd.randint(10, 70)
            p = rnd.uniform(0.1, 0.6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rnd.random() < p])
            for rotate in range(3):
                balanced_orientation(g, rotate)
                adj = seen.pop()
                assert list(euler_circuits(adj)) == list(reference_euler_circuits(adj))
