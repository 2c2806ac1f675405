"""Factor engine: degree-factor oracle, slot gadget, extraction, probes."""
import random
import sys
from collections import deque
from itertools import combinations

import pytest

from hamdecomp import factors
from hamdecomp.factors import (
    _factor_via_flow,
    build_gadget,
    extract_r_factor,
    extract_with_retry,
    max_flow,
    tutte_check_exhaustive,
    tutte_quantities,
)
from hamdecomp.graph import Graph, balanced_orientation
from hamdecomp.matching import max_matching_general
from hamdecomp.sampler import Params, sample_gnp, split


def random_graph(n: int, p: float, seed: int) -> Graph:
    rnd = random.Random(seed)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < p:
                g.add_edge(u, v)
    return g


def brute_r_factor_count(g: Graph, r: int) -> int:
    """Count spanning subgraphs with every degree exactly r by edge subsets."""
    edges = sorted(g.edges)
    need = r * g.n
    total = 0
    if need % 2:
        return 0
    for k in range(need // 2, need // 2 + 1):
        for sub in combinations(edges, k):
            deg = [0] * g.n
            for u, v in sub:
                deg[u] += 1
                deg[v] += 1
            if all(d == r for d in deg):
                total += 1
    return total


class TestTutteOracle:
    def test_k4_three_factor(self):
        assert tutte_check_exhaustive(Graph.complete(4), 3).exists

    def test_star_no_one_factor(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        verdict = tutte_check_exhaustive(g, 1)
        assert not verdict.exists
        s_set, t_set = verdict.violation
        big_r, big_q = tutte_quantities(g, 1, s_set, t_set)
        assert big_r < big_q

    def test_c6_two_factor(self):
        assert tutte_check_exhaustive(Graph.cycle(6), 2).exists

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            tutte_check_exhaustive(Graph.complete(13), 2)

    def test_quantities_match_bitmask_path(self):
        # cross-check the readable set implementation against the bitmask one
        g = random_graph(6, 0.5, 3)
        for r in (1, 2, 3):
            verdict = tutte_check_exhaustive(g, r)
            if not verdict.exists:
                s_set, t_set = verdict.violation
                big_r, big_q = tutte_quantities(g, r, s_set, t_set)
                assert big_r < big_q


class TestGadget:
    def test_c6_r2_shape(self):
        gadget = build_gadget(Graph.cycle(6), 2)
        # 2 edge-slots and 0 core-slots per vertex
        assert gadget.n_nodes == 12
        assert len(gadget.slot_of) == 6

    def test_k4_r3_forces_all_edges(self):
        g = Graph.complete(4)
        gadget = build_gadget(g, 3)
        match = max_matching_general(gadget.adj, [-1] * gadget.n_nodes)
        assert all(m != -1 for m in match)
        assert gadget.matching_to_factor(match) == g

    def test_k4_r1_matchings_are_perfect_matchings(self):
        g = Graph.complete(4)
        factor = extract_r_factor(g, 1)
        assert factor is not None
        assert all(factor.degree(v) == 1 for v in range(4))

    def test_rejects_r_above_min_degree(self):
        with pytest.raises(ValueError):
            build_gadget(Graph.cycle(5), 3)

    def test_seed_matching_is_maximal(self):
        # the blossom matcher starts from the seed as it is, so the seed is
        # a valid matching that leaves no gadget edge with both ends free
        rnd = random.Random(31)
        for n in range(2, 16):
            g = random_graph(n, rnd.uniform(0.2, 1.0), rnd.randrange(10**6))
            for r in range(1, g.min_degree() + 1):
                if r * n % 2:
                    continue
                gadget = build_gadget(g, r)
                match = factors._seed_matching(gadget)
                for a, b in enumerate(match):
                    if b == -1:
                        assert all(match[c] != -1 for c in gadget.adj[a])
                    else:
                        assert match[b] == a and b in gadget.adj[a]

    @pytest.mark.parametrize("seed", range(6))
    def test_gadget_soundness_counts(self, seed):
        # distinct factors from gadget perfect matchings == brute enumeration
        g = random_graph(6, 0.6, seed)
        for r in (1, 2):
            if r > g.min_degree() or (r * g.n) % 2:
                continue
            gadget = build_gadget(g, r)
            found: set[frozenset] = set()
            nodes = list(range(gadget.n_nodes))
            # enumerate all perfect matchings of the gadget recursively
            adj_sets = [set(a) for a in gadget.adj]

            def rec(unmatched: list[int], pairs: list[tuple[int, int]]):
                if not unmatched:
                    match = [-1] * gadget.n_nodes
                    for a, b in pairs:
                        match[a], match[b] = b, a
                    f = gadget.matching_to_factor(match)
                    found.add(frozenset(f.edges))
                    return
                v = unmatched[0]
                for u in unmatched[1:]:
                    if u in adj_sets[v]:
                        rest = [w for w in unmatched if w not in (v, u)]
                        rec(rest, pairs + [(v, u)])

            if gadget.n_nodes <= 16:
                rec(nodes, [])
                assert len(found) == brute_r_factor_count(g, r)


class TestExtraction:
    def test_c6_identity(self):
        assert extract_r_factor(Graph.cycle(6), 2) == Graph.cycle(6)

    def test_k5_two_factor(self):
        f = extract_r_factor(Graph.complete(5), 2)
        assert f is not None
        assert all(f.degree(v) == 2 for v in range(5))
        assert f.edges <= Graph.complete(5).edges

    def test_odd_parity_rejected(self):
        # r*n odd can never work
        assert extract_r_factor(Graph.complete(5), 3) is None

    def test_flow_fastpath_agrees_with_gadget(self):
        # n >= 40 even-r instance goes through the flow route; the result
        # must still be an exact factor of the host
        g = sample_gnp(60, 0.5, 11)
        f = extract_r_factor(g, 10)
        assert f is not None
        assert all(f.degree(v) == 10 for v in range(60))
        assert f.edges <= g.edges

    def test_oracle_equivalence_small(self):
        disagreements = 0
        for seed in range(40):
            g = random_graph(random.Random(seed).randint(2, 7), 0.5, seed + 1000)
            for r in range(1, max(2, g.min_degree() + 1)):
                if (r * g.n) % 2:
                    continue
                got = extract_r_factor(g, r) is not None
                want = tutte_check_exhaustive(g, r).exists if r <= g.min_degree() else False
                if got != want:
                    disagreements += 1
        assert disagreements == 0

    def test_retry_descends(self):
        # C_6 has min degree 2, so a request at r=6 lands at 2
        f, r = extract_with_retry(Graph.cycle(6), 6)
        assert r == 2 and f == Graph.cycle(6)

    def test_retry_steps_down_r(self):
        # two K_5 sharing vertex 0: minimum degree 4, but a 4-factor would
        # need all 8 edges at vertex 0, so only r = 2 is found
        g = Graph(9, [(u, v) for block in ([0, 1, 2, 3, 4], [0, 5, 6, 7, 8])
                      for u, v in combinations(block, 2)])
        assert g.min_degree() == 4
        assert not tutte_check_exhaustive(g, 4).exists
        assert extract_r_factor(g, 4) is None
        f, r = extract_with_retry(g, 4)
        assert r == 2 and f.edges <= g.edges
        assert all(f.degree(v) == 2 for v in range(g.n))

    def test_pipeline_extraction(self):
        params = Params(n=200, p0=0.4, eta=0.25, seed=2)
        s = split(sample_gnp(params.n, params.p0, params.seed), params)
        f, r = extract_with_retry(s.g1, params.r1)
        assert f is not None
        assert r >= 2 and r % 2 == 0
        assert all(f.degree(v) == r for v in range(params.n))
        assert f.edges <= s.g1.edges


class Network:
    """Reference network builder: the residual arrays ``max_flow`` takes,
    with each arc and its reverse added as a pair of ids i, i ^ 1."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> int:
        idx = len(self.to)
        self.to += (v, u)
        self.cap += (c, 0)
        self.head[u].append(idx)
        self.head[v].append(idx + 1)
        return idx


def recursive_max_flow(net: Network, s: int, t: int) -> int:
    """Reference: Dinic's algorithm with the usual recursive blocking-flow
    DFS over the same arc lists and current-arc pointers."""
    flow = 0
    while True:
        level = [-1] * net.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for i in net.head[u]:
                if net.cap[i] > 0 and level[net.to[i]] == -1:
                    level[net.to[i]] = level[u] + 1
                    q.append(net.to[i])
        if level[t] == -1:
            return flow
        it = [0] * net.n

        def dfs(u, pushed):
            if u == t:
                return pushed
            while it[u] < len(net.head[u]):
                i = net.head[u][it[u]]
                v = net.to[i]
                if net.cap[i] > 0 and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, net.cap[i]))
                    if got:
                        net.cap[i] -= got
                        net.cap[i ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            pushed = dfs(s, 1 << 60)
            if not pushed:
                break
            flow += pushed


def random_network(seed: int) -> Network:
    rnd = random.Random(seed)
    n = rnd.randint(2, 30)
    net = Network(n)
    for _ in range(rnd.randint(0, 4 * n)):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            net.add(u, v, rnd.randint(1, 5))
    return net


def _no_recursion_limit_change(monkeypatch):
    def refuse(limit):
        raise AssertionError("the recursion limit must not change")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)


class TestIterativeDinic:
    def test_matches_recursive_reference(self, monkeypatch):
        # same arc order and pointers: equal flow and equal residual capacities
        _no_recursion_limit_change(monkeypatch)
        for seed in range(400):
            net, ref = random_network(seed), random_network(seed)
            t = net.n - 1
            assert max_flow(net.head, net.to, net.cap, 0, t) == recursive_max_flow(ref, 0, t)
            assert net.cap == ref.cap

    def test_augmenting_path_longer_than_the_recursion_limit(self, monkeypatch):
        _no_recursion_limit_change(monkeypatch)
        m = 3 * sys.getrecursionlimit()
        net, ref = Network(m), Network(m)
        for u in range(m - 1):
            net.add(u, u + 1, 2)
            ref.add(u, u + 1, 2)
        with pytest.raises(RecursionError):
            recursive_max_flow(ref, 0, m - 1)
        assert max_flow(net.head, net.to, net.cap, 0, m - 1) == 2


def reference_factor_via_flow(g: Graph, r: int, rotate: int) -> tuple[Graph | None, Network]:
    """Reference: the flow route on a plain ``Network``, built arc by arc
    with ``add``, and every phase, the first one too, run by ``max_flow``."""
    arcs = balanced_orientation(g, rotate)
    n, half = g.n, r // 2
    s, t = 2 * n, 2 * n + 1
    net = Network(2 * n + 2)
    for v in range(n):
        net.add(s, v, half)
        net.add(n + v, t, half)
    arc_ids = [net.add(u, n + v, 1) for u, v in arcs]
    if max_flow(net.head, net.to, net.cap, s, t) != n * half:
        return None, net
    f = Graph(n)
    for (u, v), idx in zip(arcs, arc_ids):
        if net.cap[idx] == 0:
            f.add_edge(u, v)
    return f, net


class TestFlowFirstPhase:
    def test_greedy_first_phase_matches_plain_dinic(self, monkeypatch):
        # the network each call hands to max_flow; cap holds its residual
        # capacities once the call returns
        built: list[tuple[list, list, list]] = []

        def spy(head, to, cap, s, t):
            built.append((head, to, cap))
            return max_flow(head, to, cap, s, t)

        monkeypatch.setattr(factors, "max_flow", spy)
        rnd = random.Random(5)
        outcomes = set()
        for seed in range(24):
            n = rnd.randint(40, 120)
            g = random_graph(n, rnd.uniform(0.08, 0.5), seed)
            top = 2 * (g.min_degree() // 2)
            if top < 2:
                continue
            for r in sorted({2, top, rnd.randrange(2, top + 1, 2)}):
                for rotate in range(3):
                    f = _factor_via_flow(g, r, rotate)
                    want, ref = reference_factor_via_flow(g, r, rotate)
                    head, to, cap = built.pop()
                    assert (to, head) == (ref.to, ref.head), (seed, r, rotate)
                    assert cap == ref.cap, (seed, r, rotate)
                    outcomes.add(f is not None)
                    if want is None:
                        assert f is None
                        continue
                    # the same graph with equal neighbour lists, and so the
                    # same edge order for what reads the lists (split,
                    # to_text) and the same edges set, built from them
                    assert list(f.edges) == list(want.edges)
                    assert [f.adj(v) for v in range(n)] == [want.adj(v) for v in range(n)]
        assert outcomes == {True, False}
