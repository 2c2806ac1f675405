"""Factor engine: degree-factor oracle, slot gadget, extraction, probes."""
import random
import sys
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hamdecomp import factors
from hamdecomp.factors import (
    _factor_via_flow,
    build_gadget,
    extract_r_factor,
    extract_with_retry,
    tutte_check_exhaustive,
    tutte_quantities,
)
from hamdecomp.graph import Graph, balanced_orientation
from hamdecomp.matching import bipartite_b_matching, max_matching_general
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
    """Reference residual network: arc i runs to ``to[i]`` with residual
    capacity ``cap[i]``, ``head[u]`` lists the arcs leaving u, and each arc
    and its reverse are added as a pair of ids i, i ^ 1."""

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
    DFS and current-arc pointers."""
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


def _no_recursion_limit_change(monkeypatch):
    def refuse(limit):
        raise AssertionError("the recursion limit must not change")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)


def b_matching_network(adj_x: list[list[int]], cap_x: list[int], cap_y: list[int]) -> Network:
    """The flow network of a b-matching: arcs s -> x of capacity cap_x[x],
    y -> t of capacity cap_y[y] and one arc x -> y of capacity 1 per edge;
    s and t are the last two nodes."""
    n_x, n_y = len(adj_x), len(cap_y)
    net = Network(n_x + n_y + 2)
    s, t = n_x + n_y, n_x + n_y + 1
    for x, heads in enumerate(adj_x):
        net.add(s, x, cap_x[x])
        for y in heads:
            net.add(x, n_x + y, 1)
    for y in range(n_y):
        net.add(n_x + y, t, cap_y[y])
    return net


def random_bipartite(rnd: random.Random, n_x: int, n_y: int, q: float) -> list[list[int]]:
    adj_x = []
    for _ in range(n_x):
        heads = [y for y in range(n_y) if rnd.random() < q]
        rnd.shuffle(heads)
        adj_x.append(heads)
    return adj_x


def b_matching_total(adj_x: list[list[int]], cap_x: list[int], cap_y: list[int],
                     sel: list[set[int]]) -> int:
    """The selections' total, after checking that no x or y exceeds its
    capacity and that every selection is an input edge."""
    load = [0] * len(cap_y)
    for x, heads in enumerate(sel):
        assert len(heads) <= cap_x[x] and heads <= set(adj_x[x])
        for y in heads:
            load[y] += 1
    assert all(c <= cap for c, cap in zip(load, cap_y))
    return sum(load)


class TestBMatching:
    @given(st.integers(0, 30), st.integers(0, 30),
           st.sampled_from([0.05, 0.15, 0.3, 0.6, 0.9]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_total_equals_max_flow(self, n_x, n_y, q, seed):
        rnd = random.Random(seed)
        adj_x = random_bipartite(rnd, n_x, n_y, q)
        cap_x = [rnd.randint(0, 6) for _ in range(n_x)]
        cap_y = [rnd.randint(0, 6) for _ in range(n_y)]
        total = b_matching_total(adj_x, cap_x, cap_y, bipartite_b_matching(adj_x, cap_x, cap_y))
        net = b_matching_network(adj_x, cap_x, cap_y)
        assert total == recursive_max_flow(net, n_x + n_y, n_x + n_y + 1)

    def test_full_and_short(self):
        # K_{6,6} at b = 4 fills every x and y; in K_{6,6} minus the edges
        # of x0 and x1 but one each, they have room left over
        full = [list(range(6)) for _ in range(6)]
        sel = bipartite_b_matching(full, [4] * 6, [4] * 6)
        assert [len(heads) for heads in sel] == [4] * 6
        short = [[0], [5]] + full[2:]
        sel = bipartite_b_matching(short, [4] * 6, [4] * 6)
        assert b_matching_total(short, [4] * 6, [4] * 6, sel) == 18
        assert [len(heads) for heads in sel] == [1, 1, 4, 4, 4, 4]

    def test_augmenting_path_longer_than_the_recursion_limit(self, monkeypatch):
        # x_i prefers y_{i+1}, so the greedy pass leaves x_m without its
        # one arc and the only augmenting path runs through all m + 1 x's
        _no_recursion_limit_change(monkeypatch)
        m = 3 * sys.getrecursionlimit()
        adj_x = [[i + 1, i] for i in range(m)] + [[m]]
        ones = [1] * (m + 1)
        net = b_matching_network(adj_x, ones, ones)
        with pytest.raises(RecursionError):
            recursive_max_flow(net, 2 * m + 2, 2 * m + 3)
        assert bipartite_b_matching(adj_x, ones, ones) == [{i} for i in range(m + 1)]


def forced_two_factor_graph() -> Graph:
    """C_40 plus a 5-cycle on 2, 5, 24, 8, 12 and a 4-cycle on 13, 25, 15,
    32: it has a 2-factor, but none of the three balanced orientations that
    extraction tries carries one."""
    cycles = [list(range(40)), [2, 5, 24, 8, 12], [13, 25, 15, 32]]
    return Graph.from_pairs(40, sorted(
        (min(u, v), max(u, v)) for c in cycles for u, v in zip(c, c[1:] + c[:1])
    ))


def no_four_factor_graph() -> Graph:
    """Two K_5 sharing vertex 0 (minimum degree 4, no 4-factor) beside eight
    disjoint K_5, so that n = 49 reaches the flow route."""
    blocks = [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]] + [list(range(9 + 5 * k, 14 + 5 * k)) for k in range(8)]
    return Graph.from_pairs(49, sorted(p for block in blocks for p in combinations(block, 2)))


class TestFlowRoute:
    @pytest.mark.parametrize("make,r", [(forced_two_factor_graph, 2), (no_four_factor_graph, 4)])
    def test_a_miss_retries_then_takes_the_gadgets_verdict(self, monkeypatch, make, r):
        g = make()
        assert g.n >= factors.FLOW_FASTPATH_MIN_N and r <= g.min_degree()
        tried, gadgets = [], []

        def flow(g, r, rotate=0):
            f = _factor_via_flow(g, r, rotate)
            tried.append((rotate, f is None))
            return f

        def gadget(g, r):
            gadgets.append(r)
            return build_gadget(g, r)

        monkeypatch.setattr(factors, "_factor_via_flow", flow)
        monkeypatch.setattr(factors, "build_gadget", gadget)
        f = extract_r_factor(g, r)
        assert tried == [(0, True), (1, True), (2, True)]
        assert gadgets == [r]
        ref = build_gadget(g, r)
        match = max_matching_general(ref.adj, init=factors._seed_matching(ref))
        assert f == (ref.matching_to_factor(match) if -1 not in match else None)
        assert (f is None) == (make is no_four_factor_graph)

    def test_a_rotated_retry_finds_the_factor_the_first_attempt_missed(self, monkeypatch):
        # on this G1 the first orientation carries no 2-factor, and the
        # orientation of the first rotated scan does
        params = Params(n=40, p0=0.2, eta=0.25, seed=37)
        g = split(sample_gnp(params.n, params.p0, params.seed), params).g1
        assert g.n >= factors.FLOW_FASTPATH_MIN_N and g.min_degree() >= 2
        tried, gadgets = [], []

        def flow(g, r, rotate=0):
            f = _factor_via_flow(g, r, rotate)
            tried.append((rotate, f is None))
            return f

        monkeypatch.setattr(factors, "_factor_via_flow", flow)
        monkeypatch.setattr(factors, "build_gadget", lambda g, r: gadgets.append(r))
        f = extract_r_factor(g, 2)
        assert tried == [(0, True), (1, False)]
        assert gadgets == []
        assert f.edges <= g.edges and all(f.degree(v) == 2 for v in range(g.n))


class TestFactorViaFlow:
    """The flow route keeps a subset of each vertex's orientation arcs, r/2
    out and r/2 in at every vertex, as ascending out-lists."""

    def check(self, g: Graph, r: int, rotate: int) -> None:
        f = _factor_via_flow(g, r, rotate)
        assert f is not None
        out = balanced_orientation(g, rotate)
        for v, heads in enumerate(f.out):
            assert set(heads) <= set(out[v])
            assert heads == sorted(heads)
        assert [len(heads) for heads in f.out] == [r // 2] * g.n
        assert f.in_degrees() == [r // 2] * g.n
        assert f.edges <= g.edges and all(f.degree(v) == r for v in range(g.n))

    # at n=300, seed 0, rotate=1 the filtered out-lists are unsorted at 47
    # vertices, so that case checks that they are sorted again
    @pytest.mark.parametrize("n,seed,rotate", [
        (40, 1, 0), (120, 2, 0), (300, 0, 0), (300, 5, 0), (300, 0, 1),
    ])
    def test_on_g1_samples(self, n, seed, rotate):
        params = Params(n=n, p0=min(0.5, 100 / n), eta=0.25, seed=seed)
        g = split(sample_gnp(params.n, params.p0, params.seed), params).g1
        _, r = extract_with_retry(g, params.r1)
        self.check(g, r, rotate)

    def test_rotated_retry(self):
        # the rescue pinned in TestFlowRoute: rotate = 0 misses, 1 succeeds
        params = Params(n=40, p0=0.2, eta=0.25, seed=37)
        g = split(sample_gnp(params.n, params.p0, params.seed), params).g1
        assert _factor_via_flow(g, 2, 0) is None
        self.check(g, 2, 1)

    # rotate = 0 and the retries' rotated scans, each checked to succeed
    @pytest.mark.parametrize("n,seed,rotate", [(60, 0, 0), (60, 0, 2), (120, 3, 0), (120, 3, 1)])
    def test_queries_answer_as_the_graph_of_its_arcs(self, n, seed, rotate):
        params = Params(n=n, p0=0.5, eta=0.25, seed=seed)
        g = split(sample_gnp(params.n, params.p0, params.seed), params).g1
        _, r = extract_with_retry(g, params.r1)
        f, fresh = _factor_via_flow(g, r, rotate), _factor_via_flow(g, r, rotate)
        assert f is not None and fresh is not None
        arcs = [(v, w) if v < w else (w, v) for v, heads in enumerate(f.out) for w in heads]
        plain = Graph.from_pairs(n, sorted(arcs))
        # degree queries first, while nothing has read the neighbour lists
        degrees = [plain.degree(v) for v in range(n)]
        assert [f.degree(v) for v in range(n)] == degrees and f.min_degree() == plain.min_degree()
        ind = f.in_degrees()
        ind[0] += 1
        ind.clear()
        assert [f.degree(v) for v in range(n)] == degrees and f.in_degrees() == [r // 2] * n
        assert f.edges == plain.edges and f.num_edges == plain.num_edges
        assert all(f.has_edge(u, v) == plain.has_edge(u, v)
                   for u in range(-1, n + 1) for v in range(-1, n + 1))
        assert [f.adj(v) for v in range(n)] == [plain.adj(v) for v in range(n)]
        assert [f.degree(v) for v in range(n)] == degrees and f.min_degree() == plain.min_degree()
        assert f.to_text() == plain.to_text()
        assert f == plain and plain == fresh and fresh == f


# r from extract_with_retry at p0 = 100/n, eta = 0.25, graph seeds 0-9,
# recorded with the Dinic flow that the b-matching search replaced; both
# are exact on the same orientation, so every first flow attempt succeeds
# and no gadget is built, then as now
PINNED_R = {
    300: [64, 72, 70, 68, 70, 68, 74, 76, 70, 70],
    1200: [66, 64, 66, 70, 62, 68, 66, 64, 60, 64],
}


@pytest.mark.parametrize("n", sorted(PINNED_R))
def test_r_and_route_pinned(monkeypatch, n):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(factors, name, wrapped)

    spy("_factor_via_flow", _factor_via_flow)
    spy("build_gadget", build_gadget)
    got = []
    for seed in range(10):
        params = Params(n=n, p0=100 / n, eta=0.25, seed=seed)
        s = split(sample_gnp(params.n, params.p0, params.seed), params)
        calls.clear()
        f, r = extract_with_retry(s.g1, params.r1)
        got.append(r)
        assert calls == ["_factor_via_flow"], seed
    assert got == PINNED_R[n]
