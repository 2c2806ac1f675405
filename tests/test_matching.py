"""Matching kernels against the exhaustive reference matcher."""
import hashlib
import json
import random
import sys
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hamdecomp import twofactor
from hamdecomp.factors import extract_with_retry
from hamdecomp.graph import Graph
from hamdecomp.matching import (
    brute_max_matching_size,
    hopcroft_karp,
    max_matching_general,
)
from hamdecomp.sampler import Params, sample_gnp, split


def _adj(g: Graph) -> list[list[int]]:
    return [g.adj(v) for v in range(g.n)]


def matching_size(match: list[int]) -> int:
    return sum(1 for v, u in enumerate(match) if u > v)


def _check_valid(adj, match):
    for v, u in enumerate(match):
        if u != -1:
            assert match[u] == v
            assert u in adj[v]


class TestGeneralMatching:
    def test_c6_perfect(self):
        match = max_matching_general(_adj(Graph.cycle(6)), [-1] * 6)
        assert -1 not in match
        assert matching_size(match) == 3

    def test_star_not_perfect(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # K_{1,3}
        match = max_matching_general(_adj(g), [-1] * g.n)
        assert matching_size(match) == 1
        assert -1 in match

    def test_petersen_perfect(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        g = Graph(10, outer + spokes + inner)
        match = max_matching_general(_adj(g), [-1] * g.n)
        assert -1 not in match
        _check_valid(_adj(g), match)

    def test_odd_blossom(self):
        # triangle with a pendant: maximum matching has size 2
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        match = max_matching_general(_adj(g), [-1] * g.n)
        assert matching_size(match) == 2

    def test_seeded_init_respected(self):
        g = Graph.cycle(6)
        init = [-1] * 6
        init[0], init[1] = 1, 0
        match = max_matching_general(_adj(g), init=init)
        assert -1 not in match

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=200))
    @settings(max_examples=120, deadline=None)
    def test_maximality_vs_brute(self, n, seed):
        rnd = random.Random(seed)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rnd.random() < 0.45:
                    g.add_edge(u, v)
        adj = _adj(g)
        match = max_matching_general(adj, [-1] * n)
        _check_valid(adj, match)
        assert matching_size(match) == brute_max_matching_size(adj)


def enumerate_from_all_edges(adj):
    """The exhaustive oracle as it was first written: subset sizes from
    the number of edges down."""
    n = len(adj)
    edges = sorted({(v, u) for v in range(n) for u in adj[v] if u > v})
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for sub in combinations(edges, k):
            used: set[int] = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, k)
                break
        if best:
            break
    return best


def test_brute_matcher_agrees_with_the_full_enumeration():
    # up to 14 edges, so the full enumeration visits at most 2^14 subsets
    rnd = random.Random(31)
    sizes = set()
    checked = 0
    while checked < 150:
        n = rnd.randint(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rnd.random() < rnd.choice([0.1, 0.25, 0.4])])
        if g.num_edges > 14:
            continue
        adj = _adj(g)
        want = enumerate_from_all_edges(adj)
        assert brute_max_matching_size(adj) == want, (n, sorted(g.edges))
        sizes.add((want, want < n // 2))
        checked += 1
    # maximum matchings of every size, some smaller than n // 2
    assert {k for k, _ in sizes} == {0, 1, 2, 3, 4}
    assert (2, True) in sizes


class TestHopcroftKarp:
    def test_unique_matching(self):
        match = hopcroft_karp([[0], [1], [2]], 3)
        assert match == [0, 1, 2]

    def test_complete_bipartite(self):
        match = hopcroft_karp([[0, 1, 2, 3]] * 4, 4)
        assert sorted(match) == [0, 1, 2, 3]

    def test_deficient_side(self):
        match = hopcroft_karp([[0], [0]], 1)
        assert sorted(match) == [-1, 0]

    def test_vertex_without_neighbours(self):
        # the greedy pass starts x's scan at x mod its degree, so an x with
        # no neighbours must be skipped, not divided by
        assert hopcroft_karp([[], [0]], 1) == [-1, 0]

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=80, deadline=None)
    def test_regular_bipartite_has_perfect_matching(self, n, seed):
        # a random permutation-union construction is d-regular, so a perfect
        # matching must exist (Hall / Koenig)
        rnd = random.Random(seed)
        d = rnd.randint(1, n)
        adj = [set() for _ in range(n)]
        cols = list(range(n))
        tries = 0
        built = 0
        while built < d and tries < 200:
            tries += 1
            rnd.shuffle(cols)
            if all(cols[x] not in adj[x] for x in range(n)):
                for x in range(n):
                    adj[x].add(cols[x])
                built += 1
        match = hopcroft_karp([sorted(s) for s in adj], n)
        assert all(m != -1 for m in match)
        assert len(set(match)) == n


def recursive_hopcroft_karp(adj_x, n_y):
    """Reference: Hopcroft-Karp with the usual recursive augmenting DFS."""
    n_x, inf = len(adj_x), float("inf")
    match_x, match_y = [-1] * n_x, [-1] * n_y
    for x in range(n_x):
        for y in adj_x[x]:
            if match_y[y] == -1:
                match_x[x], match_y[y] = y, x
                break
    dist = [0.0] * n_x

    def bfs():
        q = deque()
        for x in range(n_x):
            dist[x] = 0.0 if match_x[x] == -1 else inf
            if match_x[x] == -1:
                q.append(x)
        found = False
        while q:
            x = q.popleft()
            for y in adj_x[x]:
                w = match_y[y]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[x] + 1
                    q.append(w)
        return found

    def dfs(x):
        for y in adj_x[x]:
            w = match_y[y]
            if w == -1 or (dist[w] == dist[x] + 1 and dfs(w)):
                match_x[x], match_y[y] = y, x
                return True
        dist[x] = inf
        return False

    while bfs():
        for x in range(n_x):
            if match_x[x] == -1:
                dfs(x)
    return match_x


def random_matching_case(rnd, n, regular):
    """(X-side adjacency, n_y) of a random bipartite graph with n X
    vertices: a union of random permutations of n Y vertices (regular, so
    it has a perfect matching), half the time with one edge dropped, or
    independent edges of a random density to 1..30 Y vertices."""
    if not regular:
        n_y, q = rnd.randint(1, 30), rnd.choice([0.05, 0.1, 0.3, 0.6])
        return [[y for y in range(n_y) if rnd.random() < q] for _ in range(n)], n_y
    adj = [set() for _ in range(n)]
    for _ in range(rnd.randint(1, 4)):
        cols = rnd.sample(range(n), n)
        for x in range(n):
            adj[x].add(cols[x])
    if rnd.random() < 0.5:
        adj[rnd.randrange(n)].pop()
    return [rnd.sample(sorted(heads), len(heads)) for heads in adj], n


class TestMatchesTheReference:
    @given(st.integers(min_value=1, max_value=30), st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_perfect_exactly_when_the_reference_is(self, n, regular, seed):
        adj_x, n_y = random_matching_case(random.Random(seed), n, regular)
        match = hopcroft_karp(adj_x, n_y)
        ref = recursive_hopcroft_karp(adj_x, n_y)
        assert all(y == -1 or y in adj_x[x] for x, y in enumerate(match))
        matched = [y for y in match if y != -1]
        assert len(set(matched)) == len(matched)
        assert len(matched) == sum(y != -1 for y in ref)
        assert (-1 in match) == (-1 in ref)


def _digest(matchings) -> str:
    return hashlib.sha256(json.dumps(matchings, separators=(",", ":")).encode()).hexdigest()


# SHA-256 of every round's matching in the peel of the r-factor extracted
# from G1 at (n, p0=100/n, eta=0.25, seed), keyed by (n, seed)
PEEL_ROUND_DIGESTS = {
    (200, 0): "5a9ded1acecd8aa87600c46a2ed76c9d140d60c9e752223fc3094c09b468c097",
    (200, 1): "5505845e6e581d62cfc269ef42d6e478704276a2bb188ac1c48a76c5d1f7af25",
    (300, 0): "bb0034be369e07ddaca62818dad0b6b5f0a2ca992102a89ec5bd552642470321",
}


class TestPinnedOutput:
    """Which maximum matching ``hopcroft_karp`` returns, not only its size:
    a change to the search meant to be bit-exact must leave these
    SHA-256 digests as they are."""

    def test_seeded_cases_pinned(self):
        # regular, regular minus one edge, and irregular with n_y != n_x
        matchings = []
        for seed in range(300):
            rnd = random.Random(seed)
            adj_x, n_y = random_matching_case(rnd, rnd.randint(1, 120), seed % 2 == 0)
            matchings.append(hopcroft_karp(adj_x, n_y))
        assert _digest(matchings) == (
            "26d56740e0e402f2b3689c8022b0e17dc4c87ccc2e12d2df5317017d1a35e017")

    @pytest.mark.parametrize("n, seed", sorted(PEEL_ROUND_DIGESTS))
    def test_peel_rounds_pinned(self, monkeypatch, n, seed):
        # every round's matching of the bipartite double the peel forms
        rounds = []

        def recording(adj_x, n_y):
            rounds.append(hopcroft_karp(adj_x, n_y))
            return rounds[-1]

        monkeypatch.setattr(twofactor, "hopcroft_karp", recording)
        params = Params(n=n, p0=100 / n, eta=0.25, seed=seed)
        f, r = extract_with_retry(split(sample_gnp(n, params.p0, seed), params).g1, params.r1)
        twofactor.peel_all(f, r)
        assert len(rounds) == r // 2
        assert _digest(rounds) == PEEL_ROUND_DIGESTS[n, seed]


def _no_recursion_limit_change(monkeypatch):
    def refuse(limit):
        raise AssertionError("the recursion limit must not change")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)


class TestIterativeHopcroftKarp:
    def test_augmenting_path_longer_than_the_recursion_limit(self, monkeypatch):
        # the greedy pass scans x_i's list [y_{i+1}, y_i] from position
        # i mod 2: an even x_i takes y_{i+1} first, and an odd x_i finds y_i
        # taken by x_{i-1} and takes y_{i+1}.  That leaves x_m free, and the
        # only augmenting path runs through all m + 1 X vertices
        _no_recursion_limit_change(monkeypatch)
        m = 3 * sys.getrecursionlimit()
        adj_x = [[i + 1, i] for i in range(m)] + [[m]]
        # without x_m's arc no phase can augment, so this is the greedy
        # pass's matching of x_0 .. x_{m-1}, the same as with the arc: it
        # takes y_m, x_m's only neighbour, so the greedy pass leaves x_m free
        assert hopcroft_karp(adj_x[:m] + [[]], m + 1) == list(range(1, m + 1)) + [-1]
        with pytest.raises(RecursionError):
            recursive_hopcroft_karp(adj_x, m + 1)
        assert hopcroft_karp(adj_x, m + 1) == list(range(m + 1))
