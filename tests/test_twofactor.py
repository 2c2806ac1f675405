"""Two-factor peeling: balanced orientation, bipartite double, matching rounds."""
import hashlib
import json

import pytest

from hamdecomp.factors import FLOW_FASTPATH_MIN_N, extract_r_factor, extract_with_retry
from hamdecomp.graph import Graph, OrientedGraph, balanced_orientation, cycle_cover_edges
from hamdecomp.sampler import Params, sample_gnp, split
from hamdecomp import twofactor
from hamdecomp.matching import hopcroft_karp
from hamdecomp.twofactor import (
    cycle_statistics,
    euler_orient,
    matching_to_2factor,
    peel_all,
)

from cover_checks import validate_two_factors


def assert_balanced(o, h):
    """out = in = deg/2 at every vertex, and one arc per host edge."""
    ind = o.in_degrees()
    assert all(len(o.out[v]) == ind[v] == h.degree(v) // 2 for v in range(h.n))
    assert sorted(tuple(sorted((v, w))) for v in range(h.n) for w in o.out[v]) == sorted(h.edges)


class TestEulerOrient:
    def test_c4(self):
        o = euler_orient(Graph.cycle(4))
        assert_balanced(o, Graph.cycle(4))
        assert all(len(o.out[v]) == 1 for v in range(4))

    def test_k5(self):
        o = euler_orient(Graph.complete(5))
        assert_balanced(o, Graph.complete(5))
        assert all(len(o.out[v]) == 2 for v in range(5))

    def test_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            euler_orient(Graph.complete(4))

    def test_disconnected(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        o = euler_orient(g)
        assert_balanced(o, g)


class TestBipartiteDouble:
    """The double has an x -> y edge per arc x -> y of the orientation, so
    its adjacency is the orientation's out-lists."""

    def test_directed_triangle(self):
        o = euler_orient(Graph.cycle(3))
        assert all(len(heads) == 1 for heads in o.out) and o.in_degrees() == [1, 1, 1]
        match = hopcroft_karp(o.out, 3)
        assert sorted(match) == [0, 1, 2]

    def test_k5_double_regular(self):
        o = euler_orient(Graph.complete(5))
        assert all(len(heads) == 2 for heads in o.out) and o.in_degrees() == [2] * 5

    def test_empty_host(self):
        o = euler_orient(Graph(0))
        assert_balanced(o, Graph(0))
        assert o.out == [] and o.in_degrees() == []

    def test_matching_failure_reported(self, monkeypatch):
        # a matcher that leaves a vertex unmatched must not become a factor
        def short(adj, n):
            match = hopcroft_karp(adj, n)
            match[0] = -1
            return match

        monkeypatch.setattr(twofactor, "hopcroft_karp", short)
        with pytest.raises(ValueError, match="no perfect matching"):
            peel_all(Graph.complete(5), 4)

    def test_skewed_orientation_trips_the_regularity_check(self, monkeypatch):
        # out-degrees 3, 1, 2, 2, 2 on K5: not a balanced orientation, which
        # the check before round 0 catches
        skewed = {0: [1, 2, 3], 1: [2], 2: [3, 4], 3: [4, 1], 4: [0, 1]}

        def orient(h):
            return OrientedGraph.from_out([skewed[v] for v in range(h.n)])

        monkeypatch.setattr(twofactor, "euler_orient", orient)
        with pytest.raises(AssertionError, match="2-regular before round 0"):
            peel_all(Graph.complete(5), 4)

    def test_non_permutation_matching_is_caught(self, monkeypatch):
        # x = 0 swaps its partner for its other head: that head is matched
        # twice, the one given up not at all, and no vertex is left at -1
        def doubled(adj, n):
            match = hopcroft_karp(adj, n)
            match[0] = next(y for y in adj[0] if y != match[0])
            return match

        monkeypatch.setattr(twofactor, "hopcroft_karp", doubled)
        with pytest.raises(AssertionError, match=r"round 0 matched \d+ twice"):
            peel_all(Graph.complete(7), 6)

    def test_doubled_partner_is_named(self, monkeypatch):
        # x = 3 takes another of its heads, which the x that holds it also
        # keeps: the message names that head, the first y seen twice
        doubled_y = []

        def doubled(adj, n):
            match = hopcroft_karp(adj, n)
            match[3] = next(y for y in adj[3] if y != match[3])
            doubled_y.append(match[3])
            return match

        monkeypatch.setattr(twofactor, "hopcroft_karp", doubled)
        with pytest.raises(AssertionError, match=r"round 0 matched \d+ twice") as err:
            peel_all(Graph.complete(7), 6)
        assert str(err.value) == f"round 0 matched {doubled_y[0]} twice"

    def test_permutation_off_the_out_lists_is_caught(self, monkeypatch):
        # two x swap partners so that one of them gets a y that is not its
        # head: still a permutation, but not a matching of the double
        def swapped(adj, n):
            match = hopcroft_karp(adj, n)
            a, b = next((a, b) for a in range(n) for b in range(n)
                        if a != b and match[b] not in adj[a])
            match[a], match[b] = match[b], match[a]
            assert sorted(match) == list(range(n))
            return match

        monkeypatch.setattr(twofactor, "hopcroft_karp", swapped)
        with pytest.raises(ValueError, match="not in list"):
            peel_all(Graph.complete(7), 6)


class TestMatchingToFactor:
    def test_cn_identity(self):
        o = euler_orient(Graph.cycle(7))
        cycles = matching_to_2factor(hopcroft_karp(o.out, 7))
        assert len(cycles) == 1
        assert sorted(cycles[0]) == list(range(7))

    def test_k5_single_five_cycle(self):
        # 5 has no partition into parts >= 3 other than (5)
        o = euler_orient(Graph.complete(5))
        cycles = matching_to_2factor(hopcroft_karp(o.out, 5))
        assert [len(c) for c in cycles] == [5]

    def test_rejects_a_two_cycle(self):
        with pytest.raises(ValueError, match="shorter than 3"):
            matching_to_2factor([1, 0, 3, 4, 2])


def _assert_exact_peel(h: Graph, r: int):
    tf = peel_all(h, r)
    assert len(tf.factors) == r // 2
    validate_two_factors(tf)  # spanning, edge-disjoint, host membership
    union = set()
    for f in tf.factors:
        es = cycle_cover_edges(f)
        assert not (es & union)
        union |= es
        assert all(len(c) >= 3 for c in f)
    assert union == h.edges


class TestPeelAll:
    def test_c6(self):
        _assert_exact_peel(Graph.cycle(6), 2)

    def test_k5(self):
        _assert_exact_peel(Graph.complete(5), 4)

    def test_k7(self):
        _assert_exact_peel(Graph.complete(7), 6)

    def test_leaves_the_host_unchanged(self):
        # the double is peeled from copies of the orientation's out-lists, not h's
        h = Graph.complete(7)
        before = [list(h.adj(v)) for v in range(h.n)]
        _assert_exact_peel(h, 6)
        assert [h.adj(v) for v in range(h.n)] == before

    def test_rejects_irregular(self):
        with pytest.raises(ValueError, match="not regular"):
            peel_all(Graph(3, [(0, 1)]), 2)

    def test_rejects_odd_regular(self):
        with pytest.raises(ValueError, match="even regular degree"):
            peel_all(Graph.complete(4), 3)

    def test_sampled_factor(self):
        params = Params(n=120, p0=0.5, eta=0.3, seed=4)
        s = split(sample_gnp(params.n, params.p0, params.seed), params)
        f, r = extract_with_retry(s.g1, params.r1)
        assert f is not None
        _assert_exact_peel(f, r)


def sampled_factor(n, p0, seed):
    """(factor, r) extracted from one sampled G1 at eta = 0.25."""
    params = Params(n=n, p0=p0, eta=0.25, seed=seed)
    s = split(sample_gnp(params.n, params.p0, params.seed), params)
    return extract_with_retry(s.g1, params.r1)


def count_orientations(monkeypatch):
    """Count the balanced_orientation calls euler_orient makes."""
    calls = []

    def spy(g, rotate=0):
        calls.append(g)
        return balanced_orientation(g, rotate)

    monkeypatch.setattr(twofactor, "balanced_orientation", spy)
    return calls


class TestOrientOnce:
    @pytest.mark.parametrize("n,p0,seed", [(60, 0.5, 0), (120, 0.3, 1), (300, 1 / 3, 2)])
    def test_flow_factor_stores_a_balanced_orientation(self, n, p0, seed):
        f, r = sampled_factor(n, p0, seed)
        assert isinstance(f, OrientedGraph) and r % 2 == 0
        assert all(heads == sorted(heads) for heads in f.out)
        ind = [0] * n
        for heads in f.out:
            for w in heads:
                ind[w] += 1
        assert all(len(heads) == r // 2 for heads in f.out) and ind == [r // 2] * n
        arcs = [(v, w) if v < w else (w, v) for v in range(n) for w in f.out[v]]
        assert len(arcs) == len(set(arcs)) and set(arcs) == f.edges

    def test_flow_factor_is_peeled_without_hierholzer(self, monkeypatch):
        f, r = sampled_factor(120, 0.3, 1)
        calls = count_orientations(monkeypatch)
        assert euler_orient(f) is f
        _assert_exact_peel(f, r)
        assert calls == []

    def test_peeling_twice_gives_equal_results(self):
        f, r = sampled_factor(120, 0.3, 1)
        adj, out = [list(f.adj(v)) for v in range(f.n)], [list(heads) for heads in f.out]
        first, second = peel_all(f, r), peel_all(f, r)
        assert first.factors == second.factors
        assert [f.adj(v) for v in range(f.n)] == adj and f.out == out

    def test_extraction_and_peel_build_no_neighbour_lists(self, monkeypatch):
        # the flow route's factor is its orientation: nothing on the way
        # from G1 to the 2-factors rebuilds a graph from pairs
        params = Params(n=120, p0=0.3, eta=0.25, seed=1)
        g1 = split(sample_gnp(params.n, params.p0, params.seed), params).g1
        assert g1.n >= FLOW_FASTPATH_MIN_N
        calls = []
        from_pairs = Graph.from_pairs.__func__

        def counted(cls, n, pairs):
            calls.append(n)
            return from_pairs(cls, n, pairs)

        monkeypatch.setattr(Graph, "from_pairs", classmethod(counted))
        f, r = extract_with_retry(g1, params.r1)
        tf = peel_all(f, r)
        assert isinstance(f, OrientedGraph) and len(tf.factors) == r // 2
        assert calls == []

    @pytest.mark.parametrize("n,r", [(30, 4), (60, 3)])
    def test_gadget_factor_is_peeled_through_hierholzer(self, n, r, monkeypatch):
        # n < 40 or odd r takes the gadget route, which stores no orientation
        g = sample_gnp(n, 0.5, 7)
        f = extract_r_factor(g, r)
        assert f is not None and not isinstance(f, OrientedGraph)
        calls = count_orientations(monkeypatch)
        if r % 2:
            with pytest.raises(ValueError, match="odd-degree"):
                euler_orient(f)
            assert calls == []
        else:
            _assert_exact_peel(f, r)
            assert calls == [f]


class TestCycleStatistics:
    def test_single_hamilton_factor(self):
        from hamdecomp.twofactor import TwoFactorSet

        tf = TwoFactorSet(host=Graph.cycle(6), factors=[[[0, 1, 2, 3, 4, 5]]])
        stats = cycle_statistics(tf, Params(n=6, p0=0.9, eta=0.5))
        assert stats["per_factor"] == [1]
        assert stats["min"] == stats["max"] == 1

    def test_triangle_cover_max_count(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        from hamdecomp.twofactor import TwoFactorSet

        tf = TwoFactorSet(host=g, factors=[[[0, 1, 2], [3, 4, 5]]])
        assert cycle_statistics(tf, Params(n=6, p0=0.9, eta=0.5))["max"] == 2

    def test_k0_fraction(self):
        params = Params(n=100, p0=0.5, eta=0.25)
        from hamdecomp.twofactor import TwoFactorSet

        tf = TwoFactorSet(host=Graph.cycle(6), factors=[[[0, 1, 2, 3, 4, 5]]])
        stats = cycle_statistics(tf, params)
        assert stats["fraction_within_k0"] == 1.0


# SHA-256 of r, the extracted factor's sorted edges and the peeled 2-factors
# at n=600, p0=1/6, eta=0.25, re-recorded when the factor became the
# orientation minus a b-matching of arcs to drop and the peel's greedy
# scans began at x mod degree.
FRONT_DIGESTS = {
    0: "9e9d9babb268e6d73256ac4eb41a7923834d87e16cfb99684c0df36ceb81a6c3",
    1: "d118224b1870ed523f35caa6b7a42a7ae56dc703ee69425a479b61b302daa3c7",
    2: "cb9b847930c0eb287c80c96e34b98eee6ca96c31f80028c51ad71d6ab2c1c855",
}


@pytest.mark.parametrize("seed", sorted(FRONT_DIGESTS))
def test_extraction_and_peel_digest_pinned(seed):
    params = Params(n=600, p0=1 / 6, eta=0.25, seed=seed)
    s = split(sample_gnp(params.n, params.p0, params.seed), params)
    f, r = extract_with_retry(s.g1, params.r1)
    tf = peel_all(f, r)
    doc = {"r": r, "factor": sorted(f.edges), "factors": tf.factors}
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == FRONT_DIGESTS[seed]
