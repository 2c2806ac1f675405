"""Sampler: G(n,p) generation, the two-phase split, derived parameters,
and the preflight diagnostics."""
import math
import tracemalloc
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamdecomp.graph import Graph
from hamdecomp.sampler import (
    STREAM_SAMPLE,
    STREAM_SPLIT,
    Params,
    _rng,
    _uniforms,
    degree_diagnostics,
    deviation_spotcheck,
    geometric_skips,
    sample_gnp,
    split,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(n=10, p0=1.5, eta=0.25)
        with pytest.raises(ValueError):
            Params(n=10, p0=0.5, eta=0.0)
        with pytest.raises(ValueError):
            Params(n=0, p0=0.5, eta=0.25)

    def test_split_probabilities_sum(self):
        p = Params(n=1000, p0=0.1, eta=0.25)
        assert abs(p.p1 + p.p2 - p.p0) <= 1e-12

    def test_r1_even_and_near_target(self):
        for n, p0, eta in [(1000, 0.1, 0.25), (500, 0.2, 0.1), (64, 0.5, 0.4)]:
            p = Params(n=n, p0=p0, eta=eta)
            target = (1 - 3 * eta / 4) * n * p0
            assert p.r1 % 2 == 0
            assert abs(p.r1 - target) <= 2

    def test_desk_scale_values(self):
        p = Params(n=1000, p0=0.1, eta=0.25)
        assert abs(p.w0 - 100.0 / math.log(1000)) < 1e-12
        assert p.r1 == 80  # floor of 81.25 to even
        assert p.m == 37
        assert abs(p.kappa - 2 * math.log(64.0)) < 1e-12

    def test_kappa_closed_form(self):
        # eta=0.1 -> kappa = 2 log 160
        p = Params(n=100, p0=0.5, eta=0.1)
        assert abs(p.kappa - 2 * math.log(160.0)) < 1e-12

    def test_budgets_undefined_at_desk_scale(self):
        p = Params(n=1000, p0=0.1, eta=0.25)
        # eta*w0/20 = 0.181 <= 1 and eta^2*w0/1e5 << 1
        assert p.e0 is None and p.e1 is None
        assert not p.budgets_defined
        assert any("asymptotic regime" in w for w in p.warnings())

    def test_budget_defined_when_argument_exceeds_one(self):
        # eta*w0/20 = 0.5*n*p0/(20 log n): n=10000, p0=0.9 -> w0 ~ 977
        p = Params(n=10000, p0=0.9, eta=0.5)
        assert p.e0 is not None and p.e0 > 0
        assert p.e1 is None  # eta^2*w0/1e5 still tiny

    def test_to_dict_keys(self):
        d = Params(n=100, p0=0.3, eta=0.2).to_dict()
        for key in ("w0", "p1", "p2", "r1", "m", "kappa", "k0", "e0", "e1"):
            assert key in d


class TestSampleGnp:
    def test_p_one_is_complete(self):
        assert sample_gnp(5, 1.0, 0) == Graph.complete(5)

    def test_p_zero_is_empty(self):
        assert sample_gnp(5, 0.0, 0).num_edges == 0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sample_gnp(5, 1.2, 0)

    def test_determinism(self):
        a = sample_gnp(200, 0.05, 42)
        b = sample_gnp(200, 0.05, 42)
        assert a == b
        c = sample_gnp(200, 0.05, 43)
        assert a != c

    def test_edge_count_concentration(self):
        # n=2000, p=0.01: mean ~ 19990; Chernoff makes 5% deviation very rare
        n, p = 2000, 0.01
        mean = n * (n - 1) / 2 * p
        within = sum(
            abs(sample_gnp(n, p, seed).num_edges - mean) <= 0.05 * mean
            for seed in range(20)
        )
        assert within >= 19

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_simple_graph_property(self, n, seed):
        g = sample_gnp(n, 0.4, seed)
        assert g.n == n
        for u, v in g.edges:
            assert 0 <= u < v < n


class TestSplit:
    def test_partition_exact(self):
        params = Params(n=300, p0=0.1, eta=0.25, seed=5)
        g0 = sample_gnp(params.n, params.p0, params.seed)
        s = split(g0, params)
        assert not (s.g1.edges & s.g2.edges)
        assert s.g1.edges | s.g2.edges == g0.edges

    def test_empty_input(self):
        params = Params(n=10, p0=0.5, eta=0.3)
        s = split(Graph(10), params)
        assert s.g1.num_edges == 0 and s.g2.num_edges == 0

    def test_determinism(self):
        params = Params(n=200, p0=0.2, eta=0.3, seed=9)
        g0 = sample_gnp(params.n, params.p0, params.seed)
        a = split(g0, params)
        b = split(g0, params)
        assert a.g1 == b.g1 and a.g2 == b.g2

    def test_g2_size_concentration(self):
        # |E(g2)| ~ Binomial(|E(g0)|, eta/4)
        params = Params(n=500, p0=0.2, eta=0.25)
        g0 = sample_gnp(params.n, params.p0, 0)
        mean = g0.num_edges * params.eta / 4
        hits = 0
        for seed in range(20):
            s = split(g0, replace(params, seed=seed))
            if abs(s.g2.num_edges - mean) <= 0.15 * mean:
                hits += 1
        assert hits >= 18


def pair_split(g0, params):
    """Reference: the split that collects G1's and G2's edges as (u, v)
    tuples in draw order and builds each graph with ``Graph.from_pairs``;
    ``split`` must give equal graphs without the tuples or the sort."""
    keep = 1.0 - params.eta / 4.0
    draws = _uniforms(_rng(params.seed, STREAM_SPLIT))
    to_g1, to_g2 = [], []
    for u in range(g0.n):
        nbrs = g0.adj(u)
        for v, x in zip(nbrs[bisect_right(nbrs, u):], draws):
            (to_g1 if x < keep else to_g2).append((u, v))
    return Graph.from_pairs(g0.n, to_g1), Graph.from_pairs(g0.n, to_g2)


@pytest.mark.parametrize("n", [0, 1, 2, 40, 300])
@pytest.mark.parametrize("p0", [0.0, 0.3, 1.0])
def test_split_equals_the_pair_split(n, p0):
    for seed in range(4):
        g0 = sample_gnp(n, p0, seed)
        # Params needs n >= 1; split reads only eta and seed
        params = Params(n=max(n, 1), p0=p0, eta=0.25, seed=seed)
        s = split(g0, params)
        assert (s.g1, s.g2) == pair_split(g0, params)


def test_split_costs_under_40_bytes_per_edge():
    # the peak of everything split allocates, G1 and G2 included, is about
    # 22 B per G0 edge; collecting the edges as tuples first costs about 88 B
    n = 2000
    params = Params(n=n, p0=0.05, eta=0.25, seed=0)
    g0 = sample_gnp(n, params.p0, params.seed)
    tracemalloc.start()
    try:
        s = split(g0, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.g1.num_edges + s.g2.num_edges == g0.num_edges
    assert peak / g0.num_edges < 40


class TestDiagnostics:
    def test_degree_report_structure_at_desk_scale(self):
        # all three degree bounds are asymptotic and routinely fail at this
        # scale (binomial tails exceed the eta/4 slack); the report's job is
        # to say so with a witness, not to hold
        params = Params(n=1000, p0=0.1, eta=0.25, seed=3)
        g0 = sample_gnp(params.n, params.p0, params.seed)
        report = degree_diagnostics(split(g0, params))
        for name in ("min_degree_g1", "max_degree_g1", "min_degree_g2"):
            assert isinstance(report[name]["holds"], bool)
            assert 0 <= report[name]["witness"] < params.n
            assert report[name]["value"] >= 0
            assert report[name]["bound"] > 0

    def test_degree_checks_hold_on_dense_fixture(self):
        from hamdecomp.sampler import SplitSample

        params = Params(n=20, p0=1.0, eta=0.5)
        k = Graph.complete(20)
        report = degree_diagnostics(SplitSample(g0=k, g1=k, g2=k, params=params))
        assert report["all_hold"]

    def test_empty_g1_fails_min_degree(self):
        params = Params(n=20, p0=0.5, eta=0.25)
        from hamdecomp.sampler import SplitSample

        s = SplitSample(g0=Graph(20), g1=Graph(20), g2=Graph(20), params=params)
        report = degree_diagnostics(s)
        assert not report["min_degree_g1"]["holds"]
        assert not report["all_hold"]

    def test_spotcheck_complete_graph_band(self):
        # on K_n the linear band check is deterministic: e(A,B) = |A||B|
        g = Graph.complete(80)
        report = deviation_spotcheck(g, 1.0, 300, seed=0)
        assert report["linear_band"]["violations"] == 0
        assert report["linear_band"]["checked"] > 0

    def test_spotcheck_counts_add_up(self):
        g = sample_gnp(200, 0.1, 1)
        trials = 150
        report = deviation_spotcheck(g, 0.1, trials, seed=2)
        pair_total = (
            report["pair_small"]["checked"]
            + report["pair_large"]["checked"]
            + report["skipped"]
        )
        assert pair_total == trials

    def test_spotcheck_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            deviation_spotcheck(Graph.complete(5), 1.0, 0, seed=0)


def scalar_rng(seed, stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def scalar_sample_gnp(n, p, seed):
    """Reference: one scalar draw per geometric skip, one add_edge per edge."""
    g = Graph(n)
    rng = scalar_rng(seed, STREAM_SAMPLE)
    logq = math.log1p(-p)
    u, v = 0, 0
    while True:
        skip = 1 + int(math.log(1.0 - rng.random()) / logq)
        while skip > 0 and u < n - 1:
            row_left = n - 1 - v
            if skip <= row_left:
                v += skip
                skip = 0
            else:
                skip -= row_left
                u += 1
                v = u
        if u >= n - 1:
            return g
        g.add_edge(u, v)


def scalar_split(g0, params):
    """Reference: one scalar draw per edge in sorted order."""
    rng = scalar_rng(params.seed, STREAM_SPLIT)
    keep = 1.0 - params.eta / 4.0
    g1, g2 = Graph(g0.n), Graph(g0.n)
    for u, v in sorted(g0.edges):
        (g1 if rng.random() < keep else g2).add_edge(u, v)
    return g1, g2


def same_graph(a, b):
    """Equal graphs with equal neighbour lists, and so the same edge order
    for what reads the lists (``split``, ``to_text``) and the same ``edges``
    set, built from them in the same order."""
    return (a == b and list(a.edges) == list(b.edges)
            and all(a.adj(v) == b.adj(v) for v in range(a.n)))


@pytest.mark.parametrize("n,p", [
    (2, 0.5), (3, 0.999), (17, 0.3), (90, 0.05), (150, 0.6), (300, 0.999), (1200, 1e-4),
    (1000, 0.001), (1000, 0.01), (1000, 0.1), (1000, 1 / 3),
])
def test_batched_draws_match_scalar_draws(n, p):
    # the larger cases draw past the first chunk of doubles
    for seed in range(3):
        g0 = sample_gnp(n, p, seed)
        assert same_graph(g0, scalar_sample_gnp(n, p, seed))
        for eta in (0.05, 0.5, 0.95):
            params = Params(n=n, p0=p, eta=eta, seed=seed)
            s = split(g0, params)
            g1, g2 = scalar_split(g0, params)
            assert same_graph(s.g1, g1) and same_graph(s.g2, g2)


@pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 1 / 3, 0.5, 0.9])
def test_chunked_skips_match_scalar_skips_next_to_whole_quotients(p):
    # x = 1 - exp(k * log(1 - p)) puts log(1 - x) / log(1 - p) next to the
    # whole number k, where a last-bit difference between numpy's log and
    # math.log could move the floor; the doubles around each x are fed too
    logq = math.log1p(-p)
    x = 1.0 - np.exp(np.arange(1, 3000) * logq)
    x = x[x < 1.0]
    for step in (-2, -1, 1, 2):
        x = np.concatenate([x, x + step * np.spacing(x)])
    x = x[(0.0 <= x) & (x < 1.0)]
    q = np.log(1.0 - x) / logq
    assert np.sum(np.abs(q - np.rint(q)) < 1e-9) > len(x) // 10
    scalar = [1 + int(math.log(1.0 - xi) / logq) for xi in x.tolist()]
    assert geometric_skips(x, logq, 2**40).tolist() == scalar


def test_skips_are_capped():
    logq = math.log1p(-1e-300)
    assert geometric_skips(np.array([0.0, 0.5, 1 - 2**-53]), logq, 10).tolist() == [1, 11, 11]
