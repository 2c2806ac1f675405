"""Rotation engine: elementary moves, the search, conversion, and replay."""
import ast
import hashlib
import itertools
import json
import random
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hamdecomp import rotation
from hamdecomp.graph import BrokenTwoFactor, Graph, cycle_cover_edges, norm_edge
from hamdecomp.rotation import (
    GammaView,
    TranscriptRecord,
    _RotatedPath,
    _grow_side,
    absorb_cycle,
    apply,
    break_to_path,
    convert_all,
    posa_search,
    replay,
    rotate,
)
from hamdecomp.sampler import Params, sample_gnp, split
from hamdecomp.twofactor import TwoFactorSet

from cover_checks import broken_edges, path_edges, validate_broken, validate_two_factors

TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def edge_key(n, u, v):
    """The key u·n + v (u < v) by which conversion names the edge {u, v}."""
    return u * n + v if u < v else v * n + u


def apply_outcome(broken, outcome):
    """Apply a search outcome's rotations to ``broken``."""
    for pivot, deleted, added in outcome.rotations:
        apply(broken, TranscriptRecord(step=1, kind="rotate", pivot=pivot,
                                       deleted=deleted, added=added))


def limit_search(monkeypatch, max_states=rotation.MAX_STATES, max_levels=rotation.MAX_LEVELS):
    """Make every search run with the given limits; a search reads
    ``rotation.MAX_STATES`` and ``MAX_LEVELS`` when it starts."""
    monkeypatch.setattr(rotation, "MAX_STATES", max_states)
    monkeypatch.setattr(rotation, "MAX_LEVELS", max_levels)


def two_triangle_fixture(gamma_edges):
    g0 = Graph(6, TRIANGLES + list(gamma_edges))
    return g0, [[[0, 1, 2], [3, 4, 5]]]


def random_broken(n, seed, q):
    """A random path plus leftover cycles on vertices 0..n-1, and the
    reservoir of a host that adds each other pair with probability q."""
    rnd = random.Random(seed)
    order = list(range(n))
    rnd.shuffle(order)
    k = rnd.choice([n, rnd.randint(2, n)])
    path, rest = order[:k], order[k:]
    cycles = []
    while len(rest) >= 3:
        size = len(rest) if len(rest) < 6 else rnd.randint(3, len(rest) - 3)
        cycles.append(rest[:size])
        rest = rest[size:]
    broken = BrokenTwoFactor(n=n, cycles=cycles, path=path + rest)
    edges = broken_edges(broken) | {
        (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < q
    }
    return broken, GammaView(Graph(n, edges), broken_edges(broken))


class TestBreakToPath:
    def test_two_triangles(self):
        broken, rec = break_to_path([[0, 1, 2], [3, 4, 5]], 6)
        assert rec.kind == "break"
        assert rec.deleted == (0, 1)  # lexicographically smallest edge
        assert broken.path == [0, 2, 1]
        assert broken.cycles == [[3, 4, 5]]
        validate_broken(broken)

    def test_single_hamilton_cycle(self):
        broken, rec = break_to_path([[2, 0, 1, 3]], 4)
        assert broken.cycles == []
        assert len(broken.path) == 4
        assert rec.deleted == (0, 1)

    def test_deterministic(self):
        a, _ = break_to_path([[5, 3, 4], [2, 0, 1]], 6)
        b, _ = break_to_path([[5, 3, 4], [2, 0, 1]], 6)
        assert a.path == b.path and a.cycles == b.cycles


class TestRotate:
    def test_worked_example(self):
        # path 1-2-3-4-5, gamma edge {2,5}, pivot 2 -> 1-2-5-4-3
        new_path, deleted, added = rotate([1, 2, 3, 4, 5], 2)
        assert new_path == [1, 2, 5, 4, 3]
        assert deleted == (2, 3)
        assert added == (2, 5)

    def test_vertex_set_preserved(self):
        path = [7, 3, 1, 0, 4, 2]
        new_path, deleted, added = rotate(path, 1)
        assert sorted(new_path) == sorted(path)
        assert deleted in path_edges(path)
        assert added not in path_edges(path)
        assert path_edges(new_path) == (path_edges(path) - {deleted}) | {added}

    def test_noop_pivot_rejected(self):
        with pytest.raises(ValueError):
            rotate([1, 2, 3, 4, 5], 4)

    def test_fixed_endpoint_pivot_rejected(self):
        with pytest.raises(ValueError):
            rotate([1, 2, 3, 4, 5], 1)

    def test_moving_endpoint_pivot_rejected(self):
        with pytest.raises(ValueError):
            rotate([1, 2, 3, 4, 5], 5)


class TestAbsorb:
    def test_worked_example(self):
        # path 0-2-1, cycle (3,4,5), entry 3: delete (3,4) -> path 0-2-1-3-5-4
        broken = BrokenTwoFactor(n=6, cycles=[[3, 4, 5]], path=[0, 2, 1])
        added, deleted = absorb_cycle(broken, 3)
        assert added == (1, 3)
        assert deleted == (3, 4)
        assert broken.path == [0, 2, 1, 3, 5, 4]
        assert broken.cycles == []
        validate_broken(broken)

    def test_entry_on_path_rejected(self):
        broken = BrokenTwoFactor(n=6, cycles=[[3, 4, 5]], path=[0, 2, 1])
        with pytest.raises(ValueError):
            absorb_cycle(broken, 2)

    def test_last_cycle_yields_spanning_path(self):
        broken = BrokenTwoFactor(n=7, cycles=[[4, 5, 6]], path=[0, 1, 2, 3])
        absorb_cycle(broken, 5)
        assert sorted(broken.path) == list(range(7))


class TestPosaSearch:
    def test_immediate_close(self):
        host = Graph.cycle(5)
        broken = BrokenTwoFactor(n=5, cycles=[], path=[0, 1, 2, 3, 4])
        outcome = posa_search(broken, GammaView(host, path_edges(broken.path)))
        assert outcome.kind == "close"
        assert outcome.added == (0, 4)
        assert outcome.rotations == []

    def test_extend_preferred(self):
        g0, _ = two_triangle_fixture([(1, 3)])
        broken = BrokenTwoFactor(n=6, cycles=[[3, 4, 5]], path=[0, 2, 1])
        gamma = GammaView(g0, broken_edges(broken))
        outcome = posa_search(broken, gamma)
        assert outcome.kind == "extend"
        assert outcome.added == (1, 3)
        assert outcome.rotations == []

    def test_exhausted_when_gamma_empty(self):
        g0 = Graph(6, TRIANGLES)
        broken = BrokenTwoFactor(n=6, cycles=[[3, 4, 5]], path=[0, 2, 1])
        gamma = GammaView(g0, g0.edges)  # everything committed
        assert posa_search(broken, gamma).kind == "exhausted"

    def test_close_after_rotation(self):
        # path 0-1-2-3-4 on a host where closing needs one rotation:
        # gamma = {(1,4), (0,3)}; rotating about pivot 1 gives tail 3? no —
        # rotate 0-1-2-3-4 with pivot 1 -> 0-1-4-3-2; then (0,2) would close.
        host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 2)])
        broken = BrokenTwoFactor(n=5, cycles=[], path=[0, 1, 2, 3, 4])
        gamma = GammaView(host, path_edges(broken.path))
        outcome = posa_search(broken, gamma)
        assert outcome.kind == "close"
        # the rotated path must actually close with a host edge
        apply_outcome(broken, outcome)
        p = broken.path
        assert host.has_edge(p[0], p[-1])
        assert sorted(p) == list(range(5))

    @given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.sampled_from([0.1, 0.25, 0.5]), st.sampled_from([(3, 1), (20, 3), (2000, 64)]))
    @settings(max_examples=150, deadline=None)
    def test_outcome_path_is_its_rotations_applied(self, n, seed, q, limits):
        # every outcome's records must apply in order to the original path,
        # each rotation acting at the end its added edge touches, and each
        # added edge must come from the reservoir
        broken, gamma = random_broken(n, seed, q)
        path = broken.path
        with pytest.MonkeyPatch.context() as mp:
            limit_search(mp, *limits)
            outcome = posa_search(broken, gamma)
        if outcome.kind == "exhausted":
            return
        assert all(gamma.has(*added) for _, _, added in outcome.rotations)
        assert gamma.has(*outcome.added)
        apply_outcome(broken, outcome)
        if outcome.kind == "extend":
            # one end of the rotated path joins an off-path vertex
            assert len(set(outcome.added) & {broken.path[0], broken.path[-1]}) == 1
            assert len(set(outcome.added) & set(path)) == 1
            apply(broken, TranscriptRecord(step=1, kind="absorb", added=outcome.added))
        else:
            assert outcome.added == norm_edge(broken.path[0], broken.path[-1])
        validate_broken(broken, gamma.host)


class TestSearchStopRule:
    def test_spanning_root_close_builds_no_state(self):
        host = Graph.complete(8)
        path = list(range(8))
        found, states = _grow_side(_RotatedPath(path), GammaView(host, path_edges(path)), set())
        assert states == [((), 7)]
        assert (found.kind, found.rotations, found.added) == ("close", [], (0, 7))

    def test_spanning_search_stops_at_its_first_close(self):
        # without (0, 7) the root cannot close; its first rotation, pivot 1,
        # moves the tail to 2, which closes, so pivots 2-5 are never tried
        path = list(range(8))
        host = Graph(8, [e for e in Graph.complete(8).edges if e != (0, 7)])
        rooted = _RotatedPath(path)
        found, states = _grow_side(rooted, GammaView(host, path_edges(path)), set())
        assert states == [((), 7), ((1,), 2)]
        assert found.rotations == rooted.realize((1,))[1] == [(1, (1, 2), (1, 7))]
        assert (found.kind, found.added) == ("close", (0, 2))


# SHA-256 of posa_search's outcomes over random_broken instances, recorded
# before the search stopped a spanning path at its first close and before
# the head-side search became the re-anchor at the root
SEARCH_LIMITS = [(2, 1), (3, 1), (5, 2), (20, 3), (2000, 64)]
SEARCH_DIGEST = "449e33b7efd4eeae00f997e5f48ff1f467cdf8609b1116f9fa6d699a20a23565"


def test_search_digest_pinned():
    h = hashlib.sha256()
    reanchored = exhausted = 0
    for n in range(5, 31):
        for q in (0.05, 0.1, 0.2, 0.35):
            for seed in range(10):
                for limits in SEARCH_LIMITS:
                    broken, gamma = random_broken(n, seed, q)
                    with pytest.MonkeyPatch.context() as mp:
                        limit_search(mp, *limits)
                        out = posa_search(broken, gamma)
                        if out.kind == "close" and not broken.offpath_vertices():
                            found, _ = _grow_side(_RotatedPath(broken.path), gamma, set())
                            reanchored += found is None
                    doc = [out.kind, [[p, list(d), list(a)] for p, d, a in out.rotations],
                           list(out.added) if out.added else None]
                    h.update(json.dumps(doc, separators=(",", ":")).encode())
                    exhausted += out.kind == "exhausted"
    assert h.hexdigest() == SEARCH_DIGEST
    # the digest covers closes found only after re-anchoring
    assert (reanchored, exhausted) == (235, 1758)


def explicit_endpoint_sizes(path, gamma, max_levels=16):
    """Size of the set of reachable tails after each level of rotations,
    found with explicit path copies."""
    seen = {path[-1]}
    frontier = [path]
    sizes = []
    for _ in range(max_levels):
        nxt = []
        for p in frontier:
            for pivot in gamma.adj(p[-1]):
                if pivot in p and 1 <= p.index(pivot) <= len(p) - 3:
                    rotated = rotate(p, pivot)[0]
                    if rotated[-1] not in seen:
                        seen.add(rotated[-1])
                        nxt.append(rotated)
        sizes.append(len(seen))
        if not nxt:
            break
        frontier = nxt
    return sizes


class TestRotationReach:
    def test_endpoint_sets_match_explicit_rotations(self):
        # reference: the same level-by-level search over explicit path copies
        # made by the elementary move; a wrong shortcut in the implicit
        # search shows on a few percent of these instances
        for n in range(5, 31):
            for q in (0.1, 0.25, 0.5):
                for seed in range(20):
                    broken, gamma = random_broken(n, seed, q)
                    if len(broken.path) < 3:
                        continue
                    # the head is never a pivot, so taking its reservoir
                    # edges leaves the reach as it is and lets no state
                    # close; with no off-path vertex nothing then ends the
                    # search, and a state's level is its number of cuts
                    head = broken.path[0]
                    gamma.take([edge_key(n, head, u) for u in gamma.adj(head)])
                    with pytest.MonkeyPatch.context() as mp:
                        limit_search(mp, max_states=10**9, max_levels=16)
                        found, states = _grow_side(_RotatedPath(broken.path), gamma, set())
                    assert found is None
                    levels = [len(cuts) for cuts, _ in states]
                    sizes = []
                    for level in range(1, 17):
                        sizes.append(sum(1 for k in levels if k <= level))
                        if level not in levels:
                            break
                    assert sizes == explicit_endpoint_sizes(broken.path, gamma), (n, q, seed)


def scenario(n, p0, eta, seed):
    """(params, split graphs, 2-factors) of a conversion test, and the only
    way these tests get 2-factors.  G0 and G2 are sampled; the 2-factors
    are read from ``scenario_factors.json``, which holds those that
    extraction and peeling made from this G1 at ``8d9b591``, so a change to
    extraction or peeling leaves every conversion pin in place.  They are
    checked against G0 first, so a change to sampling or the split makes
    this fail loudly."""
    params = Params(n=n, p0=p0, eta=eta, seed=seed)
    s = split(sample_gnp(params.n, params.p0, params.seed), params)
    fixtures = json.loads(Path(__file__).with_name("scenario_factors.json").read_text())
    factors = fixtures[f"{n},{p0},{eta},{seed}"]
    validate_two_factors(TwoFactorSet(host=s.g0, factors=factors))
    return params, s, factors


def desk_params(n=6):
    return Params(n=n, p0=0.9, eta=0.5, seed=0)


class TestConvertAll:
    def test_golden_two_triangle_transcript(self):
        g0, factors = two_triangle_fixture([(1, 3), (0, 4)])
        conv = convert_all(factors, g0, Graph(6), desk_params())
        assert len(conv.hamilton_cycles) == 1
        assert conv.hamilton_cycles[0] == [0, 2, 1, 3, 5, 4]
        assert conv.steps == 2
        assert conv.total_rotations == 0
        records = [(r.kind, r.pivot, r.deleted, r.added) for r in conv.transcripts[0]]
        assert records == [
            ("break", None, (0, 1), None),
            ("absorb", None, (3, 4), (1, 3)),
            ("close", None, None, (0, 4)),
        ]

    def test_already_hamilton_factor(self):
        host = Graph.cycle(6)
        conv = convert_all([[[0, 1, 2, 3, 4, 5]]], host, Graph(6), desk_params())
        assert len(conv.hamilton_cycles) == 1
        assert conv.total_rotations == 0

    def test_deadend_reported(self):
        # closing edge exists (the broken edge re-enters gamma) but no gamma
        # edge leaves the non-spanning closed cycle
        g0 = Graph(6, TRIANGLES)
        conv = convert_all([[[0, 1, 2], [3, 4, 5]]], g0, Graph(6), desk_params())
        assert conv.hamilton_cycles == []
        assert any(o["outcome"] == "abandoned" for o in conv.per_factor)

    def test_rejects_bad_mode(self):
        for mode in ("strict", "enforce"):
            with pytest.raises(ValueError, match="unknown mode"):
                convert_all([], Graph(3), Graph(3), desk_params(), mode=mode)

    def test_pipeline_with_audit(self):
        params, s, factors = scenario(90, 0.6, 0.3, 1)
        conv = convert_all(factors, s.g0, s.g2, params, audit=True)
        assert conv.audit_failures == []
        assert len(conv.hamilton_cycles) >= 1
        for cyc in conv.hamilton_cycles:
            assert s.g0.verify_hamilton_cycle(cyc)

    def test_replay_bit_exact(self):
        params, s, factors = scenario(70, 0.6, 0.3, 2)
        conv = convert_all(factors, s.g0, s.g2, params)
        finished = {
            o["factor"] for o in conv.per_factor if o["outcome"] == "hamilton"
        }
        assert finished
        done = 0
        for fi in sorted(finished):
            final = replay(factors[fi], conv.transcripts[fi], params.n)
            assert final in conv.hamilton_cycles
            done += 1
        assert done == len(conv.hamilton_cycles)

    @pytest.mark.parametrize("audit", [False, True])
    def test_conversion_and_replay_leave_the_factors_unchanged(self, audit, monkeypatch):
        # break_to_path copies the factor it is given, so neither the
        # conversion nor a replay may change the caller's cycles
        params, s, factors = scenario(70, 0.6, 0.3, 2)
        before = json.dumps(factors)
        limit_search(monkeypatch, max_states=5)
        conv = convert_all(factors, s.g0, s.g2, params, audit=audit)
        assert conv.total_rotations > 0 and conv.hamilton_cycles
        assert json.dumps(factors) == before
        for fi, transcript in conv.transcripts.items():
            replay(factors[fi], transcript, params.n)
        assert json.dumps(factors) == before

    def test_edges_disjoint_across_cycles(self):
        params, s, factors = scenario(80, 0.7, 0.25, 3)
        conv = convert_all(factors, s.g0, s.g2, params)
        used = set()
        for cyc in conv.hamilton_cycles:
            es = path_edges(cyc) | {(min(cyc[0], cyc[-1]), max(cyc[0], cyc[-1]))}
            assert not (es & used)
            used |= es

    def test_ledger_is_the_net_of_each_steps_records(self, monkeypatch):
        runs = [
            # a small state cap makes this conversion rotate and reopen a close
            ((81, 0.6, 0.05, 39), {"max_states": 5}),
            # here factor 3 is abandoned, and its retry finishes it
            ((56, 0.4, 0.5, 21), {"max_states": 2, "max_levels": 1}),
        ]
        convs = []
        for args, limits in runs:
            params, s, factors = scenario(*args)
            limit_search(monkeypatch, **limits)
            convs.append(convert_all(factors, s.g0, s.g2, params))
        plain, retried = convs
        records = [rec for fi in sorted(plain.transcripts) for rec in plain.transcripts[fi]]
        assert any(rec.kind == "close" and rec.deleted for rec in records)
        assert plain.total_rotations > 0
        assert all(o["pass"] == 1 for o in plain.per_factor) and not plain.earlier_transcripts
        assert [(o["factor"], o["outcome"]) for o in retried.per_factor if o["pass"] == 2] == [
            (3, "hamilton")
        ]
        assert list(retried.earlier_transcripts) == [(3, 1)]
        first_attempt = {rec.step for rec in retried.earlier_transcripts[3, 1]}
        assert any(row.step in first_attempt for row in retried.ledger)
        for conv in convs:
            for row in conv.ledger:
                attempts = [conv.transcripts[row.factor]] + [
                    t for (fi, _), t in conv.earlier_transcripts.items() if fi == row.factor
                ]
                # every step is held by exactly one attempt
                holders = [t for t in attempts if any(rec.step == row.step for rec in t)]
                assert len(holders) == 1
                step = [rec for rec in holders[0] if rec.step == row.step]
                added = [rec.added for rec in step]
                deleted = [rec.deleted for rec in step if rec.deleted]
                assert row.consumed == [e for e in added if e not in deleted]
                assert row.returned == [e for e in deleted if e not in added]
                assert row.rotations == sum(rec.kind == "rotate" for rec in step)


class TestPersistentReservoir:
    def test_take_and_give_track_the_committed_set(self):
        host = Graph.complete(5)
        gamma = GammaView(host, {edge_key(5, 0, 1)})
        assert gamma.adj(0) == [2, 3, 4]
        gamma.take([edge_key(5, 0, 2), edge_key(5, 0, 3)])
        assert gamma.adj(0) == [4] and gamma.adj(2) == [1, 3, 4]
        gamma.give([edge_key(5, 0, 1), edge_key(5, 0, 3)])
        assert gamma.adj(0) == [1, 3, 4]
        assert gamma.committed == {edge_key(5, 0, 2)}

    def test_view_owns_the_committed_set(self):
        # the view keeps the key set it is given; take and give change it
        host = Graph.complete(4)
        committed = {edge_key(4, 0, 1), edge_key(4, 2, 3)}
        gamma = GammaView(host, committed)
        assert gamma.committed is committed
        gamma.take([edge_key(4, 0, 2)])
        gamma.give([edge_key(4, 0, 1)])
        assert committed == {edge_key(4, 0, 2), edge_key(4, 2, 3)}
        assert gamma.has(0, 1) and not gamma.has(0, 2)
        assert gamma.adj(0) == [1, 3] and gamma.adj(2) == [1]
        # taking an already committed edge leaves the set unchanged
        before = set(committed)
        gamma.take([edge_key(4, 3, 2)])
        assert committed == before

    def test_audit_catches_a_reservoir_that_stops_following(self, monkeypatch):
        # a reservoir that never gets edges back drifts from the from-scratch
        # recomputation; the audit must say so
        params, s, factors = scenario(60, 0.6, 0.3, 4)
        monkeypatch.setattr(GammaView, "give", lambda self, edges: None)
        conv = convert_all(factors, s.g0, s.g2, params, audit=True)
        assert any("persistent reservoir" in msg for msg in conv.audit_failures)

    def test_retry_skips_a_factor_an_earlier_retry_used(self, monkeypatch):
        # here factors 2 and 3 are abandoned and the retry of 2 finishes
        # with an edge of 3 that no first-pass cycle took; retrying 3 would
        # break edge conservation, so it must not be attempted
        params, s, factors = scenario(56, 0.4, 0.5, 549)
        limit_search(monkeypatch, max_states=2, max_levels=1)
        conv = convert_all(factors, s.g0, s.g2, params, audit=True)
        assert conv.audit_failures == []
        assert [(o["factor"], o["outcome"]) for o in conv.per_factor if o["outcome"] != "hamilton"
                or o["pass"] == 2] == [(2, "abandoned"), (3, "abandoned"), (2, "hamilton")]
        # the retry finishes last, so its cycle is the last one
        third = cycle_cover_edges(factors[3])
        assert [len(cycle_cover_edges([cyc]) & third) for cyc in conv.hamilton_cycles] == [0] * (
            len(conv.hamilton_cycles) - 1) + [1]


class TupleGammaView:
    """The reservoir view as it was before edge keys: a set of (min, max)
    tuples filtered per neighbour through ``norm_edge``.  The reference
    that the key-based ``GammaView`` is compared against."""

    def __init__(self, host, committed):
        self.host = host
        self.committed = committed

    def adj(self, v):
        return [u for u in self.host.adj(v) if norm_edge(u, v) not in self.committed]

    def has(self, u, v):
        return self.host.has_edge(u, v) and norm_edge(u, v) not in self.committed


class TestEdgeKeys:
    @pytest.mark.parametrize("n", [3, 40, 300])
    def test_view_matches_the_tuple_reference(self, n):
        rnd = random.Random(n)
        for q in (0.1, 0.5, 1.0):
            host = Graph.from_pairs(n, ((u, v) for u in range(n) for v in range(u + 1, n)
                                        if rnd.random() < q))
            edges = sorted(host.edges)
            for share in (0.0, 0.3, 0.9):
                committed = {e for e in edges if rnd.random() < share}
                ref = TupleGammaView(host, set(committed))
                keyed = GammaView(host, {edge_key(n, u, v) for u, v in committed})
                from_tuples = GammaView(host, committed)
                # take and give change both views by the same edges
                moved = rnd.sample(edges, min(len(edges), 5))
                ref.committed.update(moved[:3])
                keyed.take([edge_key(n, v, u) for u, v in moved[:3]])
                ref.committed.difference_update(moved[3:])
                keyed.give([edge_key(n, u, v) for u, v in moved[3:]])
                assert keyed.committed == {edge_key(n, u, v) for u, v in ref.committed}
                assert from_tuples.committed == {edge_key(n, u, v) for u, v in committed}
                for v in sorted({0, n - 1} | set(rnd.sample(range(n), min(n, 30)))):
                    assert keyed.adj(v) == ref.adj(v), (q, share, v)
                pairs = [(u, v) for u in range(n) for v in range(n)] if n <= 40 else [
                    (rnd.randrange(n), rnd.randrange(n)) for _ in range(3000)
                ] + [(0, n - 1), (n - 1, 0)] + [(v, u) for u, v in edges[:50]]
                for u, v in pairs:
                    # both orders, and u == v, which is never an edge
                    assert keyed.has(u, v) == ref.has(u, v), (q, share, u, v)

    @given(st.integers(min_value=2, max_value=500).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_sorted_keys_map_back_to_sorted_tuples(self, n_pairs):
        n, pairs = n_pairs
        keys = {edge_key(n, u, v) for u, v in pairs}
        assert [divmod(k, n) for k in sorted(keys)] == sorted({norm_edge(u, v) for u, v in pairs})

    def test_cover_keys_name_the_cover_edges(self):
        cover = [[5, 3, 4], [2, 0, 1, 6]]
        assert rotation._cover_keys(cover, 7) == {
            edge_key(7, u, v) for u, v in cycle_cover_edges(cover)
        }


# SHA-256 of the Hamilton cycles and transcripts of convert_all at n=120,
# p0=0.5, eta=0.05, on the 2-factors of the fixture recorded at 8d9b591;
# seeds 4 and 8 each make one search that reaches the re-anchor at the root.
CONVERSION_DIGESTS = {
    3: "1315faf0768d009d102418c968beffa397ae6fd1f66fca3a8a5a14014c800db4",
    4: "5034bd4cf379c327762e419203a19cf203c478e71bf933716a0f7fffbd92b03f",
    5: "001858e26bb76a2c3bad42ee2a419b5092be5e9092ea5503d044509499010eb1",
    8: "61fa0dd449b0d365535f55ab7080ebe6ac524a94d858e6c59035070b4f7b73e9",
}


def record_obj(rec):
    """A transcript record as the JSON object the pinned digests hash."""
    return {
        "step": rec.step,
        "kind": rec.kind,
        "pivot": rec.pivot,
        "deleted": list(rec.deleted) if rec.deleted else None,
        "added": list(rec.added) if rec.added else None,
    }


@pytest.mark.parametrize("seed", sorted(CONVERSION_DIGESTS))
def test_conversion_digest_pinned(seed):
    params, s, factors = scenario(120, 0.5, 0.05, seed)
    conv = convert_all(factors, s.g0, s.g2, params)
    doc = {
        "cycles": conv.hamilton_cycles,
        "transcripts": [
            [record_obj(rec) for rec in conv.transcripts[fi]] for fi in sorted(conv.transcripts)
        ],
    }
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == CONVERSION_DIGESTS[seed]


# Two edge-disjoint cycle covers of 16 vertices plus a few reservoir edges.
# With max_levels=2, factor 0 rotates twice in its second step, closes, and
# finds no escape edge: a dead end after rotations, whose second rotation
# deletes the edge the first step added.  Factor 1 then closes on (0, 2),
# an edge that factor 0's rotations added and its dead end released.
DEADEND_COVERS = [
    [[15, 14, 10, 0, 11, 8, 6, 9], [1, 3, 5, 4], [2, 12, 7, 13]],
    [[13, 6, 11, 1, 5, 7, 0, 14, 4, 15], [9, 8, 12], [2, 3, 10]],
]
DEADEND_EXTRA = [(0, 2), (2, 6), (2, 14), (6, 7), (6, 10), (6, 14), (7, 9), (7, 10),
                 (7, 11), (7, 14), (9, 11), (9, 14), (10, 11), (10, 12), (11, 14)]
# SHA-256 of the cycles, per-factor outcomes, ledger and transcripts,
# recorded while the reservoir still followed each step after its records
DEADEND_DIGEST = "da0cda7bc6db81c06b00696be495ff75a17e62dc19f7b88efea95c9a49cffeaf"


def test_deadend_after_rotations_pinned(monkeypatch):
    edges = set(DEADEND_EXTRA)
    for cover in DEADEND_COVERS:
        edges |= cycle_cover_edges(cover)
    g0 = Graph(16, sorted(edges))
    params = Params(n=16, p0=0.3, eta=0.05, seed=0)
    limit_search(monkeypatch, max_levels=2)
    for audit in (False, True):
        conv = convert_all(DEADEND_COVERS, g0, Graph(16), params, audit=audit)
        assert conv.audit_failures == []
        assert [(o["factor"], o["outcome"], o.get("deadend")) for o in conv.per_factor] == [
            (0, "abandoned", True), (1, "hamilton", None)
        ]
        last = conv.transcripts[0][-1].step
        assert [rec.kind for rec in conv.transcripts[0] if rec.step == last] == ["rotate"] * 2
        doc = {
            "cycles": conv.hamilton_cycles,
            "per_factor": conv.per_factor,
            "ledger": [asdict(row) for row in conv.ledger],
            "transcripts": [
                [record_obj(rec) for rec in conv.transcripts[fi]]
                for fi in sorted(conv.transcripts)
            ],
        }
        digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
        assert digest == DEADEND_DIGEST


@pytest.mark.parametrize("cover,missing,steps", [
    # an edge of factor 0 that its first step keeps in F*
    (0, (0, 11), [1]),
    # an edge of factor 1: pending while factor 0 runs, in F* at step 3
    (1, (2, 10), [1, 3]),
])
def test_audit_flags_a_factor_edge_outside_g0(cover, missing, steps, monkeypatch):
    edges = set(DEADEND_EXTRA)
    for c in DEADEND_COVERS:
        edges |= cycle_cover_edges(c)
    assert missing in cycle_cover_edges(DEADEND_COVERS[cover])
    g0 = Graph(16, sorted(edges - {missing}))
    params = Params(n=16, p0=0.3, eta=0.05, seed=0)
    limit_search(monkeypatch, max_levels=2)
    conv = convert_all(DEADEND_COVERS, g0, Graph(16), params, audit=True)
    assert conv.audit_failures == [f"edge conservation broken at step {s}" for s in steps]


# Cover lists that repeat a cover share edges between factors, so the
# finished edges and the pending factors overlap and the audit must compare
# the committed set with their union built for the attempt.  The message
# counts and SHA-256 of audit_failures (compact JSON) were recorded before
# the audit first tested the parts of the committed set one by one.
SHARED_COVER_AUDITS = {
    (0, 0): (23, "76acb959c3384eaa391b4b4af4d70eb6276519c483cba59752a2473bb5d3c230"),
    (1, 0, 1): (19, "761abaf7580eb32d53604ce5fdb7b544174d59e5c6d3e782698f73b89cf74c6f"),
}


@pytest.mark.parametrize("covers", sorted(SHARED_COVER_AUDITS))
def test_audit_of_covers_that_share_edges_pinned(covers, monkeypatch):
    edges = set(DEADEND_EXTRA)
    for c in DEADEND_COVERS:
        edges |= cycle_cover_edges(c)
    g0 = Graph(16, sorted(edges))
    params = Params(n=16, p0=0.3, eta=0.05, seed=0)
    factors = [DEADEND_COVERS[i] for i in covers]
    limit_search(monkeypatch, max_levels=2)
    plain, audited = (
        convert_all(factors, g0, Graph(16), params, audit=audit) for audit in (False, True)
    )
    assert audited.hamilton_cycles == plain.hamilton_cycles
    assert audited.per_factor == plain.per_factor
    count, digest = SHARED_COVER_AUDITS[covers]
    assert len(audited.audit_failures) == count
    got = hashlib.sha256(
        json.dumps(audited.audit_failures, separators=(",", ":")).encode()).hexdigest()
    assert got == digest


# The audit's verdicts with the persistent reservoir broken on purpose, at
# n=60, p0=0.6, eta=0.3, on the 2-factors of the fixture recorded at
# 8d9b591: for each run, the steps at which each of the three original
# audit checks reports.  A closing step is audited before F* joins the
# finished edges, so take_off's conservation steps include closes that
# reuse a finished edge.  The give_drop7 fault drops every 7th ``give``
# call, so its rows pin the number of those calls too.
AUDIT_KINDS = {
    "persistent reservoir differs": "drift",
    "untraceable reservoir consumption": "consumption",
    "edge conservation broken": "conservation",
}
AUDIT_VERDICTS = {
    (0, "none"): {},
    (0, "give_off"): {"drift": "1-29"},
    (0, "take_off"): {"drift": "1-32", "consumption": "2-32", "conservation": "9-11,14,17,26,30"},
    (0, "give_drop7"): {"drift": "6-32"},
    (1, "none"): {},
    (1, "give_off"): {"drift": "1-34"},
    (1, "take_off"): {"drift": "1-34", "consumption": "2-34", "conservation": "15,25-27,29"},
    (1, "give_drop7"): {"drift": "7-34"},
    (2, "none"): {},
    (2, "give_off"): {"drift": "1-37"},
    (2, "take_off"): {"drift": "1-37", "consumption": "2-37", "conservation": "15,18,36-37"},
    (2, "give_drop7"): {"drift": "5-37"},
    (3, "none"): {},
    (3, "give_off"): {"drift": "1-48"},
    (3, "take_off"): {"drift": "1-48", "consumption": "2-48", "conservation": "14,25-28,31,34,44-46,48"},
    (3, "give_drop7"): {"drift": "5-48"},
}


def reservoir_fault(name):
    """GammaView methods that replace the real ones for fault ``name``."""
    real_give, real_take = GammaView.give, GammaView.take
    calls = itertools.count(1)

    def give_all_but_every_7th(self, edges):
        if next(calls) % 7:
            real_give(self, edges)

    def take_all_but_every_5th(self, edges):
        if next(calls) % 5:
            real_take(self, edges)

    def take_and_free_a_stray_every_9th(self, edges):
        # every 9th take also releases the smallest other committed edge
        edges = list(edges)
        real_take(self, edges)
        if next(calls) % 9 == 0:
            real_give(self, [min(self.committed - set(edges))])

    def give_a_stray_every_9th(self, edges):
        # the smallest committed edge leaves in place of the given ones
        real_give(self, edges if next(calls) % 9 else [min(self.committed)])

    def take_a_stray_every_9th(self, edges):
        # the smallest reservoir edge is committed in place of the taken ones
        if next(calls) % 9 == 0:
            n = self.host.n
            edges = [min({edge_key(n, u, v) for u, v in self.host.edges} - self.committed)]
        real_take(self, edges)

    return {
        "none": {},
        "give_off": {"give": lambda self, edges: None},
        "take_off": {"take": lambda self, edges: None},
        "give_drop7": {"give": give_all_but_every_7th},
        "take_drop5": {"take": take_all_but_every_5th},
        "take_frees9": {"take": take_and_free_a_stray_every_9th},
        "give_swap9": {"give": give_a_stray_every_9th},
        "take_swap9": {"take": take_a_stray_every_9th},
    }[name]


def expand_steps(spec):
    """'1-3,7' -> [1, 2, 3, 7]"""
    out = []
    for part in filter(None, spec.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


@pytest.mark.parametrize("seed,fault", sorted(AUDIT_VERDICTS))
def test_audit_verdicts_under_faults_pinned(seed, fault, monkeypatch):
    params, s, factors = scenario(60, 0.6, 0.3, seed)
    for attr, method in reservoir_fault(fault).items():
        monkeypatch.setattr(GammaView, attr, method)
    conv = convert_all(factors, s.g0, s.g2, params, audit=True)
    got = []
    for msg in conv.audit_failures:
        kind = next((k for text, k in AUDIT_KINDS.items() if text in msg), None)
        if kind is not None:
            got.append((int(re.search(r"step (\d+)", msg).group(1)), kind))
    # one step's messages come in the order the checks run
    order = list(AUDIT_KINDS.values())
    expected = sorted(
        ((step, kind) for kind, spec in AUDIT_VERDICTS[seed, fault].items()
         for step in expand_steps(spec)),
        key=lambda sk: (sk[0], order.index(sk[1])),
    )
    assert got == expected
    if fault == "none":
        assert conv.audit_failures == []


@pytest.mark.parametrize("seed", [0, 1])
def test_audit_flags_a_closed_cycle_that_reuses_a_finished_edge(seed, monkeypatch):
    # with take_off nothing is committed, so a later cycle may reuse an
    # edge of an earlier one; the step that closes it must break edge
    # conservation, since its cycle's edges cannot be both finished and new
    params, s, factors = scenario(60, 0.6, 0.3, seed)
    monkeypatch.setattr(GammaView, "take", lambda self, edges: None)
    conv = convert_all(factors, s.g0, s.g2, params, audit=True)
    closing = [conv.transcripts[o["factor"]][-1].step
               for o in conv.per_factor if o["outcome"] == "hamilton"]
    assert len(closing) == len(conv.hamilton_cycles)
    earlier, reusing = set(), []
    for step, cyc in zip(closing, conv.hamilton_cycles):
        edges = cycle_cover_edges([cyc])
        if edges & earlier:
            reusing.append(step)
        earlier |= edges
    assert reusing
    flagged = {int(re.search(r"step (\d+)", msg).group(1))
               for msg in conv.audit_failures if "edge conservation broken" in msg}
    assert set(reusing) <= flagged


def test_audit_traces_returned_edges(monkeypatch):
    # a reservoir that never gets edges back still holds what each step
    # released; the return check names those edges, in sorted order, and
    # only at steps that released some (here all but 24 and 27)
    params, s, factors = scenario(60, 0.6, 0.3, 6)
    monkeypatch.setattr(GammaView, "give", lambda self, edges: None)
    conv = convert_all(factors, s.g0, s.g2, params, audit=True)
    returns = [msg for msg in conv.audit_failures if "untraceable reservoir return" in msg]
    steps = [int(re.search(r"step (\d+)", msg).group(1)) for msg in returns]
    assert steps == expand_steps("1-23,25-26,28-32")
    for msg in returns:
        edges = [tuple(e) for e in ast.literal_eval(msg[msg.index("["):])]
        assert edges and edges == sorted(edges)


# SHA-256 of every audited conversion's full audit_failures, Hamilton cycles
# and per-factor outcomes under each reservoir fault, at n=48, p0=0.6,
# eta=0.3, seeds 0-2, on the 2-factors of the fixture recorded at 8d9b591,
# with the default search limits and with max_states=2, max_levels=1.
AUDIT_DIGESTS = {
    "none": "3e75c950a21b5b81ee76b16fc421fe7d1616f98ab4d0cb538f93ebe89f99aa05",
    "give_off": "4ac17cdcb8b1a572f276169bacfed88bf3adef06413fe83b51624ec83741f841",
    "take_off": "82fec3d377955ba91616dc228cb10f71f10ceff81504129d51e5c1b3b344798d",
    "give_drop7": "9c2a2f32fb0e061cadb0e2b751e26f067d01475ccb065ba977dbad738943f9c8",
    "take_drop5": "4d9667ff7c48b3dcfd8fec2ff32c0828f79499d9f2f59a265abb83de11fb1551",
    "take_frees9": "f510ae5c8a7c965dccf7648a94394deff77f3f51be3435ba77a4e2b6389b3b8e",
    "give_swap9": "c15001c0871f41127ebc166b09e7811b2b901d7cfc2f9c11cd4c519d4c9fce4a",
    "take_swap9": "64d69557dfac5db20a0a83f3c314cf9dde0f9272edad45badcec4ef5ad49bee1",
}
AUDIT_LIMITS = [(2000, 64), (2, 1)]


@pytest.mark.parametrize("fault", sorted(AUDIT_DIGESTS))
def test_audit_messages_digest_pinned(fault, monkeypatch):
    runs = []
    for seed in range(3):
        params, s, factors = scenario(48, 0.6, 0.3, seed)
        for limits in AUDIT_LIMITS:
            for attr, method in reservoir_fault(fault).items():
                monkeypatch.setattr(GammaView, attr, method)
            limit_search(monkeypatch, *limits)
            conv = convert_all(factors, s.g0, s.g2, params, audit=True)
            monkeypatch.undo()
            runs.append({"audit_failures": conv.audit_failures,
                         "cycles": conv.hamilton_cycles, "per_factor": conv.per_factor})
    if fault == "none":
        assert not any(run["audit_failures"] for run in runs)
    else:
        assert all(run["audit_failures"] for run in runs)
    digest = hashlib.sha256(json.dumps(runs, separators=(",", ":")).encode()).hexdigest()
    assert digest == AUDIT_DIGESTS[fault]


@pytest.mark.parametrize("n,seed,limits", [
    (60, 0, None), (90, 1, None), (120, 2, None),
    # abandons four factors and retries one of them, which is abandoned again
    (60, 31, (2, 1)),
])
def test_audit_only_observes(n, seed, limits, monkeypatch):
    params, s, factors = scenario(n, 0.6, 0.3, seed)
    if limits:
        limit_search(monkeypatch, *limits)
    plain, audited = (
        convert_all(factors, s.g0, s.g2, params, audit=audit) for audit in (False, True)
    )
    assert audited.audit_failures == []
    if limits:
        assert any(o["pass"] == 2 for o in plain.per_factor)
    assert audited.hamilton_cycles == plain.hamilton_cycles
    assert audited.per_factor == plain.per_factor
    assert audited.ledger == plain.ledger
    assert audited.transcripts == plain.transcripts
    assert audited.earlier_transcripts == plain.earlier_transcripts


def test_unaudited_conversion_builds_no_audit(monkeypatch):
    # with the audit off, conversion never constructs the audit object, so
    # the audit costs one None test per step; this run abandons and retries
    params, s, factors = scenario(56, 0.4, 0.5, 21)
    limit_search(monkeypatch, 2, 1)
    plain = convert_all(factors, s.g0, s.g2, params)

    def refuse(*args, **kwargs):
        raise AssertionError("an unaudited conversion built the audit")

    monkeypatch.setattr(rotation, "_ConversionAudit", refuse)
    patched = convert_all(factors, s.g0, s.g2, params, audit=False)
    assert patched.earlier_transcripts and patched.audit_failures == []
    assert patched.hamilton_cycles == plain.hamilton_cycles
    assert patched.per_factor == plain.per_factor
    assert patched.ledger == plain.ledger
    assert patched.transcripts == plain.transcripts
    assert patched.earlier_transcripts == plain.earlier_transcripts
    # the patch is in effect: an audited run reaches it
    with pytest.raises(AssertionError, match="built the audit"):
        convert_all(factors, s.g0, s.g2, params, audit=True)


class TestReplayValidation:
    def test_rejects_rotation_away_from_the_path_ends(self):
        # the broken path is 0-5-4-3-2-1; pivot 4 rotates the tail 1
        transcript = [
            TranscriptRecord(step=0, kind="break", deleted=(0, 1)),
            TranscriptRecord(step=1, kind="rotate", pivot=4, deleted=(3, 4), added=(1, 4)),
        ]
        assert replay([[0, 1, 2, 3, 4, 5]], transcript, 6) == [0, 5, 4, 1, 2, 3]
        transcript[1].added = (2, 4)  # would rotate the inner vertex 2
        with pytest.raises(ValueError, match="not a path end"):
            replay([[0, 1, 2, 3, 4, 5]], transcript, 6)

    def test_rejects_reopening_an_edge_off_the_closed_cycle(self):
        # the broken path is 0-2-1; closing it and reopening (1, 2) leaves
        # 1-0-2, whose tail 2 absorbs the triangle 3-4-5
        transcript = [
            TranscriptRecord(step=0, kind="break", deleted=(0, 1)),
            TranscriptRecord(step=1, kind="close", deleted=(1, 2), added=(0, 1)),
            TranscriptRecord(step=1, kind="absorb", deleted=(3, 4), added=(2, 3)),
        ]
        assert replay([[0, 1, 2], [3, 4, 5]], transcript, 6) == [1, 0, 2, 3, 5, 4]
        transcript[1].deleted = (3, 4)  # an edge of the other cycle
        with pytest.raises(ValueError, match="not on the closed cycle"):
            replay([[0, 1, 2], [3, 4, 5]], transcript, 6)

    def test_rejects_tampered_transcript(self):
        g0, factors = two_triangle_fixture([(1, 3), (0, 4)])
        conv = convert_all(factors, g0, Graph(6), desk_params())
        transcript = list(conv.transcripts[0])
        transcript[1].deleted = (4, 5)  # claim a different absorb deletion
        with pytest.raises(ValueError):
            replay(factors[0], transcript, 6)
