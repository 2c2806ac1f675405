"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 1 is an empirical end-to-end target at fixed parameters and
thresholds; at this scale the dense split's minimum degree sits far below
the requested factor degree, capping the number of peelable 2-factors, so
the criterion fails for structural reasons (see scripts/calibrate.py and
the repository notes).  It is asserted at its stated thresholds regardless.
"""
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from hamdecomp.factors import extract_r_factor, extract_with_retry, tutte_check_exhaustive
from hamdecomp.graph import BrokenTwoFactor, Graph, cycle_cover_edges, norm_edge
from hamdecomp.harness import run, verify_result
from hamdecomp.oracles import (
    count_2factors_brute,
    fracsum_exact,
    ordered_2factor_count,
    perm_lower_bound_check,
)
from hamdecomp.rotation import (
    GammaView,
    absorb_cycle,
    break_to_path,
    convert_all,
    replay,
    rotate,
)
from hamdecomp.sampler import Params, sample_gnp, split
from hamdecomp.twofactor import euler_orient, peel_all

from cover_checks import broken_edges, path_edges, validate_broken, validate_two_factors


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestCriterion1EndToEnd:
    def test_end_to_end_decomposition(self):
        n, p0, eta = 1000, 0.1, 0.25
        target = math.ceil((1 - eta) * n * p0 / 2)
        assert target == 38
        successes = 0
        rows = []
        for seed in range(10):
            t0 = time.perf_counter()
            result = run(Params(n=n, p0=p0, eta=eta, seed=seed))
            wall = time.perf_counter() - t0
            ok = (
                result.achieved_cycles >= target
                and result.edge_coverage >= 0.70
                and wall <= 600.0
            )
            successes += ok
            rows.append(
                f"seed {seed}: cycles {result.achieved_cycles}/{target} "
                f"coverage {result.edge_coverage:.3f} r {result.r_achieved} "
                f"wall {wall:.1f}s"
            )
        detail = (
            f"end-to-end n={n} p0={p0} eta={eta}: {successes}/10 seeds met "
            f">= {target} cycles at coverage >= 0.70 (need >= 8) | "
            + "; ".join(rows)
        )
        report(1, successes >= 8, detail)


class TestCriterion2TutteEquivalence:
    def test_oracle_equivalence(self):
        rnd = random.Random(20240817)
        graphs = 0
        checks = 0
        disagreements = []
        while graphs < 200:
            n = rnd.randint(2, 8)
            p = rnd.choice([0.15, 0.3, 0.5, 0.7, 0.9])
            g = Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rnd.random() < p:
                        g.add_edge(u, v)
            graphs += 1
            for r in range(1, n):
                if (r * n) % 2:
                    continue
                checks += 1
                extracted = extract_r_factor(g, r) is not None
                exists = tutte_check_exhaustive(g, r).exists
                if extracted != exists:
                    disagreements.append((n, sorted(g.edges), r))
        report(
            2,
            not disagreements,
            f"Tutte oracle vs extraction: {graphs} graphs, {checks} (graph, r) "
            f"checks, {len(disagreements)} disagreements",
        )


class TestCriterion3DecompositionExactness:
    def test_peel_exactness(self):
        cases = [("C_6", Graph.cycle(6), 2), ("K_5", Graph.complete(5), 4),
                 ("K_7", Graph.complete(7), 6)]
        for seed in (0, 1):
            params = Params(n=150, p0=0.5, eta=0.3, seed=seed)
            s = split(sample_gnp(params.n, params.p0, params.seed), params)
            f, r = extract_with_retry(s.g1, params.r1)
            assert f is not None
            cases.append((f"sampled n={params.n} seed={seed}", f, r))
        failures = []
        for name, h, r in cases:
            try:
                o = euler_orient(h)
                ind = o.in_degrees()
                for v in range(h.n):
                    if not (len(o.out[v]) == ind[v] == h.degree(v) // 2):
                        raise AssertionError(f"orientation unbalanced at {v}")
                tf = peel_all(h, r)
                if len(tf.factors) != r // 2:
                    raise AssertionError(f"{len(tf.factors)} factors, expected {r // 2}")
                union: set = set()
                for fac in tf.factors:
                    if any(len(c) < 3 for c in fac):
                        raise AssertionError("cycle shorter than 3")
                    es = cycle_cover_edges(fac)
                    if es & union:
                        raise AssertionError("factors share an edge")
                    union |= es
                if union != h.edges:
                    raise AssertionError("union of factors misses edges")
                validate_two_factors(tf)
            except (AssertionError, ValueError) as exc:
                failures.append(f"{name}: {exc}")
        report(
            3,
            not failures,
            f"peel exactness on {len(cases)} hosts "
            f"(C_6, K_5, K_7, 2 sampled factors): {failures or 'all exact'}",
        )


class TestCriterion4CountingOracles:
    def test_counting_oracles(self):
        failures = []
        # fracsum: recurrence identity and the log bound, exact arithmetic
        for n in range(3, 61):
            for k in range(1, n // 3 + 1):
                rep = fracsum_exact(n, k)
                if rep["holds"] is not True:
                    failures.append(f"fracsum bound fails at ({n},{k})")
                if k >= 2:
                    rhs = sum(
                        (Fraction(1, a) * fracsum_exact(n - a, k - 1)["value"]
                         for a in range(3, n - 3 * (k - 1) + 1)),
                        Fraction(0),
                    )
                    if rep["value"] != rhs:
                        failures.append(f"fracsum recurrence fails at ({n},{k})")
        # brute censuses vs closed forms
        k5 = count_2factors_brute(Graph.complete(5))
        k6 = count_2factors_brute(Graph.complete(6))
        if k5.total != 12 or k5.total != ordered_2factor_count(5, (5,)):
            failures.append(f"K_5 census {k5.total} != 12")
        if k6.total != 70:
            failures.append(f"K_6 census {k6.total} != 70")
        if k6.by_cycle_count.get(1) != ordered_2factor_count(6, (6,)):
            failures.append("K_6 Hamilton count mismatch")
        if k6.by_cycle_count.get(2) != ordered_2factor_count(6, (3, 3)) // 2:
            failures.append("K_6 triangle-pair count mismatch")
        # perm lower bound on even-regular graphs with n <= 8
        tested = 0
        rnd = random.Random(7)
        regulars: dict[tuple, Graph] = {}
        for n in range(4, 9):
            for r in range(2, n, 2):
                regulars[(n, r, "base")] = None  # placeholder for sampling below
        for n in range(3, 9):
            regulars[(n, 2, "cycle")] = Graph.cycle(n)
        for n in (5, 7):
            regulars[(n, n - 1, "complete")] = Graph.complete(n)
        for n in range(4, 9):
            for r in range(2, n, 2):
                for attempt in range(30):
                    g = Graph(n)
                    for u in range(n):
                        for v in range(u + 1, n):
                            if rnd.random() < 0.7:
                                g.add_edge(u, v)
                    if g.min_degree() < r:
                        continue
                    f = extract_r_factor(g, r)
                    if f is not None:
                        regulars[(n, r, f"sample{attempt}")] = f
                        if sum(1 for k in regulars if k[0] == n and k[1] == r) >= 4:
                            break
        for key, h in regulars.items():
            if h is None:
                continue
            repb = perm_lower_bound_check(h)
            tested += 1
            if repb["holds"] is not True:
                failures.append(f"perm bound fails on {key}")
        report(
            4,
            not failures and tested >= 20,
            f"fracsum recurrence+bound over 3k<=n<=60, K_5/K_6 censuses vs "
            f"closed forms, perm bound on {tested} even-regular graphs: "
            f"{failures or 'all exact'}",
        )


@dataclass
class _FuzzInstance:
    host: Graph
    broken: BrokenTwoFactor


def _fresh_instance(rnd: random.Random, n: int = 16) -> _FuzzInstance:
    verts = list(range(n))
    rnd.shuffle(verts)
    cycles = []
    idx = 0
    # leave at least 2 vertices for the path
    while n - idx >= 5 and rnd.random() < 0.7:
        k = rnd.randint(3, min(5, n - idx - 2))
        cycles.append(verts[idx : idx + k])
        idx += k
    path = verts[idx:]
    broken = BrokenTwoFactor(n=n, cycles=cycles, path=path)
    host = Graph(n, broken_edges(broken))
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < 0.35:
                host.add_edge(u, v)
    validate_broken(broken, host)
    return _FuzzInstance(host=host, broken=broken)


class TestCriterion5RotationEngine:
    TARGET = 100_000

    def test_fuzzed_mutations(self):
        rnd = random.Random(99)
        inst = _fresh_instance(rnd)
        mutations = 0
        kinds = {"rotate": 0, "absorb": 0, "close": 0}
        while mutations < self.TARGET:
            broken, host = inst.broken, inst.host
            gamma = GammaView(host, broken_edges(broken))
            tail = broken.path[-1]
            head = broken.path[0]
            pos = {v: i for i, v in enumerate(broken.path)}
            last = len(broken.path) - 1
            offpath = broken.offpath_vertices()
            pivots = [
                u for u in gamma.adj(tail)
                if u in pos and 1 <= pos[u] <= last - 2
            ]
            entries = [u for u in gamma.adj(tail) if u in offpath]
            closable = gamma.has(tail, head) and last >= 2
            ops = (["rotate"] if pivots else []) + \
                  (["absorb"] * 3 if entries else []) + \
                  (["close"] * 3 if closable else [])
            if not ops:
                inst = _fresh_instance(rnd)
                continue
            op = rnd.choice(ops)
            before_vertices = sorted(broken.path) + sorted(
                v for c in broken.cycles for v in c
            )
            if op == "rotate":
                pivot = rnd.choice(pivots)
                new_path, deleted, added = rotate(broken.path, pivot)
                assert added == norm_edge(pivot, tail)
                assert gamma.has(*added)
                assert deleted in path_edges(broken.path)
                broken.path = new_path
            elif op == "absorb":
                entry = rnd.choice(entries)
                added, deleted = absorb_cycle(broken, entry)
                assert added == norm_edge(tail, entry)
                assert host.has_edge(*added)
            else:  # close
                if not broken.cycles:
                    cycle = list(broken.path)
                    assert host.verify_hamilton_cycle(cycle)
                    kinds["close"] += 1
                    mutations += 1
                    inst = _fresh_instance(rnd)
                    continue
                cstar = list(broken.path)
                escape = None
                for y in cstar:
                    for z in gamma.adj(y):
                        if z in offpath:
                            escape = (y, z)
                            break
                    if escape:
                        break
                if escape is None:
                    inst = _fresh_instance(rnd)
                    continue
                y, z = escape
                yi = cstar.index(y)
                broken.path = cstar[yi + 1 :] + cstar[: yi + 1]
                added, deleted = absorb_cycle(broken, z)
                assert host.has_edge(*added)
            # structural invariants after every mutation
            validate_broken(broken, host)
            after_vertices = sorted(broken.path) + sorted(
                v for c in broken.cycles for v in c
            )
            assert sorted(after_vertices) == sorted(before_vertices)
            kinds[op] += 1
            mutations += 1
        report(
            5,
            mutations >= self.TARGET,
            f"{mutations} fuzzed mutations preserved invariants "
            f"(rotate {kinds['rotate']}, absorb {kinds['absorb']}, "
            f"close {kinds['close']})",
        )

    def test_replay_and_independent_verify(self, tmp_path):
        params = Params(n=120, p0=0.5, eta=0.3, seed=5)
        s = split(sample_gnp(params.n, params.p0, params.seed), params)
        f, r = extract_with_retry(s.g1, params.r1)
        tf = peel_all(f, r)
        conv = convert_all(tf.factors, s.g0, s.g2, params)
        assert conv.hamilton_cycles
        for o in conv.per_factor:
            if o["outcome"] != "hamilton":
                continue
            fi = o["factor"]
            final = replay(tf.factors[fi], conv.transcripts[fi], params.n)
            assert final in conv.hamilton_cycles  # bit-exact reproduction
        out = tmp_path / "r.json"
        graph_out = tmp_path / "g.txt"
        result = run(params, out_path=str(out), graph_out=str(graph_out))
        verdict = verify_result(str(out), str(graph_out))
        assert verdict["ok"] and verdict["cycles"] == result.achieved_cycles

    def test_golden_fixture(self):
        g0 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (1, 3), (0, 4)])
        factors = [[[0, 1, 2], [3, 4, 5]]]
        conv = convert_all(factors, g0, Graph(6), Params(n=6, p0=0.9, eta=0.5))
        records = [
            (r.kind, r.pivot, r.deleted, r.added) for r in conv.transcripts[0]
        ]
        golden = [
            ("break", None, (0, 1), None),
            ("absorb", None, (3, 4), (1, 3)),
            ("close", None, None, (0, 4)),
        ]
        ok = (
            records == golden
            and conv.hamilton_cycles == [[0, 2, 1, 3, 5, 4]]
            and conv.total_rotations == 0
            and conv.steps == 2
        )
        report(
            5,
            ok,
            "rotation engine: 1e5 fuzz mutations (see above), bit-exact "
            "replay, independent verify, golden two-triangle transcript "
            f"{'reproduced' if ok else 'MISMATCH: ' + str(records)}",
        )


class TestCriterion6EdgeConservation:
    def test_edge_conservation(self):
        failures = []
        steps_checked = 0
        for seed in range(10):
            params = Params(n=500, p0=0.1, eta=0.25, seed=seed)
            result = run(params, audit=True)
            conv = result.conversion
            assert conv is not None
            if conv.audit_failures:
                failures.append(f"seed {seed}: {conv.audit_failures[:2]}")
            steps_checked += conv.steps
        report(
            6,
            not failures,
            f"edge-conservation partition checked at {steps_checked} step "
            f"boundaries across 10 runs at n=500: {failures or 'exact'}",
        )


class TestCriterion7BudgetLedger:
    def test_budget_ledger(self):
        failures = []
        records = 0
        budgets_seen = 0
        for seed in range(10):
            params = Params(n=500, p0=0.1, eta=0.25, seed=seed)
            s = split(sample_gnp(params.n, params.p0, params.seed), params)
            f, r = extract_with_retry(s.g1, params.r1)
            if f is None:
                failures.append(f"seed {seed}: extraction failed")
                continue
            tf = peel_all(f, r)
            conv = convert_all(tf.factors, s.g0, s.g2, params, mode="report",
                               audit=True)
            # zero unexplained consumption: the audit cross-checks every
            # removed reservoir edge against the transcript each step
            untraceable = [m for m in conv.audit_failures if "untraceable" in m]
            if untraceable:
                failures.append(f"seed {seed}: {untraceable[:2]}")
            per_step_added: dict[int, set] = {}
            per_step_returned: dict[int, set] = {}
            for transcript in conv.transcripts.values():
                for rec in transcript:
                    if rec.added:
                        per_step_added.setdefault(rec.step, set()).add(rec.added)
                    if rec.deleted:
                        per_step_returned.setdefault(rec.step, set()).add(rec.deleted)
            for rec in conv.ledger:
                records += 1
                if not set(rec.consumed) <= per_step_added.get(rec.step, set()):
                    failures.append(f"seed {seed} step {rec.step}: consumed edge "
                                    "not in transcript")
                if not set(rec.returned) <= per_step_returned.get(rec.step, set()):
                    failures.append(f"seed {seed} step {rec.step}: returned edge "
                                    "not in transcript")
                if params.budgets_defined:
                    budgets_seen += 1
                    cap = 2 * params.e0 + 2 * params.e1 + 2
                    if len(rec.consumed) > cap:
                        failures.append(f"seed {seed} step {rec.step}: cap exceeded")
                else:
                    if rec.cap is not None or rec.within_cap is not None:
                        failures.append(f"seed {seed} step {rec.step}: cap set "
                                        "despite undefined budgets")
        # exercise the cap arithmetic itself with budgets forced defined
        class _CappedParams:
            budgets_defined = True
            e0 = 2.0
            e1 = 3.0

        g0 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (1, 3), (0, 4)])
        conv = convert_all([[[0, 1, 2], [3, 4, 5]]], g0, Graph(6), _CappedParams())
        for rec in conv.ledger:
            if rec.cap != 2 * 2.0 + 2 * 3.0 + 2 or rec.within_cap is not True:
                failures.append("synthetic cap check failed")
        note = (
            "cap clause vacuous at this scale (E0/E1 undefined); "
            "cap arithmetic exercised on a synthetic budget"
            if budgets_seen == 0
            else f"{budgets_seen} capped records checked"
        )
        report(
            7,
            not failures,
            f"budget ledger: {records} step records fully traceable to "
            f"transcript edges, zero unexplained consumption; {note}; "
            f"{failures[:3] or 'ok'}",
        )
