"""Tests of the benchmark itself: every workload's op at a tiny size, the
tracer, and the output checker's rejections.

    python3 -m pytest -q perfbench
"""
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def tiny(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], n=60, p0=0.5)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_op_passes_at_tiny_size(name, tmp_path):
    w = tiny(name)
    params = w.params(wl.graph_seed(0, 0))
    checked = wl.check_op(w, params, wl.run_op(w, params, tmp_path))
    assert checked.problems == []
    assert 0 < checked.units <= checked.ceiling
    assert len(checked.digest) == 64


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_op_records_spans_and_restores_names(name, tmp_path):
    w = tiny(name)
    params = w.params(wl.graph_seed(0, 1))
    before = [getattr(m, a) for m, a, _ in wl.TRACE_TARGETS]
    t = tracer.Tracer(inspect=wl.TRACE_INSPECT)
    t.op_id = 7
    with t.installed(wl.TRACE_TARGETS), t.span("op"):
        out = wl.run_op(w, params, tmp_path, t.span)
    assert [getattr(m, a) for m, a, _ in wl.TRACE_TARGETS] == before
    assert wl.check_op(w, params, out).problems == []
    names = {rec[tracer.NAME] for rec in t.spans}
    assert {"op", "harness.sample_gnp", "harness.peel_all", "twofactor.hopcroft_karp"} <= names
    assert ("rotation.posa_search" in names) == (w.kind != "front")
    assert all(rec[tracer.OP] == 7 for rec in t.spans)
    own = t.self_times()
    assert all(x >= -1e-9 for x in own)
    assert sum(own) == pytest.approx(t.spans[0][tracer.END] - t.spans[0][tracer.START])


def test_missing_name_is_reported_absent():
    class Module:
        present = staticmethod(lambda: 1)

    t = tracer.Tracer()
    with t.installed([(Module, "gone", "m.gone"), (Module, "present", "m.present")]):
        assert Module.present() == 1
    assert t.absent == ["m.gone"]
    assert [rec[tracer.NAME] for rec in t.spans] == ["m.present"]


K5 = {(u, v) for u in range(5) for v in range(u + 1, 5)}
K6 = {(u, v) for u in range(6) for v in range(u + 1, 6)}


def test_checker_accepts_disjoint_hamilton_cycles():
    assert wl.check_hamilton_cycles(5, K5, [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]]) == []


def test_checker_rejects_repeated_vertex():
    assert wl.check_hamilton_cycles(5, K5, [[0, 1, 2, 1, 4]])


def test_checker_rejects_non_edge():
    assert wl.check_hamilton_cycles(5, K5 - {(3, 4)}, [[0, 1, 2, 3, 4]])


def test_checker_rejects_shared_edge():
    problems = wl.check_hamilton_cycles(5, K5, [[0, 1, 2, 3, 4], [0, 1, 3, 2, 4]])
    assert len(problems) == 1 and "cycle 1" in problems[0]


def test_checker_accepts_disjoint_two_factors():
    assert wl.check_two_factors(6, K6, [[[0, 1, 2], [3, 4, 5]], [[0, 3, 1, 4, 2, 5]]]) == []


def test_checker_rejects_non_spanning_two_factor():
    assert wl.check_two_factors(6, K6, [[[0, 1, 2]]])


def test_checker_rejects_two_factors_sharing_an_edge():
    assert wl.check_two_factors(6, K6, [[[0, 1, 2], [3, 4, 5]], [[0, 1, 3, 2, 4, 5]]])


def test_ceiling_is_half_the_minimum_degree():
    assert wl.ceiling(5, K5) == 2
    assert wl.ceiling(5, K5 - {(0, 1)}) == 1


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(30)]
    assert run.tail(values) == (19.0, pytest.approx(200 / 3))
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_op_times_are_counted_in_references():
    bench = run.Bench.__new__(run.Bench)
    bench.w = wl.WORKLOADS["decomp-n300"]
    timings = [(2.0, 0.01), (1.0, 0.004), (0.9, 0.005)]  # ratios 200, 250, 180
    bench.ops = [{"i": i, "seconds": secs, "ref_s": ref, "units": 3, "ceiling": 4,
                  "problems": []} for i, (secs, ref) in enumerate(timings)]
    values, _ = bench.end_to_end(setup=[0.5])
    assert values["op_ref_p50"] == pytest.approx(200.0)
    assert values["op_ref_tail"] == pytest.approx(250.0)
    assert values["units_per_kref"] == pytest.approx(1000.0 * 9 / 630)
    assert values["ceiling_share"] == pytest.approx(9 / 12)


def test_reference_samples_arrive_only_while_the_block_runs():
    with run.reference_samples() as refs:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    taken = len(refs)
    assert taken >= 3 and all(0.0 < x < 0.1 for x in refs)
    time.sleep(0.15)
    assert len(refs) == taken


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
