"""hamdecomp benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload decomp-n300 --seed 0 --seconds 40 --trace 0

Runs one op at a time until ``--seconds`` have passed, times a fixed
reference loop every 50 ms while each op runs, re-checks every op's output
outside the timed region, prints each metric by name and unit, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the calls
between layers and reports the per-layer metrics instead.  Run records and
spans go to ``.perfbench_out/`` in the checkout.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import tracer as T

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
REF_PERIOD_S = 0.05  # wall time between reference samples while an op runs
COUNT_OPS = 5  # count metrics cover this fixed prefix of a run's traced ops

# The op-time metrics are in units of the reference loop's time ("ref"): on
# a shared 2-vCPU VM the host's speed moves wall times by 30-40% between
# runs minutes apart, and the reference loop, timed while each op runs,
# moves with it.  Wall-clock figures are printed beside them.
END_TO_END = {
    "op_ref_p50": "ref",
    "op_ref_tail": "ref",
    "units_per_kref": "1/kref",
    "ceiling_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "rotation.posa_s": "s",
    "rotation.posa_calls": "count",
    "rotation.posa_call_ms_p50": "ms",
    "rotation.posa_call_ms_tail": "ms",
    "rotation.convert_s": "s",
    "rotation.convert_self_s": "s",
    "rotation.gamma_builds": "count",
    "rotation.extend": "count",
    "rotation.close": "count",
    "rotation.exhausted": "count",
    "rotation.rotations": "count",
    "rotation.converted_ratio": "ratio",
    "rotation.factors_attempted": "count",
    "factors.extract_s": "s",
    "factors.extract_calls": "count",
    "factors.gadget_builds": "count",
    "matching.hk_s": "s",
    "matching.hk_calls": "count",
    "matching.blossom_calls": "count",
    "twofactor.peel_s": "s",
    "twofactor.peel_self_s": "s",
    "twofactor.orient_s": "s",
    "twofactor.cycles_per_factor_p50": "count",
    "twofactor.cycles_per_factor_max": "count",
    "sampler.sample_s": "s",
    "sampler.split_s": "s",
    "sampler.edges": "count",
    "harness.reverify_s": "s",
    "harness.verify_result_s": "s",
    "harness.run_self_s": "s",
    "quality.ceiling_gap": "count",
    "trace.overhead_s": "s",
}


def load_program():
    """Import hamdecomp from this checkout's ``src`` (never an installed
    copy) and the workloads that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hamdecomp

    where = Path(hamdecomp.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"hamdecomp imported from {where}, not from {src}")
    import workloads

    return workloads


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum at 100."""
    s = sorted(values)
    k = len(s) - 10
    if k < 1:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop, 3000 dict reads and writes on a
    1024-entry table (about 0.4 ms): the host's speed at this moment.  The
    benchmark owns this code, so a change to the program cannot move it."""
    t = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(3_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - t


@contextmanager
def reference_samples():
    """Yield a list that gets the reference loop's time every REF_PERIOD_S
    of wall time until the block ends.  A SIGALRM handler runs the loop
    between two bytecodes of whatever the block is doing, so the samples
    see the host's speed over the same stretch of time as the block; the
    host's speed changes within seconds, so samples taken before or after
    an op would not."""
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_loop()))
    signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure_setup(args) -> list[float]:
    """Time from starting a fresh interpreter until it has imported the
    program and is ready to run its first op: the set-up a run pays.  The
    probe prints the moment it is ready; timing its exit instead would add
    the 50 ms steps in which ``subprocess`` polls a child that has a
    timeout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        t = time.monotonic()
        probe = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                               timeout=120)
        out.append(float(probe.stdout.split()[-1]) - t)
    return out


class Bench:
    def __init__(self, args, workloads):
        self.args = args
        self.wl = workloads
        self.w = workloads.WORKLOADS[args.workload]
        self.workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        ref = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.ref_digests = ref.get(args.workload, {}).get(str(args.seed), [])
        self.tracer = T.Tracer(inspect=workloads.TRACE_INSPECT)
        self.ops: list[dict] = []

    def op(self, i: int, traced: bool) -> None:
        """Run and time op i, then check its output outside the timed region."""
        params = self.w.params(self.wl.graph_seed(self.args.seed, i))
        rec = {"i": i, "graph_seed": params.seed, "traced": traced, "problems": []}
        out = None
        gc.collect()  # the previous op's garbage is not this op's time
        # the traced run reports seconds only, and samples neither kind of op
        sampler = nullcontext([]) if self.args.trace else reference_samples()
        t = time.perf_counter()
        with sampler as refs:
            try:
                if traced:
                    self.tracer.op_id = i
                    with self.tracer.installed(self.wl.TRACE_TARGETS), self.tracer.span("op"):
                        out = self.wl.run_op(self.w, params, self.workdir, self.tracer.span)
                else:
                    out = self.wl.run_op(self.w, params, self.workdir)
            except Exception:
                rec["problems"].append(traceback.format_exc(limit=3))
        rec["seconds"] = time.perf_counter() - t - sum(refs)  # the op's own time
        if not self.args.trace:
            rec["ref_s"] = statistics.mean(refs) if refs else reference_loop()
        if out is not None:
            try:
                c = self.wl.check_op(self.w, params, out)
                rec.update(units=c.units, ceiling=c.ceiling, digest=c.digest)
                rec["problems"] += c.problems
            except Exception:
                rec["problems"].append(traceback.format_exc(limit=3))
        if i < len(self.ref_digests) and "digest" in rec:
            rec["digest_changed"] = rec["digest"] != self.ref_digests[i]
        self.ops.append(rec)

    def loop(self) -> None:
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            if self.args.trace:
                # the same graph untraced and traced, alternating which goes first
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    self.op(i, traced)
            else:
                self.op(i, False)
            i += 1

    def end_to_end(self, setup: list[float]) -> tuple[dict, list[str]]:
        ops = self.ops
        secs = [r["seconds"] for r in ops]
        costs = [r["seconds"] / r["ref_s"] for r in ops]  # in references
        ok = [r for r in ops if not r["problems"]]
        units = sum(r["units"] for r in ok)
        ceil = sum(r["ceiling"] for r in ops if "ceiling" in r)
        tail_s, tail_pct = tail(secs)
        gaps = [r["ceiling"] - r["units"] for r in ops if "ceiling" in r]
        values = {
            "op_ref_p50": statistics.median(costs),
            "op_ref_tail": tail(costs)[0],
            "units_per_kref": 1000.0 * units / sum(costs),
            "ceiling_share": units / ceil if ceil else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        failed = len(ops) - len(ok)
        notes = [
            f"op_s_p50 {statistics.median(secs):.6f} s, op_s_tail {tail_s:.6f} s, "
            f"units_per_s {units / sum(secs):.6f} 1/s (wall clock)",
            f"reference loop {1000.0 * statistics.median(r['ref_s'] for r in ops):.4f} ms "
            f"(median over ops of the mean sample during the op)",
            f"op_s_tail and op_ref_tail are p{tail_pct:.0f} of {len(secs)} ops",
            f"failed_ops {failed / len(ops):.4f} ({failed} of {len(ops)})",
            f"ceiling_gap {statistics.mean(gaps) if gaps else float('nan'):.4f} "
            f"{self.w.unit}s per op below floor(min degree of G0 / 2)",
        ]
        return values, notes

    def per_layer(self) -> tuple[dict, list[str]]:
        total: dict = defaultdict(lambda: defaultdict(float))
        own: dict = defaultdict(lambda: defaultdict(float))
        calls: dict = defaultdict(lambda: defaultdict(int))
        info: dict = defaultdict(list)
        posa_ms: list[float] = []
        for rec, self_t in zip(self.tracer.spans, self.tracer.self_times()):
            op, name, d = rec[T.OP], rec[T.NAME], rec[T.END] - rec[T.START]
            total[op][name] += d
            own[op][name] += self_t
            calls[op][name] += 1
            if rec[T.INFO] is not None:
                info[op, name].append(rec[T.INFO])
            if name == "rotation.posa_search":
                posa_ms.append(1000.0 * d)
        traced = [r for r in self.ops if r["traced"]]
        op_ids = [r["i"] for r in traced]
        counted = op_ids[:COUNT_OPS]

        def med(table, name):
            return statistics.median(table[o][name] for o in op_ids)

        def per_op(name):
            return statistics.mean(calls[o][name] for o in counted)

        kinds = defaultdict(int)
        rotations = 0
        for o in counted:
            for kind, nrot in info[o, "rotation.posa_search"]:
                kinds[kind] += 1
                rotations += nrot
        conv = [x for o in counted for x in info[o, "harness.convert_all"]]
        cycles = [c for o in counted for tf in info[o, "harness.peel_all"] for c in tf]
        edges = [e for o in counted for e in info[o, "harness.sample_gnp"]]
        attempted = sum(f for _, f in conv)
        k = len(counted)
        pairs = defaultdict(dict)
        for r in self.ops:
            pairs[r["i"]][r["traced"]] = r["seconds"]
        overhead = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
        posa_tail, posa_pct = tail(posa_ms) if posa_ms else (0.0, 0.0)
        gaps = [r["ceiling"] - r["units"] for r in traced[:COUNT_OPS] if "ceiling" in r]
        values = {
            "rotation.posa_s": med(total, "rotation.posa_search"),
            "rotation.posa_calls": per_op("rotation.posa_search"),
            "rotation.posa_call_ms_p50": statistics.median(posa_ms) if posa_ms else 0.0,
            "rotation.posa_call_ms_tail": posa_tail,
            "rotation.convert_s": med(total, "harness.convert_all"),
            "rotation.convert_self_s": med(own, "harness.convert_all"),
            "rotation.gamma_builds": per_op("rotation.GammaView"),
            "rotation.extend": kinds["extend"] / k,
            "rotation.close": kinds["close"] / k,
            "rotation.exhausted": kinds["exhausted"] / k,
            "rotation.rotations": rotations / k,
            "rotation.converted_ratio": sum(h for h, _ in conv) / attempted if attempted else 0.0,
            "rotation.factors_attempted": attempted / k,
            "factors.extract_s": med(total, "harness.extract_with_retry"),
            "factors.extract_calls": per_op("factors.extract_r_factor"),
            "factors.gadget_builds": per_op("factors.build_gadget"),
            "matching.hk_s": med(total, "twofactor.hopcroft_karp"),
            "matching.hk_calls": per_op("twofactor.hopcroft_karp"),
            "matching.blossom_calls": per_op("factors.max_matching_general"),
            "twofactor.peel_s": med(total, "harness.peel_all"),
            "twofactor.peel_self_s": med(own, "harness.peel_all"),
            "twofactor.orient_s": med(total, "twofactor.euler_orient"),
            "twofactor.cycles_per_factor_p50": statistics.median(cycles) if cycles else 0.0,
            "twofactor.cycles_per_factor_max": max(cycles, default=0),
            "sampler.sample_s": med(total, "harness.sample_gnp"),
            "sampler.split_s": med(total, "harness.split"),
            "sampler.edges": statistics.mean(edges) if edges else 0.0,
            "harness.reverify_s": med(total, "harness._reverify"),
            "harness.verify_result_s": med(total, "harness.verify_result"),
            "harness.run_self_s": med(own, "harness.run"),
            "quality.ceiling_gap": statistics.mean(gaps) if gaps else 0.0,
            "trace.overhead_s": statistics.median(overhead) if overhead else 0.0,
        }
        notes = [
            f"{len(traced)} traced ops; counts are per op over the first {k}",
            f"rotation.posa_call_ms_tail is p{posa_pct:.2f} of {len(posa_ms)} calls",
            f"rotation.converted_ratio base: {attempted} factors attempted",
        ]
        if self.tracer.absent:
            notes.append("absent layers (reported as 0): " + ", ".join(self.tracer.absent))
        return values, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        Bench(args, workloads)
        print(time.monotonic())  # CLOCK_MONOTONIC: one clock for every process
        return 0

    setup = [] if args.trace else measure_setup(args)
    bench = Bench(args, workloads)
    t0 = time.perf_counter()
    bench.loop()
    wall = time.perf_counter() - t0
    if args.trace:
        values, notes = bench.per_layer()
        units = PER_LAYER
        bench.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values, notes = bench.end_to_end(setup)
        units = END_TO_END
    ops = bench.ops
    failed = sum(1 for r in ops if r["problems"])
    compared = [r["digest_changed"] for r in ops if "digest_changed" in r]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(ops)} ops in "
          f"{wall:.1f} s, closed loop, one process, one thread")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:14.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  digest_changed {sum(compared)} of {len(compared)} ops with a reference digest")
    for r in ops:
        for p in r["problems"]:
            print(f"  FAILED op {r['i']} (graph seed {r['graph_seed']}): {p}")
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "setup_probes": setup,
                    "metrics": values, "ops": ops})
    )
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
