"""Fold the run records in .perfbench_out/ into baseline.json and digests.json.

Make the runs first, from the root of a checkout, for example:

    for w in decomp-n300 front-n1200 audit-n200; do
      for s in 0 1 2 3 4 5 6 7 8 9; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 40 --trace 0
      done
      for s in 0 1 2; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 40 --trace 1
      done
    done
    python3 perfbench/record_baseline.py --commit <commit measured>

Only runs of ``run_seconds`` (BENCHMARK.json) count.  End-to-end metrics,
and the wall-clock op times printed beside them, are summarised over the
untraced runs (median and quartiles of the per-run values), per-layer
metrics over the traced runs.  The untraced runs' op digests become the
reference digests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy

from run import tail

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
# wall-clock figures of the untraced runs, kept beside the metrics in references
WALL_UNITS = {"op_s_p50": "s", "op_s_tail": "s", "units_per_s": "1/s"}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None, "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True, help="commit the runs measured")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics: dict = defaultdict(lambda: defaultdict(list))
    ops_per_run: dict = defaultdict(list)
    digests: dict = defaultdict(dict)
    wall: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(OUT_DIR.glob("run-*.json")):
        rec = json.loads(path.read_text())
        if rec["seconds"] != spec["run_seconds"]:
            continue  # a shorter trial run, not a baseline run
        key = (rec["workload"], rec["trace"])
        for name, value in rec["metrics"].items():
            metrics[key][name].append(value)
        ops_per_run[key].append(len(rec["ops"]))
        if rec["trace"] == 0:
            digests[rec["workload"]][str(rec["seed"])] = [op.get("digest", "") for op in rec["ops"]]
            secs = [op["seconds"] for op in rec["ops"]]
            done = sum(op.get("units", 0) for op in rec["ops"] if not op["problems"])
            for name, value in (("op_s_p50", statistics.median(secs)),
                                ("op_s_tail", tail(secs)[0]),
                                ("units_per_s", done / sum(secs))):
                wall[rec["workload"]][name].append(value)
    if not metrics:
        print(f"no run records in {OUT_DIR}", file=sys.stderr)
        return 1
    baseline = {
        "commit": args.commit,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            table = metrics.get((w, trace), {})
            entry[section] = {
                name: {"unit": units[name], **summarise(vals)} for name, vals in table.items()
            }
            if table:
                entry[f"ops_per_run_trace{trace}"] = summarise(ops_per_run[(w, trace)])
        if w in wall:
            entry["wall_clock"] = {
                name: {"unit": WALL_UNITS[name], **summarise(vals)}
                for name, vals in wall[w].items()
            }
        baseline["workloads"][w] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    (HERE / "digests.json").write_text(
        json.dumps({w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                    for w, d in sorted(digests.items())}, indent=0) + "\n"
    )
    print(f"wrote {HERE / 'baseline.json'} and {HERE / 'digests.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
