#!/usr/bin/env python3
"""Phase wall times and peak memory of single pipeline runs.

Runs ``harness.run`` once per (n, p0, seed), each in a fresh Python process,
so that the peak resident set size (``ru_maxrss``) belongs to that run
alone, and prints one JSON line per run: the wall time of each phase in
seconds, the factor degree r, the number of verified Hamilton cycles, the
peak RSS in MB, the SHA-256 of the cycles (compact JSON), which a
bit-exact change leaves unchanged, and the number of audit failures.
``--audit`` runs the conversion audit too (``run --audit``), so comparing
runs with and without it gives the audit's cost.  ``--verify`` writes each
run's result and graph to a temporary directory and times
``verify_result`` on them in another fresh process, adding its wall time
(``verify_result_s``), that process's peak RSS (``verify_peak_rss_mb``)
and its verdict (``verify_ok``).

Usage: PYTHONPATH=src python3 scripts/phase_times.py \
           [--size 10000:0.01 --size 20000:0.005] [--seeds 0 1] [--eta 0.25] \
           [--audit] [--verify]
"""
import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import tempfile
import time

from hamdecomp.harness import run, verify_result
from hamdecomp.sampler import Params


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def measure(n: int, p0: float, eta: float, seed: int, audit: bool,
            files: tuple[str | None, str | None]) -> dict:
    """One run's record, writing its result and graph to ``files`` when they
    are named; meant to run in a process of its own."""
    result = run(Params(n=n, p0=p0, eta=eta, seed=seed), *files, audit=audit)
    cycles = json.dumps(result.hamilton_cycles, separators=(",", ":")).encode()
    return {
        "n": n, "p0": p0, "eta": eta, "seed": seed, "audit": audit,
        "wall_s": {phase: round(s, 3) for phase, s in result.wall_times.items()},
        "total_s": round(sum(result.wall_times.values()), 3),
        "r": result.r_achieved,
        "cycles": result.achieved_cycles,
        "peak_rss_mb": peak_rss_mb(),
        "cycles_sha256": hashlib.sha256(cycles).hexdigest(),
        "audit_failures": len(result.rotation_stats.get("audit_failures", [])),
        "phase_failed": result.phase_failed,
    }


def judge(result_path: str, graph_path: str) -> dict:
    """One ``verify_result`` timed; meant to run in a process of its own."""
    t = time.perf_counter()
    verdict = verify_result(result_path, graph_path)
    return {"verify_result_s": round(time.perf_counter() - t, 3),
            "verify_peak_rss_mb": peak_rss_mb(), "verify_ok": verdict["ok"]}


def size(text: str) -> tuple[int, float]:
    n, _, p0 = text.partition(":")
    return int(n), float(p0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=size, action="append",
                    help="N:P0, repeatable (default: 10000:0.01 and 20000:0.005)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--eta", type=float, default=0.25)
    ap.add_argument("--audit", action="store_true", help="run the conversion audit too")
    ap.add_argument("--verify", action="store_true",
                    help="time verify_result on each run's files in a fresh process")
    args = ap.parse_args()
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        files = ((os.path.join(tmp, "result.json"), os.path.join(tmp, "graph.txt"))
                 if args.verify else (None, None))
        for n, p0 in args.size or [(10_000, 0.01), (20_000, 0.005)]:
            for seed in args.seeds:
                # a new worker per run, so its peak RSS is this run's alone
                with ctx.Pool(1) as pool:
                    record = pool.apply(measure, (n, p0, args.eta, seed, args.audit, files))
                if args.verify:
                    with ctx.Pool(1) as pool:
                        record.update(pool.apply(judge, files))
                print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
