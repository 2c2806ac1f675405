"""Command-line entry point: run, sweep, verify, oracle, diag."""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, oracles
from .graph import Graph
from .sampler import Params, degree_diagnostics, deviation_spotcheck, sample_gnp, split

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAM_ERROR = 2
EXIT_PHASE_FAIL = 3


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)


def _params(args) -> Params:
    return Params(n=args.n, p0=args.p0, eta=args.eta, seed=args.seed)


def _writable(path: str) -> bool:
    """Whether a file can be written at ``path``: it is not empty, its
    directory exists and takes new files, and the path itself is not a
    directory."""
    folder = os.path.dirname(os.path.abspath(path))
    return (path != "" and os.path.isdir(folder) and os.access(folder, os.W_OK)
            and not os.path.isdir(path))


def _grid_cell(cell) -> Params:
    """One sweep grid cell as Params; ValueError when it is malformed."""
    if not isinstance(cell, dict):
        raise ValueError(f"grid cell {cell!r} is not an object")
    values = {"n": cell["n"], "p0": cell["p0"], "eta": cell["eta"],
              "seed": cell.get("seed", 0)}
    for key, value in values.items():
        integer = key in ("n", "seed")
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise ValueError(f"grid cell {key}={value!r} is not "
                             f"{'an integer' if integer else 'a number'}")
    return Params(**values)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="hamdecomp")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="end-to-end decomposition of one sample")
    _add_param_flags(p_run)
    p_run.add_argument("--out", default=None, help="result JSON path")
    p_run.add_argument("--graph-out", default=None, help="edge-list export path")
    p_run.add_argument("--audit", action="store_true")

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON list of {n,p0,eta,seed} cells, or a file path")
    p_sweep.add_argument("--seeds", type=int, default=1)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="re-audit a result file")
    p_ver.add_argument("result")
    p_ver.add_argument("graph")

    p_orc = sub.add_parser("oracle", help="run the counting-oracle suites")
    p_orc.add_argument("--out", default=None)

    p_diag = sub.add_parser("diag", help="sampler diagnostics")
    _add_param_flags(p_diag)
    p_diag.add_argument("--trials", type=int, default=200)
    p_diag.add_argument("--out", default=None)

    args = ap.parse_args(argv)
    # checked before any command runs, so a run or a sweep does not sample
    # only to fail at its last write
    for path in (getattr(args, "out", None), getattr(args, "graph_out", None)):
        if path is not None and not _writable(path):
            print(f"parameter error: cannot write {path}", file=sys.stderr)
            return EXIT_PARAM_ERROR

    if args.cmd == "run":
        try:
            params = _params(args)
        except ValueError as exc:
            print(f"parameter error: {exc}", file=sys.stderr)
            return EXIT_PARAM_ERROR
        graph_out = args.graph_out
        if graph_out is None and args.out:
            graph_out = args.out + ".graph.txt"
        result = harness.run(params, out_path=args.out, graph_out=graph_out,
                             audit=args.audit)
        print(json.dumps({
            "achieved_cycles": result.achieved_cycles,
            "target_m": result.target_m,
            "r_achieved": result.r_achieved,
            "edge_coverage": round(result.edge_coverage, 4),
            "phase_failed": result.phase_failed,
        }))
        if result.phase_failed:
            return EXIT_PHASE_FAIL
        failures = []
        if result.rotation_stats.get("dropped"):
            failures.append(f"verification failure: {result.rotation_stats['dropped']} "
                            "converted cycles failed the independent re-check")
        audit_failures = result.rotation_stats.get("audit_failures")
        if audit_failures:
            failures.append(f"audit failure: {len(audit_failures)} conversion audit checks "
                            f"failed, the first: {audit_failures[0]}")
        for msg in failures:
            print(msg, file=sys.stderr)
        return EXIT_VERIFY_FAIL if failures else EXIT_OK

    if args.cmd == "sweep":
        try:
            spec = args.grid
            if spec.strip().startswith("["):
                cells = json.loads(spec)
            else:
                with open(spec) as fh:
                    cells = json.load(fh)
            if not isinstance(cells, list):
                raise ValueError("grid is not a JSON list")
            grid = [_grid_cell(c) for c in cells]
            if not grid:
                raise ValueError("empty grid")
            if args.seeds < 1:
                raise ValueError("--seeds must be at least 1")
            if args.jobs < 1:
                raise ValueError("--jobs must be at least 1")
        except (ValueError, KeyError, OSError) as exc:
            print(f"parameter error: {exc}", file=sys.stderr)
            return EXIT_PARAM_ERROR
        rows = harness.sweep(grid, args.seeds, args.out, jobs=args.jobs)
        print(f"wrote {len(rows)} rows to {args.out}")
        return EXIT_OK

    if args.cmd == "verify":
        try:
            verdict = harness.verify_result(args.result, args.graph)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"parameter error: {exc}", file=sys.stderr)
            return EXIT_PARAM_ERROR
        print(json.dumps(verdict))
        return EXIT_OK if verdict["ok"] else EXIT_VERIFY_FAIL

    if args.cmd == "oracle":
        report = _oracle_suite()
        out = json.dumps(report, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        print(out)
        bad = [k for k, v in report.items() if v.get("ok") is False]
        return EXIT_OK if not bad else EXIT_VERIFY_FAIL

    if args.cmd == "diag":
        try:
            params = _params(args)
            if args.trials < 1:
                raise ValueError("--trials must be at least 1")
        except ValueError as exc:
            print(f"parameter error: {exc}", file=sys.stderr)
            return EXIT_PARAM_ERROR
        g0 = sample_gnp(params.n, params.p0, params.seed)
        s = split(g0, params)
        report = {
            "params": params.to_dict(),
            "degrees": degree_diagnostics(s),
            "deviation": deviation_spotcheck(g0, params.p0, args.trials, params.seed),
            "budgets": oracles.budget_calculator(params),
        }
        out = json.dumps(report, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        print(out)
        return EXIT_OK

    return EXIT_PARAM_ERROR


def _oracle_suite() -> dict:
    report: dict = {}
    frac_ok = all(
        oracles.fracsum_exact(n, k)["holds"] is not False
        for n in range(3, 61)
        for k in range(1, min(10, n // 3) + 1)
    )
    report["fracsum_bound"] = {"ok": frac_ok, "range": "n<=60, k<=10"}
    k5 = oracles.count_2factors_brute(Graph.complete(5))
    k6 = oracles.count_2factors_brute(Graph.complete(6))
    report["census_k5"] = {"ok": k5.total == 12, "total": k5.total}
    report["census_k6"] = {"ok": k6.total == 70, "total": k6.total}
    perm = []
    for g, name in ((Graph.cycle(7), "C7"), (Graph.complete(5), "K5"), (Graph.complete(7), "K7")):
        perm.append({name: oracles.perm_lower_bound_check(g)["holds"]})
    report["perm_bound"] = {"ok": all(list(d.values())[0] for d in perm), "cases": perm}
    return report


if __name__ == "__main__":
    raise SystemExit(main())
