"""End-to-end pipeline orchestration and the independent result verifier."""
from __future__ import annotations

import csv
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import Pool

from .factors import extract_with_retry
from .graph import Graph, read_edge_list
from .rotation import ConversionResult, convert_all
from .sampler import Params, sample_gnp, split
from .twofactor import cycle_statistics, peel_all

SCHEMA_VERSION = 1
CSV_HEADER = [
    "n", "p0", "eta", "seed", "r_achieved", "factors", "achieved_cycles",
    "target_m", "coverage", "steps", "rotations", "g2_consumed", "wall_ms",
]


@dataclass
class DecompositionResult:
    """One run's outcome; the defaults are what a failed run leaves empty."""

    params: Params
    target_m: int
    wall_times: dict[str, float]
    achieved_cycles: int = 0
    edge_coverage: float = 0.0
    r_achieved: int = 0
    n_factors: int = 0
    hamilton_cycles: list[list[int]] = field(default_factory=list)
    rotation_stats: dict = field(default_factory=dict)
    cycle_stats: dict = field(default_factory=dict)
    phase_failed: str | None = None
    conversion: ConversionResult | None = field(default=None, repr=False)

    def to_json_obj(self) -> dict:
        conv = self.conversion
        return {
            "schema": SCHEMA_VERSION,
            "params": self.params.to_dict(),
            "achieved_cycles": self.achieved_cycles,
            "target_m": self.target_m,
            "edge_coverage": self.edge_coverage,
            "r_achieved": self.r_achieved,
            "factors": self.n_factors,
            "hamilton_cycles": self.hamilton_cycles,
            "per_factor_outcomes": conv.per_factor if conv else [],
            "rotation_stats": self.rotation_stats,
            "cycle_stats": self.cycle_stats,
            "ledger": [
                {
                    "step": rec.step, "factor": rec.factor, "rotations": rec.rotations,
                    "consumed": [list(e) for e in rec.consumed],
                    "returned": [list(e) for e in rec.returned],
                    "cap": rec.cap, "within_cap": rec.within_cap,
                }
                for rec in (conv.ledger if conv else [])
            ],
            "wall_times": self.wall_times,
            "phase_failed": self.phase_failed,
        }

    def csv_row(self) -> list:
        p = self.params
        wall_ms = int(1000 * sum(self.wall_times.values()))
        return [
            p.n, p.p0, p.eta, p.seed, self.r_achieved, self.n_factors,
            self.achieved_cycles, self.target_m, round(self.edge_coverage, 6),
            self.rotation_stats.get("steps", 0),
            self.rotation_stats.get("rotations", 0),
            self.rotation_stats.get("g2_consumed", 0), wall_ms,
        ]


def _reverify(g0: Graph, cycles: list[list[int]]) -> list[list[int]]:
    """Independent audit at result construction: keep only cycles that pass
    Hamiltonicity and pairwise edge-disjointness.  ``run`` reports every
    cycle left out as ``rotation_stats["dropped"]``.  Edges are compared as
    keys u·n + v (u < v), built here and nowhere shared with conversion."""
    n = g0.n
    good: list[list[int]] = []
    used: set[int] = set()
    for cyc in cycles:
        if not g0.verify_hamilton_cycle(cyc):
            continue
        es = {u * n + v if u < v else v * n + u for u, v in zip(cyc, cyc[1:] + cyc[:1])}
        if not used.isdisjoint(es):
            continue
        used |= es
        good.append(cyc)
    return good


def run(
    params: Params,
    out_path: str | None = None,
    graph_out: str | None = None,
    audit: bool = False,
) -> DecompositionResult:
    """sample -> split -> r-factor -> 2-factor peel -> convert -> verify."""
    wall: dict[str, float] = {}
    target_m = math.ceil((1.0 - params.eta) * params.n * params.p0 / 2.0 - 1e-9)

    def finish(result: DecompositionResult) -> DecompositionResult:
        if out_path:
            with open(out_path, "w") as fh:
                # json.dumps encodes in C; json.dump streams through Python
                fh.write(json.dumps(result.to_json_obj()))
        return result

    def failed(phase: str) -> DecompositionResult:
        return finish(DecompositionResult(params=params, target_m=target_m,
                                          wall_times=wall, phase_failed=phase))

    t = time.perf_counter()
    g0 = sample_gnp(params.n, params.p0, params.seed)
    s = split(g0, params)
    wall["sample"] = time.perf_counter() - t
    if graph_out:
        with open(graph_out, "w") as fh:
            fh.write(g0.to_text())

    t = time.perf_counter()
    factor, r_achieved = extract_with_retry(s.g1, params.r1)
    wall["extract"] = time.perf_counter() - t
    if factor is None:
        return failed("extract")

    t = time.perf_counter()
    tf = peel_all(factor, r_achieved)
    wall["peel"] = time.perf_counter() - t

    t = time.perf_counter()
    conv = convert_all(tf.factors, g0, s.g2, params, audit=audit)
    wall["convert"] = time.perf_counter() - t

    t = time.perf_counter()
    verified = _reverify(g0, conv.hamilton_cycles)
    coverage = len(verified) * params.n / g0.num_edges if g0.num_edges else 0.0
    wall["verify"] = time.perf_counter() - t

    stats = {
        "steps": conv.steps,
        "rotations": conv.total_rotations,
        "g2_consumed": conv.g2_consumed,
        "abandoned": sum(1 for o in conv.per_factor if o["outcome"] == "abandoned"),
        "dropped": len(conv.hamilton_cycles) - len(verified),
        "audit_failures": conv.audit_failures,
    }
    return finish(
        DecompositionResult(
            params=params,
            achieved_cycles=len(verified),
            target_m=target_m,
            edge_coverage=coverage,
            r_achieved=r_achieved,
            n_factors=len(tf.factors),
            hamilton_cycles=verified,
            rotation_stats=stats,
            cycle_stats=cycle_statistics(tf, params),
            wall_times=wall,
            conversion=conv,
        )
    )


def _sweep_cell(params: Params) -> tuple[list, str | None]:
    """One sweep cell: its CSV row, and the traceback when it raised."""
    try:
        return run(params).csv_row(), None
    except Exception as exc:  # partial failures recorded per row
        row = [params.n, params.p0, params.eta, params.seed, "error", str(exc)]
        return row + [""] * (len(CSV_HEADER) - len(row)), traceback.format_exc()


def sweep(
    grid: list[Params], seeds_per_cell: int, out_path: str, jobs: int = 1,
) -> list[list]:
    if not grid:
        raise ValueError("empty sweep grid")
    cells = [
        Params(n=p.n, p0=p.p0, eta=p.eta, seed=p.seed + s)
        for p in grid
        for s in range(seeds_per_cell)
    ]
    workers = min(jobs, len(cells))
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_sweep_cell, cells)
    else:
        results = [_sweep_cell(c) for c in cells]
    rows = [row for row, _ in results]
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(rows)
    errors = [(params, tb) for params, (_, tb) in zip(cells, results) if tb]
    errors_path = out_path + ".errors.txt"
    if errors:
        # the CSV keeps one line per failed cell; the causes go beside it
        with open(errors_path, "w") as fh:
            for params, tb in errors:
                fh.write(f"# n={params.n} p0={params.p0} eta={params.eta} "
                         f"seed={params.seed}\n{tb}\n")
    elif os.path.exists(errors_path):
        # an earlier sweep's causes would name cells that now succeed
        os.remove(errors_path)
    return rows


def verify_result(result_path: str, graph_path: str) -> dict:
    """Independent re-audit of a serialized result against its graph.

    Re-reads the edge list with ``read_edge_list``, which the run itself
    never calls, and re-checks every cycle for Hamiltonicity, edge
    membership, and pairwise edge-disjointness without touching the
    pipeline's own audit paths.  The result's own claims must agree with
    what is re-read: ``achieved_cycles`` with the number of cycles and
    ``params.n`` with the graph's vertex count.  Raises ValueError when
    either file is malformed: a result that is not an object with an object
    ``params`` and a list of vertex lists, or an edge list that
    ``read_edge_list`` rejects.
    """
    with open(result_path) as fh:
        doc = json.load(fh)
    with open(graph_path) as fh:
        text = fh.read()
    if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
        raise ValueError("the result and its params must be JSON objects")
    cycles = doc.get("hamilton_cycles", [])
    if not (isinstance(cycles, list)
            and all(isinstance(c, list) and all(type(v) is int for v in c)
                    for c in cycles)):
        raise ValueError("hamilton_cycles must be a list of lists of vertices")
    n, edge_set = read_edge_list(text)
    claimed_n = doc.get("params", {}).get("n")
    if claimed_n != n:
        return {"ok": False, "reason": f"params.n is {claimed_n} but the graph has {n} vertices"}
    used: set[tuple[int, int]] = set()
    for idx, cyc in enumerate(cycles):
        if n < 3:
            return {"ok": False, "cycle": idx, "reason": f"no Hamilton cycle on {n} < 3 vertices"}
        if len(cyc) != n:
            missing = sorted(set(range(n)) - set(cyc))
            return {"ok": False, "cycle": idx,
                    "reason": f"cycle has {len(cyc)} vertices, missing {missing[:5]}"}
        if len(set(cyc)) != n:
            dup = next(v for v in cyc if cyc.count(v) > 1)
            return {"ok": False, "cycle": idx, "reason": f"repeated vertex {dup}"}
        stray = sorted(set(cyc) - set(range(n)))
        if stray:
            return {"ok": False, "cycle": idx,
                    "reason": f"vertices outside 0..{n - 1}: {stray[:5]}"}
        es = [(u, v) if u < v else (v, u) for u, v in zip(cyc, cyc[1:] + cyc[:1])]
        if edge_set.issuperset(es) and used.isdisjoint(es):
            used.update(es)
            continue
        # the first bad edge in cycle order names the failure
        for e in es:
            if e not in edge_set:
                return {"ok": False, "cycle": idx, "reason": f"missing edge {e}"}
            if e in used:
                return {"ok": False, "cycle": idx, "reason": f"edge {e} reused"}
            used.add(e)
    # JSON true would pass for 1
    if type(doc.get("achieved_cycles")) is not int or doc["achieved_cycles"] != len(cycles):
        return {"ok": False, "reason": f"achieved_cycles is {doc.get('achieved_cycles')} "
                                       f"but {len(cycles)} cycles are listed"}
    return {"ok": True, "cycles": len(cycles)}
