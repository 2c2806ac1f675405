"""The benchmark's workloads, the op each one runs, and the independent
output checker.

Every op samples its own graph from a graph seed that the benchmark derives
from its ``--seed``; the program receives only ``Params``.  Sizes keep
np0 = 100 and eta = 0.25 throughout, as in the acceptance criteria, and are
scaled down from n = 1000 so that a run of a few tens of seconds holds
enough ops for a median and a tail (see README.md).
"""
from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from hamdecomp import factors, harness, rotation, twofactor
from hamdecomp.sampler import Params, sample_gnp

ETA = 0.25
NP0 = 100.0

# (module, attribute, span name): the names through which one layer calls
# the next; the traced run wraps each of them.
TRACE_TARGETS = [
    (harness, "sample_gnp", "harness.sample_gnp"),
    (harness, "split", "harness.split"),
    (harness, "extract_with_retry", "harness.extract_with_retry"),
    (harness, "peel_all", "harness.peel_all"),
    (harness, "convert_all", "harness.convert_all"),
    (harness, "_reverify", "harness._reverify"),
    (rotation, "posa_search", "rotation.posa_search"),
    (rotation, "GammaView", "rotation.GammaView"),
    (factors, "extract_r_factor", "factors.extract_r_factor"),
    (factors, "build_gadget", "factors.build_gadget"),
    (factors, "max_matching_general", "factors.max_matching_general"),
    (twofactor, "euler_orient", "twofactor.euler_orient"),
    (twofactor, "hopcroft_karp", "twofactor.hopcroft_karp"),
]

# summaries of return values kept on spans, for the per-layer counts
TRACE_INSPECT = {
    "rotation.posa_search": lambda out: [out.kind, len(out.rotations)],
    "harness.peel_all": lambda tf: [len(f) for f in tf.factors],
    "harness.sample_gnp": lambda g: g.num_edges,
    "harness.convert_all": lambda conv: [
        len(conv.hamilton_cycles), len({o["factor"] for o in conv.per_factor})
    ],
}


def _no_span(name: str):
    return nullcontext()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # decomp | front | audit
    n: int
    p0: float
    unit: str  # what one verified output unit is

    def params(self, graph_seed: int) -> Params:
        return Params(n=self.n, p0=self.p0, eta=ETA, seed=graph_seed)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("decomp-n300", "decomp", 300, NP0 / 300, "Hamilton cycle"),
        Workload("front-n1200", "front", 1200, NP0 / 1200, "2-factor"),
        Workload("audit-n200", "audit", 200, NP0 / 200, "Hamilton cycle"),
    )
}


def graph_seed(seed: int, i: int) -> int:
    """Graph seed of the i-th op of a run started with ``--seed seed``."""
    return seed * 1000 + i


# -- ops ----------------------------------------------------------------------


def run_op(w: Workload, params: Params, workdir: Path, span=_no_span):
    """One op of workload ``w``; the caller times it.  ``span(name)`` opens a
    span around the calls the benchmark makes itself."""
    if w.kind == "decomp":
        with span("harness.run"):
            return harness.run(params)
    if w.kind == "audit":
        out, graph = workdir / "result.json", workdir / "graph.txt"
        with span("harness.run"):
            res = harness.run(params, audit=True, out_path=str(out), graph_out=str(graph))
        with span("harness.verify_result"):
            ver = harness.verify_result(str(out), str(graph))
        return res, ver
    # front: the first four calls of harness.run, by the same names
    g0 = harness.sample_gnp(params.n, params.p0, params.seed)
    s = harness.split(g0, params)
    factor, r = harness.extract_with_retry(s.g1, params.r1)
    tf = harness.peel_all(factor, r) if factor is not None else None
    return s, r, tf


# -- independent output check -------------------------------------------------


def _claim_edges(cyc: list[int], edges: set, used: set) -> str | None:
    """Add the edges of closed walk ``cyc`` to ``used``; describe the first
    one that is not in ``edges`` or already used."""
    k = len(cyc)
    for i in range(k):
        u, v = cyc[i], cyc[(i + 1) % k]
        e = (u, v) if u < v else (v, u)
        if e not in edges:
            return f"{e} is not an edge"
        if e in used:
            return f"edge {e} is used twice"
        used.add(e)
    return None


def check_hamilton_cycles(n: int, edges: set, cycles: list[list[int]]) -> list[str]:
    """Problems with ``cycles`` as edge-disjoint Hamilton cycles of the graph
    on vertices 0..n-1 with edge set ``edges`` (empty when they are fine)."""
    problems: list[str] = []
    everyone = set(range(n))
    used: set[tuple[int, int]] = set()
    for idx, cyc in enumerate(cycles):
        if len(cyc) != n or set(cyc) != everyone:
            problems.append(f"cycle {idx}: repeated or missing vertex")
        elif bad := _claim_edges(cyc, edges, used):
            problems.append(f"cycle {idx}: {bad}")
    return problems


def check_two_factors(n: int, edges: set, factor_list: list[list[list[int]]]) -> list[str]:
    """Problems with ``factor_list`` as pairwise edge-disjoint spanning
    2-regular subgraphs of the graph with edge set ``edges``."""
    problems: list[str] = []
    everyone = set(range(n))
    used: set[tuple[int, int]] = set()
    for idx, cycles in enumerate(factor_list):
        verts = [v for cyc in cycles for v in cyc]
        if len(verts) != n or set(verts) != everyone:
            problems.append(f"factor {idx}: not spanning, or a vertex repeats")
            continue
        for cyc in cycles:
            bad = "cycle shorter than 3" if len(cyc) < 3 else _claim_edges(cyc, edges, used)
            if bad:
                problems.append(f"factor {idx}: {bad}")
                break
    return problems


def ceiling(n: int, edges: set) -> int:
    """floor(min degree / 2): no more edge-disjoint Hamilton cycles (or
    2-factors) fit in the graph."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg) // 2


def digest(units) -> str:
    return hashlib.sha256(json.dumps(units, separators=(",", ":")).encode()).hexdigest()


@dataclass
class Checked:
    units: int
    ceiling: int
    digest: str
    problems: list[str]


def check_op(w: Workload, params: Params, out) -> Checked:
    """Re-check an op's output against its graph, without the pipeline's
    own bookkeeping.  The decomp and audit graphs are re-sampled here."""
    if w.kind == "front":
        s, r, tf = out
        if tf is None:
            return Checked(0, ceiling(params.n, s.g0.edges), "", ["no factor extracted"])
        problems = check_two_factors(params.n, s.g1.edges, tf.factors)
        if not s.g1.edges <= s.g0.edges:
            problems.append("G1 is not a subgraph of G0")
        if len(tf.factors) != r // 2:
            problems.append(f"{len(tf.factors)} 2-factors peeled from an {r}-factor")
        return Checked(len(tf.factors), ceiling(params.n, s.g0.edges),
                       digest(tf.factors), problems)

    res, ver = out if w.kind == "audit" else (out, None)
    g0_edges = sample_gnp(params.n, params.p0, params.seed).edges
    problems = check_hamilton_cycles(params.n, g0_edges, res.hamilton_cycles)
    if res.phase_failed:
        problems.append(f"phase {res.phase_failed} failed")
    if res.rotation_stats.get("audit_failures"):
        problems.append(f"audit failures: {res.rotation_stats['audit_failures'][:3]}")
    produced = len(res.conversion.hamilton_cycles) if res.conversion else 0
    if produced != res.achieved_cycles:
        problems.append(f"{produced} cycles converted but {res.achieved_cycles} kept")
    if ver is not None:
        if not ver.get("ok"):
            problems.append(f"verify_result: {ver}")
        elif ver["cycles"] != res.achieved_cycles:
            problems.append(f"verify_result saw {ver['cycles']} cycles")
    return Checked(len(res.hamilton_cycles), ceiling(params.n, g0_edges),
                   digest(res.hamilton_cycles), problems)
