"""G(n,p) sampling, the two-phase edge split, and preflight diagnostics.

All randomness comes from numpy's PCG64 generator seeded through
SeedSequence, so a (n, p0, eta, seed) tuple pins every downstream artifact
bit-exactly.  Substreams are derived with fixed stream ids: 0 for the base
sample, 1 for the split.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph

STREAM_SAMPLE = 0
STREAM_SPLIT = 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _uniforms(rng: np.random.Generator):
    """The doubles of ``rng.random()`` called once per item, drawn 4096 at
    a time (an array draw returns the same doubles as that many scalar
    draws).  Each stream belongs to one split, so the unused end of the
    last chunk changes nothing."""
    while True:
        yield from rng.random(4096).tolist()


@dataclass(frozen=True)
class Params:
    """Run parameters plus every derived quantity used by the pipeline."""

    n: int
    p0: float
    eta: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p0 <= 1.0):
            raise ValueError(f"p0={self.p0} outside [0,1]")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta={self.eta} outside (0,1)")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @cached_property
    def w0(self) -> float:
        return self.n * self.p0 / math.log(self.n) if self.n > 1 else 0.0

    @property
    def p1(self) -> float:
        return (1.0 - self.eta / 4.0) * self.p0

    @property
    def p2(self) -> float:
        return self.eta * self.p0 / 4.0

    @cached_property
    def r1(self) -> int:
        # rounded down to the nearest even integer; keeps factor existence safe
        target = (1.0 - 3.0 * self.eta / 4.0) * self.n * self.p0
        return max(0, 2 * int(target // 2))

    @cached_property
    def m(self) -> int:
        return int((1.0 - self.eta) * self.n * self.p0 / 2.0)

    @cached_property
    def kappa(self) -> float:
        return 2.0 * math.log(16.0 / self.eta)

    @cached_property
    def k0(self) -> float:
        return self.kappa * self.n / math.log(self.n) if self.n > 1 else 0.0

    @cached_property
    def e0(self) -> float | None:
        """Rotation budget for the initial endpoint expansion; None when the
        asymptotic regime is not reached (log argument <= 1)."""
        arg = self.eta * self.w0 / 20.0
        return math.log(self.n) / math.log(arg) if arg > 1.0 else None

    @cached_property
    def e1(self) -> float | None:
        arg = self.eta * self.eta * self.w0 / 1e5
        return math.log(self.n) / math.log(arg) if arg > 1.0 else None

    @property
    def budgets_defined(self) -> bool:
        return self.e0 is not None and self.e1 is not None

    def warnings(self) -> list[str]:
        out = []
        if self.e0 is None:
            out.append("asymptotic regime not reached: E0 undefined (eta*w0/20 <= 1)")
        if self.e1 is None:
            out.append("asymptotic regime not reached: E1 undefined (eta^2*w0/1e5 <= 1)")
        if self.w0 < 12.0 / self.eta:
            out.append(f"w0={self.w0:.2f} below 12/eta={12.0 / self.eta:.2f}")
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n, "p0": self.p0, "eta": self.eta, "seed": self.seed,
            "w0": self.w0, "p1": self.p1, "p2": self.p2, "r1": self.r1,
            "m": self.m, "kappa": self.kappa, "k0": self.k0,
            "e0": self.e0, "e1": self.e1, "warnings": self.warnings(),
        }


@dataclass
class SplitSample:
    g0: Graph
    g1: Graph
    g2: Graph
    params: Params


def geometric_skips(x: np.ndarray, logq: float, cap: int) -> np.ndarray:
    """The skips 1 + floor(log(1 - x) / logq) of the doubles ``x``, equal
    to the scalar ``1 + int(math.log(1.0 - x) / logq)`` of each up to
    ``cap`` + 1.  numpy's log may differ from ``math.log`` in the last bit,
    which moves the floor only for a quotient next to a whole number: those
    are recomputed with ``math.log``."""
    q = np.log(1.0 - x) / logq
    for i in np.flatnonzero(np.abs(q - np.rint(q)) < 1e-9 * np.maximum(q, 1.0)).tolist():
        q[i] = math.log(1.0 - float(x[i])) / logq
    return 1 + np.floor(np.minimum(q, cap)).astype(np.int64)


def _gnp_pairs(n: int, p: float, seed: int):
    """The pairs (u, v), u < v, of G(n,p) in ascending order, by geometric
    skipping over the C(n,2) pairs, 4096 skips at a time: linear pair
    indices are running sums of the skips from the virtual start -1, and
    a pair's row u is found among the row offsets.  A skip past the last
    pair ends the sample, so skips are capped there."""
    logq = math.log1p(-p)
    total = n * (n - 1) // 2
    rows = np.arange(n - 1, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2  # index of the pair (u, u + 1)
    rng = _rng(seed, STREAM_SAMPLE)
    last = -1
    while last < total:
        idx = last + np.cumsum(geometric_skips(rng.random(4096), logq, total))
        last = int(idx[-1])
        idx = idx[: np.searchsorted(idx, total)]
        u = np.searchsorted(offsets, idx, side="right") - 1
        yield from zip(u.tolist(), (idx - offsets[u] + u + 1).tolist())


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample G(n,p) by geometric skipping over the C(n,2) pair sequence."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p={p} outside [0,1]")
    if n < 2 or p == 0.0:
        return Graph(n)
    if p == 1.0:
        return Graph.complete(n)
    return Graph.from_pairs(n, _gnp_pairs(n, p, seed))


def split(g0: Graph, params: Params) -> SplitSample:
    """Partition g0's edges: each goes to g1 with probability 1 - eta/4.

    The edges (u, v), u < v, are read from g0's lists in ascending order,
    the order ``sample_gnp`` drew them in, one draw each, and each is
    appended to u's and v's lists in g1 or g2.  A list first gets its
    smaller neighbours, from the rows of smaller u, then its own row, so
    every list ascends without a sort.  As in ``Graph.from_pairs``, each
    vertex is named by one int object in both graphs."""
    keep = 1.0 - params.eta / 4.0
    draws = _uniforms(_rng(params.seed, STREAM_SPLIT))
    ids = list(range(g0.n))
    adj1: list[list[int]] = [[] for _ in ids]
    adj2: list[list[int]] = [[] for _ in ids]
    for u, nbrs1, nbrs2 in zip(ids, adj1, adj2):
        nbrs = g0.adj(u)
        for v, x in zip(nbrs[bisect_right(nbrs, u):], draws):
            if x < keep:
                nbrs1.append(ids[v])
                adj1[v].append(u)
            else:
                nbrs2.append(ids[v])
                adj2[v].append(u)
    return SplitSample(g0=g0, g1=Graph.from_lists(adj1), g2=Graph.from_lists(adj2),
                       params=params)


def degree_diagnostics(s: SplitSample) -> dict:
    """Check the three minimum/maximum degree inequalities on this sample."""
    p = s.params
    np0 = p.n * p.p0
    checks = {}
    for name, g, bound, kind in (
        ("min_degree_g1", s.g1, (1.0 - p.eta / 2.0) * np0, "min>="),
        ("max_degree_g1", s.g1, np0, "max<="),
        ("min_degree_g2", s.g2, p.eta * np0 / 5.0, "min>="),
    ):
        degs = [g.degree(v) for v in range(g.n)]
        if kind == "min>=":
            val = min(degs)
            witness = degs.index(val)
            holds = val >= bound
        else:
            val = max(degs)
            witness = degs.index(val)
            holds = val <= bound
        checks[name] = {"value": val, "bound": bound, "holds": holds, "witness": witness}
    checks["all_hold"] = all(c["holds"] for c in checks.values() if isinstance(c, dict))
    return checks


def deviation_spotcheck(g: Graph, p: float, trials: int, seed: int) -> dict:
    """Statistical spot check of the edge-deviation inequalities.

    Samples random disjoint pairs (A, B) across size regimes and evaluates
    the pairwise bounds (2(a+b)log n / 7abp), the single-set bounds, and the
    13/14..15/14 band for linear-size sets.  Not a proof of anything; a
    report of pass counts on this sample.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = _rng(seed, 2)
    n = g.n
    logn = math.log(n) if n > 1 else 1.0
    report = {
        "pair_small": {"checked": 0, "violations": 0},
        "pair_large": {"checked": 0, "violations": 0},
        "single_small": {"checked": 0, "violations": 0},
        "single_large": {"checked": 0, "violations": 0},
        "linear_band": {"checked": 0, "violations": 0},
        "skipped": 0,
    }
    for _ in range(trials):
        a_sz = int(rng.integers(0, n // 2 + 1))
        b_sz = int(rng.integers(0, n - a_sz + 1)) if n - a_sz > 0 else 0
        if a_sz == 0 or b_sz == 0:
            report["skipped"] += 1
            continue
        perm = rng.permutation(n)
        a = set(int(x) for x in perm[:a_sz])
        b = set(int(x) for x in perm[a_sz : a_sz + b_sz])
        eab = g.edge_count_between(a, b)
        if p > 0:
            if (1.0 / a_sz + 1.0 / b_sz) * logn / p >= 3.5:
                report["pair_small"]["checked"] += 1
                if eab > 2 * (a_sz + b_sz) * logn:
                    report["pair_small"]["violations"] += 1
            else:
                report["pair_large"]["checked"] += 1
                if eab > 7 * a_sz * b_sz * p:
                    report["pair_large"]["violations"] += 1
            ea = g.edge_count_between(a, a)
            if logn / (a_sz * p) >= 1.75:
                report["single_small"]["checked"] += 1
                if ea > 2 * a_sz * logn:
                    report["single_small"]["violations"] += 1
            else:
                report["single_large"]["checked"] += 1
                if ea > 3.5 * a_sz * a_sz * p:
                    report["single_large"]["violations"] += 1
        mean = a_sz * b_sz * p
        if mean >= 700:
            report["linear_band"]["checked"] += 1
            if not (13.0 / 14.0 * mean <= eab <= 15.0 / 14.0 * mean):
                report["linear_band"]["violations"] += 1
    return report
