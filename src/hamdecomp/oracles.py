"""Exact small-scale counting oracles used to cross-check the pipeline.

Rational and big-integer arithmetic throughout; floating point appears only
in the logarithmic upper bounds, which are rounded outward before any
comparison so the oracle can never report a spurious violation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .graph import Graph

BRUTE_CAP = 10


@lru_cache(maxsize=None)
def _fracsum(n: int, k: int) -> Fraction:
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if n < 3 * k:
        return Fraction(0)
    if k == 1:
        return Fraction(1, n)
    total = Fraction(0)
    for a in range(3, n - 3 * (k - 1) + 1):
        total += Fraction(1, a) * _fracsum(n - a, k - 1)
    return total


def fracsum_exact(n: int, k: int) -> dict:
    """Sum of prod(1/a_i) over ordered k-tuples with parts >= 3 summing to n,
    plus the (k/n)(log n)^(k-1) bound and the comparison verdict."""
    if n < 1 or k < 1:
        raise ValueError("n, k must be >= 1")
    value = _fracsum(n, k)
    bound = (k / n) * math.log(n) ** (k - 1) if n > 1 else float(k)
    bound_up = math.nextafter(bound, math.inf)
    return {
        "n": n,
        "k": k,
        "value": value,
        "bound": bound,
        "holds": (value <= Fraction(bound_up)) if n >= 3 * k else None,
    }


def ordered_2factor_count(n: int, lengths: tuple[int, ...]) -> int:
    """n! / (2^k * prod a_i): ordered 2-factors of K_n with given cycle lengths."""
    if any(a < 3 for a in lengths):
        raise ValueError("cycle lengths must be >= 3")
    if sum(lengths) != n:
        raise ValueError(f"lengths sum to {sum(lengths)}, expected {n}")
    k = len(lengths)
    num = math.factorial(n)
    den = 2**k
    for a in lengths:
        den *= a
    if num % den:
        raise AssertionError("ordered 2-factor count is not integral")
    return num // den


@dataclass
class FactorCensus:
    n: int
    total: int
    by_cycle_count: dict[int, int]

    def at_least(self, k: int) -> int:
        """A_k: number of 2-factors with at least k cycles."""
        return sum(c for kk, c in self.by_cycle_count.items() if kk >= k)


def count_2factors_brute(g: Graph) -> FactorCensus:
    """Exhaustively enumerate spanning subgraphs with all degrees 2."""
    n = g.n
    if n > BRUTE_CAP:
        raise ValueError(f"n={n} above brute-force cap {BRUTE_CAP}")
    census: dict[int, int] = {}
    total = 0
    chosen: list[set[int]] = [set() for _ in range(n)]

    def cycles_of() -> int:
        seen = [False] * n
        count = 0
        for s in range(n):
            if seen[s]:
                continue
            count += 1
            prev, cur = -1, s
            while not seen[cur]:
                seen[cur] = True
                nxt = next(x for x in chosen[cur] if x != prev)
                prev, cur = cur, nxt
        return count

    def rec(v: int) -> None:
        nonlocal total
        if v == n:
            k = cycles_of()
            census[k] = census.get(k, 0) + 1
            total += 1
            return
        need = 2 - len(chosen[v])
        if need < 0:
            return
        if need == 0:
            rec(v + 1)
            return
        avail = [u for u in g.adj(v) if u > v and len(chosen[u]) < 2]
        if len(avail) < need:
            return
        for pick in combinations(avail, need):
            for u in pick:
                chosen[v].add(u)
                chosen[u].add(v)
            rec(v + 1)
            for u in pick:
                chosen[v].remove(u)
                chosen[u].remove(v)

    if n >= 3:
        rec(0)
    return FactorCensus(n=n, total=total, by_cycle_count=census)


def perm_lower_bound_check(h: Graph) -> dict:
    """Check the (r/2n)^n * n! lower bound on 2-factor counts of an
    even-regular graph; exact comparison where brute force is feasible."""
    degs = {h.degree(v) for v in range(h.n)}
    if len(degs) != 1:
        raise ValueError("graph is not regular")
    r = degs.pop()
    if r % 2:
        raise ValueError("degree must be even")
    n = h.n
    bound = Fraction(r, 2 * n) ** n * math.factorial(n)
    report = {"n": n, "r": r, "bound": bound}
    if n <= BRUTE_CAP:
        census = count_2factors_brute(h)
        report["actual"] = census.total
        report["holds"] = bound <= census.total
    else:
        report["actual"] = None
        report["holds"] = None
    return report


def budget_calculator(params) -> dict:
    """Evaluate the closed-form constant chains at these parameters and
    report which asymptotic inequalities actually hold at this scale."""
    n, p0, eta = params.n, params.p0, params.eta
    logn = math.log(n) if n > 1 else 1.0
    out = {
        "kappa": params.kappa,
        "k0": params.k0,
        "m": params.m,
        "e0": params.e0,
        "e1": params.e1,
        "k0_m": params.k0 * params.m,
        "eta_n_200": eta * n / 200.0,
        "eta2_n_1e6": eta * eta * n / 1e6,
        "g2_slack_cap": eta**6 * n * n * p0 / 1e17,
    }
    out["jbound_rhs"] = params.kappa * n * n * p0 / (2 * logn)
    out["jbound_holds"] = out["k0_m"] <= out["jbound_rhs"] * (1 + 1e-12)
    if params.e1 is not None:
        lhs = 2 * params.kappa * n * n * p0 / math.log(eta * eta * params.w0 / 1e5)
        out["g2gamma_lhs"] = lhs
        out["g2gamma_holds"] = lhs <= out["g2_slack_cap"]
        out["cap_4jE1"] = 4 * out["jbound_rhs"] * params.e1
    else:
        out["g2gamma_lhs"] = None
        out["g2gamma_holds"] = None
        out["cap_4jE1"] = None
    return out
