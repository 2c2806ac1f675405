"""Rotation-extension conversion of 2-factors into Hamilton cycles.

Each 2-factor is broken into a long path plus leftover cycles; unrestricted
two-sided Posa rotations over the reservoir (all host edges not committed to
a finished cycle or a pending factor) either extend the path into another
cycle or close it.  The search proposes each move as a transcript record and
``apply`` carries it out; conversion and replay both run every record
through ``apply``, so a transcript replays bit-exactly.  A ledger, derived
from each step's records, reports per-step reservoir consumption against the
rotation budgets when those are defined; the budgets never limit the search.
An optional audit, one object called when an attempt starts and when each
step ends, checks the reservoir against a recomputation and only observes.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property

from .graph import BrokenTwoFactor, Graph, norm_edge
from .sampler import Params


@dataclass
class TranscriptRecord:
    step: int
    kind: str  # break | rotate | absorb | close
    pivot: int | None = None
    deleted: tuple[int, int] | None = None
    added: tuple[int, int] | None = None


class GammaView:
    """Reservoir adjacency: host edges not in the committed set.

    An edge {u, v}, u < v, is named by its key u·n + v, with n the host's
    vertex count; keys sort as the (u, v) tuples do.  The committed set
    holds keys.  Each vertex's reservoir neighbours are its host neighbour
    list with the committed edges left out, so they stay in ascending
    order, and ``has`` looks an edge up in the host's lists; no host edge
    set is built.  The view owns a key set it is given (a set of
    ``norm_edge`` tuples is read into a new key set): ``take`` and ``give``
    move keys into and out of that set, so one view can follow a whole
    conversion.
    """

    def __init__(self, host: Graph, committed: set[int] | set[tuple[int, int]]):
        self.host = host
        if isinstance(next(iter(committed), None), tuple):
            n = host.n
            committed = {u * n + v for u, v in committed}
        self.committed = committed

    def adj(self, v: int) -> list[int]:
        """Reservoir neighbours of v in ascending order."""
        nbrs, committed, n = self.host.adj(v), self.committed, self.host.n
        # a neighbour u < v names the edge u·n + v, one above v names v·n + u
        i = bisect_left(nbrs, v)
        vn = v * n
        return ([u for u in nbrs[:i] if u * n + v not in committed]
                + [u for u in nbrs[i:] if vn + u not in committed])

    def has(self, u: int, v: int) -> bool:
        n = self.host.n
        return self.host.has_edge(u, v) and (u * n + v if u < v else v * n + u) not in self.committed

    def take(self, keys) -> None:
        """Commit edges, given by key: they leave the reservoir."""
        self.committed.update(keys)

    def give(self, keys) -> None:
        """Release edges, given by key: they return to the reservoir."""
        self.committed.difference_update(keys)


# -- elementary moves ---------------------------------------------------------


def break_to_path(cycles: list[list[int]], n: int) -> tuple[BrokenTwoFactor, TranscriptRecord]:
    """Remove the lexicographically smallest edge of the cycle holding the
    smallest vertex; the opened cycle becomes the long path.  The result
    holds copies, so ``cycles`` is left unchanged."""
    smallest = min(min(c) for c in cycles)
    ci = next(i for i, c in enumerate(cycles) if smallest in c)
    cyc = cycles[ci]
    keys = [u * n + v if u < v else v * n + u for u, v in zip(cyc, cyc[1:] + cyc[:1])]
    idx = keys.index(min(keys))
    removed = divmod(keys[idx], n)
    path = cyc[idx + 1 :] + cyc[: idx + 1]
    if path[0] > path[-1]:
        path = path[::-1]
    rest = [list(c) for j, c in enumerate(cycles) if j != ci]
    broken = BrokenTwoFactor(n=n, cycles=rest, path=path)
    return broken, TranscriptRecord(step=0, kind="break", deleted=removed)


def rotate(path: list[int], pivot: int) -> tuple[list[int], tuple[int, int], tuple[int, int]]:
    """Rotation about the tail endpoint with the given pivot.

    Returns (new_path, deleted_edge, added_edge); the head endpoint is fixed.
    """
    tail = path[-1]
    i = path.index(pivot)
    if i == len(path) - 1:
        raise ValueError("pivot cannot be the moving endpoint")
    if i == len(path) - 2:
        raise ValueError("pivot adjacent to moving endpoint: no-op rotation")
    if i == 0:
        raise ValueError("pivot is the fixed endpoint: closable configuration, not a rotation")
    new_path = path[: i + 1] + path[: i : -1]
    return new_path, norm_edge(pivot, path[i + 1]), norm_edge(pivot, tail)


def absorb_cycle(
    broken: BrokenTwoFactor, entry: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Splice the cycle containing `entry` onto the path's tail endpoint.

    Deletes the entry-to-successor edge under the cycle's stored orientation.
    Returns (added_edge, deleted_edge).
    """
    tail = broken.path[-1]
    ci = broken.cycle_index_of(entry)
    if ci is None:
        raise ValueError(f"entry vertex {entry} is not on a cycle")
    cyc = broken.cycles.pop(ci)
    k = len(cyc)
    i = cyc.index(entry)
    succ = cyc[(i + 1) % k]
    segment = [cyc[(i - t) % k] for t in range(k)]  # entry, pred, ..., succ
    broken.path = broken.path + segment
    return norm_edge(tail, entry), norm_edge(entry, succ)


def apply(broken: BrokenTwoFactor, rec: TranscriptRecord) -> TranscriptRecord:
    """Carry out one rotate, absorb or close record on ``broken``.

    A rotate or absorb acts at the path end its ``added`` edge touches; a
    close joins the path's ends and, when ``deleted`` is set, reopens the
    cycle at that edge so that its first endpoint in cycle order becomes
    the tail (without ``deleted``, no cycle may be left).  Returns the
    record with a missing ``deleted`` filled in, and raises ValueError when
    the move contradicts a field the record names.
    """
    if rec.kind == "close":
        path = broken.path
        if norm_edge(path[0], path[-1]) != rec.added:
            raise ValueError("closing edge does not join the endpoints")
        if rec.deleted is None:
            if broken.cycles:
                raise ValueError("close leaves cycles but reopens no edge")
            return rec
        # i: the position of the reopened edge's first endpoint in cycle order
        u, v = rec.deleted
        i = path.index(u) if u in path else None
        if i is not None and path[(i + 1) % len(path)] != v:
            i = i - 1 if path[i - 1] == v else None
        if i is None:
            raise ValueError("reopened edge not on the closed cycle")
        broken.path = path[i + 1 :] + path[: i + 1]
        return rec
    if rec.kind not in ("rotate", "absorb"):
        raise ValueError(f"unknown record kind {rec.kind}")
    a, b = rec.added
    if rec.kind == "rotate":
        end = b if a == rec.pivot else a
    else:
        end = a if a in (broken.path[0], broken.path[-1]) else b
    # the elementary moves act at the tail
    if broken.path[-1] != end:
        if broken.path[0] != end:
            raise ValueError(f"endpoint {end} is not a path end")
        broken.path = broken.path[::-1]
    if rec.kind == "rotate":
        broken.path, deleted, added = rotate(broken.path, rec.pivot)
    else:
        added, deleted = absorb_cycle(broken, b if a == end else a)
    if added != rec.added or rec.deleted not in (None, deleted):
        raise ValueError(f"{rec.kind} edge mismatch")
    return rec if rec.deleted else replace(rec, deleted=deleted)


# -- Posa search --------------------------------------------------------------

# re-anchored states the two-sided search tries on a spanning path
TWO_SIDED_CAP = 40
# BFS states and rotation depth one side of a search may reach; read when
# a search starts
MAX_STATES = 2000
MAX_LEVELS = 64


@dataclass
class Outcome:
    """What the search found, as moves for ``apply``: the rotations in order
    as (pivot, deleted, added), then the edge the last move adds (extend:
    the absorb edge from the tail to an off-path vertex; close: the edge
    joining the rotated path's ends)."""

    kind: str  # extend | close | exhausted
    rotations: list[tuple[int, tuple[int, int], tuple[int, int]]] = field(default_factory=list)
    added: tuple[int, int] | None = None


class _RotatedPath:
    """A root path and the paths that rotations about its tail reach.

    A reached path is named by its cuts: the indices at which its rotations
    cut, in order.  A rotation at index i reverses the suffix after i, the
    involution j -> last + i + 1 - j on j > i.  A vertex's position is its
    root index mapped through the cuts in order, and the vertex at a
    position is found by mapping the position back through them in reverse,
    so each lookup costs O(depth) and no reached path is built unless
    ``realize`` is asked for it.
    """

    def __init__(self, path: list[int]):
        self.path = path
        self.last = len(path) - 1

    @cached_property
    def index(self) -> dict[int, int]:
        """Root position of each vertex; built on the first rotation, since
        most searches end at the root."""
        return {v: i for i, v in enumerate(self.path)}

    def realize(self, cuts: tuple[int, ...]) -> tuple[list[int], list]:
        """The path named by ``cuts``, built by copying, and its rotations
        in order as (pivot, deleted, added)."""
        p, rotations = self.path, []
        for i in cuts:
            rotations.append((p[i], norm_edge(p[i], p[i + 1]), norm_edge(p[i], p[-1])))
            p = p[: i + 1] + p[: i : -1]
        return p, rotations

    def moves(self, cuts: tuple[int, ...], tail: int, gamma: GammaView, visited: set[int]):
        """Yield (cut index, new tail) for each rotation of the path named by
        ``cuts`` (with tail ``tail``) whose new tail is not in ``visited``,
        in ascending pivot order."""
        index, last, path = self.index, self.last, self.path
        for pivot in gamma.adj(tail):
            i = index.get(pivot)
            if i is None:
                continue
            for c in cuts:
                if i > c:
                    i = last + c + 1 - i
            if i == 0 or i >= last - 1:
                continue
            j = i + 1
            for c in reversed(cuts):
                if j > c:
                    j = last + c + 1 - j
            if path[j] not in visited:
                yield i, path[j]


# a BFS state: (cuts, tail)
_State = tuple[tuple[int, ...], int]


def _grow_side(
    rooted: _RotatedPath, gamma: GammaView, offpath: set[int]
) -> tuple[Outcome | None, list[_State]]:
    """BFS over rotations of the tail with the head fixed, up to
    ``MAX_STATES`` states and ``MAX_LEVELS`` rotations deep.

    Returns (outcome, states): the first Extend, else the first Close, else
    None.  An Extend ends the search, and so does a Close when no vertex is
    off the path, since nothing can then beat it.  States are created in
    order of depth, so ``states`` is also the BFS queue; they stay implicit
    (see ``_RotatedPath``), and an outcome reads its rotations off its cuts.
    """
    max_states, max_levels = MAX_STATES, MAX_LEVELS
    head = rooted.path[0]
    closable = rooted.last >= 2
    root: _State = ((), rooted.path[-1])
    visited = {root[1]}
    states = [root]
    close = None

    def stop(cuts: tuple[int, ...], tail: int) -> Outcome | None:
        """The outcome that ends the search at the state (cuts, tail); its
        first Close is kept in ``close``."""
        nonlocal close
        if offpath:
            entry = next((u for u in gamma.adj(tail) if u in offpath), None)
            if entry is not None:
                return Outcome(kind="extend", rotations=rooted.realize(cuts)[1],
                               added=norm_edge(tail, entry))
        if close is None and closable and gamma.has(tail, head):
            close = Outcome(kind="close", rotations=rooted.realize(cuts)[1],
                            added=norm_edge(tail, head))
            if not offpath:
                return close
        return None

    found = stop(*root)
    if found:
        return found, states
    for cuts, tail in states:
        if len(cuts) >= max_levels or len(states) >= max_states:
            break
        for i, new_tail in rooted.moves(cuts, tail, gamma, visited):
            visited.add(new_tail)
            state = (cuts + (i,), new_tail)
            states.append(state)
            found = stop(*state)
            if found:
                return found, states
            if len(states) >= max_states:
                break
    return close, states


def posa_search(broken: BrokenTwoFactor, gamma: GammaView) -> Outcome:
    """Find an Extend or Close outcome by two-sided rotation BFS.

    The tail side is searched first, then the search re-anchors at reached
    tails and rotates the other end of each reached path.  For a path with
    leftover cycles, Extend is preferred and Close (with a later reopen) is
    the fallback, and the only re-anchor is at the root: the search from
    the head.  For a spanning path only Close applies, and up to
    ``TWO_SIDED_CAP`` reached paths are re-anchored.  Exhausted means no
    search found either outcome.
    """
    offpath = broken.offpath_vertices()
    spanning = not offpath
    side_a = _RotatedPath(broken.path)
    found, states = _grow_side(side_a, gamma, offpath)
    if found and (spanning or found.kind == "extend"):
        return found
    for cuts, _ in states[: TWO_SIDED_CAP if spanning else 1]:
        path, rots = side_a.realize(cuts)
        other, _ = _grow_side(_RotatedPath(path[::-1]), gamma, offpath)
        if other:
            other.rotations = rots + other.rotations
            if spanning or other.kind == "extend":
                return other
            found = found or other
    return found or Outcome(kind="exhausted")


# -- full conversion ----------------------------------------------------------


@dataclass
class StepRecord:
    step: int
    factor: int
    rotations: int
    consumed: list[tuple[int, int]]
    returned: list[tuple[int, int]]
    cap: float | None
    within_cap: bool | None


@dataclass
class ConversionResult:
    hamilton_cycles: list[list[int]]
    per_factor: list[dict]
    ledger: list[StepRecord]
    # each factor's last attempt; a retry replaces the first attempt's
    # transcript, which moves to earlier_transcripts under (factor, pass)
    transcripts: dict[int, list[TranscriptRecord]]
    earlier_transcripts: dict[tuple[int, int], list[TranscriptRecord]]
    steps: int
    g2_consumed: int
    audit_failures: list[str]

    @property
    def total_rotations(self) -> int:
        return sum(o["rotations"] for o in self.per_factor)


def _cover_keys(cycles: list[list[int]], n: int) -> set[int]:
    """The keys u·n + v (u < v) of a cycle cover's edges."""
    return {u * n + v if u < v else v * n + u
            for cyc in cycles for u, v in zip(cyc, cyc[1:] + cyc[:1])}


class _ConversionAudit:
    """The conversion audit: checks at each step that the reservoir follows
    the bookkeeping, and only observes it.

    It recomputes the committed set as base ∪ F*, where base is the
    finished edges and the pending factors; within one attempt only F*
    changes (the finished edges grow at its close, by F*).  A snapshot of
    the persistent committed set P is a pair (plus, minus) with
    P = (base − minus) ∪ plus and plus disjoint from base: (F* − base, ∅)
    while P agrees with base ∪ F*.  Each snapshot first tests P against the
    parts themselves, with nothing built: while the finished edges and the
    pending factors are pairwise disjoint (``disjoint``) and F* shares no
    key with them, P is their union exactly when every part lies in P and
    their sizes add up to |P|.  Only when that test fails is base built,
    once for the attempt, and P compared with base ∪ F*.  Whether base lies
    in G0 is read off flags kept per factor and for the finished edges.
    The reservoir is G0 minus the committed set, so no G0-sized set is
    built.  Messages name edges as sorted (u, v) tuples and go to
    ``failures``.
    """

    def __init__(self, g0: Graph, gamma: GammaView, factor_edges: list[set[int]],
                 pending: set[int], finished: set[int]):
        n = self.n = g0.n
        self.g0_edges = {u * n + v for u in range(n) for v in g0.adj(u) if v > u}
        self.gamma, self.factor_edges = gamma, factor_edges
        self.pending, self.finished = pending, finished
        # the factors are pairwise disjoint and the finished edges share no
        # key with a pending factor; factors that share an edge keep every
        # step on the built base
        self.disjoint = len(gamma.committed) == sum(map(len, factor_edges))
        self.factor_in_g0 = [f <= self.g0_edges for f in factor_edges]
        self.finished_in_g0 = self.base_in_g0 = True
        self.base: set[int] | None = None
        self.pending_size = 0
        self.before: tuple[set[int], set[int]] = (set(), set())
        self.failures: list[str] = []

    def _snapshot(self, current: set[int], unknown: set[int]):
        """(in_sync, current − base, snapshot of P): in_sync says whether P
        equals base ∪ ``current``, where ``unknown`` holds the keys of
        ``current`` that may lie in base.  The parts' test needs no base;
        otherwise base is built on the attempt's first such call and P is
        compared with it in one pass."""
        committed, finished, factors = self.gamma.committed, self.finished, self.factor_edges
        pending = self.pending
        if (self.disjoint and finished.isdisjoint(unknown)
                and not any(k in factors[i] for k in unknown for i in pending)
                and len(committed) == len(finished) + self.pending_size + len(current)
                and current <= committed and finished <= committed
                and all(factors[i] <= committed for i in pending)):
            # a copy: F* keeps changing
            fresh = set(current)
            return True, fresh, (fresh, set())
        if self.base is None:
            self.base = finished.union(*(factors[i] for i in pending))
        base = self.base
        fresh = current - base
        if (len(committed) == len(base) + len(fresh)
                and base <= committed and fresh <= committed):
            return True, fresh, (fresh, set())
        return False, fresh, (committed - base, base - committed)

    def attempt_started(self, fstar: set[int]) -> None:
        """Take the snapshot of P once an attempt has committed its factor
        and broken it into ``fstar``."""
        pending, factors, in_g0 = self.pending, self.factor_edges, self.factor_in_g0
        self.base = None
        self.base_in_g0 = self.finished_in_g0 and all(in_g0[i] for i in pending)
        self.pending_size = sum(len(factors[i]) for i in pending)
        # while ``disjoint`` holds, F* shares no key with a pending factor,
        # since it lies in its own
        self.before = self._snapshot(fstar, fstar & self.finished)[2]

    def step_ended(self, step: int, fstar: set[int], consumed: list[tuple[int, int]],
                   returned: list[tuple[int, int]], closed: bool) -> None:
        """Check a step against base ∪ ``fstar`` and its ledger row.  A step
        that closes the cycle is checked before F* joins the finished
        edges."""
        n, fail = self.n, self.failures.append
        plus, minus = self.before
        # plus is disjoint from base, so F* is when its keys outside plus are
        in_sync, fresh, self.before = self._snapshot(fstar, fstar - plus)
        base = self.base
        if not in_sync:
            drift = sorted((self.gamma.committed ^ (base | fstar)) & self.g0_edges)
            if drift:
                fail(f"step {step}: persistent reservoir differs from recomputation on "
                     f"{[divmod(k, n) for k in drift]}")
        gained, consumed_set = minus | (fresh - plus), {u * n + v for u, v in consumed}
        if gained != consumed_set:
            fail(f"step {step}: untraceable reservoir consumption "
                 f"{[divmod(k, n) for k in sorted(gained ^ consumed_set)]}")
        freed, returned_set = plus - fstar, {u * n + v for u, v in returned}
        if freed != returned_set:
            fail(f"step {step}: untraceable reservoir return "
                 f"{[divmod(k, n) for k in sorted(freed ^ returned_set)]}")
        # finished, F*, the pending factors and G0 minus the committed set
        # partition G0: the sizes add up when those parts are pairwise
        # disjoint, which the parts' test proves when it leaves base unbuilt
        sizes = len(self.finished) + len(fstar) + self.pending_size
        if not ((base is None or sizes == len(base) + len(fresh))
                and self.base_in_g0 and fresh <= self.g0_edges):
            fail(f"edge conservation broken at step {step}")
        if closed:
            # F* joins the finished edges, which stay disjoint from the
            # pending factors if F* shared no key with base
            self.disjoint = self.disjoint and len(fresh) == len(fstar)
            self.finished_in_g0 = self.finished_in_g0 and fstar <= self.g0_edges


def convert_all(
    factors: list[list[list[int]]],
    g0: Graph,
    g2: Graph,
    params: Params,
    mode: str = "report",
    audit: bool = False,
) -> ConversionResult:
    """Convert each 2-factor into a Hamilton cycle, in order, then retry the
    abandoned ones once.  ``mode`` accepts only ``"report"``.

    ``audit`` checks every step against a recomputation of the reservoir
    (``_ConversionAudit``); it only observes, so the cycles, ledger and
    transcripts are those of an unaudited run, and its messages become
    ``ConversionResult.audit_failures`` (empty without the audit).

    The edge sets of the bookkeeping (each factor's edges, F*, the
    reservoir's committed set, the finished edges and the audit's sets)
    hold integer keys u·n + v (u < v), as ``GammaView`` does; transcript
    records, the ledger and the audit's messages keep (u, v) tuples, and
    keys sort as those tuples do.
    """
    if mode != "report":
        raise ValueError(f"unknown mode {mode!r}")
    n = g0.n
    factor_edges = [_cover_keys(f, n) for f in factors]

    finished_edges: set[int] = set()
    hamilton: list[list[int]] = []
    per_factor: list[dict] = []
    ledger: list[StepRecord] = []
    transcripts: dict[int, list[TranscriptRecord]] = {}
    earlier_transcripts: dict[tuple[int, int], list[TranscriptRecord]] = {}
    pending: set[int] = set(range(len(factors)))
    # the one reservoir of the conversion; every pending factor is committed
    gamma = GammaView(g0, set().union(*factor_edges))
    auditor = (_ConversionAudit(g0, gamma, factor_edges, pending, finished_edges)
               if audit else None)
    step = 0

    cap = None
    if params.budgets_defined:
        cap = 2 * params.e0 + 2 * params.e1 + 2

    def attempt(fi: int, pass_no: int) -> bool:
        nonlocal step
        pending.discard(fi)
        broken, brec = break_to_path(factors[fi], n)
        transcript = [brec]
        if fi in transcripts:
            earlier_transcripts[fi, pass_no - 1] = transcripts[fi]
        transcripts[fi] = transcript
        u, v = brec.deleted
        # F* starts with the factor's own key objects, which the committed
        # set also holds, so the audit's subset checks can match on
        # identity; deriving F* from ``broken`` measured about 30% slower
        fstar = set(factor_edges[fi])
        fstar.discard(u * n + v)
        gamma.take(factor_edges[fi])
        gamma.give([u * n + v])
        if auditor is not None:
            auditor.attempt_started(fstar)
        steps_here = rot_here = 0

        def run(records) -> None:
            """Apply records in order, keeping the transcript, F* and the
            reservoir in step."""
            for rec in records:
                rec = apply(broken, rec)
                transcript.append(rec)
                u, v = rec.added
                fstar.add(u * n + v)
                gamma.take([u * n + v])
                if rec.deleted:
                    u, v = rec.deleted
                    fstar.discard(u * n + v)
                    gamma.give([u * n + v])

        status, extra, done = "hamilton", {}, False
        while not done:
            step += 1
            steps_here += 1
            outcome = posa_search(broken, gamma)
            if outcome.kind == "exhausted":
                gamma.give(fstar)
                status = "abandoned"
                break
            first = len(transcript)
            run(TranscriptRecord(step=step, kind="rotate", pivot=pivot, deleted=deleted,
                                 added=added)
                for pivot, deleted, added in outcome.rotations)
            nrot = len(outcome.rotations)
            rot_here += nrot
            done = outcome.kind == "close" and not broken.cycles
            if outcome.kind == "extend":
                run([TranscriptRecord(step=step, kind="absorb", added=outcome.added)])
            elif done:
                run([TranscriptRecord(step=step, kind="close", added=outcome.added)])
            else:
                # close to C*, search an escape edge, reopen, absorb; the
                # step's moves so far change only edges within C*, so the
                # escape search sees the off-path reservoir the step found
                cstar = broken.path
                offpath = broken.offpath_vertices()
                escape = next(((y, z) for y in cstar for z in gamma.adj(y) if z in offpath),
                              None)
                if escape is None:
                    gamma.give(fstar)
                    status, extra = "abandoned", {"deadend": True}
                    break
                y, z = escape
                reopened = norm_edge(y, cstar[(cstar.index(y) + 1) % len(cstar)])
                run([TranscriptRecord(step=step, kind="close", added=outcome.added,
                                      deleted=reopened),
                     TranscriptRecord(step=step, kind="absorb", added=norm_edge(y, z))])
            consumed = [rec.added for rec in transcript[first:]]
            returned = [rec.deleted for rec in transcript[first:] if rec.deleted]
            consumed_net = [e for e in consumed if e not in returned]
            returned_net = [e for e in returned if e not in consumed]
            within = None
            if cap is not None:
                within = len(consumed_net) <= cap
            ledger.append(
                StepRecord(step=step, factor=fi, rotations=nrot,
                           consumed=consumed_net, returned=returned_net,
                           cap=cap, within_cap=within)
            )
            if auditor is not None:
                auditor.step_ended(step, fstar, consumed_net, returned_net, done)
            if done:
                finished_edges.update(fstar)
                hamilton.append(list(broken.path))
        per_factor.append(
            {"factor": fi, "outcome": status, "steps": steps_here,
             "rotations": rot_here, "pass": pass_no, **extra}
        )
        return status == "hamilton"

    abandoned: list[int] = []
    for fi in range(len(factors)):
        if not attempt(fi, pass_no=1):
            abandoned.append(fi)
    for fi in abandoned:
        # retry only if the original factor's edges are all free again;
        # checked per factor, since an earlier retry may have used them
        if all(gamma.has(*divmod(k, n)) for k in factor_edges[fi]):
            attempt(fi, pass_no=2)

    g2_consumed = len({u * n + v for u in range(n) for v in g2.adj(u) if v > u} & finished_edges)
    return ConversionResult(
        hamilton_cycles=hamilton,
        per_factor=per_factor,
        ledger=ledger,
        transcripts=transcripts,
        earlier_transcripts=earlier_transcripts,
        steps=step,
        g2_consumed=g2_consumed,
        audit_failures=auditor.failures if auditor is not None else [],
    )


# -- transcript replay --------------------------------------------------------


def replay(
    factor: list[list[int]], transcript: list[TranscriptRecord], n: int
) -> list[int]:
    """Re-apply a transcript to its initial 2-factor; returns the final path
    (a Hamilton cycle's vertex order when the transcript ends with a spanning
    close)."""
    broken, brec = break_to_path(factor, n)
    if not transcript or transcript[0].kind != "break" or transcript[0].deleted != brec.deleted:
        raise ValueError("break edge mismatch")
    for rec in transcript[1:]:
        apply(broken, rec)
    return list(broken.path)
