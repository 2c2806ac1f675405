"""Matching kernels: blossom matching on general graphs, augmenting-path
search with lookahead on bipartite graphs (a matching for the peel, a
b-matching for the arcs the factor drops), and a brute-force reference
matcher for tiny inputs."""
from __future__ import annotations

from collections import deque
from itertools import combinations


def max_matching_general(adj: list[list[int]], init: list[int]) -> list[int]:
    """Maximum cardinality matching via augmenting paths with blossom
    contraction.  Returns match[v] = partner or -1.

    O(V*E) per augmentation.  The search starts from a copy of the
    caller's initial matching ``init`` (``[-1] * len(adj)`` for the empty
    one); a large one keeps the number of augmentations small.
    """
    n = len(adj)
    match = list(init)
    p = [-1] * n      # alternating-tree parents
    base = [0] * n    # blossom base of each vertex
    q: deque[int] = deque()
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
            in_queue[i] = False
        q.clear()
        q.append(root)
        in_queue[root] = True
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not in_queue[i]:
                                in_queue[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augment along the path ending at `to`
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return 1
                    else:
                        if not in_queue[match[to]]:
                            in_queue[match[to]] = True
                            q.append(match[to])
        return 0

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def is_perfect(match: list[int]) -> bool:
    return all(m != -1 for m in match)


def brute_max_matching_size(adj: list[list[int]]) -> int:
    """Exhaustive maximum matching size; reference oracle for n <= 16.
    Sizes are tried downward from n // 2, the most a matching can have: k
    edges form a matching when their 2k endpoints are distinct."""
    n = len(adj)
    if n > 16:
        raise ValueError("brute matcher capped at 16 vertices")
    edges = sorted({(v, u) for v in range(n) for u in adj[v] if u > v})
    for k in range(min(len(edges), n // 2), 0, -1):
        if any(len({x for e in sub for x in e}) == 2 * k for sub in combinations(edges, k)):
            return k
    return 0


def hopcroft_karp(adj_x: list[list[int]], n_y: int) -> list[int]:
    """Maximum matching of a bipartite graph given as X-side adjacency;
    returns match_x[x] = matched y or -1.

    The name is the peel's tracer target; the search is Pothen and Fan's
    (ACM TOMS 1990), faster than Hopcroft-Karp on sparse bipartite graphs
    (Duff, Kaya and Ucar, ACM TOMS 2011).  A greedy pass matches each x to
    the first free neighbour of its list read from position x mod its
    degree onward, wrapping round, so that the x's do not all compete for
    the y's that head their lists (on the regular doubles the peel matches
    this leaves fewer x's free than scans from position 0, and each scan
    ends sooner); it tests the y at that start position first and slices
    the list only when that y is taken.  When the pass leaves no x free,
    the matching is returned before any phase is set up.  Each phase then
    searches depth-first from every free x, visiting each y at most once;
    on entering an x it first looks for a free neighbour, ``ahead[x]``
    skipping for good the matched ones.  The phases keep the set of free
    y's, and one C-level ``isdisjoint`` test of it against x's list
    settles an x with no free neighbour: ``ahead[x]`` then jumps to the
    end, and the scan runs only when the test says a free y is there.
    Both shortcuts are exact because a matched y stays matched: the y's
    before ``ahead[x]`` stay skipped, and the first free y the scan meets
    is the one the full scan would meet, so the matching returned is the
    same.  A phase with no augmentation leaves no free y reachable from a
    free x: the matching is then maximum.
    """
    n_x = len(adj_x)
    match_x = [-1] * n_x
    match_y = [-1] * n_y
    for x, heads in enumerate(adj_x):
        if not heads:
            continue
        k = x % len(heads)
        y = heads[k]
        if match_y[y] != -1:
            for y in heads[k + 1:]:
                if match_y[y] == -1:
                    break
            else:
                for y in heads[:k]:
                    if match_y[y] == -1:
                        break
                else:
                    continue
        match_x[x] = y
        match_y[y] = x
    free = [x for x in range(n_x) if match_x[x] == -1]
    if not free:
        return match_x
    # n_y - (n_x - len(free)) y's are free: find them with C-level scans
    free_y: set[int] = set()
    y = -1
    for _ in range(n_y - n_x + len(free)):
        y = match_y.index(-1, y + 1)
        free_y.add(y)
    ahead = [0] * n_x
    seen = [0] * n_y
    phase = 0
    while free:
        phase += 1
        left = []
        for root in free:
            # the path so far is xs[0] -ys[0]- xs[1] ...; its[i] holds the
            # edges xs[i] has not tried yet
            xs, ys, its = [root], [], [iter(adj_x[root])]
            while xs:
                x = xs[-1]
                heads, k = adj_x[x], ahead[x]
                if k < len(heads):
                    if free_y.isdisjoint(heads):
                        ahead[x] = len(heads)
                    else:
                        # the y's before ahead[x] are matched, so the
                        # free one lies at k or after it
                        while match_y[heads[k]] != -1:
                            k += 1
                        ahead[x] = k
                        y = heads[k]
                        free_y.remove(y)
                        ys.append(y)
                        for x, y in zip(xs, ys):
                            match_x[x] = y
                            match_y[y] = x
                        break
                for y in its[-1]:
                    if seen[y] != phase:
                        seen[y] = phase
                        ys.append(y)
                        xs.append(match_y[y])
                        its.append(iter(adj_x[xs[-1]]))
                        break
                else:
                    xs.pop()
                    its.pop()
                    if ys:
                        ys.pop()
            else:
                left.append(root)
        if len(left) == len(free):
            break
        free = left
    return match_x


def bipartite_b_matching(adj_x: list[list[int]], cap_x: list[int],
                         cap_y: list[int]) -> list[set[int]]:
    """Maximum b-matching of a bipartite graph given as X-side adjacency,
    with per-vertex capacities: x selects at most ``cap_x[x]`` neighbours
    and y is selected at most ``cap_y[y]`` times (n_y = len(cap_y); a
    capacity may be 0).  Returns sel[x], the set of y's that x selects.

    ``hopcroft_karp``'s search with room: the greedy pass gives each x, in
    order, its neighbours in order while both have room; each phase
    searches from every x with room, again while that augments.  An x steps
    to the y's it does not select, a y to the x's selecting it, and any y
    with room ends a path (``ahead[x]`` skips the full ones: a load never
    falls).  Odd phases scan lists forward and even ones backward (Pothen
    and Fan's fairness), which keeps paths short.
    """
    n_x = len(adj_x)
    sel: list[set[int]] = [set() for _ in range(n_x)]
    holders: list[list[int]] = [[] for _ in cap_y]  # the x's selecting y
    room = list(cap_y)
    for x, heads in enumerate(adj_x):
        mine, b = sel[x], cap_x[x]
        if not b:
            continue
        for y in heads:
            if room[y]:
                room[y] -= 1
                holders[y].append(x)
                mine.add(y)
                if len(mine) == b:
                    break
    ahead = [0] * n_x
    seen_x = [0] * n_x
    seen_y = [0] * len(cap_y)

    def augment(root: int, phase: int) -> bool:
        # path = x0, y1, x1, y2, ...; its[i] holds what path[i] has not
        # tried yet: an x's neighbours, or a y's holders
        scan = iter if phase % 2 else reversed
        path, its = [root], [scan(adj_x[root])]
        while its:
            v = path[-1]
            if len(path) % 2 == 0:  # v is a y
                for x in its[-1]:
                    if seen_x[x] != phase:
                        seen_x[x] = phase
                        path.append(x)
                        its.append(scan(adj_x[x]))
                        break
                else:
                    path.pop()
                    its.pop()
                continue
            # the lookahead; it finds nothing new when the search backs up
            mine, heads, k = sel[v], adj_x[v], ahead[v]
            while k < len(heads) and not room[heads[k]]:
                k += 1
            ahead[v] = k
            while k < len(heads) and (not room[heads[k]] or heads[k] in mine):
                k += 1
            if k < len(heads):
                y = heads[k]
                room[y] -= 1
                holders[y].append(v)
                mine.add(y)
                # each y on the path passes from the x after it to the x
                # before it
                for i in range(1, len(path), 2):
                    y, x, prev = path[i], path[i + 1], path[i - 1]
                    sel[x].remove(y)
                    sel[prev].add(y)
                    h = holders[y]
                    h[h.index(x)] = prev
                return True
            for y in its[-1]:
                if seen_y[y] != phase and y not in mine:
                    seen_y[y] = phase
                    path.append(y)
                    its.append(scan(holders[y]))
                    break
            else:
                path.pop()
                its.pop()
        return False

    short = [x for x in range(n_x) if len(sel[x]) < cap_x[x]]
    phase = 0
    while short:
        phase += 1
        grew = False
        for root in short:
            if seen_x[root] != phase:
                seen_x[root] = phase
                while len(sel[root]) < cap_x[root] and augment(root, phase):
                    grew = True
        if not grew:
            break
        short = [x for x in short if len(sel[x]) < cap_x[x]]
    return sel
