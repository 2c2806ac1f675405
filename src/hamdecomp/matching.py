"""Matching kernels: blossom matching on general graphs, Hopcroft-Karp on
bipartite graphs, and a brute-force reference matcher for tiny inputs."""
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
    """Maximum matching of a bipartite graph given as X-side adjacency.

    Returns match_x[x] = matched y or -1.  O(E*sqrt(V)).
    """
    n_x = len(adj_x)
    INF = float("inf")
    match_x = [-1] * n_x
    match_y = [-1] * n_y
    # greedy seed
    for x in range(n_x):
        for y in adj_x[x]:
            if match_y[y] == -1:
                match_x[x] = y
                match_y[y] = x
                break
    dist = [0.0] * n_x

    def bfs() -> bool:
        q = deque()
        for x in range(n_x):
            if match_x[x] == -1:
                dist[x] = 0.0
                q.append(x)
            else:
                dist[x] = INF
        found = False
        while q:
            x = q.popleft()
            for y in adj_x[x]:
                w = match_y[y]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[x] + 1
                    q.append(w)
        return found

    def dfs(root: int) -> None:
        """Augment along the first layered alternating path from the free
        vertex root, trying each vertex's edges in adjacency order.  The
        path so far is xs[0] -ys[0]- xs[1] ...; its[i] holds the edges xs[i]
        has not tried yet.  A vertex with no way forward is closed (dist
        INF) and its parent tries its next edge.
        """
        xs, ys, its = [root], [], [iter(adj_x[root])]
        while xs:
            x = xs[-1]
            next_dist = dist[x] + 1
            for y in its[-1]:
                w = match_y[y]
                if w == -1:
                    ys.append(y)
                    for x, y in zip(xs, ys):
                        match_x[x] = y
                        match_y[y] = x
                    return
                if dist[w] == next_dist:
                    ys.append(y)
                    xs.append(w)
                    its.append(iter(adj_x[w]))
                    break
            else:
                dist[x] = INF
                xs.pop()
                its.pop()
                if ys:
                    ys.pop()

    while bfs():
        for x in range(n_x):
            if match_x[x] == -1:
                dfs(x)
    return match_x
