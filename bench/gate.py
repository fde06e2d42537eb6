"""The benchmark's correctness gate.

Every answer the program gives is checked here, outside the timed region.
The structural checks work on an adjacency built by the benchmark from the
input edge list, so they do not rely on the code under test.  Checks raise
GateError rather than using `assert`, which `python -O` strips.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


class GateError(Exception):
    """A program answer is wrong; the run aborts instead of counting it."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _in_range(adj: list[set[int]], vs: Sequence[int], what: str) -> None:
    require(all(0 <= v < len(adj) for v in vs), f"{what}: vertex out of range")
    require(len(set(vs)) == len(vs), f"{what}: repeated vertex")


def check_induced_path(adj, vs: Sequence[int], what: str) -> None:
    _in_range(adj, vs, what)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            require((vs[j] in adj[vs[i]]) == (j == i + 1),
                    f"{what}: {list(vs)} is not an induced path")


def check_induced_cycle(adj, vs: Sequence[int], min_len: int, what: str) -> None:
    _in_range(adj, vs, what)
    k = len(vs)
    require(k >= max(3, min_len), f"{what}: cycle of {k} vertices, need {min_len}")
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            require((vs[j] in adj[vs[i]]) == consecutive,
                    f"{what}: {list(vs)} is not an induced cycle")


def check_biclique(adj, left: Sequence[int], right: Sequence[int],
                   a: int, b: int, what: str) -> None:
    _in_range(adj, tuple(left) + tuple(right), what)
    require(len(left) >= a and len(right) >= b,
            f"{what}: sides {len(left)}x{len(right)}, need {a}x{b}")
    require(all(v in adj[u] for u in left for v in right),
            f"{what}: missing a left-right edge")


def check_independent(adj, vs: Sequence[int], what: str) -> None:
    _in_range(adj, vs, what)
    chosen = set(vs)
    require(all(not (adj[v] & chosen) for v in vs), f"{what}: not independent")


def check_subdivided_star(adj, center: int, middles: Sequence[int],
                          leaves: Sequence[int], d: int, what: str) -> None:
    vs = (center, *middles, *leaves)
    _in_range(adj, vs, what)
    require(len(middles) == d and len(leaves) == d, f"{what}: needs {d} leaves")
    edges = {frozenset((center, m)) for m in middles}
    edges |= {frozenset(pair) for pair in zip(middles, leaves)}
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            require((vs[j] in adj[vs[i]]) == (frozenset((vs[i], vs[j])) in edges),
                    f"{what}: not an induced subdivided star")


def check_elimination(adj, order: Sequence[int], bound: int, what: str) -> None:
    """Each vertex has at most `bound` neighbours later in the order."""
    n = len(adj)
    require(sorted(order) == list(range(n)), f"{what}: not an order of all vertices")
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    worst = max((sum(1 for w in adj[v] if pos[w] > pos[v]) for v in range(n)),
                default=0)
    require(worst <= bound, f"{what}: a vertex has {worst} later neighbours, "
                            f"bound {bound}")


def _connected(adj, part: set[int]) -> bool:
    start = min(part)
    seen = {start}
    queue = deque([start])
    while queue:
        for w in adj[queue.popleft()] & part:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == part


def check_clique_minor(adj, branch_sets: Sequence[Iterable[int]], p: int,
                       what: str) -> None:
    sets = [set(s) for s in branch_sets]
    require(len(sets) == p, f"{what}: {len(sets)} branch sets, need {p}")
    _in_range(adj, [v for s in sets for v in s], what)
    require(all(s and _connected(adj, s) for s in sets),
            f"{what}: a branch set is empty or disconnected")
    for i in range(p):
        for j in range(i + 1, p):
            require(any(adj[v] & sets[j] for v in sets[i]),
                    f"{what}: branch sets {i} and {j} are not adjacent")


def is_forest(adj) -> bool:
    seen: set[int] = set()
    for root in range(len(adj)):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, -1)]
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:
                    continue
                if w in seen:
                    return False
                seen.add(w)
                stack.append((w, v))
    return True
