"""Graph family generators for the experiment harness.

Every family is deterministic for a fixed seed.  Class guarantees (split
graphs have no induced 5-vertex path, cographs no induced 4-vertex path,
chordal and interval graphs no induced cycle beyond triangles) follow from
the constructions and are re-checked by the detectors in the test suite.
"""
from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import Callable, Iterator, Optional

from .graph import Graph


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree via a random Pruefer sequence."""
    if n <= 1:
        return Graph.from_edges(n, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_split(n: int, rng: random.Random) -> Graph:
    """Clique plus independent set with random cross edges."""
    k = rng.randint(0, n)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for i in range(k):
        for j in range(k, n):
            if rng.random() < 0.4:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def random_cograph(n: int, rng: random.Random) -> Graph:
    """Random cotree: recursive disjoint unions and joins."""
    edges: list[tuple[int, int]] = []

    def build(vs: list[int]) -> None:
        if len(vs) <= 1:
            return
        cut = rng.randint(1, len(vs) - 1)
        left, right = vs[:cut], vs[cut:]
        if rng.random() < 0.5:
            edges.extend((a, b) for a in left for b in right)
        build(left)
        build(right)

    build(list(range(n)))
    return Graph.from_edges(n, edges)


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Intersection graph of random subtrees of a random tree."""
    if n == 0:
        return Graph.from_edges(0, [])
    host = random_tree(max(n, 2), rng)
    subtrees = []
    for _ in range(n):
        size = rng.randint(1, max(1, host.n // 2))
        start = rng.randrange(host.n)
        chosen = {start}
        frontier = [start]
        while frontier and len(chosen) < size:
            v = frontier.pop(rng.randrange(len(frontier)))
            for w in sorted(host.adj(v)):
                if w not in chosen and len(chosen) < size:
                    chosen.add(w)
                    frontier.append(w)
        subtrees.append(chosen)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if subtrees[i] & subtrees[j]]
    return Graph.from_edges(n, edges)


def random_interval(n: int, rng: random.Random) -> Graph:
    points = [(rng.random(), rng.random()) for _ in range(n)]
    spans = [(min(a, b), max(a, b)) for a, b in points]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]
    return Graph.from_edges(n, edges)


def planted_cycle(n: int, t: int, rng: random.Random) -> Graph:
    """A chordless cycle on max(t, 3) vertices with pendant trees hung off
    it, so the largest induced cycle length is known exactly."""
    m = max(t, 3)
    if n < m:
        raise ValueError("n must be at least t")
    edges = [(i, (i + 1) % m) for i in range(m)]
    for v in range(m, n):
        edges.append((v, rng.randrange(v)))
    g = Graph.from_edges(n, edges)
    return g


def planted_biclique(n: int, ell: int, rng: random.Random) -> Graph:
    """K_{ell,ell} on the first 2*ell vertices plus sparse random noise."""
    if n < 2 * ell:
        raise ValueError("n must be at least 2*ell")
    edges = {(i, ell + j) for i in range(ell) for j in range(ell)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.1:
                edges.add((i, j))
    return Graph.from_edges(n, sorted(edges))


def pipeline_ideal_instance(t: int) -> Graph:
    """Anchors joined pairwise by long internally-clean paths (2t - 1
    vertices each, one per pair).

    Contracting the paths leaves a complete graph on the anchors; every
    cycle in the instance is long, so the pipeline's branch-diameter
    reconstruction recovers an induced cycle with at least t vertices.
    """
    m = t // 2
    if m < 3:
        raise ValueError("t must be at least 6")
    length = 2 * t - 1
    edges: list[tuple[int, int]] = []
    nxt = m
    for i, j in combinations(range(m), 2):
        spine = list(range(nxt, nxt + length))
        nxt += length
        edges.append((i, spine[0]))
        edges.append((j, spine[-1]))
        edges.extend((spine[k], spine[k + 1]) for k in range(length - 1))
    return Graph.from_edges(nxt, edges)


def _planted_minor(t: int, copies: int,
                   bridge: Callable[[int, int, int, int], list[tuple[int, int]]]
                   ) -> tuple[Graph, list[frozenset[int]]]:
    """Anchor sets {a_i, s_i} (a_i = i, s_i = t/2 + i), pairwise joined
    through the a-s biclique, then `copies` rounds of one connector set
    {x, tail} per anchor pair (i, j): bridge(i, j, x, tail) lists the edges
    that wire it to the anchors, x is adjacent to tail, and every tail to
    every earlier one.  Returns the graph and the anchor sets followed by
    the connector sets.
    """
    m = t // 2
    edges = {(i, m + j) for i in range(m) for j in range(m)}
    connector_sets: list[frozenset[int]] = []
    tails: list[int] = []
    nxt = 2 * m
    for _ in range(copies):
        for i, j in combinations(range(m), 2):
            x, tail = nxt, nxt + 1
            nxt += 2
            edges.update(bridge(i, j, x, tail))
            edges.add((x, tail))
            edges.update((other, tail) for other in tails)
            tails.append(tail)
            connector_sets.append(frozenset({x, tail}))
    anchor_sets = [frozenset({i, m + i}) for i in range(m)]
    return Graph.from_edges(nxt, sorted(edges)), anchor_sets + connector_sets


def pipeline_full_instance(t: int, copies: int = 2
                           ) -> tuple[Graph, list[frozenset[int]]]:
    """A planted full-vertex minor that drives steps 3-6 end to end.

    Each connector set is a bridge vertex adjacent to its designated anchor
    pair only, plus a tail adjacent to every anchor, which makes the set
    adjacent to everything else.  The branch sets are ordered so the
    round-robin group assignment matches the designated pairs.
    """
    m = t // 2
    if m < 3:
        raise ValueError("t must be at least 6")
    return _planted_minor(t, copies, lambda i, j, x, tail:
                          [(i, x), (j, x)] + [(v, tail) for v in range(2 * m)])


def pipeline_poison_instance(t: int, ell: int, per_pair: int
                             ) -> tuple[Graph, list[frozenset[int]]]:
    """A planted minor whose connector paths all carry overloaded vertices,
    so the step-4 trace check surfaces a biclique.

    Every bridge vertex is adjacent to all anchors a_i and every tail to all
    anchors s_i; `per_pair` controls how many connector sets each anchor
    pair receives (enough of them defeats the trace bound).
    """
    m = t // 2
    return _planted_minor(t, per_pair, lambda i, j, x, tail:
                          [(k, x) for k in range(m)]
                          + [(m + k, tail) for k in range(m)])


#: family name -> maker(n, params, rng); FAMILIES lists the names
_MAKERS: dict[str, Callable[[int, dict, random.Random], Graph]] = {
    "gnp": lambda n, params, rng: gnp(n, float(params.get("p", 0.5)), rng),
    "tree": lambda n, params, rng: random_tree(n, rng),
    "split": lambda n, params, rng: random_split(n, rng),
    "cograph": lambda n, params, rng: random_cograph(n, rng),
    "chordal": lambda n, params, rng: random_chordal(n, rng),
    "interval": lambda n, params, rng: random_interval(n, rng),
    "planted-cycle": lambda n, params, rng: planted_cycle(
        n, int(params.get("t", 5)), rng),
    "planted-biclique": lambda n, params, rng: planted_biclique(
        n, int(params.get("ell", 2)), rng),
}
FAMILIES = tuple(_MAKERS)


def generate(family: str, params: Optional[dict] = None, seed: int = 0,
             count: int = 1) -> Iterator[Graph]:
    """Deterministic stream of graphs from one family."""
    params = dict(params or {})
    rng = random.Random(seed)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    n = int(params.get("n", 10))
    for _ in range(count):
        yield _MAKERS[family](n, params, rng)
