"""Graph family generators for the experiment harness.

Every family is deterministic for a fixed seed.  Class guarantees (split
graphs have no induced 5-vertex path, cographs no induced 4-vertex path,
chordal and interval graphs no induced cycle beyond triangles) follow from
the constructions and are re-checked by the detectors in the test suite.

`gnp` draws its coin flips in bulk but returns the graph, and leaves `rng`
in the state, of the per-pair loop `rng.random() < p` over the pairs
(0, 1), (0, 2), ..., (n-2, n-1).  This rests on how CPython builds its
floats from the Mersenne Twister: `random()` is (a * 2**26 + b) / 2**53
with a = w0 >> 5 and b = w1 >> 6 for the next two 32-bit words w0, w1, and
`getrandbits(64 * k)` returns the next 2k words, the first one least
significant.  So `rng` must be a `random.Random` (or a subclass that keeps
both methods).
"""
from __future__ import annotations

import heapq
import math
import random
import struct
from itertools import combinations, compress
from typing import Callable, Iterator, Optional

from .graph import Graph

#: Vertex pairs per bulk draw: 2**15 pairs are 256 KiB of generator output.
_CHUNK = 1 << 15
_LAST_DRAW = (1 << 53) - 1
_WORDS = struct.Struct("<II")


def _coin_table(p: float) -> tuple[bytes, int]:
    """The integer c with `random() < p` exactly when a * 2**26 + b < c,
    and a `translate` table for the top byte of that 53-bit draw, which is
    w0 >> 24: 1 where the byte alone makes the pair an edge, 0 where it
    rules the edge out, and 2 where it equals c >> 45 and the pair's two
    words must be read."""
    scaled = p * (1 << 53)
    if not scaled > 0:          # p <= 0 or NaN: no draw is below p
        return bytes(256), 0
    if scaled > _LAST_DRAW:     # every draw is below p
        return b"\x01" * 256, 0
    c = math.ceil(scaled)
    top = c >> 45
    return b"\x01" * top + b"\x02" + bytes(255 - top), c


def _coin_marks(rng: random.Random, k: int, table: bytes, c: int) -> bytearray:
    """The next k flips of `rng.random() < p`, one byte each (1 for an
    edge), consuming exactly the 2k words that k such calls would."""
    raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
    marks = bytearray(raw[3::8].translate(table))
    q = marks.find(2)
    while q >= 0:
        a, b = _WORDS.unpack_from(raw, 8 * q)
        marks[q] = (a >> 5 << 26 | b >> 6) < c
        q = marks.find(2, q + 1)
    return marks


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p): the pairs (i, j), i < j, in lexicographic order,
    each an edge when `rng.random() < p`.

    The flips are drawn `_CHUNK` pairs at a time with `rng.getrandbits`;
    the graph and the state `rng` is left in are exactly those of one
    `rng.random()` call per pair (see the module docstring), so `rng` must
    be a `random.Random`.  The top byte of a draw settles all but about one
    pair in 256 in C.  A chunk's edges are listed by `compress` when more
    than one pair in eight is an edge, and by `find` otherwise, so a sparse
    graph costs O(n^2) byte operations in C plus Python work per edge, per
    row and per pair whose top byte ties.
    """
    table, c = _coin_table(p)
    total = n * (n - 1) // 2 if n > 1 else 0
    edges: list[tuple[int, int]] = []
    append = edges.append
    i, shift, end = 0, 1, n - 1     # row i: pairs q < end, as (i, q + shift)
    for base in range(0, total, _CHUNK):
        k = min(_CHUNK, total - base)
        marks = _coin_marks(rng, k, table, c)
        if (k - marks.count(0)) * 8 > k:
            marked = compress(range(base, base + k), marks)
        else:
            marked = []
            q = marks.find(1)
            while q >= 0:
                marked.append(base + q)
                q = marks.find(1, q + 1)
        for q in marked:
            while q >= end:
                i += 1
                shift += i + 1 - n
                end += n - 1 - i
            append((i, q + shift))
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
    pair receives (enough of them defeats the trace bound).  `ell` does not
    shape the graph; it is accepted for the benchmark's positional call.
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
