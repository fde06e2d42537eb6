"""Immutable simple graphs, oriented paths, and anticompleteness predicates.

Vertices are integers 0..n-1.  Vertex sets are plain frozensets/sets of ids;
all functions that iterate over sets do so in sorted order so that outputs
are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

VertexSet = frozenset[int]

#: Construction refuses graphs larger than this; the heavy algorithms are all
#: desk-scale anyway.
DEFAULT_VERTEX_CAP = 10**6


class Graph:
    """Immutable undirected simple graph with adjacency-set access."""

    __slots__ = ("n", "_adj", "labels", "_m", "_masks")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...],
                 labels: Optional[tuple[str, ...]] = None):
        self.n = n
        self._adj = adj
        self.labels = labels
        self._m = sum(len(s) for s in adj) // 2
        self._masks: Optional[tuple[int, ...]] = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Optional[Sequence[str]] = None,
                   cap: int = DEFAULT_VERTEX_CAP) -> "Graph":
        """Build a graph from an edge list.

        Self-loops and repeated edges are rejected rather than dropped.
        The result does not depend on the order of `edges`.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > cap:
            raise ValueError(f"vertex count {n} exceeds cap {cap}")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in sets[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            sets[u].add(v)
            sets[v].add(u)
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal vertex count")
        return cls(n, tuple(frozenset(s) for s in sets),
                   tuple(labels) if labels is not None else None)

    def adj(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks: bit w of masks()[v] is set iff vw is an edge.

        A vertex set is then one int, and a union, an intersection or a
        membership test is one operation.  Set bits are visited from the
        lowest up (`low = s & -s`), which is ascending id, the same order as
        sorted(adj(v)).  Built on the first call and cached, which is safe
        because the graph is immutable; from_edges does not build them.
        """
        if self._masks is None:
            self._masks = tuple(sum(1 << w for w in s) for s in self._adj)
        return self._masks

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def complement(self) -> "Graph":
        full = frozenset(range(self.n))
        adj = tuple(full - self._adj[v] - {v} for v in range(self.n))
        return Graph(self.n, adj, self.labels)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the new-index -> original-id mapping.

        Certificates must reference original ids, so callers that hand
        subgraph results onward should translate through the mapping.
        """
        order = tuple(sorted(set(vertices)))
        pos = {v: i for i, v in enumerate(order)}
        adj = tuple(frozenset(pos[w] for w in self._adj[v] if w in pos)
                    for v in order)
        return Graph(len(order), adj), order

    def degree_in(self, v: int, s: VertexSet | set[int]) -> int:
        """Number of neighbors of v inside s."""
        return len(self._adj[v] & s)

    def neighbors_in(self, v: int, s: VertexSet | set[int]) -> frozenset[int]:
        return frozenset(self._adj[v] & s)

    def is_connected_subset(self, s: Iterable[int]) -> bool:
        """True iff the induced subgraph on s is connected (empty set counts as not)."""
        sset = set(s)
        if not sset:
            return False
        start = min(sset)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in self._adj[u]:
                if w in sset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == sset

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self._adj == other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class OrientedPath:
    """A path with a designated first vertex; vertices[i] is the (i+1)-th vertex."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def reversed(self) -> "OrientedPath":
        return OrientedPath(tuple(reversed(self.vertices)))

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def is_path_in(self, g: Graph) -> bool:
        """Consecutive vertices adjacent in g."""
        vs = self.vertices
        return all(g.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


@dataclass(frozen=True)
class PathFamily:
    """A collection of oriented paths, typically equal-length and vertex-disjoint."""

    paths: tuple[OrientedPath, ...]
    common_length: Optional[int] = None

    def __post_init__(self):
        if self.common_length is not None:
            for p in self.paths:
                if len(p) != self.common_length:
                    raise ValueError("path length differs from common_length")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[OrientedPath]:
        return iter(self.paths)

    def vertex_sets(self) -> list[frozenset[int]]:
        return [p.vertex_set() for p in self.paths]

    def all_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for p in self.paths:
            out.update(p.vertices)
        return frozenset(out)

    def layer(self, i: int) -> list[int]:
        """The i-th vertex of every path (0-based)."""
        return [p.vertices[i] for p in self.paths]


def _check_vertices(g: Graph, s: Iterable[int]) -> None:
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id {v} out of range for n={g.n}")


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in s."""
    sset = set(s)
    _check_vertices(g, sset)
    for v in sset:
        if g._adj[v] & sset:
            return False
    return True


def are_anticomplete(g: Graph, p: OrientedPath, q: OrientedPath) -> bool:
    """Vertex-disjoint with no edge from any vertex of p to any vertex of q."""
    pv = p.vertex_set()
    qv = q.vertex_set()
    _check_vertices(g, pv | qv)
    if pv & qv:
        return False
    return all(not (g._adj[v] & qv) for v in pv)


def are_partially_anticomplete(g: Graph, p: OrientedPath, q: OrientedPath) -> bool:
    """Vertex-disjoint, same length, and aligned positions non-adjacent."""
    if len(p) != len(q):
        return False
    if p.vertex_set() & q.vertex_set():
        return False
    return all(not g.has_edge(p.vertices[i], q.vertices[i]) for i in range(len(p)))


def is_partially_anticomplete(g: Graph, family: PathFamily) -> bool:
    """All paths pairwise vertex-disjoint, equal-length, aligned positions non-adjacent."""
    paths = family.paths
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if not are_partially_anticomplete(g, paths[i], paths[j]):
                return False
    return True


def verify_induced_path(g: Graph, p: OrientedPath) -> bool:
    """Consecutive pairs adjacent, all other pairs non-adjacent."""
    vs = p.vertices
    _check_vertices(g, vs)
    k = len(vs)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(vs[i], vs[j])
            if j == i + 1:
                if not adjacent:
                    return False
            elif adjacent:
                return False
    return True


def verify_induced_cycle(g: Graph, cycle: Sequence[int]) -> bool:
    """Cyclically consecutive pairs adjacent, all other pairs non-adjacent.

    Raises on fewer than 3 vertices or repeated vertices: that is malformed
    input, not a falsified certificate.
    """
    vs = tuple(cycle)
    if len(vs) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle vertices must be distinct")
    _check_vertices(g, vs)
    k = len(vs)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(vs[i], vs[j])
            consecutive = (j == i + 1) or (i == 0 and j == k - 1)
            if consecutive != adjacent:
                return False
    return True


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])
