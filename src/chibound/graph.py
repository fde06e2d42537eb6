"""Immutable simple graphs, oriented paths, and anticompleteness predicates.

Vertices are integers 0..n-1.  Vertex sets are plain frozensets/sets of ids;
all functions that iterate over sets do so in sorted order so that outputs
are reproducible.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")
VertexSet = frozenset[int]

#: Construction refuses graphs larger than this; the heavy algorithms are all
#: desk-scale anyway.
DEFAULT_VERTEX_CAP = 10**6


class Graph:
    """Immutable undirected simple graph with adjacency-set access."""

    __slots__ = ("n", "_adj", "_m", "_memo")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...]):
        self.n = n
        self._adj = adj
        self._m = sum(len(s) for s in adj) // 2
        self._memo: dict[str, object] = {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list.

        Self-loops and repeated edges are rejected rather than dropped.
        The result does not depend on the order of `edges`.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > DEFAULT_VERTEX_CAP:
            raise ValueError(f"vertex count {n} exceeds cap {DEFAULT_VERTEX_CAP}")
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
        return cls(n, tuple(frozenset(s) for s in sets))

    def adj(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def memo(self, key: str, build: Callable[["Graph"], T]) -> T:
        """build(self), computed on the first call with this key and kept.

        The memo holds only immutable values derived from the adjacency
        alone, such as the masks below and minors' complete quotient; never
        a validation result, nor anything that depends on a budget, a seed
        or another argument.  The adjacency never changes, so a kept value
        is the one a fresh computation would return, and keeping it is
        safe.  Equality and hashing ignore the memo.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks: bit w of masks()[v] is set iff vw is an edge.

        A vertex set is then one int, and a union, an intersection or a
        membership test is one operation.  Set bits are visited from the
        lowest up (`low = s & -s`), which is ascending id, the same order as
        sorted(adj(v)).  Built on the first call and kept in the memo;
        from_edges does not build them.
        """
        return self.memo("masks", _adjacency_masks)

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

    def degree_in(self, v: int, s: VertexSet | set[int]) -> int:
        """Number of neighbors of v inside s."""
        return len(self._adj[v] & s)

    def neighbors_in(self, v: int, s: VertexSet | set[int]) -> frozenset[int]:
        return frozenset(self._adj[v] & s)

    def bfs(self, source: int, within: VertexSet | set[int],
            target: Optional[int] = None) -> dict[int, int]:
        """Breadth-first search from source inside the vertex set `within`.

        Returns the parent of every vertex reached, in discovery order (the
        source comes first, with parent -1).  Neighbors are visited in
        ascending id, so the search tree is reproducible.  Stops as soon as
        target is discovered.
        """
        parent = {source: -1}
        queue = [source]
        for v in queue:  # the queue grows while it is read
            for w in sorted(self._adj[v] & within):
                if w not in parent:
                    parent[w] = v
                    if w == target:
                        return parent
                    queue.append(w)
        return parent

    def shortest_path(self, source: int, target: int,
                      within: VertexSet | set[int]) -> Optional[list[int]]:
        """The source-target path of the BFS tree inside `within`, or None."""
        parent = self.bfs(source, within, target)
        if target not in parent:
            return None
        path = [target]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path[::-1]

    def cut_counts(self, within: VertexSet | set[int]) -> dict[int, int]:
        """The number of components of the subgraph induced on within - {x},
        for every x in within; x is a cut vertex of its component iff the
        count exceeds that of within itself.

        One depth-first lowpoint pass (Hopcroft & Tarjan, Efficient
        algorithms for graph manipulation, CACM 1973), kept on an explicit
        stack so that long sets do not recurse.  A root's count is its
        number of tree children; any other vertex counts the component
        holding its parent plus each child whose subtree reaches no higher
        than the vertex itself.  The other components of within add to
        every count.
        """
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        counts: dict[int, int] = {}
        parts = 0
        for root in within:
            if root in disc:
                continue
            parts += 1
            disc[root] = low[root] = len(disc)
            counts[root] = 0
            stack = [(root, iter(self._adj[root] & within))]
            while stack:
                v, rest = stack[-1]
                for w in rest:
                    if w not in disc:
                        disc[w] = low[w] = len(disc)
                        counts[w] = 1
                        stack.append((w, iter(self._adj[w] & within)))
                        break
                    low[v] = min(low[v], disc[w])
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        low[u] = min(low[u], low[v])
                        counts[u] += low[v] >= disc[u]
        return {x: c + parts - 1 for x, c in counts.items()}

    def is_connected_subset(self, s: Iterable[int]) -> bool:
        """True iff the induced subgraph on s is connected (empty set counts as not)."""
        sset = set(s)
        return bool(sset) and len(self.bfs(min(sset), sset)) == len(sset)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self._adj == other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _adjacency_masks(g: Graph) -> tuple[int, ...]:
    return tuple(sum(1 << w for w in s) for s in g._adj)


class DegreeQueue:
    """A shrinking vertex set of g with a degree for every member.

    The one degree queue of the package: detect.degeneracy and both
    elimination orders of lemmas delete vertices through it, and
    minors._contract_to_clique contracts on it.  The degrees sit in a lazy
    bucket queue (Matula & Beck, JACM 1983): buckets[d] is a min-heap of
    the ids whose degree was d when pushed, and an entry is stale once its
    vertex is gone or its degree moved.  Every member's degree lies between
    the low and the high pointer: a removal lowers a degree by at most one,
    so the low pointer steps back one, and `update` widens both to d.
    """

    __slots__ = ("g", "vertices", "deg", "_buckets", "_lo", "_hi")

    def __init__(self, g: Graph):
        self.g = g
        self.vertices = set(range(g.n))
        self.deg = [g.degree(v) for v in range(g.n)]
        self._buckets: list[list[int]] = [[] for _ in range(max(self.deg, default=0) + 1)]
        for v in range(g.n):  # ascending ids, so each bucket is already a heap
            self._buckets[self.deg[v]].append(v)
        self._lo, self._hi = 0, len(self._buckets) - 1

    def _least(self, d: int, step: int) -> int:
        """The least id of the first degree, from d on in steps of `step`,
        that a member has; stale entries met on the way are dropped."""
        buckets, vertices, deg = self._buckets, self.vertices, self.deg
        while True:
            heap = buckets[d]
            while heap:
                if (v := heap[0]) in vertices and deg[v] == d:
                    return v
                heapq.heappop(heap)
            d += step

    def min_vertex(self) -> int:
        """The vertex of least (degree, id); the set must not be empty."""
        v = self._least(self._lo, 1)
        self._lo = self.deg[v]
        return v

    def max_vertex(self) -> int:
        """The vertex of most degree and least id, in amortized O(1); the
        set must not be empty."""
        v = self._least(self._hi, -1)
        self._hi = self.deg[v]
        return v

    def remove(self, v: int) -> None:
        """Delete v in O(deg v)."""
        vertices, deg, buckets = self.vertices, self.deg, self._buckets
        vertices.remove(v)
        for w in self.g.adj(v):
            if w in vertices:
                deg[w] -= 1
                heapq.heappush(buckets[deg[w]], w)
        if self._lo:
            self._lo -= 1

    def update(self, v: int, d: int) -> None:
        """Record that member v now has degree d, higher or lower."""
        buckets = self._buckets
        while len(buckets) <= d:
            buckets.append([])
        self.deg[v] = d
        heapq.heappush(buckets[d], v)
        self._lo, self._hi = min(self._lo, d), max(self._hi, d)


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


#: A collection of oriented paths, typically equal-length and vertex-disjoint.
PathFamily = tuple[OrientedPath, ...]


def mask_vertices(mask: int) -> list[int]:
    """The ids of the set bits of a vertex mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def check_vertices(g: Graph, s: Iterable[int]) -> None:
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id {v} out of range for n={g.n}")


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in s."""
    sset = set(s)
    check_vertices(g, sset)
    for v in sset:
        if g._adj[v] & sset:
            return False
    return True


def are_anticomplete(g: Graph, p: OrientedPath, q: OrientedPath) -> bool:
    """Vertex-disjoint with no edge from any vertex of p to any vertex of q."""
    pv = p.vertex_set()
    qv = q.vertex_set()
    check_vertices(g, pv | qv)
    if pv & qv:
        return False
    return all(not (g._adj[v] & qv) for v in pv)


def is_partially_anticomplete(g: Graph, family: PathFamily) -> bool:
    """All paths pairwise vertex-disjoint, equal-length, aligned positions non-adjacent."""
    for i, p in enumerate(family):
        for q in family[i + 1:]:
            if (len(p) != len(q) or p.vertex_set() & q.vertex_set()
                    or any(g.has_edge(a, b) for a, b in zip(p.vertices, q.vertices))):
                return False
    return True


def first_bad_pair(g: Graph, vs: Sequence[int],
                   closed: bool) -> Optional[tuple[int, int]]:
    """The first pair (vs[i], vs[j]), i < j in lexicographic order, that is
    adjacent in g without being consecutive or consecutive without being
    adjacent; None when there is none.  Consecutive means j = i + 1 on a
    path, and also (i, j) = (0, k - 1) on a closed cycle of k vertices.
    """
    k = len(vs)
    for i in range(k):
        around = g.adj(vs[i])
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (closed and i == 0 and j == k - 1)
            if (vs[j] in around) != consecutive:
                return vs[i], vs[j]
    return None


def verify_induced_path(g: Graph, p: OrientedPath) -> bool:
    """Consecutive pairs adjacent, all other pairs non-adjacent."""
    check_vertices(g, p.vertices)
    return first_bad_pair(g, p.vertices, closed=False) is None


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
    check_vertices(g, vs)
    return first_bad_pair(g, vs, closed=True) is None


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
