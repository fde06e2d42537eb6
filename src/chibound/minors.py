"""Clique minors: validation, search, minimization, and step 2 of the
pipeline, which turns a minimal minor into a long induced cycle.

A branch set of large diameter gives the cycle at once.  Otherwise the
paper looks for it through t randomly chosen branch sets of low adjacency;
full_vertex_minor runs the package's one exact induced-cycle search
(detect.find_long_induced_cycle) inside the union of all the minimal sets
instead, so it finds a cycle whenever such a choice would, and proves
absence there otherwise.  Every search is deterministic, in ascending id.

Path lengths are counted in vertices throughout (a single vertex is a path
of 1), matching how diameters and cycle lengths are compared against t.

Branch-set adjacency has one representation, int masks over branch-set
indices.  _owners gives each vertex its owner bit, 1 << i in set i and 0
off the sets, so the sets a vertex touches are the OR of its neighbours'
owner bits, one C-level reduce per vertex; _touched keeps that row for
each vertex of a set, its own bit cleared.  Validity ORs the bits around a
whole set, full vertices count a row's bits, and a private set is read off
_single: over a set's rows, `twice |= once & row; once |= row` leaves
`once & ~twice`, the sets exactly one vertex touches, so a vertex holds a
private set iff its row meets that mask, and its least one is the lowest
bit there.  Connectivity has one computation too: each branch set of two
or more vertices that validation meets (one vertex is connected as it is)
and each part of the assignment search is tested with
Graph.is_connected_subset, so Graph.bfs is the only BFS.  Minimization
asks instead which vertices of a set are cut vertices, and one
Graph.cut_counts pass answers that for the whole set.

Step 2 checks each minor once.  find_clique_minor validates what it
returns and minimize_minor validates its input, while every removal of the
minimization keeps the minor valid, so its result is not validated again;
a pass re-scans only the sets that lost a vertex in the pass before,
since a removal can make another set's vertex private but never
removable.  check_branch_diameter skips a set of fewer than t vertices,
and eccentric_pair skips each BFS root whose eccentricity bound (Takes &
Kosters, CIKM 2011) cannot beat the best pair found so far.

The clique-minor search has one reduction, the contraction of
_contract_to_clique: its steps below degree 3 are series-parallel
reductions (Duffin 1965) and a minor of least degree 3 holds a K4 (Dirac
1952), so g has a K4 minor iff a supernode it takes has degree >= 3.  Its
quotient depends on g alone, so each Graph is contracted once: the first
find_clique_minor call with p >= 4 keeps the quotient in the graph's memo,
and every later call on that object, for any p, slices it.  Only the
contraction is kept; each call still validates what it returns, and the
assignment search still runs and spends the caller's budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from .certificates import (InducedCycle, InternalInconsistency, certified,
                           require)
from .detect import Budget, SearchBudget, StageShortfall, find_long_induced_cycle
from .graph import DegreeQueue, Graph, check_vertices, mask_vertices


@dataclass(frozen=True)
class CliqueMinor:
    """Pairwise disjoint connected branch sets, pairwise joined by an edge."""

    branch_sets: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.branch_sets)

    def to_json(self) -> list[list[int]]:
        return [sorted(s) for s in self.branch_sets]

    @classmethod
    def from_sets(cls, sets: Sequence) -> "CliqueMinor":
        return cls(tuple(frozenset(s) for s in sets))


def _owners(g: Graph, sets: Sequence[set[int] | frozenset[int]]) -> list[int]:
    """The owner bits: 1 << i for each vertex of the (disjoint) set i, and
    0 for each vertex of g off the sets."""
    owner = [0] * g.n
    for i, s in enumerate(sets):
        bit = 1 << i
        for v in s:
            owner[v] = bit
    return owner


def _touched(g: Graph, owner: list[int], i: int,
             s: Iterable[int]) -> dict[int, int]:
    """Each vertex of branch set i -> the mask of the other sets it has a
    neighbour in."""
    keep, bit = ~(1 << i), owner.__getitem__
    return {v: reduce(or_, map(bit, g.adj(v)), 0) & keep for v in s}


def _single(rows: Iterable[int]) -> int:
    """The mask of the sets that exactly one of the rows touches."""
    once = twice = 0
    for row in rows:
        twice |= once & row
        once |= row
    return once & ~twice


def _least(mask: int) -> Optional[int]:
    """The index of the lowest set bit of mask; None when it is 0."""
    return (mask & -mask).bit_length() - 1 if mask else None


def validate_minor(g: Graph, minor: CliqueMinor) -> bool:
    """Disjointness, connectivity of each branch set, pairwise adjacency."""
    sets = minor.branch_sets
    seen: set[int] = set()
    for s in sets:
        if not s or (s & seen):
            return False
        seen |= s
        check_vertices(g, s)
        if len(s) > 1 and not g.is_connected_subset(s):
            return False
    owner, full = _owners(g, sets), (1 << len(sets)) - 1
    return all(reduce(or_, map(owner.__getitem__, set().union(*map(g.adj, s))),
                      1 << i) == full
               for i, s in enumerate(sets))


def _find_cycle(g: Graph) -> Optional[list[int]]:
    """Any cycle, via union-find: the first edge closing a component plus
    the forest path between its endpoints.  None in a forest."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Union-find joins two trees per forest edge, so the forest is simple
    # and its neighbour sets are built here without from_edges' checks.
    forest: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            # the one forest path from v back to u closes the cycle
            return Graph(g.n, tuple(map(frozenset, forest))).shortest_path(
                v, u, frozenset(range(g.n)))
        parent[ru] = rv
        forest[u].add(v)
        forest[v].add(u)
    return None


def _split_cycle(cycle: list[int], parts: int) -> list[frozenset[int]]:
    n = len(cycle)
    bounds = [round(i * n / parts) for i in range(parts + 1)]
    return [frozenset(cycle[bounds[i]:bounds[i + 1]]) for i in range(parts)]


def _contract_to_clique(g: Graph) -> tuple[tuple[frozenset[int], ...], bool]:
    """The branch sets of a complete quotient of g, ordered by least vertex,
    and whether some supernode taken had degree 3 or more (a K4 minor).

    Min-degree / least-common-neighbour contraction (Bodlaender, Koster &
    Wolle, Contraction and treewidth lower bounds, ESA 2004): the supernode
    of least (degree, id) is deleted when isolated and otherwise contracted
    into the neighbour of least (shared neighbours, id), until the least
    degree is one below the number of supernodes.  A supernode whose closed
    neighbourhood is complete is a clique that its contraction would shrink,
    so the largest such clique is kept and returned when it beats the final
    quotient.
    """
    queue = DegreeQueue(g)
    alive = queue.vertices
    sets = [{v} for v in range(g.n)]
    neigh = [set(g.adj(v)) for v in range(g.n)]
    best: list[frozenset[int]] = []
    k4 = False
    while alive:
        v = queue.min_vertex()
        nv = neigh[v]
        k4 = k4 or len(nv) >= 3
        if len(nv) == len(alive) - 1:
            break
        if len(nv) >= len(best) and all(nv - {w} <= neigh[w] for w in nv):
            best = [frozenset(sets[w]) for w in nv | {v}]
        alive.remove(v)  # update records the degrees this moves
        if not nv:
            continue
        u = min(nv, key=lambda w: (len(neigh[w] & nv), w))
        if len(sets[u]) < len(sets[v]):  # merge the smaller set into the larger
            sets[u], sets[v] = sets[v], sets[u]
        sets[u] |= sets[v]
        neigh[u].discard(v)
        for w in nv - {u}:
            neigh[w].discard(v)
            if w in neigh[u]:  # w only loses v
                queue.update(w, len(neigh[w]))
            else:  # w trades v for u
                neigh[w].add(u)
                neigh[u].add(w)
        queue.update(u, len(neigh[u]))
    final = [frozenset(sets[v]) for v in alive]
    return tuple(sorted(max(final, best, key=len), key=min)), k4


def _assignment_search(g: Graph, p: int, bud: SearchBudget) -> Optional[CliqueMinor]:
    """Complete enumeration: assign each vertex (in order) to a part or skip;
    parts open in vertex order, structure checked at the leaves.

    Parts are vertex masks.  Two parts are adjacent iff the union of one's
    neighborhoods meets the other; that check fails at most leaves, so it
    runs before the connectivity BFS.
    """
    masks = g.masks()
    parts = [0] * p

    def ok() -> bool:
        for i, s in enumerate(parts):
            around = 0
            while s:
                low = s & -s
                s ^= low
                around |= masks[low.bit_length() - 1]
            for j in range(i):
                if not around & parts[j]:
                    return False
        return all(g.is_connected_subset(mask_vertices(s)) for s in parts)

    def rec(i: int, opened: int) -> bool:
        bud.spend()
        if g.n - i < p - opened:
            return False
        if i == g.n:
            return opened == p and ok()
        bit = 1 << i
        for j in range(min(opened + 1, p)):
            parts[j] |= bit
            if rec(i + 1, opened + (j == opened)):  # j == opened opens a part
                return True
            parts[j] ^= bit
        return rec(i + 1, opened)

    if rec(0, 0):
        return CliqueMinor.from_sets([mask_vertices(s) for s in parts])
    return None


def find_clique_minor(g: Graph, p: int, budget: Budget = None,
                      seed: int = 0) -> Optional[CliqueMinor]:
    """A clique minor of size p, or None when absence is proven.

    Exact for p <= 3 (cycle detection) and for every p >= 4 on K4-minor-free
    graphs, on which no step of _contract_to_clique meets degree 3 (Duffin
    1965, Dirac 1952).  Otherwise the first p sets of the complete quotient
    that _contract_to_clique reaches, and when that quotient is smaller than
    p the exhaustive assignment search, which spends the one node budget
    and raises BudgetExceeded (inconclusive, not absent) with best=None when
    it runs out.  The quotient is computed on the first call with p >= 4
    and kept on the Graph (Graph.memo), so later calls on the same object
    skip the contraction; the assignment search is never kept.  A minor
    found is validated before it is returned, on every call, and one that
    fails raises InternalInconsistency.  The search is deterministic: seed
    is accepted and ignored.
    """
    if p < 1:
        raise ValueError("p must be positive")
    found = None
    if p == 1:
        found = CliqueMinor.from_sets([{0}]) if g.n else None
    elif p == 2:
        u = next((u for u in range(g.n) if g.adj(u)), None)
        found = None if u is None else CliqueMinor.from_sets([{u}, {min(g.adj(u))}])
    elif p == 3:
        cycle = _find_cycle(g)
        found = None if cycle is None else CliqueMinor(tuple(_split_cycle(cycle, 3)))
    else:
        quotient, k4 = g.memo("clique quotient", _contract_to_clique)
        if len(quotient) >= p:
            found = CliqueMinor(tuple(quotient[:p]))
        elif k4:  # without a K4 minor there is no K_p minor
            found = _assignment_search(g, p, SearchBudget.of(budget))
            # None comes only after a complete enumeration
            require(found is not None or p > 4, "a K4 minor exists but none was found")
    if found is not None:
        if not (len(found) == p and validate_minor(g, found)):
            raise InternalInconsistency(
                f"clique minor {found.to_json()} does not validate")
    return found


def minimize_minor(g: Graph, minor: CliqueMinor) -> CliqueMinor:
    """Remove branch-set vertices that are neither cutvertices nor hold a
    private adjacent branch set, until none is removable.

    The minor is validated once, on entry (ValueError), and every removal
    keeps it valid: only a vertex that is no cut vertex goes, which keeps
    the set connected, len(k) > 1 keeps it non-empty, and a vertex goes only
    when every set it touches is also touched by another vertex of its own
    set, so every adjacency survives.

    The cut vertices come from Graph.cut_counts(k), taken lazily.  A vertex
    with one neighbour u in k is never a cut vertex and needs no count, and
    its removal lowers only u's count, by one.  Any other removal makes the
    counts stale, and they are taken again only when the next vertex with
    two or more neighbours in k that holds no private set is tested.  So a
    set costs one traversal per pass plus one per such removal, not one BFS
    per vertex.

    Each pass goes through the sets in index order, testing each vertex of a
    set once, in descending id; only the set being thinned changes
    meanwhile, so its rows are built once per pass, and its mask of sets
    touched by one vertex alone (_single) again from the remaining rows
    after each removal.  A removal from one set adds no touch to another
    set's rows and can only take touches away, which can make a vertex
    there private, never removable.  So a set that lost nothing in a pass
    has nothing removable in the next, and only the sets that lost a vertex
    are scanned again: the fixpoint is the one that scanning every set in
    every pass reaches.
    """
    if not validate_minor(g, minor):
        raise ValueError("input is not a valid clique minor")
    sets = [set(s) for s in minor.branch_sets]
    owner = _owners(g, sets)
    dirty = [idx for idx, k in enumerate(sets) if len(k) > 1]
    while dirty:
        lost = []
        for idx in dirty:
            k, size = sets[idx], len(sets[idx])
            rows = _touched(g, owner, idx, k)
            single = _single(rows.values())
            cuts = None  # Graph.cut_counts(k), or None when stale
            for v in sorted(k, reverse=True):
                if len(k) == 1 or rows[v] & single:
                    continue
                around = g.adj(v) & k
                if len(around) == 1:  # a leaf: only its neighbour's count drops
                    if cuts is not None:
                        cuts[min(around)] -= 1
                else:
                    if cuts is None:
                        cuts = g.cut_counts(k)
                    if cuts[v] > 1:
                        continue
                    cuts = None
                k.discard(v)
                del rows[v]
                owner[v] = 0
                single = _single(rows.values())
            if 1 < len(k) < size:
                lost.append(idx)
        dirty = lost
    return CliqueMinor.from_sets(sets)


def eccentric_pair(g: Graph, s: frozenset[int]) -> tuple[int, int, int]:
    """(u, v, dist) with maximum distance inside g[s]; lexicographic
    tie-break; (-1, -1, 0) when no two vertices of s are connected in g[s].

    The BFS roots go in ascending id, and a pair replaces the best only
    when it is strictly longer.  After the BFS from w, of eccentricity e,
    every vertex u it reached has ecc(u) <= d(u, w) + e (Takes & Kosters,
    Determining the diameter of small world networks, CIKM 2011).  A root
    whose least such bound is at most the best distance so far cannot
    replace the best, so its BFS is skipped and the answer is unchanged.
    """
    best = (0, -1, -1)
    bound: dict[int, int] = {}  # root -> an upper bound on its eccentricity
    for u in sorted(s):
        if bound.get(u, len(s)) <= best[0]:
            continue
        dist: dict[int, int] = {}
        for w, parent in g.bfs(u, s).items():  # parents come first
            dist[w] = dist[parent] + 1 if parent >= 0 else 0
        ecc = dist[w]  # the last vertex reached is a farthest one
        for v in sorted(dist):
            if v > u:
                if dist[v] > best[0]:
                    best = (dist[v], u, v)
                if dist[v] + ecc < bound.get(v, len(s)):
                    bound[v] = dist[v] + ecc
    return best[1], best[2], best[0]


def check_branch_diameter(g: Graph, minor: CliqueMinor, t: int
                          ) -> Optional[InducedCycle]:
    """If a branch set of a minimal minor holds a shortest path with >= t
    vertices, rebuild the induced cycle through the endpoints' private
    branch sets; None when all diameters are small.  A set of fewer than t
    vertices holds no path of t vertices, so its diameter is not computed."""
    if len(minor) < 3:
        raise ValueError("need a minor of size at least 3")
    sets = minor.branch_sets
    for idx, k in enumerate(sets):
        if len(k) < t:
            continue
        u, v, dist = eccentric_pair(g, k)
        if u < 0 or dist + 1 < t:
            continue
        path = g.shortest_path(u, v, k)
        rows = _touched(g, _owners(g, sets), idx, k)
        single = _single(rows.values())
        ku, kv = _least(rows[u] & single), _least(rows[v] & single)
        if ku is None or kv is None:
            raise ValueError("minor is not minimal: endpoint lacks a private set")
        allowed = frozenset(sets[ku] | sets[kv] | {u, v})
        connector = g.shortest_path(u, v, allowed)
        if connector is None or len(connector) < 4:
            raise InternalInconsistency(
                f"no connector of 4 or more vertices between {u} and {v}")
        return certified(g, InducedCycle(tuple(path + connector[-2:0:-1])), t=t)
    return None


def full_vertices(g: Graph, minor: CliqueMinor) -> list[Optional[int]]:
    """Per branch set, the least vertex adjacent to every other branch set."""
    owner, k = _owners(g, minor.branch_sets), len(minor) - 1
    tables = (_touched(g, owner, i, s) for i, s in enumerate(minor.branch_sets))
    return [min((v for v, row in rows.items() if row.bit_count() >= k), default=None)
            for rows in tables]


def full_vertex_minor(g: Graph, minor: CliqueMinor, p: int, t: int,
                      seed: int = 0, budget: Budget = None
                      ) -> InducedCycle:
    """Step 2 of the pipeline: an induced cycle of >= t vertices.

    After minimization a branch set of diameter >= t gives the cycle at
    once.  Otherwise the exact induced-cycle search runs inside the union
    of all minimal branch sets, in place, on g's own masks restricted to
    the union, so no induced copy is built and the cycle comes back in g's
    ids.  It spends the one node budget: a cycle found is returned, and
    absence there raises StageShortfall("full-minor", p, 0), p being only
    the size it reports; only an exhausted budget raises plain
    BudgetExceeded.

    The paper goes on by merging spare branch sets into p sets whose
    designated vertices each touch p*p others.  A vertex of a minor of q
    sets touches at most q - 1 of them, so that merge needs a minor of more
    than p*p sets; the pipeline asks for p = len(minor), so it is not built
    here, and no minor is returned.  The construction is deterministic:
    seed is accepted and ignored.
    """
    if p < 1:
        raise ValueError("p must be positive")
    minimal = minimize_minor(g, minor)  # raises ValueError on an invalid minor
    cycle = check_branch_diameter(g, minimal, t) if len(minimal) >= 3 else None
    if cycle is not None:
        return cycle
    union = frozenset().union(*minimal.branch_sets)
    # stops at the first cycle found, so BudgetExceeded carries no best
    found = find_long_induced_cycle(g, max(t, 3), budget, within=union)
    if found is None:
        raise StageShortfall("full-minor", p, 0)
    return certified(g, found, t=t)
