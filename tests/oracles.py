"""Brute-force reference implementations used as oracles in tests.

Everything here works on bitmask adjacency and enumerates exhaustively, on
purpose taking a different route than the package's detectors.  Only usable
for small n.  The exceptions are references for faster versions of the
same search: naive_sstar_elimination_order reruns the package's
sstar_low_degree from scratch on every induced subgraph, the reference for
the incremental elimination loop, and the reference_* searches are the
induced path, cycle and subdivided-star searches without their bounds and
the set-based independent-set search, which must give the package's
certificates.  The
reference_* branch-set scans are the minor layer's per-pair, per-set and
private-set scans, which its one adjacency table must agree with, and
reference_series_parallel_reducible is the K4-minor test by series-parallel
reduction that the minor layer's contraction must agree with.
reference_gnp is G(n, p) drawn one rng.random() call per pair, which the
bulk draw of generate.gnp must reproduce graph for graph and state for
state, and reference_verify_elimination is the elimination-order check by
order positions, which the backward walk of certificates must agree with.
induced(g, vertices) is the induced subgraph copy with its ids, the
reference that every search restricted in place to a vertex set is checked
against; reference_cycle_within is find_long_induced_cycle run on the copy
induced(g, within), which its in-place `within` must agree with, and
cycle_within_outcomes gives both sides' answers and nodes to compare.
node_count and call_count count the search nodes spent and the calls made
inside a block, and budget_outcomes records the answer and the nodes of a
search at each of a list of budgets.  sauer_shelah_bound is the bound the
VC-dimension tests check against.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import combinations
from typing import Iterable, Iterator, Optional

from chibound.certificates import (BicliqueWitness, EliminationOrder,
                                   IndependentSetWitness, InducedCycle,
                                   SubdividedStarWitness)
from chibound.detect import (BudgetExceeded, SearchBudget,
                             find_long_induced_cycle)
from chibound.graph import Graph, OrientedPath
from chibound.lemmas import sstar_low_degree


@contextmanager
def node_count() -> Iterator[list[int]]:
    """Count search nodes by wrapping SearchBudget.spend: count[0] holds the
    nodes spent inside the block."""
    count = [0]
    original = SearchBudget.spend

    def spend(budget, amount: int = 1) -> None:
        count[0] += amount
        original(budget, amount)

    SearchBudget.spend = spend
    try:
        yield count
    finally:
        SearchBudget.spend = original


def budget_outcomes(search, budgets) -> list[tuple[object, int]]:
    """(answer, nodes) of search(budget) for each budget, the answer being
    (BudgetExceeded, best) when the search runs out."""
    out = []
    for budget in budgets:
        with node_count() as count:
            try:
                answer = search(budget)
            except BudgetExceeded as exc:
                answer = (BudgetExceeded, exc.best)
        out.append((answer, count[0]))
    return out


@contextmanager
def call_count(obj, *attrs: str) -> Iterator[list[int]]:
    """Count calls of obj.attr for each of attrs, module functions or plain
    methods, by wrapping them: count[0] holds the calls of all of them made
    inside the block."""
    count = [0]
    originals = {attr: getattr(obj, attr) for attr in attrs}

    def counting(original):
        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)
        return counted

    for attr, original in originals.items():
        setattr(obj, attr, counting(original))
    try:
        yield count
    finally:
        for attr, original in originals.items():
            setattr(obj, attr, original)


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are the non-edges of g."""
    full = frozenset(range(g.n))
    return Graph(g.n, tuple(full - g.adj(v) - {v} for v in range(g.n)))


def adj_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _independent(masks: list[int], mask: int) -> bool:
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if masks[v] & mask:
            return False
        m &= m - 1
    return True


def _connected(masks: list[int], mask: int) -> bool:
    if mask == 0:
        return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= masks[v] & mask & ~seen
            m &= m - 1
        seen |= nxt
        frontier = nxt
    return seen == mask


def brute_mis_size(g: Graph) -> int:
    masks = adj_masks(g)
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and _independent(masks, mask):
            best = mask.bit_count()
    return best


def brute_clique_size(g: Graph) -> int:
    return brute_mis_size(complement(g))


def brute_degeneracy(g: Graph) -> int:
    """Max over nonempty induced subgraphs of the minimum degree."""
    if g.n == 0:
        return 0
    masks = adj_masks(g)
    best = 0
    for mask in range(1, 1 << g.n):
        mindeg = min((masks[v] & mask).bit_count() for v in _bits(mask))
        best = max(best, mindeg)
    return best


def brute_chromatic(g: Graph) -> int:
    """Chromatic number by DP over subsets: peel off independent sets."""
    n = g.n
    if n == 0:
        return 0
    masks = adj_masks(g)
    full = (1 << n) - 1
    indep = [False] * (1 << n)
    indep[0] = True
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        indep[mask] = indep[rest] and not (masks[v] & rest)
    INF = n + 1
    chi = [INF] * (1 << n)
    chi[0] = 0
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        # enumerate independent subsets of mask containing v
        sub = mask
        while sub:
            if sub & (1 << v) and indep[sub]:
                cand = chi[mask & ~sub] + 1
                if cand < chi[mask]:
                    chi[mask] = cand
            sub = (sub - 1) & mask
    return chi[full]


def brute_longest_induced_path(g: Graph) -> int:
    """Max vertices of an induced path, by scanning all vertex subsets."""
    masks = adj_masks(g)
    best = 1 if g.n else 0
    for mask in range(1, 1 << g.n):
        k = mask.bit_count()
        if k <= best:
            continue
        degs = [(masks[v] & mask).bit_count() for v in _bits(mask)]
        if k == 1:
            ok = True
        else:
            ones = sum(1 for d in degs if d == 1)
            twos = sum(1 for d in degs if d == 2)
            ok = ones == 2 and twos == k - 2 and _connected(masks, mask)
        if ok:
            best = k
    return best


def brute_longest_induced_cycle(g: Graph) -> int:
    """Max vertices of an induced cycle (0 if the graph is a forest)."""
    masks = adj_masks(g)
    best = 0
    for mask in range(1, 1 << g.n):
        k = mask.bit_count()
        if k < 3 or k <= best:
            continue
        if all((masks[v] & mask).bit_count() == 2 for v in _bits(mask)) \
                and _connected(masks, mask):
            best = k
    return best


def brute_has_biclique(g: Graph, a: int, b: int) -> bool:
    """K_{a,b} subgraph presence by exhausting one side."""
    small, large = min(a, b), max(a, b)
    masks = adj_masks(g)
    for left in combinations(range(g.n), small):
        common = (1 << g.n) - 1
        for v in left:
            common &= masks[v]
        if common.bit_count() >= large:
            return True
    return False


def brute_max_balanced_biclique(g: Graph) -> int:
    ell = 0
    while brute_has_biclique(g, ell + 1, ell + 1):
        ell += 1
    return ell


def brute_has_subdivided_star(g: Graph, d: int) -> bool:
    """Induced S'_d presence by scanning all (2d+1)-subsets."""
    masks = adj_masks(g)
    size = 2 * d + 1
    for vs in combinations(range(g.n), size):
        mask = 0
        for v in vs:
            mask |= 1 << v
        degs = {v: (masks[v] & mask).bit_count() for v in vs}
        centers = [v for v in vs if degs[v] == d]
        if sum(degs.values()) != 2 * (2 * d):
            continue
        for c in centers:
            mids = [v for v in vs if v != c and masks[v] & (1 << c)]
            if len(mids) != d or any(degs[m] != 2 for m in mids):
                continue
            leaves = set(vs) - {c} - set(mids)
            if any(degs[x] != 1 for x in leaves):
                continue
            # each middle's second neighbor is its own leaf
            partners = []
            for m in mids:
                others = _bits(masks[m] & ~(1 << c) & mask)
                if len(others) != 1 or others[0] not in leaves:
                    break
                partners.append(others[0])
            else:
                if len(set(partners)) == d:
                    return True
    return False


def brute_shattered_sets(system) -> list[tuple[int, ...]]:
    """Every subset of the universe that the members shatter, by size and,
    within a size, in lexicographic order of universe positions."""
    members = set(system.members)
    return [zs for k in range(len(system.universe) + 1)
            for zs in combinations(system.universe, k)
            if len({m & frozenset(zs) for m in members}) == 2 ** k]


def sauer_shelah_bound(n: int, k: int) -> int:
    """Sum of binomial(n, i) for i = 0..k, as an exact integer."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(math.comb(n, i) for i in range(k + 1))


def brute_vc_dimension(system) -> int:
    """The size of the largest shattered subset, -1 for an empty family."""
    return max((len(zs) for zs in brute_shattered_sets(system)), default=-1)


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Plain permutation search, degree-partition pruned."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degree(v) for v in range(g1.n)) != \
            sorted(g2.degree(v) for v in range(g2.n)):
        return False
    from itertools import permutations
    e1 = set(map(frozenset, g1.edges()))
    for perm in permutations(range(g2.n)):
        if all(g1.degree(i) == g2.degree(perm[i]) for i in range(g1.n)):
            if {frozenset((perm[a], perm[b])) for a, b in map(tuple, e1)} == \
                    set(map(frozenset, g2.edges())):
                return True
    return False


def brute_noninterfering(core, touched: dict, s: int):
    """The first s-subset of core, in lexicographic order, in which no pair
    (u, v) touches a member (touched[(u, v)] for u < v), or None."""
    for chosen in combinations(sorted(core), s):
        members = set(chosen)
        if not any(touched.get(pair, set()) & members
                   for pair in combinations(chosen, 2)):
            return chosen
    return None


def induced(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on `vertices`, relabelled 0.. in ascending id
    order, and the tuple mapping each new index back to its id in g."""
    order = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(order)}
    adj = tuple(frozenset(pos[w] for w in g.adj(v) if w in pos)
                for v in order)
    return Graph(len(order), adj), order


def naive_sstar_elimination_order(g: Graph, d: int, ell: int):
    """sstar_elimination_order the slow way: sstar_low_degree on
    induced(g, remaining), rebuilt after every deletion, with the ids mapped
    back.  induced relabels monotonically, so ties break the same way
    and the certificates must be equal, not only valid."""
    remaining = list(range(g.n))
    order: list[int] = []
    worst = 0
    while remaining:
        sub, ids = induced(g, remaining)
        cert = sstar_low_degree(sub, d, ell).certificate
        if isinstance(cert, BicliqueWitness):
            return BicliqueWitness(tuple(ids[v] for v in cert.left),
                                   tuple(ids[v] for v in cert.right))
        if isinstance(cert, SubdividedStarWitness):
            return SubdividedStarWitness(ids[cert.center],
                                         tuple(ids[v] for v in cert.middles),
                                         tuple(ids[v] for v in cert.leaves))
        worst = max(worst, cert.degree)
        order.append(ids[cert.vertex])
        remaining.remove(ids[cert.vertex])
    return EliminationOrder(tuple(order), worst)


def reference_induced_path_search(g: Graph) -> OrientedPath:
    """A longest induced path by DFS over partial induced paths, unbounded:
    from each start vertex in ascending order it extends a path by every
    neighbor of its last vertex that keeps it induced, and keeps the first
    longest path it meets."""
    masks = g.masks()
    bud = SearchBudget()
    best: tuple[int, ...] = ()

    def extend(path: list[int], forbidden: int) -> None:
        nonlocal best
        bud.spend()
        if len(path) > len(best):
            best = tuple(path)
        last = path[-1]
        new_forbidden = forbidden | masks[last] | 1 << last
        candidates = masks[last] & ~forbidden
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            path.append(low.bit_length() - 1)
            extend(path, new_forbidden)
            path.pop()

    for s in range(g.n):
        extend([s], 0)
    return OrientedPath(best)


def reference_cycle_within(g: Graph, t: int, budget, within
                           ) -> Optional[InducedCycle]:
    """find_long_induced_cycle on the copy induced(g, within), its cycle
    mapped back to g's ids."""
    h, ids = induced(g, within)
    found = find_long_induced_cycle(h, t, budget)
    return found and InducedCycle(tuple(ids[v] for v in found.vertices))


def cycle_within_outcomes(g: Graph, t: int, within) -> tuple[list, list]:
    """budget_outcomes of find_long_induced_cycle restricted to `within` in
    place, and of reference_cycle_within, at the same budgets: none, 0,
    and about half, one less than and all of the nodes the copy spends."""
    within = frozenset(within)
    [(_, nodes)] = budget_outcomes(
        lambda b: reference_cycle_within(g, t, b, within), [None])
    budgets = [None, *sorted({0, nodes // 2, max(nodes - 1, 0), nodes})]
    return (budget_outcomes(
                lambda b: find_long_induced_cycle(g, t, b, within=within), budgets),
            budget_outcomes(
                lambda b: reference_cycle_within(g, t, b, within), budgets))


def reference_induced_cycle_search(g: Graph, min_len: int,
                                   stop_at_first: bool) -> Optional[tuple[int, ...]]:
    """detect._induced_cycle_search without its bound: chordless cycles of
    at least min_len vertices, rooted at their least vertex."""
    masks = g.masks()
    bud = SearchBudget()
    best: Optional[tuple[int, ...]] = None

    def extend(path: list[int], forbidden: int, root_adj: int) -> bool:
        nonlocal best
        bud.spend()
        last = path[-1]
        can_close = len(path) + 1 >= min_len
        new_forbidden = forbidden | masks[last]
        candidates = masks[last] & ~forbidden
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if root_adj & low:
                if can_close and len(path) >= 2 and path[1] < w:
                    cycle = tuple(path) + (w,)
                    if best is None or len(cycle) > len(best):
                        best = cycle
                        if stop_at_first:
                            return True
                continue
            path.append(w)
            if extend(path, new_forbidden, root_adj):
                return True
            path.pop()
        return False

    for root in range(g.n):
        below = (2 << root) - 1
        later = masks[root] & ~below
        while later:
            low = later & -later
            later ^= low
            if extend([root, low.bit_length() - 1], below | low, masks[root]):
                return best
    return best


def reference_subdivided_star_search(g: Graph, d: int
                                     ) -> Optional[SubdividedStarWitness]:
    """detect.find_induced_subdivided_star without its look-ahead count:
    every middle with every leaf, one node per center and per child."""
    if d < 2:
        raise ValueError("d must be at least 2")
    masks = g.masks()
    bud = SearchBudget()

    def build(r: int, middles: list[int], leaves: list[int], blocked: int,
              start: int) -> bool:
        bud.spend()
        if len(middles) == d:
            return True
        r_closed = masks[r] | 1 << r
        candidates = masks[r] & (~blocked >> start << start)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            m = low.bit_length() - 1
            m_blocked = blocked | masks[m] | low
            leaf_candidates = masks[m] & ~r_closed & ~blocked
            while leaf_candidates:
                leaf_bit = leaf_candidates & -leaf_candidates
                leaf_candidates ^= leaf_bit
                leaf = leaf_bit.bit_length() - 1
                middles.append(m)
                leaves.append(leaf)
                if build(r, middles, leaves, m_blocked | masks[leaf] | leaf_bit,
                         m + 1):
                    return True
                middles.pop()
                leaves.pop()
        return False

    for r in range(g.n):
        if g.degree(r) < d:
            continue
        middles: list[int] = []
        leaves: list[int] = []
        if build(r, middles, leaves, 0, 0):
            return SubdividedStarWitness(r, tuple(middles), tuple(leaves))
    return None


def reference_max_independent(g: Graph, pool: frozenset[int]) -> IndependentSetWitness:
    """detect._max_independent on vertex sets: the same reductions, the
    same branching vertex (most degree, least id) and the same branch
    order."""
    bud = SearchBudget()
    best: set[int] = set()

    def search(p: set[int], chosen: set[int]) -> None:
        nonlocal best
        bud.spend()
        while True:
            if len(chosen) + len(p) <= len(best):
                return
            if not p:
                break
            degs = {v: len(g.adj(v) & p) for v in p}
            zero = [v for v, dv in degs.items() if dv == 0]
            if zero:
                chosen.update(zero)
                p.difference_update(zero)
                continue
            ones = sorted(v for v, dv in degs.items() if dv == 1)
            if ones:
                v = ones[0]
                chosen.add(v)
                p.discard(v)
                p.difference_update(g.adj(v))
                continue
            break
        if not p:
            if len(chosen) > len(best):
                best = set(chosen)
            return
        v = max(p, key=lambda u: (len(g.adj(u) & p), -u))
        search(p - g.adj(v) - {v}, chosen | {v})
        search(p - {v}, set(chosen))

    search(set(pool), set())
    return IndependentSetWitness(tuple(sorted(best)))


def reference_sets_adjacent(g: Graph, a, b) -> bool:
    """Pairwise branch-set adjacency: a vertex of the smaller set has a
    neighbour in the other."""
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    return any(g.adj(v) & other for v in small)


def reference_valid_minor(g: Graph, sets) -> bool:
    """Non-empty, disjoint, connected (mask BFS) and pairwise adjacent."""
    masks = adj_masks(g)
    seen: set[int] = set()
    for s in sets:
        if not s or s & seen or not _connected(masks, sum(1 << v for v in s)):
            return False
        seen |= s
    return all(reference_sets_adjacent(g, a, b) for a, b in combinations(sets, 2))


def reference_touched_sets(g: Graph, sets, idx: int, v: int) -> list[int]:
    """The per-set scan: every other set that v has a neighbour in."""
    return [j for j, other in enumerate(sets) if j != idx and g.adj(v) & other]


def reference_full_vertices(g: Graph, sets) -> list[Optional[int]]:
    return [next((v for v in sorted(s)
                  if len(reference_touched_sets(g, sets, i, v)) == len(sets) - 1), None)
            for i, s in enumerate(sets)]


def reference_private_set(g: Graph, sets, idx: int, v: int) -> Optional[int]:
    """The least other set that v touches and the rest of its set does not."""
    rest = sets[idx] - {v}
    return next((j for j, other in enumerate(sets) if j != idx and g.adj(v) & other
                 and not reference_sets_adjacent(g, rest, other)), None)


def reference_minimize_minor(g: Graph, sets) -> list[set[int]]:
    """The minimization fixpoint with a fresh private-set scan per test."""
    sets = [set(s) for s in sets]
    changed = True
    while changed:
        changed = False
        for idx, k in enumerate(sets):
            for v in sorted(k, reverse=True):
                if (len(k) > 1 and g.is_connected_subset(k - {v})
                        and reference_private_set(g, sets, idx, v) is None):
                    k.discard(v)
                    changed = True
    return sets


def reference_series_parallel_reducible(g: Graph) -> bool:
    """True iff g has no K4 minor: degree-<=1 deletions plus degree-2
    smoothing reduce such graphs to nothing."""
    adj = {v: set(g.adj(v)) for v in range(g.n)}
    alive = set(range(g.n))
    changed = True
    while changed and alive:
        changed = False
        for v in sorted(alive):
            nbrs = adj[v]
            if len(nbrs) > 2:
                continue
            for w in nbrs:
                adj[w].discard(v)
            if len(nbrs) == 2:  # smooth v away: its neighbours become adjacent
                a, b = nbrs
                adj[a].add(b)
                adj[b].add(a)
            alive.discard(v)
            changed = True
    return not alive


def reference_gnp(n: int, p: float, rng) -> Graph:
    """G(n, p) with one rng.random() call per pair, in lexicographic order."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def reference_verify_elimination(g: Graph, c: EliminationOrder) -> bool:
    """The elimination-order check by order positions: each vertex counts
    its neighbours placed after it, arc by arc."""
    if sorted(c.order) != list(range(g.n)):
        return False
    pos = [0] * g.n
    for i, v in enumerate(c.order):
        pos[v] = i
    return all(sum(pos[w] > pos[v] for w in g.adj(v)) <= c.bound
               for v in c.order)
