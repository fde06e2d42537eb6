"""Exact detectors for forbidden structures, each returning a verifiable witness.

Every exponential search takes a node budget and raises BudgetExceeded when it
runs out, which is distinct from a proven "absent".  An int or None starts one
allowance for the whole call; a SearchBudget is spent from.  Traversal order
is ascending vertex id throughout so certificates are reproducible.

The induced path, induced cycle, subdivided-star, independent-set and
clique searches work on the adjacency bitmasks of Graph.masks() (the clique
search on the complement masks `full & ~(m | 1 << v)`, with no complement
Graph built): a vertex set is one int, so the union, difference, membership
test and degree count (`(masks[v] & p).bit_count()`) done at every search
node are single operations.  Their candidates are peeled off lowest set bit
first (`low = c & -c`), which is ascending id, so the search order, the
nodes spent and the certificates are those of iterating over sorted
neighbor sets.

The path and cycle searches settle each node in its parent's loop over
candidates: the loop spends the child's node (longest_induced_path spends
them all on entering the parent), records what the child completes and
computes the child's free mask (the vertices its extensions may still
use), candidates and bound, and it calls the search on the child only
when the child has candidates worth trying, so a leaf costs no Python
call.  The bound of a node counts the vertices an extension can still
add: for a path one candidate plus the free vertices, and one vertex on
the root's other side for a path grown both ways from its root; for a
cycle one candidate, the free vertices off the root's neighborhood and one
closing vertex, the only one that may come from that neighborhood.  The
root neighbors between the root and the second vertex v1 are unusable (the
closing vertex lies above v1), so they are never free.  A bound cuts only
subtrees that cannot reach the search's target (the stop length, else one
more vertex than the best so far, or as many while a tie may still give a
smaller certificate), so every certificate is that of the unbounded
search, which spends at least as many nodes.

longest_induced_path roots each induced path at its least vertex, as the
cycle search roots each cycle, and grows it both ways from there, so it
meets each path once; a DFS over partial induced paths from every vertex,
as the reference in tests/oracles.py runs, meets a path from both of its
ends.

The subdivided-star search settles its (middle, leaf) children the same
way, and bounds them by a look-ahead count.  Every later middle lies in
N(r) above the current middle m and avoids N[m] and every blocked vertex,
and its leaf also avoids N[r].  So m, and then each child (m, leaf) with
N[leaf] blocked too, is tried only when enough later middles still have
such a leaf to complete the star.  On split graphs and cographs, which
have no induced P5, the count refutes every middle before its leaves, so
absence costs one node per center.
"""
from __future__ import annotations

from typing import Optional, Sequence, Union

from .certificates import (BicliqueWitness, EliminationOrder, InducedCycle,
                           IndependentSetWitness, SubdividedStarWitness)
from .graph import (DegreeQueue, Graph, OrientedPath, VertexSet,
                    check_vertices, mask_vertices)

DEFAULT_BUDGET = 10_000_000
Budget = Union[int, "SearchBudget", None]


class BudgetExceeded(Exception):
    """Raised when a search exhausts its node budget before reaching a verdict.

    `best` carries the best object found so far, when the search has one.
    """

    def __init__(self, message: str = "search budget exhausted", best=None):
        super().__init__(message)
        self.best = best


class StageShortfall(BudgetExceeded):
    """A construction undershot its target size.

    Inconclusive like BudgetExceeded, which it subclasses so that every
    handler of inconclusive answers reads it as one, though no node budget
    ran out: the stage that produced a structure of `achieved` instead of
    `required` is named.
    """

    def __init__(self, stage: str, required: int, achieved: int):
        super().__init__(f"stage {stage!r}: needed {required}, achieved {achieved}")
        self.stage = stage
        self.required = required
        self.achieved = achieved


class SearchBudget:
    """Counts search nodes; spend() raises once the allowance is gone, and
    of() starts one from an int or None and passes a SearchBudget on.
    `stage` is the (name, target size) of the pipeline stage spending it."""

    __slots__ = ("remaining", "stage")

    def __init__(self, nodes: Optional[int] = None):
        self.remaining = DEFAULT_BUDGET if nodes is None else nodes
        self.stage = ("budget", 0)

    @staticmethod
    def of(budget: Budget) -> SearchBudget:
        return budget if isinstance(budget, SearchBudget) else SearchBudget(budget)

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded()


def find_biclique_subgraph(g: Graph, a: int, b: int,
                           budget: Budget = None) -> Optional[BicliqueWitness]:
    """Find K_{a,b} as a (not necessarily induced) subgraph, or prove absence.

    Enumerates candidate left sides of size min(a, b) in ascending id order,
    pruning on the common neighborhood of the chosen vertices.
    """
    if a < 1 or b < 1:
        raise ValueError("biclique sides must be at least 1")
    small, large = min(a, b), max(a, b)
    bud = SearchBudget.of(budget)
    # A left vertex needs >= large neighbors.
    candidates = [v for v in range(g.n) if g.degree(v) >= large]

    def extend(start: int, chosen: list[int], common: frozenset[int]) -> Optional[tuple]:
        bud.spend()
        if len(chosen) == small:
            right = sorted(common)[:large]
            return tuple(chosen), tuple(right)
        needed = small - len(chosen)
        for idx in range(start, len(candidates) - needed + 1):
            v = candidates[idx]
            new_common = common & g.adj(v) if chosen else g.adj(v)
            if len(new_common) < large:
                continue
            chosen.append(v)
            found = extend(idx + 1, chosen, new_common)
            if found:
                return found
            chosen.pop()
        return None

    found = extend(0, [], frozenset())
    if found is None:
        return None
    left, right = found
    if len(left) == a:
        return BicliqueWitness(left, right)
    return BicliqueWitness(right, left)


def longest_induced_path(g: Graph, budget: Budget = None) -> OrientedPath:
    """A maximum-cardinality induced path (empty path for the empty graph).

    The certificate is the least vertex sequence of all longest induced
    paths, each read from its smaller endpoint.  A path is searched once,
    rooted at its least vertex m, among the vertices above m: arm A = m,
    a1, a2, ... grows from m, and at each node of arm A, arm B = b1, b2,
    ... grows from m's other side with b1 > a1, giving the path ..., a2,
    a1, m, b1, b2, ...  A path rooted above best[0] has both endpoints
    above it, so it beats the best path only by being longer: the target
    is len(best) while m <= best[0] and len(best) + 1 above.  Once the best
    path starts at m itself, only a longer path can beat it too, since
    arm A meets the paths that start at m in ascending order and every
    other path rooted at m starts above m.  Unbounded, the search spends a
    node per vertex and per induced path of two or more vertices; the
    reference DFS of tests/oracles.py, run from every vertex, meets each
    such path twice.

    grow_a(path, free, candidates, opens) settles each candidate w of arm
    A in its own loop, as the reference DFS of tests/oracles.py does, but
    spends the nodes of all its candidates on entry: the search never
    stops early, so it settles every one.  `opens` is the mask of the b1
    that keep the path induced.  An extension of path + w is at
    most one candidate of w, one b1 and vertices of w_free.  After its
    candidates, grow_a grows arm B on the path read backwards, with
    grow_b, the plain DFS step, taking the opens as its candidates.
    """
    masks = g.masks()
    bud = SearchBudget.of(budget)
    best: tuple[int, ...] = ()
    target = root = 0

    def keep(path: list[int], w: int) -> None:
        nonlocal best, target
        seq = (*path, w) if path[0] < w else (w, *reversed(path))
        if len(seq) > len(best) or seq < best:
            best = seq
            target = len(best) + (best[0] <= root)

    def grow_b(path: list[int], free: int, candidates: int) -> None:
        bud.spend(candidates.bit_count())
        size = len(path) + 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if size >= target:
                keep(path, w)
            w_mask = masks[w]
            w_candidates = w_mask & free
            if w_candidates:
                w_free = free & ~(w_mask | low)
                if size + 1 + w_free.bit_count() >= target:
                    path.append(w)
                    grow_b(path, w_free, w_candidates)
                    path.pop()

    def grow_a(path: list[int], free: int, candidates: int, opens: int) -> None:
        bud.spend(candidates.bit_count())
        size = len(path) + 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if size >= target:
                keep(path, w)
            w_mask = masks[w]
            w_free = free & ~(w_mask | low)
            w_candidates = w_mask & free
            # With w = a1 the opens are m's neighbors above a1, which are
            # the candidates of [m] not yet tried.
            w_opens = (candidates if size == 2 else opens) & ~w_mask
            if (w_candidates or w_opens) and size + (w_candidates != 0) \
                    + (w_opens != 0) + w_free.bit_count() >= target:
                path.append(w)
                grow_a(path, w_free, w_candidates, w_opens)
                path.pop()
        if opens and size + free.bit_count() >= target:
            grow_b(path[::-1], free, opens)

    full = (1 << g.n) - 1
    try:
        for root in range(g.n):
            bud.spend()
            best = best or (root,)
            target = len(best) + (best[0] < root)
            above = full & ~((2 << root) - 1)
            free = above & ~masks[root]
            later = masks[root] & above
            if later and 3 + free.bit_count() >= target:
                grow_a([root], free, later, 0)
    except BudgetExceeded:
        raise BudgetExceeded(best=OrientedPath(best))
    return OrientedPath(best)


def _pool(g: Graph, within: Optional[VertexSet]) -> int:
    """The vertex mask of `within`, checked against g; all of g for None."""
    if within is None:
        return (1 << g.n) - 1
    vs = set(within)
    check_vertices(g, vs)
    return sum(1 << v for v in vs)


def _induced_cycle_search(g: Graph, min_len: int, stop_at_first: bool,
                          budget: Budget, pool: int
                          ) -> Optional[tuple[int, ...]]:
    """Enumerate chordless cycles with >= min_len vertices inside the vertex
    mask `pool`.

    A cycle root, v1, ..., closer is rooted at its minimum vertex, and v1
    is kept below the closing vertex to kill the reflection.  So the root
    neighbors up to v1 are unusable: they can neither close the cycle nor
    lie inside it (a chord to the root), and like every vertex up to the
    root they are never free.  The other root neighbors (`root_adj`) may
    only appear as the closing vertex, which keeps every cycle chordless by
    construction.  `free` is the mask of the vertices an extension may
    still use.  The roots, v1 and `free` lie inside pool, and root_adj is
    only ever read against free or its candidates, so no vertex off pool
    is touched.  On g.induced of the pool's vertices the search meets the
    same cycles in the same order, since relabelling keeps ascending id.

    extend(path, free, candidates, root_adj) settles each candidate w of
    path in its own loop: a root neighbor closes the cycle; any other w
    spends its node and is bounded there.  An extension of path + w is one
    candidate of w, interior vertices off root_adj and one closer, the last
    two from w_free; when that count cannot reach the target (min_len, else
    one more vertex than the best cycle), nothing past w can, and w is
    done.  When no closer is left in w_free, or w has no candidate off
    root_adj, only closing at w remains, which the loop does on the spot
    with w's least closing candidate; otherwise it descends into w.
    """
    masks = g.masks()
    bud = SearchBudget.of(budget)
    best: Optional[tuple[int, ...]] = None

    def extend(path: list[int], free: int, candidates: int,
               root_adj: int) -> bool:
        nonlocal best
        can_close = len(path) + 1 >= min_len
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if root_adj & low:
                # A closing vertex: the cycle has len(path) + 1 vertices.
                if can_close and (best is None or len(path) >= len(best)):
                    best = (*path, w)
                    if stop_at_first:
                        return True
                continue
            bud.spend()
            path.append(w)
            size = len(path)
            w_mask = masks[w]
            w_free = free & ~w_mask
            target = len(best) + 1 if best else min_len
            if size + 2 + (w_free & ~root_adj).bit_count() >= target:
                w_candidates = w_mask & free
                if w_free & root_adj and w_candidates & ~root_adj:
                    if extend(path, w_free, w_candidates, root_adj):
                        return True
                elif w_candidates & root_adj and size + 1 >= min_len \
                        and (best is None or size >= len(best)):
                    closing = w_candidates & root_adj
                    best = (*path, (closing & -closing).bit_length() - 1)
                    if stop_at_first:
                        return True
            path.pop()
        return False

    try:
        for root in mask_vertices(pool):
            below = (2 << root) - 1
            later = masks[root] & pool & ~below
            while later:
                low = later & -later
                later ^= low
                # v1 = low is the one candidate of the path [root]: the
                # vertices up to the root and the root neighbors up to v1
                # are never free, and the root neighbors above v1 close.
                upto = (low << 1) - 1
                if extend([root], pool & ~(below | masks[root] & upto), low,
                          masks[root] & ~upto):
                    return best
    except BudgetExceeded:
        raise BudgetExceeded(best=InducedCycle(best) if best else None)
    return best


def find_long_induced_cycle(g: Graph, t: int, budget: Budget = None,
                            within: Optional[VertexSet] = None
                            ) -> Optional[InducedCycle]:
    """An induced cycle with at least t vertices inside `within` (default:
    all vertices), or None if none exists there.

    The search runs on g's own masks restricted to within, so it returns
    the cycle, spends the nodes and raises BudgetExceeded at the budget
    that the same search on the induced copy tests/oracles.induced(g,
    within) would, in g's ids and with no copy built.
    """
    if t < 3:
        raise ValueError("t must be at least 3")
    cyc = _induced_cycle_search(g, t, stop_at_first=True, budget=budget,
                                pool=_pool(g, within))
    return InducedCycle(cyc) if cyc else None


def longest_induced_cycle(g: Graph, budget: Budget = None) -> Optional[InducedCycle]:
    """A maximum-length induced cycle, or None in a forest."""
    cyc = _induced_cycle_search(g, 3, stop_at_first=False, budget=budget,
                                pool=_pool(g, None))
    return InducedCycle(cyc) if cyc else None


def find_induced_subdivided_star(g: Graph, d: int,
                                 budget: Budget = None
                                 ) -> Optional[SubdividedStarWitness]:
    """An induced 1-subdivision of the star with d leaves, or None.

    For each center r, middle vertices are chosen from N(r) in ascending
    order together with a leaf each, and the leaves avoid N[r].  `blocked`
    is the union of the closed neighborhoods of the chosen middles and
    leaves, so a new middle or leaf outside it is distinct from and
    non-adjacent to all of them, and any completed assignment is already
    induced.  Each center spends one node.

    build(blocked, candidates) settles each (middle m, leaf) child in its
    own loop over the candidate middles.  The later middles of m are the
    candidates above m outside blocked | N[m], and each later middle needs
    a leaf outside N[r] | blocked | N[m].  So m is tried only when at least
    d - len(middles) - 1 of them have such a leaf; otherwise m is skipped
    with all of its leaves.  A child spends its node in the loop and
    completes the star when m is the last middle; otherwise the search
    descends into it only when the same count holds with N[leaf] blocked
    too.  Each count is necessary for a completion, so the search order
    and the first witness are those of the unbounded search, which spends
    at least as many nodes.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    masks = g.masks()
    bud = SearchBudget.of(budget)
    middles: list[int] = []
    leaves: list[int] = []
    off_center = 0  # the vertices outside N[r], where the leaves lie

    def enough(later: int, blocked: int, need: int) -> bool:
        """Whether `need` of the later middles have a leaf outside
        N[r] | blocked."""
        if later.bit_count() < need:
            return False
        free = off_center & ~blocked
        while later:
            low = later & -later
            later ^= low
            if masks[low.bit_length() - 1] & free:
                need -= 1
                if not need:
                    return True
        return False

    def build(blocked: int, candidates: int) -> bool:
        need = d - len(middles) - 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            m = low.bit_length() - 1
            m_blocked = blocked | masks[m] | low
            later = candidates & ~m_blocked
            if need and not enough(later, m_blocked, need):
                continue
            leaf_candidates = masks[m] & off_center & ~blocked
            middles.append(m)
            while leaf_candidates:
                leaf_bit = leaf_candidates & -leaf_candidates
                leaf_candidates ^= leaf_bit
                leaf = leaf_bit.bit_length() - 1
                bud.spend()
                leaves.append(leaf)
                if not need:
                    return True
                leaf_blocked = m_blocked | masks[leaf] | leaf_bit
                leaf_later = later & ~leaf_blocked
                if enough(leaf_later, leaf_blocked, need) \
                        and build(leaf_blocked, leaf_later):
                    return True
                leaves.pop()
            middles.pop()
        return False

    for r in range(g.n):
        if g.degree(r) < d:
            continue
        bud.spend()
        off_center = ~(masks[r] | 1 << r)
        if build(0, masks[r]):
            return SubdividedStarWitness(r, tuple(middles), tuple(leaves))
    return None


def max_independent_subset(g: Graph, within: Optional[VertexSet] = None,
                           budget: Budget = None) -> IndependentSetWitness:
    """Maximum independent set inside `within` (default: all vertices).

    Branch and bound on the adjacency masks of g: degree-0 and degree-1
    reductions, then branch on a maximum-degree vertex.  On budget
    exhaustion raises BudgetExceeded with the best set found so far in
    `best`.
    """
    return _max_independent(g.masks(), _pool(g, within), SearchBudget.of(budget))


def _max_independent(masks: Sequence[int], pool: int,
                     bud: SearchBudget) -> IndependentSetWitness:
    """The search of max_independent_subset over the vertex mask `pool`,
    on the adjacency masks `masks`, spending from `bud`.

    Reductions take every degree-0 vertex at once, then the least degree-1
    vertex; the branching vertex is the one of most degree, least id, and
    the branch that takes it runs first.
    """
    best = 0

    def search(p: int, chosen: int) -> None:
        nonlocal best
        bud.spend()
        while True:
            if chosen.bit_count() + p.bit_count() <= best.bit_count():
                return
            if not p:
                break
            zero = 0
            one = top = top_deg = -1
            rest = p
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                dv = (masks[v] & p).bit_count()
                if dv == 0:
                    zero |= low
                elif dv == 1 and one < 0:
                    one = v
                if dv > top_deg:
                    top, top_deg = v, dv
            if zero:
                chosen |= zero
                p &= ~zero
            elif one >= 0:
                chosen |= 1 << one
                p &= ~(masks[one] | 1 << one)
            else:
                break
        if not p:
            if chosen.bit_count() > best.bit_count():
                best = chosen
            return
        search(p & ~(masks[top] | 1 << top), chosen | 1 << top)
        search(p & ~(1 << top), chosen)

    try:
        search(pool, 0)
    except BudgetExceeded:
        raise BudgetExceeded(best=IndependentSetWitness(tuple(mask_vertices(best))))
    return IndependentSetWitness(tuple(mask_vertices(best)))


def max_independent_set(g: Graph, budget: Budget = None) -> IndependentSetWitness:
    return max_independent_subset(g, None, budget)


def degeneracy(g: Graph) -> tuple[int, EliminationOrder]:
    """Exact degeneracy by iterative minimum-degree removal (ties by id).

    Matula-Beck smallest-last ordering on graph.DegreeQueue, the bucket
    queue the elimination orders of lemmas share: the removed vertex is
    always the one of least (degree, id).
    """
    queue = DegreeQueue(g)
    order: list[int] = []
    d = 0
    while queue.vertices:
        v = queue.min_vertex()
        d = max(d, queue.deg[v])
        order.append(v)
        queue.remove(v)
    return d, EliminationOrder(tuple(order), d)


def max_clique(g: Graph, budget: Budget = None) -> tuple[int, ...]:
    """A maximum clique, in ascending id order.

    The independent-set search of max_independent_subset run on the
    complement masks.  On budget exhaustion raises BudgetExceeded whose
    `best` is an IndependentSetWitness holding the largest clique found.
    """
    if g.n == 0:
        return ()
    full = (1 << g.n) - 1
    complement = [full & ~(m | 1 << v) for v, m in enumerate(g.masks())]
    return _max_independent(complement, full, SearchBudget.of(budget)).vertices


def _k_colorable(g: Graph, k: int, seed_clique: tuple[int, ...],
                 bud: SearchBudget) -> Optional[dict[int, int]]:
    """A proper coloring with colors 0..k-1, or None when there is none.

    Backtracking with a pre-colored clique and the new-color symmetry
    break; DSATUR-style vertex selection."""
    colors: dict[int, int] = {}
    for i, v in enumerate(seed_clique):
        if i >= k:
            return None
        colors[v] = i
    uncolored = [v for v in range(g.n) if v not in colors]

    def pick() -> int:
        def key(v: int):
            neighbor_colors = {colors[w] for w in g.adj(v) if w in colors}
            return (-len(neighbor_colors), -g.degree(v), v)
        return min(uncolored, key=key)

    def assign() -> bool:
        bud.spend()
        if not uncolored:
            return True
        v = pick()
        uncolored.remove(v)
        used = {colors[w] for w in g.adj(v) if w in colors}
        limit = min(k, (max(colors.values(), default=-1) + 2))
        for c in range(limit):
            if c in used:
                continue
            colors[v] = c
            if assign():
                return True
            del colors[v]
        uncolored.append(v)
        return False

    return colors if assign() else None


def optimal_coloring(g: Graph, budget: Budget = None) -> dict[int, int]:
    """A proper coloring of g with the fewest colors, 0..chi-1.

    Lower bound from an exact maximum clique (the search of max_clique),
    upper bound from greedy coloring in reverse degeneracy order;
    k-colorability tested in between, and the greedy coloring returned when
    no smaller k works, or as soon as a clique of `upper` vertices turns
    up, even in a clique search that ran out of budget.  On budget
    exhaustion raises BudgetExceeded with best=(lower, upper): the size of
    the clique found so far, or once the clique is exact the number of
    colors under test.
    """
    if g.n == 0:
        return {}
    bud = SearchBudget.of(budget)
    _, elim = degeneracy(g)
    greedy: dict[int, int] = {}
    for v in reversed(elim.order):
        used = {greedy[w] for w in g.adj(v) if w in greedy}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    upper = max(greedy.values()) + 1
    try:
        clique = max_clique(g, bud)
    except BudgetExceeded as exc:
        clique = exc.best.vertices  # a clique, maybe not a maximum one
        if len(clique) < upper:
            raise BudgetExceeded(best=(len(clique), upper))
    k = len(clique)
    try:
        while k < upper:
            colors = _k_colorable(g, k, clique, bud)
            if colors is not None:
                return colors
            k += 1
    except BudgetExceeded:
        raise BudgetExceeded(best=(k, upper))
    return greedy


def chromatic_number_exact(g: Graph, budget: Budget = None) -> int:
    """Exact chromatic number: the number of colors optimal_coloring uses."""
    return max(optimal_coloring(g, budget).values(), default=-1) + 1
