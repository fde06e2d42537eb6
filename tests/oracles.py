"""Brute-force reference implementations used as oracles in tests.

Everything here works on bitmask adjacency and enumerates exhaustively, on
purpose taking a different route than the package's detectors.  Only usable
for small n.  The one exception, naive_sstar_elimination_order, reruns the
package's sstar_low_degree from scratch on every induced subgraph, the
reference for the incremental elimination loop.
"""
from __future__ import annotations

from itertools import combinations

from chibound.certificates import (BicliqueWitness, EliminationOrder,
                                   SubdividedStarWitness)
from chibound.graph import Graph
from chibound.lemmas import sstar_low_degree


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
    return brute_mis_size(g.complement())


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


def naive_sstar_elimination_order(g: Graph, d: int, ell: int):
    """sstar_elimination_order the slow way: sstar_low_degree on
    g.induced(remaining), rebuilt after every deletion, with the ids mapped
    back.  Graph.induced relabels monotonically, so ties break the same way
    and the certificates must be equal, not only valid."""
    remaining = list(range(g.n))
    order: list[int] = []
    worst = 0
    while remaining:
        sub, ids = g.induced(remaining)
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
