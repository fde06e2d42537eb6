"""Certified filtering/selection machinery and the subdivided-star degree bound.

The procedures here mirror a chain of counting arguments: a vertex set that
fails a non-neighbor count immediately yields a biclique, so every routine
returns either the promised structure or a BicliqueWitness.  The main entry
point, sstar_low_degree, is total: on every graph it produces a low-degree
vertex, an induced subdivided star, or a biclique, and the result always
verifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .certificates import (BicliqueWitness, EliminationOrder,
                           InternalInconsistency, LowDegreeVertex,
                           SubdividedStarWitness, certified, require)
from .graph import Graph, VertexSet


def degree_bound(k: int, d: int, ell: int) -> int:
    """Closed-form degree bound at recursion level k."""
    return (k - 1) * (ell ** (d - 1) + (d - 1) * ell ** d + ell ** (2 * d - 2)) \
        + ell - k


@dataclass
class FilterResult:
    kept: frozenset[int]
    excluded: frozenset[int]
    biclique: Optional[BicliqueWitness]


def filter_many_nonneighbors(g: Graph, u_set: VertexSet, outside: VertexSet,
                             p: int, ell: int) -> FilterResult:
    """Split `outside` by whether a vertex has >= p non-neighbors in u_set.

    If ell or more vertices fail, they share >= ell common neighbors inside
    u_set and a K_{ell,ell} witness is built from the first ell of them.
    When exactly ell-1 or fewer fail, no biclique is claimed.
    """
    u_set = frozenset(u_set)
    outside = frozenset(outside)
    if len(u_set) < ell * p:
        raise ValueError(f"need |U| >= ell*p = {ell * p}, got {len(u_set)}")
    if u_set & outside:
        raise ValueError("U and outside must be disjoint")
    kept, excluded = set(), set()
    for v in sorted(outside):
        non_neighbors = len(u_set) - g.degree_in(v, u_set)
        (kept if non_neighbors >= p else excluded).add(v)
    biclique = None
    if len(excluded) >= ell:
        chosen = sorted(excluded)[:ell]
        common = set(u_set)
        for v in chosen:
            common &= g.adj(v)
        # each failure has <= p-1 non-neighbors, so >= ell survive
        biclique = certified(
            g, BicliqueWitness(tuple(chosen), tuple(sorted(common)[:ell])), ell=ell)
    return FilterResult(frozenset(kept), frozenset(excluded), biclique)


def common_filter(g: Graph, u_sets: Sequence[VertexSet], outside: VertexSet,
                  p: int, ell: int) -> tuple[Optional[int], Optional[BicliqueWitness]]:
    """A vertex of `outside` with >= p non-neighbors in every u_set, or a biclique.

    Filters against each set in turn, discarding at most ell-1 vertices per
    round; a round that discards ell or more surfaces its biclique.
    """
    sets = [frozenset(s) for s in u_sets]
    outside = frozenset(outside)
    for i, s in enumerate(sets):
        for j in range(i + 1, len(sets)):
            if s & sets[j]:
                raise ValueError("u_sets must be pairwise disjoint")
    if len(outside) <= len(sets) * (ell - 1):
        raise ValueError(
            f"need |outside| > r*(ell-1) = {len(sets) * (ell - 1)}, got {len(outside)}")
    survivors = outside
    for s in sets:
        result = filter_many_nonneighbors(g, s, survivors, p, ell)
        if result.biclique is not None:
            return None, result.biclique
        survivors = result.kept
    require(bool(survivors), "survivor count bound violated")
    return min(survivors), None


def rainbow_independent_set(g: Graph, v_sets: Sequence[VertexSet], ell: int
                            ) -> tuple[Optional[tuple[int, ...]],
                                       Optional[BicliqueWitness]]:
    """An independent transversal v_i in V_i, or a biclique.

    Iteratively picks v_i with enough non-neighbors in every later set and
    shrinks those sets to the non-neighbors, exactly the inductive
    construction behind the independent-transversal lemma.
    """
    d = len(v_sets)
    sets = [frozenset(s) for s in v_sets]
    if d == 0:
        return (), None
    for i, s in enumerate(sets):
        if len(s) < ell ** (d - 1):
            raise ValueError(f"set {i} smaller than ell^(d-1) = {ell ** (d - 1)}")
        for j in range(i + 1, len(sets)):
            if s & sets[j]:
                raise ValueError("v_sets must be pairwise disjoint")
    chosen: list[int] = []
    current = list(sets)
    for i in range(d - 1):
        p = ell ** (d - i - 2)
        vertex, biclique = common_filter(g, current[i + 1:], current[i], p, ell)
        if biclique is not None:
            return None, biclique
        chosen.append(vertex)
        current[i + 1:] = [frozenset(s - g.adj(vertex)) for s in current[i + 1:]]
    chosen.append(min(current[d - 1]))
    return tuple(chosen), None


@dataclass
class SStarOutcome:
    """Result of the low-degree search: exactly one certificate, plus the
    recursion level it was produced at and an optional trace."""

    certificate: Union[LowDegreeVertex, SubdividedStarWitness, BicliqueWitness]
    level: int
    trace: Optional[list[dict]] = None


def _sstar_recurse(g: Graph, vertices: frozenset[int], k: int, d: int, ell: int,
                   roots_above: list[int], trace: Optional[list[dict]]
                   ) -> SStarOutcome:
    require(bool(vertices), "recursed into an empty vertex set")
    if k == 1:
        # no K_{1,ell} means max degree < ell; otherwise the star lifts
        # through the ancestor roots into a full biclique
        v = min(vertices, key=lambda u: (g.degree_in(u, vertices), u))
        deg = g.degree_in(v, vertices)
        if deg <= ell - 1:
            if trace is not None:
                trace.append({"k": 1, "outcome": "low-degree", "vertex": v})
            return SStarOutcome(LowDegreeVertex(v, deg, degree_bound(1, d, ell)), 1, trace)
        left = tuple(sorted({v} | set(roots_above)))
        right = tuple(sorted(g.neighbors_in(v, vertices))[:ell])
        if trace is not None:
            trace.append({"k": 1, "outcome": "biclique"})
        return SStarOutcome(BicliqueWitness(left, right), 1, trace)

    r = max(vertices, key=lambda u: (g.degree_in(u, vertices), -u))
    a_set = g.neighbors_in(r, vertices)
    b_set = vertices - a_set - {r}

    def b_of(u: int) -> frozenset[int]:
        return g.neighbors_in(u, b_set)

    threshold = ell ** (2 * d - 2)
    u_set = frozenset(u for u in a_set if len(b_of(u)) >= threshold)
    if trace is not None:
        trace.append({"k": k, "root": r, "A": len(a_set), "U": len(u_set)})

    if len(u_set) >= ell ** (d - 1) + (d - 1) * ell ** d:
        return _sstar_star_branch(g, r, b_of, u_set, d, ell, k, trace)

    remainder = a_set - u_set
    if not remainder:
        # every neighbor of r is in U, so deg(r) < the U threshold <= bound
        deg = g.degree_in(r, vertices)
        require(deg <= degree_bound(k, d, ell),
                f"root degree {deg} exceeds the bound at level {k}")
        return SStarOutcome(LowDegreeVertex(r, deg, degree_bound(k, d, ell)), k, trace)

    sub = _sstar_recurse(g, remainder, k - 1, d, ell, roots_above + [r], trace)
    cert = sub.certificate
    if isinstance(cert, (BicliqueWitness, SubdividedStarWitness)):
        return SStarOutcome(cert, sub.level, trace)
    # lift the low-degree vertex: its extra neighbors sit in {r} | U | B(v)
    v = cert.vertex
    deg_here = g.degree_in(v, vertices)
    bound = degree_bound(k, d, ell)
    require(deg_here <= bound, f"degree {deg_here} exceeds bound {bound} at level {k}")
    return SStarOutcome(LowDegreeVertex(v, deg_here, bound), k, trace)


def _sstar_star_branch(g: Graph, r: int, b_of, u_set: frozenset[int],
                       d: int, ell: int, k: int, trace) -> SStarOutcome:
    """The j-loop: build u_1..u_d with private B-neighborhoods, then a
    rainbow independent set of leaves; any filter failure yields a biclique."""

    def b_union(us: Sequence[int]) -> frozenset[int]:
        out: set[int] = set()
        for u in us:
            out |= b_of(u)
        return frozenset(out)

    chosen: list[int] = []
    current = u_set
    for j in range(1, d):
        prior = b_union(chosen)
        ranked = sorted(current, key=lambda u: (len(b_of(u) - prior), u))
        batch = ranked[:ell]
        rest = frozenset(ranked[ell:])
        p_j = ell ** (d - j - 1) + (d - 1) * ell ** (d - j) - j
        result = filter_many_nonneighbors(g, rest, frozenset(batch), p_j, ell)
        if result.biclique is not None:
            return SStarOutcome(result.biclique, k, trace)
        require(bool(result.kept), "filter kept nothing from the batch")
        u_j = min(result.kept)
        chosen.append(u_j)
        survivors = rest - g.adj(u_j)
        # prune vertices whose private neighborhoods shrank too far
        for i in range(len(chosen)):
            others = chosen[:i] + chosen[i + 1:]
            private = b_of(chosen[i]) - b_union(others)
            q = ell ** (2 * d - j - 2)
            result = filter_many_nonneighbors(g, private, survivors, q, ell)
            if result.biclique is not None:
                return SStarOutcome(result.biclique, k, trace)
            survivors = result.kept
        current = survivors
    require(bool(current), "U_d emptied out")
    chosen.append(min(current))

    leaf_sets = []
    for i in range(d):
        others = chosen[:i] + chosen[i + 1:]
        leaf_sets.append(b_of(chosen[i]) - b_union(others))
    transversal, biclique = rainbow_independent_set(g, leaf_sets, ell)
    if biclique is not None:
        return SStarOutcome(biclique, k, trace)
    witness = SubdividedStarWitness(r, tuple(chosen), tuple(transversal))
    return SStarOutcome(witness, k, trace)


def _sstar_on(g: Graph, vertices: frozenset[int], d: int, ell: int,
              trace: Optional[list[dict]]) -> SStarOutcome:
    """sstar_low_degree on the subgraph induced by `vertices`, in the ids of g.

    A low-degree certificate gives the degree inside `vertices`; every
    result leaves through this one check, which also asks a biclique for
    sides of ell and a subdivided star for d leaves.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if not vertices:
        raise ValueError("graph has no vertices")
    outcome = _sstar_recurse(g, vertices, ell, d, ell, [], trace)
    cert = outcome.certificate
    if isinstance(cert, LowDegreeVertex):
        v = min(vertices, key=lambda u: (g.degree_in(u, vertices), u))
        deg = g.degree_in(v, vertices)
        if deg < cert.degree:
            cert = LowDegreeVertex(v, deg, cert.bound)
            outcome = SStarOutcome(cert, outcome.level, outcome.trace)
        require(cert.degree == g.degree_in(cert.vertex, vertices) <= cert.bound,
                f"certificate {cert} does not verify")
    else:
        certified(g, cert, ell=ell, d=d)
    return outcome


def sstar_low_degree(g: Graph, d: int, ell: int,
                     with_trace: bool = False) -> SStarOutcome:
    """A vertex of degree at most the closed-form bound, or an induced
    subdivided star with d leaves, or a K_{ell,ell} subgraph witness.

    When the recursion certifies a low-degree vertex, the minimum-degree
    vertex is reported instead (its degree can only be smaller, so the
    certified bound still holds).
    """
    return _sstar_on(g, frozenset(range(g.n)), d, ell, [] if with_trace else None)


def sstar_elimination_order(g: Graph, d: int, ell: int
                            ) -> Union[EliminationOrder, SubdividedStarWitness,
                                       BicliqueWitness]:
    """Repeatedly delete the low-degree vertex; a full order certifies
    degeneracy <= the level-ell closed form, otherwise the first structural
    witness is returned.

    Works on a shrinking set of the remaining vertices of g, so every
    certificate is already in the ids of g.
    """
    remaining = frozenset(range(g.n))
    order: list[int] = []
    worst = 0
    while remaining:
        cert = _sstar_on(g, remaining, d, ell, None).certificate
        if not isinstance(cert, LowDegreeVertex):
            return cert
        worst = max(worst, cert.degree)
        order.append(cert.vertex)
        remaining = remaining - {cert.vertex}
    require(worst <= degree_bound(ell, d, ell),
            f"elimination order of bound {worst} exceeds the level-{ell} bound")
    return certified(g, EliminationOrder(tuple(order), worst))
