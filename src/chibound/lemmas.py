"""Certified filtering/selection machinery and the subdivided-star degree bound.

The procedures here mirror a chain of counting arguments: a vertex set that
fails a non-neighbor count immediately yields a biclique, so every routine
returns the promised structure or raises certificates.CounterWitness with
that BicliqueWitness, the one way out for it.  The main entry point,
sstar_low_degree, is total: it catches the exception at the star branch,
and on every graph it produces a low-degree vertex, an induced subdivided
star, or a biclique, and the result always verifies.

sstar_elimination_order deletes that low-degree vertex until no vertex is
left or a step returns a witness.  Both entry points run one step on a
graph.DegreeQueue: the remaining vertices with their degrees in the lazy
bucket queue that detect.degeneracy also removes through, which a deletion
updates in O(deg).  The queue hands a step its level-ell root and its least
(degree, id) vertex, so a step reads only the root's neighbourhood and its
neighbours: O(Delta^2) for fixed d and ell, and O(n + m + n * Delta^2) for
the whole order.  A scan of the remaining set would pick the same two
vertices, so the certificates equal those of sstar_low_degree rerun on each
induced subgraph (the reference loop in tests/oracles.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .certificates import (BicliqueWitness, CounterWitness, EliminationOrder,
                           InternalInconsistency, LowDegreeVertex,
                           SubdividedStarWitness, certified, require)
from .graph import DegreeQueue, Graph, VertexSet


def degree_bound(k: int, d: int, ell: int) -> int:
    """Closed-form degree bound at recursion level k."""
    return (k - 1) * (ell ** (d - 1) + (d - 1) * ell ** d + ell ** (2 * d - 2)) \
        + ell - k


def filter_many_nonneighbors(g: Graph, u_set: VertexSet, outside: VertexSet,
                             p: int, ell: int) -> frozenset[int]:
    """The vertices of `outside` with >= p non-neighbors in u_set.

    If ell or more vertices fail, they share >= ell common neighbors inside
    u_set, and CounterWitness carries a K_{ell,ell} built from the first ell
    of them.  When ell-1 or fewer fail, they are dropped and no biclique is
    claimed.
    """
    u_set = frozenset(u_set)
    outside = frozenset(outside)
    if len(u_set) < ell * p:
        raise ValueError(f"need |U| >= ell*p = {ell * p}, got {len(u_set)}")
    if u_set & outside:
        raise ValueError("U and outside must be disjoint")
    excluded = [v for v in sorted(outside) if len(u_set) - g.degree_in(v, u_set) < p]
    if len(excluded) >= ell:
        chosen = excluded[:ell]
        common = set(u_set)
        for v in chosen:
            common &= g.adj(v)
        # each failure has <= p-1 non-neighbors, so >= ell survive
        raise CounterWitness(certified(
            g, BicliqueWitness(tuple(chosen), tuple(sorted(common)[:ell])), ell=ell))
    return outside.difference(excluded)


def common_filter(g: Graph, u_sets: Sequence[VertexSet], outside: VertexSet,
                  p: int, ell: int) -> int:
    """The least vertex of `outside` with >= p non-neighbors in every u_set.

    Filters against each set in turn, discarding at most ell-1 vertices per
    round; a round that discards ell or more raises its CounterWitness.
    """
    sets = [frozenset(s) for s in u_sets]
    outside = frozenset(outside)
    if len(frozenset().union(*sets)) < sum(map(len, sets)):
        raise ValueError("u_sets must be pairwise disjoint")
    if len(outside) <= len(sets) * (ell - 1):
        raise ValueError(
            f"need |outside| > r*(ell-1) = {len(sets) * (ell - 1)}, got {len(outside)}")
    survivors = outside
    for s in sets:
        survivors = filter_many_nonneighbors(g, s, survivors, p, ell)
    require(bool(survivors), "survivor count bound violated")
    return min(survivors)


def rainbow_independent_set(g: Graph, v_sets: Sequence[VertexSet], ell: int
                            ) -> tuple[int, ...]:
    """An independent transversal v_i in V_i; a filter that fails raises
    CounterWitness with its biclique.

    Iteratively picks v_i with enough non-neighbors in every later set and
    shrinks those sets to the non-neighbors, exactly the inductive
    construction behind the independent-transversal lemma.
    """
    d = len(v_sets)
    sets = [frozenset(s) for s in v_sets]
    if d == 0:
        return ()
    for i, s in enumerate(sets):
        if len(s) < ell ** (d - 1):
            raise ValueError(f"set {i} smaller than ell^(d-1) = {ell ** (d - 1)}")
    if len(frozenset().union(*sets)) < sum(map(len, sets)):
        raise ValueError("v_sets must be pairwise disjoint")
    chosen: list[int] = []
    current = list(sets)
    for i in range(d - 1):
        p = ell ** (d - i - 2)
        vertex = common_filter(g, current[i + 1:], current[i], p, ell)
        chosen.append(vertex)
        current[i + 1:] = [frozenset(s - g.adj(vertex)) for s in current[i + 1:]]
    chosen.append(min(current[d - 1]))
    return tuple(chosen)


@dataclass
class SStarOutcome:
    """Result of the low-degree search: exactly one certificate, plus the
    recursion level it was produced at and an optional trace."""

    certificate: Union[LowDegreeVertex, SubdividedStarWitness, BicliqueWitness]
    level: int
    trace: Optional[list[dict]] = None


def _root(g: Graph, vertices: frozenset[int]) -> int:
    """The vertex with the most neighbours in `vertices`, least id on ties."""
    return max(vertices, key=lambda u: (g.degree_in(u, vertices), -u))


def _sstar_recurse(g: Graph, vertices: VertexSet | set[int], r: Optional[int],
                   k: int, d: int, ell: int, roots_above: list[int],
                   trace: Optional[list[dict]]) -> SStarOutcome:
    """Level k of the recursion on `vertices`, rooted at r = _root(vertices)
    when k >= 2 (level 1 has no root).

    A level k >= 2 reads only r's neighbours and theirs, so it costs
    O(deg(r) * max degree) however large `vertices` is.  Level 1 scans
    `vertices`, which is then a remainder inside one neighbourhood.
    """
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

    a_set = g.neighbors_in(r, vertices)
    # B = vertices - N[r]; B(u) is u's neighbourhood in it
    closed = a_set | {r}
    b = {u: (g.adj(u) & vertices) - closed for u in a_set}

    threshold = ell ** (2 * d - 2)
    u_set = frozenset(u for u in a_set if len(b[u]) >= threshold)
    if trace is not None:
        trace.append({"k": k, "root": r, "A": len(a_set), "U": len(u_set)})

    if len(u_set) >= ell ** (d - 1) + (d - 1) * ell ** d:
        try:
            cert = _sstar_star_branch(g, r, b, u_set, d, ell)
        except CounterWitness as cw:
            cert = cw.certificate
        return SStarOutcome(cert, k, trace)

    remainder = a_set - u_set
    if not remainder:
        # every neighbor of r is in U, so deg(r) < the U threshold <= bound
        deg = g.degree_in(r, vertices)
        if deg > degree_bound(k, d, ell):
            raise InternalInconsistency(
                f"root degree {deg} exceeds the bound at level {k}")
        return SStarOutcome(LowDegreeVertex(r, deg, degree_bound(k, d, ell)), k, trace)

    sub = _sstar_recurse(g, remainder, _root(g, remainder) if k > 2 else None,
                         k - 1, d, ell, roots_above + [r], trace)
    if not isinstance(sub.certificate, LowDegreeVertex):
        return sub
    # lift the low-degree vertex: its extra neighbors sit in {r} | U | B(v)
    v = sub.certificate.vertex
    deg_here = g.degree_in(v, vertices)
    bound = degree_bound(k, d, ell)
    if deg_here > bound:
        raise InternalInconsistency(
            f"degree {deg_here} exceeds bound {bound} at level {k}")
    return SStarOutcome(LowDegreeVertex(v, deg_here, bound), k, trace)


def _sstar_star_branch(g: Graph, r: int, b: dict[int, frozenset[int]],
                       u_set: frozenset[int], d: int, ell: int
                       ) -> SubdividedStarWitness:
    """The j-loop: build u_1..u_d with private B-neighborhoods, then a
    rainbow independent set of leaves; any filter failure raises
    CounterWitness with its biclique."""

    def b_union(us: Sequence[int]) -> frozenset[int]:
        out: set[int] = set()
        for u in us:
            out |= b[u]
        return frozenset(out)

    chosen: list[int] = []
    current = u_set
    for j in range(1, d):
        prior = b_union(chosen)
        ranked = sorted(current, key=lambda u: (len(b[u] - prior), u))
        batch = ranked[:ell]
        rest = frozenset(ranked[ell:])
        p_j = ell ** (d - j - 1) + (d - 1) * ell ** (d - j) - j
        kept = filter_many_nonneighbors(g, rest, frozenset(batch), p_j, ell)
        require(bool(kept), "filter kept nothing from the batch")
        u_j = min(kept)
        chosen.append(u_j)
        current = rest - g.adj(u_j)
        # prune vertices whose private neighborhoods shrank too far
        for i in range(len(chosen)):
            others = chosen[:i] + chosen[i + 1:]
            private = b[chosen[i]] - b_union(others)
            q = ell ** (2 * d - j - 2)
            current = filter_many_nonneighbors(g, private, current, q, ell)
    require(bool(current), "U_d emptied out")
    chosen.append(min(current))

    leaf_sets = []
    for i in range(d):
        others = chosen[:i] + chosen[i + 1:]
        leaf_sets.append(b[chosen[i]] - b_union(others))
    transversal = rainbow_independent_set(g, leaf_sets, ell)
    return SubdividedStarWitness(r, tuple(chosen), transversal)


def _check_params(d: int, ell: int) -> None:
    if d < 2:
        raise ValueError("d must be at least 2")
    if ell < 2:
        raise ValueError("ell must be at least 2")


def _sstar_step(rem: DegreeQueue, d: int, ell: int,
                trace: Optional[list[dict]]) -> SStarOutcome:
    """sstar_low_degree on the subgraph induced by the remaining vertices,
    in the ids of g.

    The queue gives the level-ell root and the min-(degree, id) override,
    so a step reads only the root's neighbourhood and its neighbours.  A
    low-degree certificate gives the degree inside the remaining set;
    every result leaves through this one check, which also asks a biclique
    for sides of ell and a subdivided star for d leaves.
    """
    g, vertices = rem.g, rem.vertices
    outcome = _sstar_recurse(g, vertices, rem.max_vertex(), ell, d, ell, [], trace)
    cert = outcome.certificate
    if isinstance(cert, LowDegreeVertex):
        v = rem.min_vertex()
        if rem.deg[v] < cert.degree:
            cert = LowDegreeVertex(v, rem.deg[v], cert.bound)
            outcome = SStarOutcome(cert, outcome.level, outcome.trace)
        if not cert.degree == g.degree_in(cert.vertex, vertices) <= cert.bound:
            raise InternalInconsistency(f"certificate {cert} does not verify")
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
    _check_params(d, ell)
    if g.n == 0:
        raise ValueError("graph has no vertices")
    return _sstar_step(DegreeQueue(g), d, ell, [] if with_trace else None)


def sstar_elimination_order(g: Graph, d: int, ell: int
                            ) -> Union[EliminationOrder, SubdividedStarWitness,
                                       BicliqueWitness]:
    """Repeatedly delete the low-degree vertex; a full order certifies
    degeneracy <= the level-ell closed form, otherwise the first structural
    witness is returned.

    Every step is sstar_low_degree on the remaining vertices, in the ids
    of g, on one graph.DegreeQueue of their degrees that each deletion
    updates in O(deg).  A step costs O(Delta^2) for fixed d and ell, and
    the whole order O(n + m + n * Delta^2).  The queue yields the
    vertices a scan of the remaining set would, the root of most degree
    and least id and the vertex of least (degree, id), so the order equals
    that of sstar_low_degree rerun on each induced subgraph.
    """
    _check_params(d, ell)
    rem = DegreeQueue(g)
    order: list[int] = []
    worst = 0
    while rem.vertices:
        cert = _sstar_step(rem, d, ell, None).certificate
        if not isinstance(cert, LowDegreeVertex):
            return cert
        worst = max(worst, cert.degree)
        order.append(cert.vertex)
        rem.remove(cert.vertex)
    if worst > degree_bound(ell, d, ell):
        raise InternalInconsistency(
            f"elimination order of bound {worst} exceeds the level-{ell} bound")
    return certified(g, EliminationOrder(tuple(order), worst))
