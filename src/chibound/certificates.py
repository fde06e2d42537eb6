"""Verifiable witness objects and their verifiers.

Every detector and lemma procedure returns one of these; verify_certificate
re-checks the claimed structure against the graph from scratch, so a
certificate never has to be trusted.  The lemma, minor, VC and pipeline
layers hand every certificate out through certified, which also checks that
it answers the question asked, and every other invariant through require
or, when its failure message formats values, an explicit raise of
InternalInconsistency, so that the message is built only on failure.

A lemma either returns the structure it promises or raises CounterWitness,
whose certificate (a biclique or a long induced cycle) shows that G lies
outside the class the lemma assumes; that exception is the one way out for
such a certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TypeVar, Union

from .graph import Graph, check_vertices, is_independent, verify_induced_cycle


class InternalInconsistency(AssertionError):
    """A procedure produced a certificate that fails its own check; the
    argument behind it guarantees the check, so reaching this is a bug.
    Raised by require and certified, so `python -O` does not strip it."""


class CounterWitness(Exception):
    """A lemma hypothesis failed in a way that yields a certificate."""

    def __init__(self, certificate: Certificate):
        super().__init__(f"structural witness surfaced: {type(certificate).__name__}")
        self.certificate = certificate


@dataclass(frozen=True)
class InducedCycle:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class BicliqueWitness:
    """Disjoint sides with every left-right pair adjacent (K_{|left|,|right|} subgraph)."""

    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class SubdividedStarWitness:
    """An induced copy of the star with d leaves, every edge subdivided once.

    Edges are exactly center-middles[i] and middles[i]-leaves[i].
    """

    center: int
    middles: tuple[int, ...]
    leaves: tuple[int, ...]


@dataclass(frozen=True)
class LowDegreeVertex:
    vertex: int
    degree: int
    bound: int


@dataclass(frozen=True)
class EliminationOrder:
    """A vertex order certifying degeneracy: each vertex has at most
    `bound` neighbors among the vertices after it in the order."""

    order: tuple[int, ...]
    bound: int


@dataclass(frozen=True)
class IndependentSetWitness:
    vertices: tuple[int, ...]


Certificate = Union[InducedCycle, BicliqueWitness, SubdividedStarWitness,
                    LowDegreeVertex, EliminationOrder, IndependentSetWitness]


def _verify_induced_cycle(g: Graph, c: InducedCycle) -> bool:
    return verify_induced_cycle(g, c.vertices)


def _verify_biclique(g: Graph, c: BicliqueWitness) -> bool:
    left, right = set(c.left), set(c.right)
    if not left or not right:
        return False
    if len(left) != len(c.left) or len(right) != len(c.right):
        return False
    if left & right:
        return False
    check_vertices(g, left | right)
    return all(g.has_edge(u, v) for u in left for v in right)


def _verify_sstar(g: Graph, c: SubdividedStarWitness) -> bool:
    d = len(c.middles)
    if d < 2 or len(c.leaves) != d:
        return False
    vs = (c.center,) + c.middles + c.leaves
    if len(set(vs)) != 2 * d + 1:
        return False
    check_vertices(g, vs)
    expected = {frozenset((c.center, m)) for m in c.middles}
    expected |= {frozenset((c.middles[i], c.leaves[i])) for i in range(d)}
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            adjacent = g.has_edge(vs[i], vs[j])
            if adjacent != (frozenset((vs[i], vs[j])) in expected):
                return False
    return True


def _verify_low_degree(g: Graph, c: LowDegreeVertex) -> bool:
    check_vertices(g, (c.vertex,))
    return g.degree(c.vertex) == c.degree and c.degree <= c.bound


def _verify_elimination(g: Graph, c: EliminationOrder) -> bool:
    """Walk the order backwards: `later` holds the vertices after v, so v's
    later neighbours are one set intersection."""
    if sorted(c.order) != list(range(g.n)):
        return False
    later: set[int] = set()
    for v in reversed(c.order):
        if len(g.adj(v) & later) > c.bound:
            return False
        later.add(v)
    return True


def _verify_independent(g: Graph, c: IndependentSetWitness) -> bool:
    if len(set(c.vertices)) != len(c.vertices):
        return False
    return is_independent(g, c.vertices)


_VERIFIERS = {
    InducedCycle: _verify_induced_cycle,
    BicliqueWitness: _verify_biclique,
    SubdividedStarWitness: _verify_sstar,
    LowDegreeVertex: _verify_low_degree,
    EliminationOrder: _verify_elimination,
    IndependentSetWitness: _verify_independent,
}


def verify_certificate(g: Graph, cert: Certificate) -> bool:
    """Structurally re-check a certificate against g; malformed payloads raise."""
    try:
        verifier = _VERIFIERS[type(cert)]
    except KeyError:
        raise TypeError(f"unknown certificate type {type(cert).__name__}")
    return verifier(g, cert)


def require(cond: bool, what: str) -> None:
    """Raise InternalInconsistency(what) unless cond holds.

    The one check for an invariant that the argument behind a procedure
    guarantees (a minor that validates, a counting floor, a postcondition);
    certificates go through certified instead.  `what` is built on every
    call, so a message that formats values (a certificate, a minor, a
    degree) is raised from an explicit `if not cond:` instead.
    """
    if not cond:
        raise InternalInconsistency(what)


_C = TypeVar("_C", bound=Certificate)


def certified(g: Graph, cert: _C, *, t: int = 0, ell: int = 0, d: int = 0) -> _C:
    """cert, once it verifies against g and answers the question asked.

    The question fixes a size: an induced cycle on at least t vertices, a
    biclique with both sides of at least ell vertices, a subdivided star
    with at least d leaves.  A certificate that fails either check raises
    InternalInconsistency.
    """
    if not verify_certificate(g, cert):
        raise InternalInconsistency(f"certificate {cert} does not verify")
    if isinstance(cert, InducedCycle):
        size, asked = len(cert.vertices), t
    elif isinstance(cert, BicliqueWitness):
        size, asked = min(len(cert.left), len(cert.right)), ell
    elif isinstance(cert, SubdividedStarWitness):
        size, asked = len(cert.leaves), d
    else:
        return cert
    if size < asked:
        raise InternalInconsistency(
            f"certificate {cert} is smaller than the {asked} asked for")
    return cert


def certificate_to_json(cert: Certificate) -> dict[str, Any]:
    """Serialize to the fixed schema {tag, vertices, left, right, claimed_bound}."""
    d: dict[str, Any] = {"tag": type(cert).__name__}
    if isinstance(cert, InducedCycle):
        d["vertices"] = list(cert.vertices)
    elif isinstance(cert, BicliqueWitness):
        d["left"] = list(cert.left)
        d["right"] = list(cert.right)
    elif isinstance(cert, SubdividedStarWitness):
        d["vertices"] = [cert.center] + list(cert.middles) + list(cert.leaves)
    elif isinstance(cert, LowDegreeVertex):
        d["vertices"] = [cert.vertex]
        d["claimed_bound"] = cert.bound
    elif isinstance(cert, EliminationOrder):
        d["vertices"] = list(cert.order)
        d["claimed_bound"] = cert.bound
    elif isinstance(cert, IndependentSetWitness):
        d["vertices"] = list(cert.vertices)
    return d


def certificate_from_json(d: dict[str, Any], g: Graph | None = None) -> Certificate:
    """Rebuild a certificate from its JSON dict; a missing field raises
    ValueError.  LowDegreeVertex stores only vertex and bound; the degree is
    recomputed from the graph when one is supplied (the vertex must be in
    range), else left as -1 for later checking."""
    tag = d.get("tag")

    def field(key: str) -> Any:
        if key not in d:
            raise ValueError(f"{tag} payload lacks the field {key!r}")
        return d[key]

    if tag == "InducedCycle":
        return InducedCycle(tuple(field("vertices")))
    if tag == "BicliqueWitness":
        return BicliqueWitness(tuple(field("left")), tuple(field("right")))
    if tag == "SubdividedStarWitness":
        vs = list(field("vertices"))
        if len(vs) % 2 == 0 or len(vs) < 5:
            raise ValueError("subdivided-star payload needs 2d+1 >= 5 vertices")
        deg = (len(vs) - 1) // 2
        return SubdividedStarWitness(vs[0], tuple(vs[1:1 + deg]), tuple(vs[1 + deg:]))
    if tag == "LowDegreeVertex":
        (v,) = field("vertices")  # ValueError unless exactly one
        if g is not None:
            check_vertices(g, (v,))
        degree = g.degree(v) if g is not None else int(d.get("degree", -1))
        return LowDegreeVertex(v, degree, int(field("claimed_bound")))
    if tag == "EliminationOrder":
        return EliminationOrder(tuple(field("vertices")), int(field("claimed_bound")))
    if tag == "IndependentSetWitness":
        return IndependentSetWitness(tuple(field("vertices")))
    raise ValueError(f"unknown certificate tag {tag!r}")
