"""Scale smoke test: the linear-time core on a sparse graph of 2*10^4 vertices.

A quadratic path in degeneracy, its verification, graph6 packing, the
sstar elimination loop or the clique-minor contraction would take minutes
here (and per-bit lists about 1.6 GB), so this test guards against one
coming back without timing anything.
"""
import random

import networkx as nx

from chibound import minors
from chibound.certificates import EliminationOrder, verify_certificate
from chibound.detect import degeneracy
from chibound.graph import Graph
from chibound.io import from_graph6, to_graph6
from chibound.lemmas import sstar_elimination_order
from chibound.minors import find_clique_minor, validate_minor
from oracles import call_count

N = 20_000
M = 60_000


def _sparse_graph(n: int, m: int, seed: int) -> Graph:
    # sampling endpoints costs O(m); gnp would cost O(n^2)
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def test_linear_core_at_scale():
    g = _sparse_graph(N, M, 20_000)
    k, cert = degeneracy(g)
    h = nx.Graph()
    h.add_nodes_from(range(N))
    h.add_edges_from(g.edges())
    assert k == max(nx.core_number(h).values())
    assert cert.bound == k
    assert verify_certificate(g, cert)
    assert not verify_certificate(g, EliminationOrder(cert.order, k - 1))
    assert from_graph6(to_graph6(g)) == g
    elimination = sstar_elimination_order(g, 2, 3)
    assert isinstance(elimination, EliminationOrder)
    assert verify_certificate(g, elimination)
    minor = find_clique_minor(g, 5)
    assert minor is not None and validate_minor(g, minor)
    with call_count(minors, "_contract_to_clique") as contractions:
        assert find_clique_minor(g, 5) == minor  # the kept quotient
    assert contractions[0] == 0
