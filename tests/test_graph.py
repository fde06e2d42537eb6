import random

import pytest

from chibound.graph import (Graph, OrientedPath, PathFamily, are_anticomplete,
                            complete_graph, cycle_graph, empty_graph,
                            is_independent, is_partially_anticomplete,
                            path_graph, verify_induced_cycle,
                            verify_induced_path)
from conftest import random_graph


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(5, [(0, 1)], cap=4)


def test_edge_order_insensitive():
    e = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g1 = Graph.from_edges(4, e)
    g2 = Graph.from_edges(4, list(reversed(e)))
    assert g1 == g2
    assert g1.adj(1) == frozenset({0, 2})


def test_independence_basics():
    c5 = cycle_graph(5)
    assert is_independent(c5, set())
    assert not is_independent(c5, {0, 1})
    assert is_independent(c5, {0, 2})
    with pytest.raises(ValueError):
        is_independent(c5, {7})


def test_independence_matches_pair_scan(rng):
    for _ in range(300):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        s = {v for v in range(n) if rng.random() < 0.5}
        brute = all(not g.has_edge(u, v) for u in s for v in s if u < v)
        assert is_independent(g, s) == brute


def test_anticomplete():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    p = OrientedPath((0, 1, 2))
    q = OrientedPath((3, 4, 5))
    assert are_anticomplete(g, p, q)
    assert are_anticomplete(g, q, p)
    shared = OrientedPath((2, 1))
    assert not are_anticomplete(g, p, shared)
    p6 = path_graph(6)
    first, second = OrientedPath((0, 1, 2)), OrientedPath((3, 4, 5))
    assert not are_anticomplete(p6, first, second)  # edge 2-3


def test_anticomplete_symmetric(rng):
    for _ in range(200):
        g = random_graph(rng, 8, 0.4)
        vs = rng.sample(range(8), 6)
        p, q = OrientedPath(tuple(vs[:3])), OrientedPath(tuple(vs[3:]))
        assert are_anticomplete(g, p, q) == are_anticomplete(g, q, p)


def test_partially_anticomplete():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    single = PathFamily((OrientedPath((0, 1, 2)),))
    assert is_partially_anticomplete(g, single)
    two = PathFamily((OrientedPath((0, 1, 2)), OrientedPath((3, 4, 5))))
    assert is_partially_anticomplete(g, two)
    uneven = PathFamily((OrientedPath((0, 1)), OrientedPath((3, 4, 5))))
    assert not is_partially_anticomplete(g, uneven)
    # aligned adjacent positions break it
    g2 = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
    fam = PathFamily((OrientedPath((0, 1)), OrientedPath((2, 3))))
    assert not is_partially_anticomplete(g2, fam)


def test_verify_induced_path_and_cycle():
    c5 = cycle_graph(5)
    assert verify_induced_cycle(c5, (0, 1, 2, 3, 4))
    tri = complete_graph(3)
    assert not verify_induced_path(tri, OrientedPath((0, 1, 2)))
    k4 = complete_graph(4)
    assert not verify_induced_cycle(k4, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        verify_induced_cycle(c5, (0, 1))
    p5 = path_graph(5)
    assert verify_induced_path(p5, OrientedPath((0, 1, 2, 3, 4)))


def test_induced_subgraph_mapping():
    c5 = cycle_graph(5)
    sub, back = c5.induced({1, 2, 4})
    assert sub.n == 3
    assert back == (1, 2, 4)
    assert sub.has_edge(0, 1)  # 1-2
    assert not sub.has_edge(0, 2)  # 1-4


def test_complement():
    g = empty_graph(4).complement()
    assert g.m == 6
    assert cycle_graph(5).complement().m == 5


def test_connected_subset():
    p4 = path_graph(4)
    assert p4.is_connected_subset({0, 1, 2})
    assert not p4.is_connected_subset({0, 2})
    assert not p4.is_connected_subset(set())


def test_degree_in_ignores_the_vertex_itself(rng):
    # no self-loops, so a vertex set may keep v when counting v's neighbors;
    # the lemma layer relies on this to skip copying s - {v}
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 15), rng.random())
        s = frozenset(v for v in g.vertices() if rng.random() < 0.6)
        for v in g.vertices():
            assert g.degree_in(v, s | {v}) == g.degree_in(v, s - {v})
            assert g.neighbors_in(v, s | {v}) == g.neighbors_in(v, s - {v})


def test_masks_agree_with_adjacency(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 40), rng.random())
        masks = g.masks()
        assert len(masks) == g.n
        for v in range(g.n):
            assert {w for w in range(g.n) if masks[v] >> w & 1} == g.adj(v)
        assert g.masks() is masks  # built once
        h = Graph.from_edges(g.n, list(g.edges()))
        assert h == g and hash(h) == hash(g)  # the cache plays no part
