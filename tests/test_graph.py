import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound.graph import (DEFAULT_VERTEX_CAP, DegreeQueue, Graph,
                            OrientedPath, are_anticomplete,
                            complete_graph, cycle_graph, empty_graph,
                            first_bad_pair, is_independent,
                            is_partially_anticomplete, mask_vertices,
                            path_graph, verify_induced_cycle,
                            verify_induced_path)
from chibound.generate import gnp
from chibound.minors import find_clique_minor
from conftest import graphs, random_graph
from oracles import complement, induced


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        # the guard raises before anything is allocated
        Graph.from_edges(DEFAULT_VERTEX_CAP + 1, [])


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
    single = (OrientedPath((0, 1, 2)),)
    assert is_partially_anticomplete(g, single)
    two = (OrientedPath((0, 1, 2)), OrientedPath((3, 4, 5)))
    assert is_partially_anticomplete(g, two)
    uneven = (OrientedPath((0, 1)), OrientedPath((3, 4, 5)))
    assert not is_partially_anticomplete(g, uneven)
    # aligned adjacent positions break it
    g2 = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
    fam = (OrientedPath((0, 1)), OrientedPath((2, 3)))
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
    sub, back = induced(c5, {1, 2, 4})
    assert sub.n == 3
    assert back == (1, 2, 4)
    assert sub.has_edge(0, 1)  # 1-2
    assert not sub.has_edge(0, 2)  # 1-4


def test_complement():
    g = complement(empty_graph(4))
    assert g.m == 6
    assert complement(cycle_graph(5)).m == 5


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


def test_memo_plays_no_part_in_equality():
    # a Graph that keeps its masks and its complete quotient is equal to,
    # and hashes like, a fresh one built from the same edges
    g = gnp(20, 0.5, random.Random(28))
    masks = g.masks()
    assert find_clique_minor(g, 5) is not None
    assert set(g._memo) == {"masks", "clique quotient"}
    assert g.masks() is masks
    h = Graph.from_edges(g.n, g.edges())
    assert not h._memo
    assert h == g and hash(h) == hash(g)


def _nx_induced(g: Graph, within) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(within)
    h.add_edges_from((u, v) for u, v in g.edges() if u in within and v in within)
    return h


def test_bfs_tree_against_networkx(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 14), rng.random() * 0.6)
        within = frozenset(v for v in g.vertices() if rng.random() < 0.7)
        for source in sorted(within):
            parent = g.bfs(source, within)
            dist = nx.single_source_shortest_path_length(_nx_induced(g, within), source)
            assert set(parent) == set(dist)
            order = list(parent)
            assert order[0] == source and parent[source] == -1
            assert [dist[v] for v in order] == sorted(dist[v] for v in order)
            for w in order[1:]:
                # the parent is the first-discovered neighbor one layer up
                ups = [u for u in order if dist[u] == dist[w] - 1 and g.has_edge(u, w)]
                assert parent[w] == ups[0]
            for target in sorted(within):
                stopped = g.bfs(source, within, target)
                if target == source or target not in parent:
                    assert stopped == parent
                    continue
                assert list(stopped) == order[:order.index(target) + 1]
                path = g.shortest_path(source, target, within)
                assert len(path) == dist[target] + 1
                assert path[0] == source and path[-1] == target
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            missing = [v for v in g.vertices() if v not in parent]
            for target in missing:
                assert g.shortest_path(source, target, within) is None
            assert g.shortest_path(source, source, within) == [source]


def test_connected_subset_against_networkx(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.5)
        s = {v for v in g.vertices() if rng.random() < 0.6}
        expected = bool(s) and nx.is_connected(_nx_induced(g, s))
        assert g.is_connected_subset(s) == expected


def _nx_cut_counts(h: nx.Graph) -> dict[int, int]:
    return {x: nx.number_connected_components(h.subgraph(set(h) - {x})) for x in h}


def test_cut_counts_on_the_atlas():
    # every connected graph of at most 7 vertices, the whole vertex set
    for h in nx.graph_atlas_g()[1:]:
        if nx.is_connected(h):
            g = Graph.from_edges(h.number_of_nodes(), h.edges())
            assert g.cut_counts(frozenset(g.vertices())) == _nx_cut_counts(h)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), st.data())
def test_cut_counts_against_networkx(g, data):
    # on a drawn subset, connected or not, and on the component of its
    # least vertex
    s = frozenset(data.draw(st.sets(st.sampled_from(range(g.n))) if g.n else st.just(set())))
    assert g.cut_counts(s) == _nx_cut_counts(_nx_induced(g, s))
    if s:
        component = frozenset(nx.node_connected_component(_nx_induced(g, s), min(s)))
        assert g.cut_counts(component) == _nx_cut_counts(_nx_induced(g, component))


def test_cut_counts_on_a_long_path():
    # 5,000 vertices deep: a recursive DFS would pass the recursion limit
    n = 5_000
    counts = path_graph(n).cut_counts(set(range(n)))
    assert counts == {v: 1 if v in (0, n - 1) else 2 for v in range(n)}


def _first_bad_pair_reference(g: Graph, vs, closed: bool):
    k = len(vs)
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (closed and i == 0 and j == k - 1)
            if g.has_edge(vs[i], vs[j]) != consecutive:
                return vs[i], vs[j]
    return None


def test_first_bad_pair_against_definition(rng):
    assert first_bad_pair(cycle_graph(5), (0, 1, 2, 3, 4), closed=True) is None
    assert first_bad_pair(cycle_graph(5), (0, 1, 2, 3, 4), closed=False) == (0, 4)
    assert first_bad_pair(path_graph(4), (0, 1, 3), closed=False) == (1, 3)
    assert first_bad_pair(complete_graph(4), (0, 1, 2, 3), closed=True) == (0, 2)
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        vs = rng.sample(range(g.n), rng.randint(3, g.n))
        for closed in (False, True):
            assert first_bad_pair(g, vs, closed) == \
                _first_bad_pair_reference(g, vs, closed)
        assert verify_induced_path(g, OrientedPath(tuple(vs))) == \
            (_first_bad_pair_reference(g, vs, False) is None)
        assert verify_induced_cycle(g, vs) == \
            (_first_bad_pair_reference(g, vs, True) is None)


def test_mask_vertices(rng):
    assert mask_vertices(0) == []
    for _ in range(100):
        mask = rng.getrandbits(rng.randint(1, 80))
        assert mask_vertices(mask) == [i for i in range(mask.bit_length())
                                       if mask >> i & 1]


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=12), st.data())
def test_degree_queue_matches_a_scan(g, data):
    # removals take the least (degree, id) vertex, another vertex of least
    # degree (an elimination step may certify one that is not the least
    # id) or any vertex at all; between removals, updates raise and lower
    # degrees, past the initial maximum too, but never below what later
    # removals take away
    queue = DegreeQueue(g)
    extra = dict.fromkeys(range(g.n), 0)  # update's lift over the degree in g
    top = max(map(g.degree, range(g.n)), default=0) + 3
    while extra:
        vertices = extra.keys()
        for v, d in data.draw(st.lists(st.tuples(
                st.sampled_from(sorted(vertices)), st.integers(0, top)), max_size=4)):
            extra[v] = max(d - g.degree_in(v, vertices), 0)
            queue.update(v, g.degree_in(v, vertices) + extra[v])
        deg = {v: g.degree_in(v, vertices) + extra[v] for v in vertices}
        assert queue.vertices == vertices
        assert all(queue.deg[v] == d for v, d in deg.items())
        low = min(deg.values())
        lowest = sorted(v for v, d in deg.items() if d == low)
        assert queue.min_vertex() == lowest[0]
        assert queue.max_vertex() == max(deg, key=lambda v: (deg[v], -v))
        kind = data.draw(st.sampled_from(("least", "tied", "any")))
        pool = {"least": lowest[:1], "tied": lowest, "any": sorted(vertices)}[kind]
        v = data.draw(st.sampled_from(pool))
        queue.remove(v)
        del extra[v]
    assert not queue.vertices
