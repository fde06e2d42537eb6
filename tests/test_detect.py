import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import generate as gen
from chibound.certificates import (BicliqueWitness, EliminationOrder,
                                   InducedCycle, verify_certificate)
from chibound.detect import (BudgetExceeded, chromatic_number_exact, degeneracy,
                             find_biclique_subgraph, find_long_induced_cycle,
                             find_induced_subdivided_star, has_induced_path,
                             longest_induced_cycle, longest_induced_path,
                             max_clique, max_independent_set,
                             max_independent_subset, optimal_coloring)
from chibound.generate import generate
from chibound.graph import (Graph, complete_bipartite, complete_graph,
                            cycle_graph, empty_graph, path_graph,
                            verify_induced_path)
from conftest import graphs, random_graph
import oracles


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def grotzsch() -> Graph:
    # Mycielski construction applied to C5
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    edges = list(c5)
    for u, v in c5:
        edges.append((u, 5 + v))
        edges.append((v, 5 + u))
    edges += [(5 + i, 10) for i in range(5)]
    return Graph.from_edges(11, edges)


def test_biclique_c4():
    w = find_biclique_subgraph(cycle_graph(4), 2, 2)
    assert w == BicliqueWitness((0, 2), (1, 3))
    assert verify_certificate(cycle_graph(4), w)


def test_biclique_absent():
    assert find_biclique_subgraph(cycle_graph(6), 2, 2) is None
    assert find_biclique_subgraph(petersen(), 2, 2) is None
    assert oracles.brute_has_biclique(petersen(), 2, 2) is False


def test_biclique_asymmetric_sides():
    star = complete_bipartite(1, 4)
    w = find_biclique_subgraph(star, 1, 3)
    assert len(w.left) == 1 and len(w.right) == 3
    assert verify_certificate(star, w)
    w2 = find_biclique_subgraph(star, 3, 1)
    assert len(w2.left) == 3 and len(w2.right) == 1
    assert verify_certificate(star, w2)


def test_longest_induced_path_examples():
    assert len(longest_induced_path(path_graph(6))) == 6
    assert len(longest_induced_path(complete_graph(4))) == 2
    assert len(longest_induced_path(cycle_graph(7))) == 6
    assert len(longest_induced_path(empty_graph(0))) == 0
    assert has_induced_path(cycle_graph(7), 6) is not None
    assert has_induced_path(cycle_graph(7), 7) is None


@pytest.mark.parametrize("g, certificate", [
    # The least vertex 0 is interior: arm A is 0-1-3 and arm B 0-2-4, and
    # the certificate reads arm A backwards from the smaller endpoint 3.
    (Graph.from_edges(5, [(3, 1), (1, 0), (0, 2), (2, 4)]), (3, 1, 0, 2, 4)),
    # Arm A is 0-1-4 and arm B 0-2-3: the smaller endpoint ends arm B, so
    # the path is read from there.
    (Graph.from_edges(5, [(4, 1), (1, 0), (0, 2), (2, 3)]), (3, 2, 0, 1, 4)),
    (cycle_graph(6), (0, 1, 2, 3, 4)),
    (complete_bipartite(3, 3), (0, 3, 1)),
    # K_{2,2,2} with parts {0, 1}, {2, 3}, {4, 5}: longest paths of three
    # vertices are rooted at 0, 1, 2 and 3, and the least one wins.
    (Graph.from_edges(6, [(a, b) for a, b in combinations(range(6), 2)
                          if a // 2 != b // 2]), (0, 2, 1)),
])
def test_longest_induced_path_is_the_least_sequence(g, certificate):
    assert longest_induced_path(g).vertices == certificate
    assert oracles.reference_induced_path_search(g, None).vertices == certificate


def test_longest_induced_path_node_ratchet():
    # Node counts do not depend on the machine, so this total pins the
    # search's pruning: the figure may only be lowered.  A DFS from every
    # vertex, which meets each path from both ends, spent 39,302.
    params = {"gnp": {"p": 0.3}, "planted-cycle": {"t": 10},
              "planted-biclique": {"ell": 3}}
    total = 0
    for family in gen.FAMILIES:
        for n in (16, 20, 24):
            for seed in (1, 2):
                g = next(generate(family, {"n": n, **params.get(family, {})}, seed))
                total += _spent(lambda: longest_induced_path(g))[1]
    assert total <= 20_822


def test_long_induced_cycle_examples():
    w = find_long_induced_cycle(cycle_graph(7), 7)
    assert w is not None and len(w.vertices) == 7
    assert verify_certificate(cycle_graph(7), w)
    assert find_long_induced_cycle(complete_graph(4), 4) is None
    # C7 plus a chord: largest induced cycle is 5
    g = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    assert oracles.brute_longest_induced_cycle(g) == 5
    assert find_long_induced_cycle(g, 6) is None
    w5 = find_long_induced_cycle(g, 5)
    assert w5 is not None and verify_certificate(g, w5)
    best = longest_induced_cycle(g)
    assert len(best.vertices) == 5


def test_triangle_found():
    tri = complete_graph(3)
    w = longest_induced_cycle(tri)
    assert len(w.vertices) == 3


def test_subdivided_star():
    p5 = path_graph(5)
    w = find_induced_subdivided_star(p5, 2)
    assert w is not None and w.center == 2
    assert verify_certificate(p5, w)
    assert find_induced_subdivided_star(cycle_graph(5), 2) is None
    # spider S'_3: center 0, middles 1,2,3, leaves 4,5,6
    spider = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    w3 = find_induced_subdivided_star(spider, 3)
    assert w3 is not None and verify_certificate(spider, w3)


def test_mis_examples():
    assert len(max_independent_set(cycle_graph(5)).vertices) == 2
    assert len(max_independent_set(complete_bipartite(3, 3)).vertices) == 3
    assert len(max_independent_set(petersen()).vertices) == 4
    assert oracles.brute_mis_size(petersen()) == 4
    sub = max_independent_subset(cycle_graph(6), frozenset({0, 1, 2}))
    assert set(sub.vertices) == {0, 2}


def test_degeneracy_examples():
    assert degeneracy(cycle_graph(5))[0] == 2
    assert degeneracy(complete_bipartite(3, 3))[0] == 3
    tree = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    d, order = degeneracy(tree)
    assert d == 1
    assert verify_certificate(tree, order)


def test_degeneracy_exhaustive_small(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        assert degeneracy(g)[0] == oracles.brute_degeneracy(g)


def _smallest_last_reference(g):
    """Matula-Beck by definition: remove the vertex of least (degree, id)."""
    remaining = set(range(g.n))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (g.degree_in(u, remaining), u))
        order.append(v)
        remaining.discard(v)
    return order


def _elimination_reference(g, order, bound):
    """An order certifies `bound` iff it is a permutation and no vertex has
    more than `bound` neighbors after it."""
    if sorted(order) != list(range(g.n)):
        return False
    return all(len(g.adj(v) & set(order[i + 1:])) <= bound
               for i, v in enumerate(order))


def test_degeneracy_order_matches_smallest_last(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 30), rng.random())
        k, cert = degeneracy(g)
        assert list(cert.order) == _smallest_last_reference(g)
        assert cert.bound == k


def test_verify_elimination_rejects_tampered_orders():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    k, cert = degeneracy(star)
    order = cert.order
    assert (k, order) == (1, (1, 2, 0, 3))
    assert verify_certificate(star, cert)
    tampered = {
        "duplicated": (1, 1, 0, 3),
        "missing": (1, 2, 0),
        "out of range": (1, 2, 0, 4),
        "swapped endpoints": (0, 2, 1, 3),
    }
    for what, bad in tampered.items():
        assert not verify_certificate(star, EliminationOrder(bad, k)), what
    assert not verify_certificate(star, EliminationOrder(order, k - 1))


def test_verify_elimination_matches_definition(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        k, cert = degeneracy(g)
        order = list(cert.order)
        if len(order) >= 2:
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
        for bound in (k - 1, k, k + 1):
            assert verify_certificate(g, EliminationOrder(tuple(order), bound)) \
                == _elimination_reference(g, order, bound)


def test_chromatic_and_clique():
    assert len(max_clique(cycle_graph(5))) == 2
    assert chromatic_number_exact(cycle_graph(5)) == 3
    assert len(max_clique(complete_graph(5))) == 5
    assert chromatic_number_exact(complete_graph(5)) == 5
    gz = grotzsch()
    assert len(max_clique(gz)) == 2
    assert chromatic_number_exact(gz) == 4
    assert oracles.brute_chromatic(gz) == 4


def test_optimal_coloring_against_oracle(rng):
    assert optimal_coloring(empty_graph(0)) == {}
    for g in [grotzsch(), petersen(), cycle_graph(7), complete_graph(4)] + [
            random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(150)]:
        colors = optimal_coloring(g)
        assert set(colors) == set(g.vertices())
        assert all(colors[u] != colors[v] for u, v in g.edges())
        chi = oracles.brute_chromatic(g)
        assert set(colors.values()) == set(range(chi))
        assert chromatic_number_exact(g) == chi


def test_optimal_coloring_answers_when_its_bounds_meet():
    # the clique search runs out of its 40 nodes after finding a clique as
    # large as the greedy coloring, so the greedy coloring is optimal
    for family, params, seed, chi in (("gnp", {"n": 30, "p": 0.1}, 12, 3),
                                      ("planted-cycle", {"n": 24, "t": 8}, 9, 2)):
        g = next(generate(family, params, seed))
        with pytest.raises(BudgetExceeded):
            max_clique(g, budget=40)
        assert len(max_clique(g)) == chi  # so chi colors are optimal
        colors = optimal_coloring(g, budget=40)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        assert set(colors.values()) == set(range(chi))
        assert chromatic_number_exact(g, budget=40) == chi


def test_generate_draws_like_the_family_makers():
    # the family table draws from one Random(seed) in the order the makers
    # were once called from an if/elif chain
    makers = {
        "gnp": lambda rng: gen.gnp(12, 0.3, rng),
        "tree": lambda rng: gen.random_tree(12, rng),
        "split": lambda rng: gen.random_split(12, rng),
        "cograph": lambda rng: gen.random_cograph(12, rng),
        "chordal": lambda rng: gen.random_chordal(12, rng),
        "interval": lambda rng: gen.random_interval(12, rng),
        "planted-cycle": lambda rng: gen.planted_cycle(12, 6, rng),
        "planted-biclique": lambda rng: gen.planted_biclique(12, 3, rng),
    }
    assert gen.FAMILIES == tuple(makers)
    params = {"n": 12, "p": 0.3, "t": 6, "ell": 3}
    for family, make in makers.items():
        rng = random.Random(5)
        expected = [make(rng) for _ in range(3)]
        assert list(generate(family, params, seed=5, count=3)) == expected
    with pytest.raises(ValueError):
        next(generate("petersen"))


def test_optimal_coloring_spends_one_budget():
    # the clique search spends from the coloring's budget, so no call spends
    # more than its allowance plus the one node that finds it gone
    for n, budget in ((20, 40), (40, 300)):
        g = next(generate("gnp", {"n": n, "p": 0.5}, 2))
        with oracles.node_count() as spent, pytest.raises(BudgetExceeded):
            optimal_coloring(g, budget)
        assert spent[0] == budget + 1


def test_soundness_random(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        w = find_biclique_subgraph(g, 2, 2)
        if w is not None:
            assert verify_certificate(g, w)
        c = longest_induced_cycle(g)
        if c is not None:
            assert verify_certificate(g, c)
        s = find_induced_subdivided_star(g, 2)
        if s is not None:
            assert verify_certificate(g, s)
        assert verify_certificate(g, max_independent_set(g))
        assert verify_certificate(g, degeneracy(g)[1])


def test_completeness_small_sample(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert len(max_independent_set(g).vertices) == oracles.brute_mis_size(g)
        assert len(max_clique(g)) == oracles.brute_clique_size(g)
        assert len(longest_induced_path(g)) == oracles.brute_longest_induced_path(g)
        got = longest_induced_cycle(g)
        assert (len(got.vertices) if got else 0) == \
            oracles.brute_longest_induced_cycle(g)
        assert (find_biclique_subgraph(g, 2, 2) is not None) == \
            oracles.brute_has_biclique(g, 2, 2)
        assert (find_induced_subdivided_star(g, 2) is not None) == \
            oracles.brute_has_subdivided_star(g, 2)
        assert chromatic_number_exact(g) == oracles.brute_chromatic(g)


def test_monotone_under_edge_addition(rng):
    for _ in range(60):
        n = 8
        g = random_graph(rng, n, 0.3)
        non_edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if not g.has_edge(i, j)]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        g2 = Graph.from_edges(n, list(g.edges()) + [extra])
        assert degeneracy(g2)[0] >= degeneracy(g)[0]
        assert len(max_clique(g2)) >= len(max_clique(g))
        assert oracles.brute_max_balanced_biclique(g2) >= \
            oracles.brute_max_balanced_biclique(g)


def test_budget_exhaustion_is_explicit():
    g = random_graph(random.Random(7), 14, 0.5)
    with pytest.raises(BudgetExceeded):
        longest_induced_path(g, budget=5)
    try:
        max_independent_set(g, budget=3)
    except BudgetExceeded as e:
        assert e.best is not None
    else:
        pytest.fail("expected BudgetExceeded")


def test_verify_certificate_rows():
    c4 = cycle_graph(4)
    assert verify_certificate(c4, InducedCycle((0, 1, 2, 3)))
    bad = BicliqueWitness((0, 1), (2, 3))  # 0-2 missing in C4
    assert not verify_certificate(c4, bad)
    c5 = cycle_graph(5)
    _, order = degeneracy(c5)
    assert order.bound == 2
    assert verify_certificate(c5, order)
    assert not verify_certificate(c5, EliminationOrder(order.order, 1))


def _labelled_graphs(max_n: int):
    """Every labelled graph on 0..max_n vertices."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph.from_edges(n, [e for k, e in enumerate(pairs)
                                       if chosen >> k & 1])


def _check_searches_against_oracles(g: Graph) -> None:
    path_len = oracles.brute_longest_induced_path(g)
    path = longest_induced_path(g)
    assert len(path) == path_len and verify_induced_path(g, path)
    assert path == oracles.reference_induced_path_search(g, None)
    for t in range(1, g.n + 2):
        found = has_induced_path(g, t)
        assert (found is not None) == (path_len >= t)
        if found is not None:
            assert len(found) >= t and verify_induced_path(g, found)
    cycle_len = oracles.brute_longest_induced_cycle(g)
    cycle = longest_induced_cycle(g)
    assert (len(cycle.vertices) if cycle else 0) == cycle_len
    assert cycle is None or verify_certificate(g, cycle)
    for t in range(3, g.n + 2):
        found = find_long_induced_cycle(g, t)
        assert (found is not None) == (cycle_len >= t)
        if found is not None:
            assert len(found.vertices) >= t and verify_certificate(g, found)
    for d in (2, 3):
        star = find_induced_subdivided_star(g, d)
        assert (star is not None) == oracles.brute_has_subdivided_star(g, d)
        if star is not None:
            assert len(star.middles) == d and verify_certificate(g, star)


def test_searches_match_oracles_on_every_labelled_graph_up_to_5():
    graphs = list(_labelled_graphs(5))
    assert len(graphs) == 1100
    for g in graphs:
        _check_searches_against_oracles(g)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_searches_match_oracles_on_random_graphs(g):
    _check_searches_against_oracles(g)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_biclique_independent_set_and_clique_match_oracles(g, data):
    for a, b in ((1, 1), (1, 3), (2, 2), (3, 2), (3, 3)):
        found = find_biclique_subgraph(g, a, b)
        assert (found is not None) == oracles.brute_has_biclique(g, a, b)
        if found is not None:
            assert (len(found.left), len(found.right)) == (a, b)
            assert verify_certificate(g, found)
    within = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    mis = max_independent_subset(g, within)
    assert set(mis.vertices) <= within and verify_certificate(g, mis)
    assert len(mis.vertices) == oracles.brute_mis_size(g.induced(within)[0])
    clique = max_clique(g)
    assert len(clique) == oracles.brute_clique_size(g)
    assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))


@st.composite
def graphs_of_any_density(draw, max_n: int = 14) -> Graph:
    """G(n, p) graphs of 0..max_n vertices, sparse to dense."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.7)))
    return random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, p)


def _spent(call):
    """The result of call() and the search nodes it spent."""
    with oracles.node_count() as count:
        result = call()
    return result, count[0]


@settings(max_examples=150, deadline=None)
@given(graphs_of_any_density(), st.data())
def test_searches_give_the_certificates_of_the_unbounded_references(g, data):
    # The path and cycle searches settle each node in its parent's loop,
    # and their bounds (the cycle's counts one closer plus interior
    # vertices off the root's neighbors, and forbids the root neighbors
    # below v1) only cut subtrees that cannot reach the target, so the
    # certificates are the reference's.  has_induced_path and the cycle
    # searches spend the reference's nodes in its order, so no node is
    # added.  longest_induced_path roots each path at its least vertex: it
    # spends at most n + P nodes on n vertices and P induced paths of two
    # or more vertices, and the reference, which meets each path from both
    # ends, spends n + 2P.  The star search's look-ahead count
    # cuts a middle, or a child, only when too few later middles can still
    # get a leaf, which no completion survives.  The mask-based
    # independent-set search visits the reference's nodes.
    def compare(call, reference, same_nodes=False):
        (got, nodes), (want, ref_nodes) = _spent(call), _spent(reference)
        assert got == want
        assert nodes == ref_nodes if same_nodes else nodes <= ref_nodes

    def reference_path(stop_len):
        path = oracles.reference_induced_path_search(g, stop_len)
        return None if stop_len and len(path) < stop_len else path

    def reference_cycle(min_len, stop_at_first):
        cycle = oracles.reference_induced_cycle_search(g, min_len, stop_at_first)
        return InducedCycle(cycle) if cycle else None

    compare(lambda: longest_induced_path(g), lambda: reference_path(None))
    for t in range(1, g.n + 2):
        compare(lambda: has_induced_path(g, t), lambda: reference_path(t))
    compare(lambda: longest_induced_cycle(g), lambda: reference_cycle(3, False))
    for t in range(3, g.n + 2):
        compare(lambda: find_long_induced_cycle(g, t),
                lambda: reference_cycle(t, True))
    for d in (2, 3, 4):
        compare(lambda: find_induced_subdivided_star(g, d),
                lambda: oracles.reference_subdivided_star_search(g, d))
    within = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    compare(lambda: max_independent_subset(g, within),
            lambda: oracles.reference_max_independent(g, frozenset(within)),
            same_nodes=True)
    if g.n:  # max_clique answers the empty graph without a search
        compare(lambda: max_clique(g),
                lambda: oracles.reference_max_independent(
                    oracles.complement(g), frozenset(range(g.n))).vertices,
                same_nodes=True)


@settings(max_examples=150, deadline=None)
@given(graphs_of_any_density(max_n=12), st.data())
def test_cycle_search_within_matches_the_search_on_the_induced_copy(g, data):
    within = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    for t in range(3, len(within) + 2):
        got, want = oracles.cycle_within_outcomes(g, t, within)
        assert got == want
    # all of g as within, or none, is the unrestricted search
    for t in range(3, g.n + 2):
        whole = oracles.budget_outcomes(lambda b: find_long_induced_cycle(g, t, b),
                                        [None])
        assert oracles.budget_outcomes(
            lambda b: find_long_induced_cycle(g, t, b, within=None), [None]) == whole
        assert oracles.budget_outcomes(
            lambda b: find_long_induced_cycle(g, t, b, within=range(g.n)),
            [None]) == whole


def test_cycle_search_within_rejects_vertices_off_the_graph():
    with pytest.raises(ValueError):
        find_long_induced_cycle(cycle_graph(5), 3, within={0, 5})


@pytest.mark.parametrize("n, p, seed", [(12, 0.3, 1), (14, 0.5, 2), (16, 0.2, 3)])
def test_path_and_cycle_searches_answer_on_exactly_their_node_count(n, p, seed):
    # The budget bounds the whole call: with the nodes the call spends
    # without a limit it gives the same answer, and with one node less it
    # raises BudgetExceeded instead of answering from a partial search.
    g = random_graph(random.Random(seed), n, p)
    calls = [lambda budget: longest_induced_path(g, budget),
             lambda budget: has_induced_path(g, 5, budget),
             lambda budget: longest_induced_cycle(g, budget),
             lambda budget: find_long_induced_cycle(g, 5, budget)]
    for call in calls:
        answer, nodes = _spent(lambda: call(None))
        assert nodes > 0
        assert call(nodes) == answer
        with pytest.raises(BudgetExceeded):
            call(nodes - 1)


def test_cycle_bound_cuts_the_reference_nodes_around_many_root_neighbors():
    # K_{2,6} on 0..7 with a path 1-8-9-10-11, and a C7 on 12..18.  Root
    # 0 has six neighbors: the cycle bound counts one of them, the closer,
    # and those below v1 are forbidden from the start.  The reference
    # counts them all.
    edges = [(s, j) for s in (0, 1) for j in range(2, 8)]
    edges += [(1, 8), (8, 9), (9, 10), (10, 11)]
    edges += [(12 + i, 12 + (i + 1) % 7) for i in range(7)]
    g = Graph.from_edges(19, edges)
    for call, min_len, stop_at_first in (
            (lambda: longest_induced_cycle(g), 3, False),
            (lambda: find_long_induced_cycle(g, 6), 6, True)):
        (got, nodes), (want, ref_nodes) = _spent(call), _spent(
            lambda: oracles.reference_induced_cycle_search(g, min_len, stop_at_first))
        assert got == InducedCycle(tuple(range(12, 19))) == InducedCycle(want)
        assert nodes < ref_nodes


@pytest.mark.parametrize("n, p, seed, d", [(12, 0.3, 1, 3), (16, 0.2, 3, 3),
                                           (14, 0.4, 4, 3), (14, 0.4, 4, 4)])
def test_star_search_answers_on_exactly_its_node_count(n, p, seed, d):
    g = random_graph(random.Random(seed), n, p)
    answer, nodes = _spent(lambda: find_induced_subdivided_star(g, d))
    assert nodes > 0
    assert find_induced_subdivided_star(g, d, nodes) == answer
    with pytest.raises(BudgetExceeded):
        find_induced_subdivided_star(g, d, nodes - 1)


@pytest.mark.parametrize("family, n, seed", [("split", 14, 7), ("cograph", 16, 8)])
def test_star_bound_proves_absence_past_the_centers(family, n, seed):
    # Split graphs and cographs have no induced P5, so no subdivided star.
    # The count refutes every middle before its leaves are tried, so each
    # center spends its one node and nothing more; the reference tries the
    # leaves.
    g = next(generate(family, {"n": n}, seed))
    for d in (2, 3):
        (got, nodes), (want, ref_nodes) = (
            _spent(lambda: find_induced_subdivided_star(g, d)),
            _spent(lambda: oracles.reference_subdivided_star_search(g, d)))
        assert got is None and want is None
        assert nodes == sum(1 for v in range(g.n) if g.degree(v) >= d)
        assert nodes < ref_nodes
