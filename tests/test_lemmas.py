import random

import pytest
from hypothesis import given, settings

from chibound.certificates import (BicliqueWitness, CounterWitness,
                                   EliminationOrder, LowDegreeVertex,
                                   SubdividedStarWitness, verify_certificate)
from chibound.detect import find_biclique_subgraph, longest_induced_path
from chibound.generate import gnp
from chibound.graph import (Graph, complete_bipartite, cycle_graph,
                            empty_graph, path_graph)
from chibound import lemmas
from chibound.lemmas import (common_filter, degree_bound,
                             filter_many_nonneighbors,
                             rainbow_independent_set, sstar_elimination_order,
                             sstar_low_degree)
from conftest import graphs, random_graph
import oracles


def test_degree_bound_closed_form():
    # k = ell = d = 2: (2-1)*(2 + 4 + 4) + 2 - 2 = 10
    assert degree_bound(2, 2, 2) == 10
    assert degree_bound(1, 2, 2) == 1


def test_filter_edgeless():
    g = empty_graph(6)
    kept = filter_many_nonneighbors(g, frozenset({0, 1, 2, 3}),
                                    frozenset({4, 5}), 1, 2)
    assert kept == frozenset({4, 5})


def test_filter_produces_biclique():
    # U = {0,1,2,3}; 4 adjacent to 0,1,2; 5 adjacent to 1,2,3
    g = Graph.from_edges(6, [(4, 0), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
    with pytest.raises(CounterWitness) as exc:
        filter_many_nonneighbors(g, frozenset(range(4)), frozenset({4, 5}), 2, 2)
    assert exc.value.certificate == BicliqueWitness((4, 5), (1, 2))
    assert verify_certificate(g, exc.value.certificate)


def test_filter_no_biclique_below_ell():
    g = Graph.from_edges(5, [(4, 0), (4, 1), (4, 2), (4, 3)])
    # 4 fails the count alone, one short of a biclique, and is dropped
    assert filter_many_nonneighbors(g, frozenset(range(4)), frozenset({4}),
                                    2, 2) == frozenset()


def test_filter_preconditions():
    g = empty_graph(4)
    with pytest.raises(ValueError):
        filter_many_nonneighbors(g, frozenset({0}), frozenset({1}), 2, 2)
    with pytest.raises(ValueError):
        filter_many_nonneighbors(g, frozenset({0, 1, 2, 3}), frozenset({0}), 1, 2)


def test_common_filter_edgeless():
    g = empty_graph(10)
    v = common_filter(g, [frozenset({0, 1}), frozenset({2, 3})],
                      frozenset({4, 5, 6}), 1, 2)
    assert v == 4


def test_common_filter_single_set_reduces_to_filter():
    g = Graph.from_edges(5, [(4, 0)])
    v = common_filter(g, [frozenset({0, 1})], frozenset({4, 3}), 1, 2)
    kept = filter_many_nonneighbors(g, frozenset({0, 1}), frozenset({4, 3}), 1, 2)
    assert v == min(kept)


def test_common_filter_second_round_biclique():
    # round 2 (set {2,3}) excludes 4 and 5, which are complete to it
    edges = [(4, 2), (4, 3), (5, 2), (5, 3)]
    g = Graph.from_edges(7, edges)
    with pytest.raises(CounterWitness) as exc:
        common_filter(g, [frozenset({0, 1}), frozenset({2, 3})],
                      frozenset({4, 5, 6}), 1, 2)
    assert verify_certificate(g, exc.value.certificate)
    assert find_biclique_subgraph(g, 2, 2) is not None


def test_rainbow_trivial():
    g = empty_graph(4)
    assert rainbow_independent_set(g, [frozenset({2, 3})], 2) == (2,)
    assert rainbow_independent_set(
        g, [frozenset({0, 1}), frozenset({2, 3})], 2) == (0, 2)


def test_rainbow_forced_transversal():
    # V1 = {0,1}, V2 = {2,3}; edges 0-2, 0-3, 1-2: only (1, 3) works
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
    from itertools import product
    valid = [(a, c) for a, c in product([0, 1], [2, 3]) if not g.has_edge(a, c)]
    assert valid == [(1, 3)]
    assert rainbow_independent_set(
        g, [frozenset({0, 1}), frozenset({2, 3})], 2) == (1, 3)


SSTAR_PARAMS = ((2, 2), (2, 3), (3, 2))


def test_sstar_examples():
    out = sstar_low_degree(cycle_graph(5), 2, 2)
    assert isinstance(out.certificate, LowDegreeVertex)
    assert out.certificate.degree == 2
    assert out.certificate.bound <= 10

    out = sstar_low_degree(path_graph(5), 2, 2)
    assert verify_certificate(path_graph(5), out.certificate)

    out = sstar_low_degree(complete_bipartite(2, 2), 2, 2)
    assert verify_certificate(complete_bipartite(2, 2), out.certificate)


def test_sstar_rejects_bad_params():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        sstar_low_degree(g, 1, 2)
    with pytest.raises(ValueError):
        sstar_low_degree(g, 2, 1)
    with pytest.raises(ValueError):
        sstar_low_degree(empty_graph(0), 2, 2)
    for n in (0, 5):
        with pytest.raises(ValueError):
            sstar_elimination_order(empty_graph(n), 1, 2)
        with pytest.raises(ValueError):
            sstar_elimination_order(empty_graph(n), 2, 1)
    assert sstar_elimination_order(empty_graph(0), 2, 2) == EliminationOrder((), 0)


def test_sstar_totality_random(rng):
    for _ in range(200):
        n = rng.randint(1, 22)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        out = sstar_low_degree(g, 2, 2)
        assert verify_certificate(g, out.certificate)
        if isinstance(out.certificate, LowDegreeVertex):
            assert out.certificate.degree <= degree_bound(out.level, 2, 2)
        if isinstance(out.certificate, BicliqueWitness):
            assert len(out.certificate.left) >= 2
            assert len(out.certificate.right) >= 2


def test_sstar_totality_d3(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 16), 0.5)
        out = sstar_low_degree(g, 3, 2)
        assert verify_certificate(g, out.certificate)


def test_sstar_screened_always_low_degree(rng):
    # P5-free (split-like) plus K_{2,2}-free screened inputs
    found = 0
    while found < 60:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3]))
        if len(longest_induced_path(g)) >= 5:
            continue
        if find_biclique_subgraph(g, 2, 2) is not None:
            continue
        found += 1
        out = sstar_low_degree(g, 2, 2)
        assert isinstance(out.certificate, LowDegreeVertex)
        assert out.certificate.degree <= 10


def test_sstar_trace():
    out = sstar_low_degree(cycle_graph(5), 2, 2, with_trace=True)
    assert out.trace is not None and len(out.trace) >= 1


@pytest.mark.parametrize("n, p, seed, rainbow_calls, witness, root, a_size", [
    # the batch filter of the j-loop fails ell = 2 of its vertices
    (28, 0.6, 72, 0, BicliqueWitness((0, 16), (2, 6)), 4, 21),
    # the j-loop succeeds and the rainbow transversal surfaces the biclique
    (26, 0.45, 525, 1, BicliqueWitness((2, 14), (22, 25)), 11, 17),
])
def test_sstar_star_branch_biclique_exits(monkeypatch, n, p, seed, rainbow_calls,
                                          witness, root, a_size):
    calls = []
    real = lemmas.rainbow_independent_set
    monkeypatch.setattr(lemmas, "rainbow_independent_set",
                        lambda *args: calls.append(args) or real(*args))
    g = gnp(n, p, random.Random(seed))
    out = sstar_low_degree(g, 2, 2, with_trace=True)
    assert out.certificate == witness and verify_certificate(g, witness)
    assert out.level == 2
    assert out.trace == [{"k": 2, "root": root, "A": a_size, "U": 7}]
    assert len(calls) == rainbow_calls


def test_elimination_order_edgeless_and_tree():
    order = sstar_elimination_order(empty_graph(5), 2, 2)
    assert isinstance(order, EliminationOrder)
    assert order.bound == 0

    tree = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    order = sstar_elimination_order(tree, 2, 2)
    assert isinstance(order, EliminationOrder)
    assert order.bound <= 1
    assert verify_certificate(tree, order)


def test_elimination_order_screened_split(rng):
    found = 0
    while found < 15:
        n = rng.randint(4, 12)
        g = random_graph(rng, n, 0.25)
        if len(longest_induced_path(g)) >= 5 or find_biclique_subgraph(g, 2, 2):
            continue
        found += 1
        result = sstar_elimination_order(g, 2, 2)
        assert isinstance(result, EliminationOrder)
        assert result.bound <= 10
        assert verify_certificate(g, result)


def test_elimination_order_valid_outcome_on_dense_inputs():
    # any of the three outcomes is legitimate; whatever comes back verifies
    for g in (complete_bipartite(3, 3),
              Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])):
        out = sstar_elimination_order(g, 2, 2)
        if isinstance(out, EliminationOrder):
            assert out.bound <= 10
        assert verify_certificate(g, out)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_elimination_order_matches_naive_loop(g):
    for d, ell in SSTAR_PARAMS:
        assert sstar_elimination_order(g, d, ell) == \
            oracles.naive_sstar_elimination_order(g, d, ell)


def test_elimination_order_matches_naive_loop_on_sparse_graph():
    # (2, 2) stops at an induced P5; the others delete all 400 vertices,
    # enough to move the queue's pointers and leave stale entries behind
    g = gnp(400, 6 / 399, random.Random(400))
    for d, ell in SSTAR_PARAMS:
        result = sstar_elimination_order(g, d, ell)
        assert isinstance(result, SubdividedStarWitness if (d, ell) == (2, 2)
                          else EliminationOrder)
        assert result == oracles.naive_sstar_elimination_order(g, d, ell)


def test_lemma_results_are_checked_without_assert(monkeypatch):
    # the checks must raise even under `python -O`, which strips asserts
    from chibound import lemmas
    c5 = cycle_graph(5)

    def inject(make_cert):
        def recurse(g, vertices, r, k, d, ell, roots_above, trace):
            return lemmas.SStarOutcome(make_cert(g, vertices), k, trace)
        monkeypatch.setattr(lemmas, "_sstar_recurse", recurse)

    for wrong in (LowDegreeVertex(0, 0, 0),             # degree is 2, not 0
                  BicliqueWitness((0, 2), (1, 3)),      # 0-3 is no edge
                  BicliqueWitness((0,), (1,))):         # valid, but not K_{2,2}
        inject(lambda g, vertices: wrong)
        with pytest.raises(lemmas.InternalInconsistency):
            sstar_low_degree(c5, 2, 2)
        with pytest.raises(lemmas.InternalInconsistency):
            sstar_elimination_order(c5, 2, 2)
    # every step verifies, but the order breaks the level-ell closed form
    monkeypatch.setattr(lemmas, "degree_bound", lambda k, d, ell: -1)
    inject(lambda g, vertices: LowDegreeVertex(
        min(vertices), g.degree_in(min(vertices), vertices), 2))
    with pytest.raises(lemmas.InternalInconsistency):
        sstar_elimination_order(c5, 2, 2)
