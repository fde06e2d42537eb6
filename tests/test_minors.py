import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chibound import minors
from chibound.anticomplete import PipelineOverrides, main_pipeline
from chibound.certificates import (InducedCycle, InternalInconsistency,
                                   verify_certificate)
from chibound.detect import (BudgetExceeded, SearchBudget, StageShortfall,
                             find_long_induced_cycle)
from chibound.generate import (gnp, pipeline_ideal_instance, planted_cycle,
                               random_tree)
from chibound.graph import Graph, complete_graph, cycle_graph, path_graph
from chibound.minors import (CliqueMinor, check_branch_diameter,
                             eccentric_pair, find_clique_minor, full_vertex_minor,
                             full_vertices, minimize_minor, validate_minor)
from conftest import graphs, random_graph
from oracles import (brute_longest_induced_cycle, call_count,
                     cycle_within_outcomes, induced, node_count,
                     reference_full_vertices,
                     reference_minimize_minor, reference_private_set,
                     reference_series_parallel_reducible,
                     reference_touched_sets, reference_valid_minor)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def star_ring(t: int) -> tuple[Graph, CliqueMinor]:
    """t branch sets, each a star; pairwise adjacency via leaf-leaf edges.

    Every vertex touches at most one foreign set.
    """
    def leaf(i: int, j: int) -> int:
        return t + i * (t - 1) + (j if j < i else j - 1)

    edges = []
    for i in range(t):
        for j in range(t):
            if i != j:
                edges.append((i, leaf(i, j)))
                if i < j:
                    edges.append((leaf(i, j), leaf(j, i)))
    g = Graph.from_edges(t + t * (t - 1), edges)
    sets = [frozenset({i} | {leaf(i, j) for j in range(t) if j != i})
            for i in range(t)]
    return g, CliqueMinor(tuple(sets))


def test_validate_examples():
    k4 = complete_graph(4)
    singletons = CliqueMinor.from_sets([{i} for i in range(4)])
    assert validate_minor(k4, singletons)
    disconnected = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not validate_minor(disconnected,
                              CliqueMinor.from_sets([{0}, {1, 2}]))
    no_cross = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not validate_minor(no_cross, CliqueMinor.from_sets([{0, 1}, {2, 3}]))
    overlapping = CliqueMinor.from_sets([{0, 1}, {1, 2}])
    assert not validate_minor(k4, overlapping)


def test_find_minor_small_p():
    k5 = complete_graph(5)
    m = find_clique_minor(k5, 5)
    assert m is not None and all(len(s) == 1 for s in m.branch_sets)
    tree = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert find_clique_minor(tree, 3) is None
    assert find_clique_minor(tree, 2) is not None
    assert find_clique_minor(Graph.from_edges(1, []), 1) is not None
    assert find_clique_minor(Graph.from_edges(2, []), 2) is None
    c5 = cycle_graph(5)
    m3 = find_clique_minor(c5, 3)
    assert m3 is not None and validate_minor(c5, m3)
    assert find_clique_minor(c5, 4) is None  # series-parallel


def test_find_minor_petersen():
    m = find_clique_minor(petersen(), 5)
    assert m is not None
    assert validate_minor(petersen(), m)
    assert len(m) == 5


def test_find_minor_absent_without_k4_minor():
    # a K4-minor-free graph has no K_p minor for any p >= 4, so absence is
    # proven at once instead of by an exhaustive search that runs out
    rng = random.Random(5)
    for g in (random_tree(30, rng), planted_cycle(30, 10, rng)):
        for p in (4, 5, 6):
            assert find_clique_minor(g, p, budget=1000) is None


def atlas_graphs(max_n: int) -> list[Graph]:
    """Every graph on 1 to max_n <= 7 vertices up to isomorphism (208 up to
    6 vertices, 1,252 up to 7)."""
    return [Graph.from_edges(h.number_of_nodes(), h.edges())
            for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= max_n]


def test_assignment_search_matches_exact_routes():
    # p = 3: a K3 minor exists iff there is a cycle; p = 4: iff the
    # series-parallel reduction gets stuck
    for g in atlas_graphs(6):
        for p, exists in ((3, minors._find_cycle(g) is not None),
                          (4, not reference_series_parallel_reducible(g))):
            found = minors._assignment_search(g, p, SearchBudget())
            assert (found is not None) == exists
            if found is not None:
                assert len(found) == p and validate_minor(g, found)


def _check_contraction(g: Graph) -> None:
    # the quotient is a complete minor, and the route through it finds a
    # K4 or K5 minor exactly when the exhaustive search does
    sets, _ = minors._contract_to_clique(g)
    assert validate_minor(g, CliqueMinor(tuple(sets)))
    assert [min(s) for s in sets] == sorted(min(s) for s in sets)
    assert (len(sets) > 0) == (g.n > 0)
    for p in (4, 5):
        exact = minors._assignment_search(g, p, SearchBudget())
        assert (find_clique_minor(g, p) is not None) == (exact is not None)


def test_contraction_on_every_graph_up_to_6():
    for g in atlas_graphs(6):
        _check_contraction(g)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_contraction_on_random_graphs(g):
    _check_contraction(g)


def _check_k4_verdict(g: Graph) -> None:
    # the contraction's K4 verdict is the series-parallel reduction's, and a
    # K4-minor-free graph is proven to lack K4 and K5 minors without the
    # assignment search spending its one-node budget
    free = reference_series_parallel_reducible(g)
    assert minors._contract_to_clique(g)[1] == (not free)
    assert (find_clique_minor(g, 4) is None) == free
    if free:
        assert find_clique_minor(g, 5, budget=1) is None


def test_k4_verdict_on_every_graph_up_to_7():
    for g in atlas_graphs(7):
        _check_k4_verdict(g)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=16))
def test_k4_verdict_on_random_graphs(g):
    _check_k4_verdict(g)


def icosahedron_edges() -> list[tuple[int, int]]:
    # apexes 0 and 11 over the rings 1..5 and 6..10, each ring vertex
    # joined to two vertices of the other ring
    edges = [(0, 1 + i) for i in range(5)] + [(11, 6 + i) for i in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        edges += [(1 + i, 1 + j), (6 + i, 6 + j), (1 + i, 6 + i), (1 + i, 6 + j)]
    return edges


@pytest.mark.parametrize("bridged", [False, True])
def test_contraction_keeps_a_clique_it_would_shrink(bridged):
    # the K5 holds the vertices of least degree, so contracting them first
    # destroys it, and the planar icosahedron leaves a quotient of at most
    # four sets; the K5 must still come back without the exhaustive search
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(a + 5, b + 5) for a, b in icosahedron_edges()]
    g = Graph.from_edges(17, edges + [(4, 5)] * bridged)
    found = find_clique_minor(g, 5, budget=20_000)
    assert found is not None and validate_minor(g, found)
    assert found.to_json() == [[0], [1], [2], [3], [4]]


def test_find_minor_checks_its_answer_without_assert(monkeypatch):
    # the check must raise even under `python -O`, which strips asserts, and
    # on a call that reuses the kept quotient as on the call that made it
    g = petersen()
    bogus = CliqueMinor.from_sets([{0}, {2}, {4}, {6}, {8}])
    assert not validate_minor(g, bogus)
    monkeypatch.setattr(minors, "_contract_to_clique", lambda *a: (bogus.branch_sets, True))
    with call_count(minors, "_contract_to_clique") as contractions:
        for _ in range(2):
            with pytest.raises(InternalInconsistency):
                find_clique_minor(g, 5)
    assert contractions[0] == 1
    g = petersen()  # the bogus quotient stays on the first graph
    monkeypatch.setattr(minors, "_contract_to_clique", lambda *a: ((), True))
    monkeypatch.setattr(minors, "_assignment_search", lambda *a: bogus)
    for _ in range(2):
        with pytest.raises(InternalInconsistency):
            find_clique_minor(g, 5)


@pytest.mark.parametrize("case", ["gnp", "k4-minor-free", "k4"])
def test_each_graph_is_contracted_once(case):
    # the quotient depends on the graph alone: the first call with p >= 4
    # keeps it on the Graph, and every later call there, main_pipeline's
    # step 1 (a K4 at t = 8) included, answers as on a fresh equal graph
    g = {"gnp": gnp(20, 0.5, random.Random(28)),
         "k4-minor-free": planted_cycle(30, 10, random.Random(28)),
         "k4": complete_graph(4)}[case]
    sizes = [*range(4, 10), *range(9, 3, -1)]
    budget = 2_000
    with call_count(minors, "_contract_to_clique") as contractions:
        answers = [find_clique_minor(g, p, budget) for p in sizes]
        run = main_pipeline(g, 8, 3, PipelineOverrides(budget=budget)).to_json()
        assert contractions[0] == 1
        assert answers == [find_clique_minor(Graph.from_edges(g.n, g.edges()), p, budget)
                           for p in sizes]
        assert run == main_pipeline(Graph.from_edges(g.n, g.edges()), 8, 3,
                                    PipelineOverrides(budget=budget)).to_json()
    assert contractions[0] == 1 + len(sizes) + 1  # and once per fresh graph
    kinds = {type(a) if isinstance(a, CliqueMinor) else a for a in answers}
    assert kinds == {"gnp": {CliqueMinor},
                     "k4-minor-free": {None},
                     "k4": {CliqueMinor, None}}[case]


def test_assignment_search_runs_on_every_call():
    # K4 with p = 5: the kept quotient of four sets is too small, so every
    # call runs the assignment search, and it spends that call's budget;
    # the search needs one node, so a budget of 1 answers and 0 runs out
    g = complete_graph(4)
    with call_count(minors, "_contract_to_clique") as contractions, \
            call_count(minors, "_assignment_search") as searches, \
            node_count() as nodes:
        assert [find_clique_minor(g, 5, budget=1) for _ in range(2)] == [None, None]
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                find_clique_minor(g, 5, budget=0)
    assert (contractions[0], searches[0], nodes[0]) == (1, 4, 4)


def test_internal_inconsistency_is_reexported_by_lemmas():
    from chibound import lemmas
    assert lemmas.InternalInconsistency is InternalInconsistency


def test_find_minor_k4_route():
    # K4 subdivision: min degree 3 after reduction
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 2), (1, 5),
                             (5, 3), (2, 3)])
    m = find_clique_minor(g, 4)
    assert m is not None and validate_minor(g, m)


def test_minimize_examples():
    k4 = complete_graph(4)
    singles = CliqueMinor.from_sets([{i} for i in range(4)])
    assert minimize_minor(k4, singles) == singles

    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    grown = CliqueMinor.from_sets([{0}, {1}, {2, 3}])
    slim = minimize_minor(g, grown)
    assert slim == CliqueMinor.from_sets([{0}, {1}, {2}])

    # path branch set with a redundant tail
    g2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    slim2 = minimize_minor(g2, CliqueMinor.from_sets([{0}, {1}, {2, 3, 4}]))
    assert slim2 == CliqueMinor.from_sets([{0}, {1}, {2}])


def test_minimize_counts_after_leaf_removals():
    # the set {0, 1, 2, 5, 6, 7}: triangle 0-5-6, leaves 1 and 2 on 0 and 7
    # on 6; 7 alone touches {8} and 5 alone touches {9}.  Testing 6 takes
    # the cut counts (6 separates 7), removing the leaves 2 and 1 lowers
    # 0's count from 3 to 1, and 0 then goes with no second pass over k
    g = Graph.from_edges(10, [(0, 5), (0, 6), (5, 6), (0, 1), (0, 2), (6, 7),
                              (7, 8), (5, 9), (8, 9)])
    minor = CliqueMinor.from_sets([{0, 1, 2, 5, 6, 7}, {8}, {9}])
    with call_count(Graph, "cut_counts") as calls:
        assert minimize_minor(g, minor) == \
            CliqueMinor.from_sets([{5, 6, 7}, {8}, {9}])
    assert calls[0] == 2  # one per pass over the set
    assert reference_minimize_minor(g, minor.branch_sets) == [{5, 6, 7}, {8}, {9}]


def test_minimize_rejects_an_invalid_minor():
    # the end sets of a path do not touch
    with pytest.raises(ValueError, match="not a valid clique minor"):
        minimize_minor(path_graph(3), CliqueMinor.from_sets([{0}, {2}]))


def _removable_exists(g, minor) -> bool:
    for idx, k in enumerate(minor.branch_sets):
        for v in k:
            if len(k) == 1:
                continue
            rest = frozenset(k - {v})
            if not g.is_connected_subset(rest):
                continue
            private = False
            for j, other in enumerate(minor.branch_sets):
                if j == idx:
                    continue
                if g.adj(v) & other and not any(g.adj(w) & other for w in rest):
                    private = True
                    break
            if not private:
                return True
    return False


def test_minimize_invariants_random(rng):
    built = 0
    while built < 30:
        g = random_graph(rng, 10, 0.5)
        m = None
        try:
            m = find_clique_minor(g, 3)
        except BudgetExceeded:
            continue
        if m is None:
            continue
        built += 1
        slim = minimize_minor(g, m)
        assert len(slim) == len(m)
        assert validate_minor(g, slim)
        assert not _removable_exists(g, slim)


def test_branch_diameter_examples():
    k4 = complete_graph(4)
    singles = CliqueMinor.from_sets([{i} for i in range(4)])
    assert check_branch_diameter(k4, singles, 3) is None

    # planted long branch set with private endpoint sets
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (6, 4),
                             (5, 6)])
    minor = CliqueMinor.from_sets([{0, 1, 2, 3, 4}, {5}, {6}])
    assert validate_minor(g, minor)
    cert = check_branch_diameter(g, minor, 5)
    assert cert is not None and len(cert.vertices) >= 5
    assert verify_certificate(g, cert)
    assert check_branch_diameter(g, minor, 100) is None

    with pytest.raises(ValueError):
        check_branch_diameter(k4, CliqueMinor.from_sets([{0}, {1}]), 3)


def test_branch_diameter_rejects_a_minor_that_is_not_minimal():
    # the path 0-1-2 has 3 vertices, and 3 and 4 each touch all of it, so
    # neither end of the path holds a private set
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]
                         + [(a, b) for a in (3, 4) for b in (0, 1, 2)])
    minor = CliqueMinor.from_sets([{0, 1, 2}, {3}, {4}])
    assert validate_minor(g, minor)
    with pytest.raises(ValueError, match="not minimal"):
        check_branch_diameter(g, minor, 3)


def _networkx_eccentric_pair(g: Graph, s) -> tuple[int, int, int]:
    h = nx.Graph()
    h.add_nodes_from(s)
    h.add_edges_from((u, v) for u, v in g.edges() if u in s and v in s)
    dist = dict(nx.all_pairs_shortest_path_length(h))
    pairs = [(-dist[u][v], u, v) for u in sorted(s) for v in sorted(s)
             if u < v and v in dist[u]]
    return (min(pairs)[1], min(pairs)[2], -min(pairs)[0]) if pairs else (-1, -1, 0)


def test_eccentric_pair_against_networkx(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.5)
        s = frozenset(v for v in g.vertices() if rng.random() < 0.7)
        assert eccentric_pair(g, s) == _networkx_eccentric_pair(g, s)


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    ids = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(ids[u], ids[v]) for u, v in g.edges()])


def test_eccentric_pair_on_long_paths_and_cycles(rng):
    # the eccentricity bound prunes most roots of a path once a middle
    # vertex is a root; ties everywhere on a cycle
    for n in range(3, 61, 3):
        for g in (path_graph(n), cycle_graph(n)):
            for h in (g, _relabelled(g, rng)):
                whole = frozenset(h.vertices())
                assert eccentric_pair(h, whole) == _networkx_eccentric_pair(h, whole)


@pytest.fixture(scope="module")
def step2_minors() -> list[tuple[str, Graph, CliqueMinor, int, int]]:
    """(name, g, minor, p, t) at bench scale: the K5-K9 minors that
    find_clique_minor returns on G(20, 1/2) at seeds 1-6 (branch sets of 1-6
    vertices), with t = 6, the K4 minors of the ideal pipeline instances
    at t = 8 and 10 and the K5 minor that main_pipeline takes at t = 10
    (branch sets of 1-77 vertices)."""
    cases = []
    for seed in range(1, 7):
        g = gnp(20, 0.5, random.Random(seed))
        for p in range(5, 10):
            cases.append((f"gnp-s{seed}-K{p}", g, find_clique_minor(g, p, 20_000), p, 6))
    for t, p in ((8, 4), (10, 4), (10, 5)):
        g = pipeline_ideal_instance(t)
        cases.append((f"ideal-t{t}-K{p}", g, find_clique_minor(g, p), p, t))
    return cases


def test_step2_validates_each_minor_once(step2_minors):
    for name, g, minor, p, t in step2_minors:
        with call_count(minors, "validate_minor") as calls:
            assert find_clique_minor(g, p, 20_000) == minor
        assert calls[0] == 1, name
        with call_count(minors, "validate_minor") as calls:
            _outcome(full_vertex_minor, g, minor, p, t)
        assert calls[0] == 1, name


def test_step2_bfs_ratchet(step2_minors):
    # Graph.bfs and Graph.cut_counts calls of full_vertex_minor, measured
    # when validation stopped running a BFS on a one-vertex branch set
    # (253, 25, 32 and 31 before; the BFS figures were 364, 107, 320 and
    # 208 before minimization tested a set's vertices with one cut-vertex
    # pass, and 953, 141 and 362 before step 2 validated once, re-scanned
    # only changed sets and bounded its BFS roots).  They may only fall.
    ceiling = {"gnp": 220, "ideal-t8-K4": 24, "ideal-t10-K4": 32, "ideal-t10-K5": 30}
    spent = Counter()
    for name, g, minor, p, t in step2_minors:
        with call_count(Graph, "bfs", "cut_counts") as calls:
            _outcome(full_vertex_minor, g, minor, p, t)
        spent["gnp" if name.startswith("gnp") else name] += calls[0]
    assert all(spent[k] <= ceiling[k] for k in ceiling), spent


def test_minimize_minor_runs_bfs_only_to_validate(step2_minors):
    # one BFS per branch set of two or more vertices, in the validation on
    # entry (a one-vertex set is connected without one); the cut-vertex
    # tests of the minimization go through Graph.cut_counts
    for name, g, minor, p, t in step2_minors:
        with call_count(Graph, "bfs") as calls:
            minimize_minor(g, minor)
        assert calls[0] == sum(len(s) > 1 for s in minor.branch_sets), name


def test_step2_union_search_nodes(step2_minors):
    # The search nodes full_vertex_minor spends, all of them in the cycle
    # search inside the union of the minimal sets, measured when that
    # search ran on the copy induced(g, union); the in-place search spends
    # exactly these.  K5-K9 per G(20, 1/2) seed; the ideal instances find
    # their cycle in a long branch set, with no search.
    gnp_nodes = {1: [13, 8, 8, 11, 17], 2: [12, 31, 57, 9, 9],
                 3: [22, 29, 22, 4, 4], 4: [17, 36, 47, 4, 6],
                 5: [17, 16, 26, 6, 6], 6: [16, 29, 49, 24, 23]}
    expected = {f"gnp-s{seed}-K{p}": n for seed, row in gnp_nodes.items()
                for p, n in zip(range(5, 10), row)}
    expected |= {"ideal-t8-K4": 0, "ideal-t10-K4": 0, "ideal-t10-K5": 0}
    spent = {}
    for name, g, minor, p, t in step2_minors:
        with node_count() as nodes:
            _outcome(full_vertex_minor, g, minor, p, t)
        spent[name] = nodes[0]
    assert spent == expected


def test_step2_union_search_in_place_matches_the_induced_copy(step2_minors):
    for name, g, minor, p, t in step2_minors:
        union = frozenset().union(*minimize_minor(g, minor).branch_sets)
        got, want = cycle_within_outcomes(g, max(t, 3), union)
        assert got == want, name


def test_step2_matches_references_at_bench_scale(step2_minors):
    for name, g, minor, p, t in step2_minors:
        minimal = minimize_minor(g, minor)
        assert minimal == CliqueMinor.from_sets(
            reference_minimize_minor(g, minor.branch_sets)), name
        for d in range(3, 11):
            assert _outcome(check_branch_diameter, g, minimal, d) == \
                _outcome(_reference_diameter_cycle, g, minimal.branch_sets, d), (name, d)
        for s in minor.branch_sets + minimal.branch_sets:
            assert eccentric_pair(g, s) == _networkx_eccentric_pair(g, s), name


def test_full_vertex_minor_finds_the_cycle_in_the_minimal_sets():
    # every branch set of the star ring has diameter 3 < t, so the cycle
    # comes from the search inside the union of the minimal sets
    t = 6
    g, minor = star_ring(t)
    assert validate_minor(g, minor)
    cyc = full_vertex_minor(g, minor, 2, t)
    assert isinstance(cyc, InducedCycle)
    assert len(cyc.vertices) >= t
    assert verify_certificate(g, cyc)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_full_vertex_minor_shortfall_is_stage_shortfall(k):
    # K_k has no induced cycle of 4 or more vertices, so the search inside
    # the minimal sets proves absence: a shortfall, not a budget
    singles = CliqueMinor.from_sets([{i} for i in range(k)])
    with pytest.raises(StageShortfall) as exc:
        full_vertex_minor(complete_graph(k), singles, k, 4)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == \
        ("full-minor", k, 0)
    assert isinstance(exc.value, BudgetExceeded)  # still reads inconclusive


def test_full_vertex_minor_budget_is_plain_budget_exceeded():
    g, minor = star_ring(6)
    with pytest.raises(BudgetExceeded) as exc:
        full_vertex_minor(g, minor, 2, 6, budget=1)
    assert type(exc.value) is BudgetExceeded


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(3, 7))
def test_full_vertex_minor_matches_brute_force(g, t):
    # a cycle comes back exactly when a branch set is long or the
    # minimized sets hold one of >= t
    minor = find_clique_minor(g, 3)
    assume(minor is not None)
    minimal = minimize_minor(g, minor)
    union, _ = induced(g, set().union(*minimal.branch_sets))
    expected = (check_branch_diameter(g, minimal, t) is not None
                or brute_longest_induced_cycle(union) >= t)
    try:
        out = full_vertex_minor(g, minor, 3, t)
    except StageShortfall:
        out = None
    assert (out is not None) == expected
    if out is not None:
        assert isinstance(out, InducedCycle) and len(out.vertices) >= t
        assert verify_certificate(g, out)


def test_full_vertex_minor_p1():
    # p = 1 returns no minor: a triangle has no cycle of 4 vertices, so the
    # shortfall reports p, and on the star ring p = 1 finds the cycle that
    # p = len(minor) finds
    with pytest.raises(StageShortfall) as exc:
        full_vertex_minor(complete_graph(3),
                          CliqueMinor.from_sets([{0}, {1}, {2}]), 1, 4)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == \
        ("full-minor", 1, 0)
    g, minor = star_ring(6)
    assert full_vertex_minor(g, minor, 1, 6) == \
        full_vertex_minor(g, minor, len(minor), 6)


def test_full_vertex_minor_p1_of_empty_minor_is_a_shortfall():
    # the empty minor is valid, but has no branch set to return
    with pytest.raises(StageShortfall) as exc:
        full_vertex_minor(path_graph(3), CliqueMinor(()), 1, 4)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == \
        ("full-minor", 1, 0)


def test_full_vertex_minor_cycle_shortcut():
    # long-diameter branch set: the cycle reconstruction fires
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 0),
                             (7, 5), (6, 7), (6, 8), (7, 8), (8, 0)])
    minor = CliqueMinor.from_sets([{0, 1, 2, 3, 4, 5}, {6}, {7}, {8}])
    assert validate_minor(g, minor)
    out = full_vertex_minor(g, minor, 2, 5, seed=0)
    assert isinstance(out, InducedCycle)
    assert len(out.vertices) >= 5
    assert verify_certificate(g, out)


@st.composite
def partitioned_graphs(draw):
    """A graph of at most 16 vertices with disjoint connected vertex sets
    grown from random roots; some vertices may stay outside every set.
    Dense graphs (edge density 0.7-1) get up to n sets, so that vertices
    touch many of them; sparse ones (0-0.3) get a cycle through every
    vertex in random order and up to six sets, so that long sets arise."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 16))
    dense = draw(st.booleans())
    density = draw(st.integers(7, 10) if dense else st.integers(0, 3)) / 10
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density}
    if not dense:
        ring = rnd.sample(range(n), n)
        edges |= {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1]) if a != b}
    g = Graph.from_edges(n, edges)
    sets = [{r} for r in rnd.sample(range(n), rnd.randint(1, n if dense else min(n, 6)))]
    assigned = set().union(*sets)
    for _ in range(2 * n):
        grow = rnd.choice(sets)
        free = sorted(set().union(*(g.adj(v) for v in grow)) - assigned)
        if free:
            v = rnd.choice(free)
            grow.add(v)
            assigned.add(v)
    return g, CliqueMinor.from_sets(sets)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, StageShortfall) as exc:
        return type(exc), exc.args


def _reference_diameter_cycle(g, sets, t):
    for idx, k in enumerate(sets):
        u, v, dist = eccentric_pair(g, frozenset(k))
        if u < 0 or dist + 1 < t:
            continue
        ku, kv = (reference_private_set(g, sets, idx, x) for x in (u, v))
        if ku is None or kv is None:
            raise ValueError("minor is not minimal: endpoint lacks a private set")
        connector = g.shortest_path(u, v, frozenset(sets[ku] | sets[kv] | {u, v}))
        return InducedCycle(tuple(g.shortest_path(u, v, frozenset(k))
                                  + connector[-2:0:-1]))
    return None


def _reference_full_vertex_minor(g, minor, p, t):
    minimal = reference_minimize_minor(g, minor.branch_sets)
    cycle = _reference_diameter_cycle(g, minimal, t) if len(minimal) >= 3 else None
    if cycle is not None:
        return cycle
    # The caller passes p >= 2 and len(minor) <= p * p, and a vertex
    # touches at most len(minor) - 1 other sets, so no set has a vertex
    # touching p * p others: the paper's merge never starts, and the cycle
    # is sought in the union of all the sets.
    union, ids = induced(g, (v for s in minimal for v in s))
    found = find_long_induced_cycle(union, max(t, 3))
    if found is None:
        raise StageShortfall("full-minor", p, 0)
    return InducedCycle(tuple(ids[v] for v in found.vertices))


@settings(max_examples=500, deadline=None)
@given(partitioned_graphs(), st.integers(3, 7))
def test_branch_set_table_matches_reference_scans(case, t):
    g, minor = case
    sets = minor.branch_sets
    valid = validate_minor(g, minor)
    assert valid == reference_valid_minor(g, sets)
    assert full_vertices(g, minor) == reference_full_vertices(g, sets)
    owner = minors._owners(g, sets)
    for i, s in enumerate(sets):
        rows = minors._touched(g, owner, i, s)
        assert {v: minors.mask_vertices(row) for v, row in rows.items()} == \
            {v: reference_touched_sets(g, sets, i, v) for v in s}
        single = minors._single(rows.values())
        assert [minors._least(rows[v] & single) for v in sorted(s)] == \
            [reference_private_set(g, sets, i, v) for v in sorted(s)]
    if not valid:
        return
    minimal = minimize_minor(g, minor)
    assert minimal == CliqueMinor.from_sets(reference_minimize_minor(g, sets))
    for d in range(3, 8) if len(minimal) >= 3 else ():
        assert _outcome(check_branch_diameter, g, minimal, d) == \
            _outcome(_reference_diameter_cycle, g, minimal.branch_sets, d)
    # the reference keeps the paper's spare-set merge, which needs more than
    # p * p sets, so it is the oracle for every p >= 2 with len(minor) <= p * p
    for p in {2, 3, len(minor)}:
        if p >= 2 and len(minor) <= p * p:
            assert _outcome(full_vertex_minor, g, minor, p, t) == \
                _outcome(_reference_full_vertex_minor, g, minor, p, t)
    # p = 1 returns no minor: the cycle of p = len(minor), or a shortfall
    # that reports p
    full = _outcome(full_vertex_minor, g, minor, len(minor), t)
    assert _outcome(full_vertex_minor, g, minor, 1, t) == (
        full if isinstance(full, InducedCycle)
        else (StageShortfall, StageShortfall("full-minor", 1, 0).args))
