import ast
import random
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import anticomplete
from chibound.anticomplete import (PipelineOverrides, StageShortfall,
                                   _build_linked_families,
                                   _extract_partially_anticomplete,
                                   _select_noninterfering,
                                   _select_pairwise_anticomplete,
                                   _separate_families, main_pipeline)
from chibound.certificates import (BicliqueWitness, CounterWitness,
                                   InducedCycle, InternalInconsistency,
                                   verify_certificate)
from chibound.detect import (BudgetExceeded, SearchBudget, find_biclique_subgraph,
                             max_independent_subset, optimal_coloring)
from chibound.generate import (gnp, pipeline_full_instance,
                               pipeline_ideal_instance, pipeline_poison_instance,
                               planted_cycle)
from chibound.graph import (Graph, OrientedPath, are_anticomplete,
                            complete_graph, is_partially_anticomplete)
from chibound.minors import CliqueMinor, find_clique_minor, full_vertex_minor
from conftest import random_graph
import oracles


def random_touched(core, bound: int, rng: random.Random) -> dict:
    """An interference matrix on core: each pair touches `bound` other
    vertices, drawn at random."""
    core = sorted(core)
    return {(u, v): frozenset(rng.sample([x for x in core if x not in (u, v)], bound))
            for u, v in combinations(core, 2)}


def test_select_all_empty():
    assert _select_noninterfering(frozenset(range(10)), {}, 4) == (0, 1, 2, 3)


def test_select_single():
    touched = random_touched(range(30), 5, random.Random(3))
    assert _select_noninterfering(frozenset(range(30)), touched, 1) == (0,)


def test_select_random_verified():
    # M = 100, r = 9 > s^3 = 8 for s = 2: the regime of the paper's random
    # choice; s = 3 is outside it, where a selection exists all the same
    for trial in range(20):
        touched = random_touched(range(100), 9, random.Random(trial))
        for s in (2, 3):
            out = _select_noninterfering(frozenset(range(100)), touched, s)
            assert out == oracles.brute_noninterfering(range(100), touched, s)


def test_select_reports_a_shortfall():
    # every pair touches every other vertex, so no three vertices fit
    core = frozenset(range(10))
    touched = {(u, v): core - {u, v} for u, v in combinations(sorted(core), 2)}
    assert _select_noninterfering(core, touched, 3) == (0, 1)
    with pytest.raises(BudgetExceeded):
        _select_noninterfering(core, touched, 3, budget=5)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_select_matches_brute_force(data):
    core = sorted(data.draw(st.sets(st.integers(0, 12), min_size=1, max_size=8)))
    s = data.draw(st.integers(1, len(core)))
    touched = {}
    for u, v in combinations(core, 2):
        others = [x for x in core if x not in (u, v)]
        hits = data.draw(st.lists(st.booleans(), min_size=len(others),
                                  max_size=len(others)))
        touched[(u, v)] = frozenset(x for x, hit in zip(others, hits) if hit)
    out = _select_noninterfering(frozenset(core), touched, s)
    expected = oracles.brute_noninterfering(core, touched, s)
    if expected is not None:
        assert out == expected
    else:
        assert len(out) < s and set(out) <= set(core)
        assert oracles.brute_noninterfering(out, touched, len(out)) == out


def _standalone_linked_instance(t: int, copies: int):
    g, sets = pipeline_full_instance(t, copies)
    m = t // 2
    pool = frozenset(range(m))
    connectors = sets[m:]
    return g, pool, connectors


def test_build_linked_families_planted():
    t = 6
    g, pool, connectors = _standalone_linked_instance(t, 2)
    stages = []
    linked = _build_linked_families(g, pool, connectors, t=t, ell=3,
                                    stages=stages, paths_per_pair=2)
    assert [(s.name, s.outcome) for s in stages] == [
        ("independent-core", "ok"), ("groups", "ok"), ("paths[0,1]", "ok"),
        ("paths[0,2]", "ok"), ("paths[1,2]", "ok"), ("interference", "ok")]
    assert len(linked.a_prime) == 3
    assert len(linked.families) == 3
    for (u, v), fam in linked.families.items():
        assert len(fam) == 2
        for p in fam:
            assert g.has_edge(u, p.first) and g.has_edge(v, p.last)


def test_build_linked_families_interference_shortfall():
    # one connector of the pair (0, 1) also touches anchor 2, so only two of
    # the three anchors fit; ell = 4 is more than the three anchors, so no
    # path vertex is heavy and the cor_traces_check screen never runs
    t = 6
    g, pool, connectors = _standalone_linked_instance(t, 2)
    g = Graph.from_edges(g.n, list(g.edges()) + [(6, 2)])
    with pytest.raises(StageShortfall) as exc:
        _build_linked_families(g, pool, connectors, t=t, ell=4, stages=[],
                               paths_per_pair=2)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == (
        "interference", 3, 2)


def test_build_linked_families_no_connectors():
    g = Graph.from_edges(4, [])
    with pytest.raises(StageShortfall) as exc:
        _build_linked_families(g, frozenset({0, 1, 2}), [], t=6, ell=2,
                               stages=[])
    assert exc.value.stage == "groups"


def test_build_linked_families_single_anchor():
    g = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(StageShortfall):
        _build_linked_families(g, frozenset({0}), [frozenset({1, 2})], t=6,
                               ell=2, stages=[])


def test_build_linked_families_paths_shortfall():
    # each anchor pair gets two connector sets, one short of three paths
    t = 6
    g, pool, connectors = _standalone_linked_instance(t, 2)
    with pytest.raises(StageShortfall) as exc:
        _build_linked_families(g, pool, connectors, t=t, ell=3, stages=[],
                               paths_per_pair=3)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == (
        "paths[0,1]", 3, 2)


def test_extract_single_path_and_isolated_vertices():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    fam = _extract_partially_anticomplete(g, [OrientedPath((0, 1, 2))])
    assert len(fam) == 1
    iso = Graph.from_edges(4, [])
    fam = _extract_partially_anticomplete(
        iso, [OrientedPath((i,)) for i in range(4)])
    assert len(fam) == 4


def test_extract_eight_edges_with_conflicts(rng):
    # 8 disjoint edges as 2-vertex paths; sprinkle conflicts among aligned
    # endpoints, then compare against the brute-force maximum subfamily
    base = [(2 * i, 2 * i + 1) for i in range(8)]
    extra = [(0, 2), (1, 3), (5, 7), (8, 10), (13, 15)]
    g = Graph.from_edges(16, base + extra)
    paths = [OrientedPath(e) for e in base]
    fam = _extract_partially_anticomplete(g, paths)
    assert is_partially_anticomplete(g, fam)
    assert set(fam) <= set(paths)

    best = 0
    for mask in range(1 << 8):
        chosen = [paths[i] for i in range(8) if mask >> i & 1]
        sub = tuple(chosen)
        if is_partially_anticomplete(g, sub):
            best = max(best, len(chosen))
    assert len(fam) <= best
    assert len(fam) >= 1


def test_separate_disjoint_components():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    p = (OrientedPath((0, 1)), OrientedPath((2, 3)))
    q = (OrientedPath((4, 5)), OrientedPath((6, 7)))
    p2, q2 = _separate_families(g, p, q, ell=2)
    assert p2 == p and q2 == q


def test_separate_planted_sparse_conflicts():
    # two families of 2-vertex paths with one cross edge
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (1, 4)]
    g = Graph.from_edges(10, edges)
    p = (OrientedPath((0, 1)), OrientedPath((2, 3)))
    q = (OrientedPath((4, 5)), OrientedPath((6, 7)), OrientedPath((8, 9)))
    p2, q2 = _separate_families(g, p, q, ell=2)
    for a in p2:
        for b in q2:
            assert are_anticomplete(g, a, b)
    assert len(q2) >= 2


def test_separate_keeps_a_partner_path(rng):
    # each round keeps a largest trace bucket of a non-empty layer, so Q
    # never runs out, whatever the edges between the families (three Q
    # paths keep every bucket below ell = 4, so no biclique exit)
    p = tuple(OrientedPath((i, i + 1)) for i in range(0, 6, 2))
    q = tuple(OrientedPath((i, i + 1)) for i in range(6, 12, 2))
    cross = [(a, b) for a in range(6) for b in range(6, 12)]
    for _ in range(200):
        edges = [(i, i + 1) for i in range(0, 12, 2)]
        g = Graph.from_edges(12, edges + [e for e in cross if rng.random() < 0.3])
        p2, q2 = _separate_families(g, p, q, ell=4)
        assert q2 and all(are_anticomplete(g, a, b) for a in p2 for b in q2)


def test_separate_size_floors_hold():
    # ell = 1 and one P path of 3 = q*t/2 vertices (q = 3, t = 2) meet the
    # paper's cardinality hypotheses, under which no path is lost
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    p = (OrientedPath((0, 1, 2)),)
    q = (OrientedPath((3, 4, 5)),)
    p2, q2 = _separate_families(g, p, q, ell=1)
    assert p2 == p and q2 == q


def test_select_pairwise_base_cases():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    fams = [(OrientedPath((0, 1)),)]
    assert _select_pairwise_anticomplete(g, fams, 2, 4) == [OrientedPath((0, 1))]
    fams3 = [(OrientedPath((0, 1)),),
             (OrientedPath((2, 3)),),
             (OrientedPath((4, 5)),)]
    out = _select_pairwise_anticomplete(g, fams3, 2, 4)
    assert out == [OrientedPath((0, 1)), OrientedPath((2, 3)),
                   OrientedPath((4, 5))]


def test_select_pairwise_shortfalls():
    # 1 ~ 0, so the split keeps 1 and strips the head's only vertex; a
    # partner is never emptied (test_separate_keeps_a_partner_path)
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    fams = [(OrientedPath((0,)),), (OrientedPath((1,)),)]
    with pytest.raises(StageShortfall) as exc:
        _select_pairwise_anticomplete(g, fams, 2, 4)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == (
        "selection[round 1]", 1, 0)


def test_select_pairwise_planted_conflicts():
    # 3 families x 4 paths of 3 vertices, with a few cross-family edges
    k, per, length = 3, 4, 3
    base_edges = []
    paths = []
    vid = 0
    for f in range(k):
        fam = []
        for _ in range(per):
            vs = tuple(range(vid, vid + length))
            vid += length
            base_edges.extend((vs[i], vs[i + 1]) for i in range(length - 1))
            fam.append(OrientedPath(vs))
        paths.append(fam)
    conflicts = [(paths[0][0].vertices[1], paths[1][1].vertices[0]),
                 (paths[1][2].vertices[2], paths[2][0].vertices[1]),
                 (paths[0][3].vertices[0], paths[2][2].vertices[2])]
    g = Graph.from_edges(vid, base_edges + conflicts)
    fams = [tuple(f) for f in paths]
    out = _select_pairwise_anticomplete(g, fams, ell=2, t=6)
    assert len(out) == k
    for i in range(k):
        for j in range(i + 1, k):
            assert are_anticomplete(g, out[i], out[j])
    # exhaustive oracle: a pairwise-anticomplete selection exists
    found = False
    for combo in product(*paths):
        if all(are_anticomplete(g, combo[i], combo[j])
               for i in range(k) for j in range(i + 1, k)):
            found = True
            break
    assert found


def _two_vertex_path_instance(chord: bool = False):
    """A minor for t = 6 whose connector paths have two vertices.

    The anchors 0, 1, 2 lie in the sets {a, a + 3}, pairwise joined through
    the a-(a + 3) biclique.  The connector set of the pair (i, j) is
    {x, y, tail}, with the path i-x-y-j and a tail on x that touches the
    third anchor, the vertices 3-5 and every earlier tail, so every set
    holds a full vertex.  With `chord`, the (0, 1) path's y = 7 also
    touches the (1, 2) path's x = 12.
    """
    edges = [(a, 3 + b) for a in range(3) for b in range(3)]
    sets = [frozenset({a, 3 + a}) for a in range(3)]
    tails: list[int] = []
    for i, j in combinations(range(3), 2):
        x = 6 + 3 * len(tails)
        y, tail = x + 1, x + 2
        edges += [(i, x), (x, y), (y, j), (x, tail), (3 - i - j, tail)]
        edges += [(s, tail) for s in (3, 4, 5)] + [(o, tail) for o in tails]
        tails.append(tail)
        sets.append(frozenset({x, y, tail}))
    return Graph.from_edges(15, edges + [(7, 12)] * chord), sets


def test_assemble_examples():
    # the cycle runs anchor, path, anchor, ...: each path u-side first, so
    # the wrap pair (2, 0) runs its (0, 2) path 10-9 backwards
    g, sets = _two_vertex_path_instance()
    res = main_pipeline(g, 6, 2, PipelineOverrides(branch_sets=sets, a_count=3))
    assert res.certificate == InducedCycle((0, 6, 7, 1, 12, 13, 2, 10, 9))
    assert res.stages[-1] == anticomplete.StageReport("assemble", 6, 9, "ok")

    # t/2 single-vertex paths between the anchors 0, ..., t/2 - 1: a C_t
    t = 10
    g, sets = pipeline_full_instance(t, copies=2)
    res = main_pipeline(g, t, 3, PipelineOverrides(
        branch_sets=sets, a_count=t // 2, paths_per_pair=2))
    assert len(res.certificate.vertices) == t
    assert res.certificate.vertices[::2] == tuple(range(t // 2))


def _t4_instance():
    """Anchors 0 and 1 in the sets {0, 6} and {1, 7}; the connector sets
    {2, 3, 8} and {4, 5, 9} hold the paths 0-2-3-1 and 0-4-5-1, and 8 and
    9 are their full vertices."""
    edges = [(0, 6), (1, 7), (6, 7), (0, 7), (1, 6), (2, 3), (2, 8), (0, 2),
             (1, 3), (0, 8), (7, 8), (4, 5), (4, 9), (0, 4), (1, 5), (6, 9),
             (7, 9), (8, 9)]
    return Graph.from_edges(10, edges), [{0, 6}, {1, 7}, {2, 3, 8}, {4, 5, 9}]


@pytest.mark.parametrize("paths_per_pair, last", [
    (1, ("selection[0,1]", 2, 1, "shortfall")), (2, ("assemble", 4, 6, "ok"))],
    ids=["one-path", "two-paths"])
def test_t4_takes_both_arcs_from_one_family(paths_per_pair, last):
    # with two anchors the arcs (0, 1) and (1, 0) share one family, which
    # step 6 splits in two halves, and falls short of with one path
    g, sets = _t4_instance()
    res = main_pipeline(g, 4, 2, PipelineOverrides(
        branch_sets=sets, paths_per_pair=paths_per_pair))
    assert [s.name for s in res.stages][-2:] == ["extract[0,1]", last[0]]
    report = res.stages[-1]
    assert (report.name, report.target_size, report.achieved_size,
            report.outcome) == last
    assert res.certificate == (InducedCycle((0, 2, 3, 1, 5, 4))
                               if paths_per_pair == 2 else None)


def test_assemble_reports_chord(monkeypatch):
    # the exit's certified is the assembled cycle's one check: paths that
    # close a chord (7-12) raise there, under python -O too
    g, sets = _two_vertex_path_instance(chord=True)
    monkeypatch.setattr(anticomplete, "_select_pairwise_anticomplete",
                        lambda g, families, ell, t: [f[0] for f in families])
    with pytest.raises(InternalInconsistency, match="does not verify"):
        main_pipeline(g, 6, 2, PipelineOverrides(branch_sets=sets, a_count=3))


def test_pipeline_ideal_instances():
    for t in (6, 8, 10):
        g = pipeline_ideal_instance(t)
        res = main_pipeline(g, t, 2, PipelineOverrides(minor_size=3, seed=1))
        assert res.success
        assert isinstance(res.certificate, InducedCycle)
        assert len(res.certificate.vertices) >= t
        assert verify_certificate(g, res.certificate)


@pytest.mark.parametrize("t", (8, 10))
@pytest.mark.parametrize("seed", range(6))
def test_searched_pipeline_reaches_a_cycle(t, seed):
    # no injected minor and no surrogate minor size: step 1 searches
    g = pipeline_ideal_instance(t)
    res = main_pipeline(g, t, 3, PipelineOverrides(seed=seed, budget=20_000))
    assert isinstance(res.certificate, InducedCycle)
    assert len(res.certificate.vertices) >= t
    assert verify_certificate(g, res.certificate)


def test_pipeline_full_route():
    t = 6
    g, sets = pipeline_full_instance(t, copies=2)
    res = main_pipeline(g, t, 3, PipelineOverrides(
        branch_sets=sets, a_count=t // 2, paths_per_pair=2, seed=0))
    assert res.success
    assert isinstance(res.certificate, InducedCycle)
    assert len(res.certificate.vertices) == t
    names = [s.name for s in res.stages]
    assert "interference" in names and "assemble" in names


def test_pipeline_partition_shortfall():
    # a triangle minor passes the step-2 gate but holds 3 sets, short of the
    # t/2 + 1 = 5 that step 3 partitions at t = 8
    g = complete_graph(3)
    res = main_pipeline(g, 8, 2, PipelineOverrides(
        branch_sets=[{0}, {1}, {2}]))
    assert not res.success
    assert [(s.name, s.outcome) for s in res.stages] == [
        ("minor", "injected"), ("full-minor", "preverified"),
        ("partition", "shortfall")]
    assert (res.stages[-1].target_size, res.stages[-1].achieved_size) == (5, 3)


@pytest.mark.parametrize("a_count", [None, 0])
def test_searched_one_set_minor_ends_at_step_two(a_count):
    # Step 2 returns a cycle or raises, so even a searched minor of one set
    # never reaches step 3, whatever a_count asks of it
    g = gnp(20, 0.5, random.Random(1))
    res = main_pipeline(g, 6, 2, PipelineOverrides(minor_size=1, a_count=a_count))
    assert not res.success
    assert [(s.name, s.outcome, s.target_size, s.achieved_size)
            for s in res.stages] == [("minor", "ok", 1, 1),
                                     ("full-minor", "shortfall", 1, 0)]


@pytest.mark.parametrize("t, outcome", [(4, "cycle"), (6, "shortfall")])
def test_injected_minor_failing_the_gate_ends_at_step_two(t, outcome):
    # no vertex of the set {0, 1} touches both {2} and {3}, so the minor
    # fails the step-2 gate; the induced 4-cycle 0-2-3-1 answers t = 4 only
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    res = main_pipeline(g, t, 2, PipelineOverrides(
        branch_sets=[{0, 1}, {2}, {3}], a_count=0))
    assert [(s.name, s.outcome) for s in res.stages] == [
        ("minor", "injected"), ("full-minor", outcome)]
    assert res.success == (outcome == "cycle")


@pytest.mark.parametrize("length, outcome", [(7, "preverified"), (8, "shortfall")])
def test_step_two_gate_bounds_the_diameter(length, outcome):
    # the sets {0}, {1} and a path 2-...-(length + 1) whose end 2 touches
    # both: a path of 2t = 8 vertices has diameter 2t - 1 and fails the
    # gate at t = 4, one of 2t - 1 vertices is below the bound unmeasured
    path = list(range(2, length + 2))
    g = Graph.from_edges(length + 2, [(0, 1), (0, 2), (1, 2)]
                         + list(zip(path, path[1:])))
    res = main_pipeline(g, 4, 2, PipelineOverrides(
        branch_sets=[{0}, {1}, set(path)], a_count=0))
    assert (res.stages[1].name, res.stages[1].outcome) == ("full-minor", outcome)


def test_pipeline_checks_the_cycle_length(monkeypatch):
    # an induced C4 verifies, but does not answer a question about t = 6
    t = 6
    g, sets = pipeline_full_instance(t, copies=2)
    short = InducedCycle((0, 3, 1, 4))
    assert verify_certificate(g, short)

    def witness(*args, **kwargs):
        raise CounterWitness(short)

    monkeypatch.setattr(anticomplete, "_build_linked_families", witness)
    with pytest.raises(InternalInconsistency, match="smaller than the 6"):
        main_pipeline(g, t, 3, PipelineOverrides(
            branch_sets=sets, a_count=t // 2, paths_per_pair=2, seed=0))


def test_pipeline_poison_biclique():
    t = 6
    g, sets = pipeline_poison_instance(t, ell=2, per_pair=54)
    res = main_pipeline(g, t, 2, PipelineOverrides(branch_sets=sets,
                                                   a_count=t // 2, seed=0))
    assert res.success
    assert isinstance(res.certificate, BicliqueWitness)
    assert verify_certificate(g, res.certificate)
    assert find_biclique_subgraph(g, 2, 2) is not None
    # the step-4 witness keeps the reports of the sub-stages that passed
    assert [(s.name, s.outcome) for s in res.stages] == [
        ("minor", "injected"), ("full-minor", "preverified"),
        ("partition", "ok"), ("independent-core", "ok"), ("groups", "ok"),
        ("witness", "BicliqueWitness")]


def test_pipeline_hands_its_allowance_to_the_trace_lemmas(monkeypatch):
    # the shattered-set route of step 4's trace lemma spends the run's one
    # allowance, which names the heavy screen calling it; step 6 searches
    # nothing (test_step6_spends_no_search_node)
    seen = []
    lemma = anticomplete.cor_traces_check

    def spy(*args, budget=None, **kw):
        seen.append(budget.stage[0])
        return lemma(*args, budget=budget, **kw)

    monkeypatch.setattr(anticomplete, "cor_traces_check", spy)
    t = 6
    g, sets = pipeline_poison_instance(t, ell=2, per_pair=54)
    main_pipeline(g, t, 2, PipelineOverrides(branch_sets=sets, a_count=t // 2))
    g, sets = pipeline_full_instance(t, copies=2)
    main_pipeline(g, t, 3, PipelineOverrides(branch_sets=sets, a_count=t // 2,
                                             paths_per_pair=2))
    assert set(seen) == {"paths[0,1]"}


@pytest.mark.parametrize("t", [6, 8])
def test_step6_spends_no_search_node(monkeypatch, t):
    # step 6 splits trace buckets and runs no search: on the families steps
    # 4-5 extract it spends no node, and main_pipeline assembles its paths
    calls = []

    def spy(*args):
        with oracles.node_count() as spent:
            picked = _select_pairwise_anticomplete(*args)
        calls.append((spent[0], picked))
        return picked

    monkeypatch.setattr(anticomplete, "_select_pairwise_anticomplete", spy)
    g, sets = pipeline_full_instance(t, copies=2)
    res = main_pipeline(g, t, 3, PipelineOverrides(
        branch_sets=sets, a_count=t // 2, paths_per_pair=2))
    [(spent, picked)] = calls
    assert spent == 0 and len(picked) == t // 2
    anchors = tuple(range(t // 2))
    assert res.certificate.vertices == tuple(
        v for a, p in zip(anchors, picked) for v in (a, *p.vertices))


#: The stage a run on pipeline_full_instance(t, 2) runs out in, by budget.
BUDGET_STOPS = {
    6: ["independent-core"] + ["interference"] * 4
       + ["extract[0,1]", "extract[1,2]", "extract[2,0]"],
    8: ["independent-core"] + ["interference"] * 5
       + ["extract[0,1]", "extract[1,2]", "extract[2,3]", "extract[3,0]"],
}


@pytest.mark.parametrize("t, total", [(6, 8), (8, 10)])
def test_pipeline_budget_bounds_the_whole_run(t, total):
    # one allowance for the run: a budget of B charges at most B + 1 nodes
    # over all stages, the run assembles exactly when B covers its unbounded
    # total, and a run cut short keeps the reports of the stages that passed
    # and names the stage it ran out in
    g, sets = pipeline_full_instance(t, copies=2)

    def run(budget):
        return main_pipeline(g, t, 3, PipelineOverrides(
            branch_sets=sets, a_count=t // 2, paths_per_pair=2, budget=budget))

    with oracles.node_count() as spent:
        full = run(None)
    assert spent[0] == total and full.stages[-1].name == "assemble"
    for budget in range(13):
        with oracles.node_count() as spent:
            res = run(budget)
        assert spent[0] <= budget + 1
        assert res.success == (budget >= total)
        if not res.success:
            last = res.stages[-1]
            assert (last.name, last.outcome) == (BUDGET_STOPS[t][budget], "budget")
            assert res.stages[:-1] == full.stages[:len(res.stages) - 1]


def _k4_subdivision() -> Graph:
    # contracts to a K4 quotient, so asking for K5 runs the assignment search
    return Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 2),
                                (1, 5), (5, 3), (2, 3)])


def _linked_stage():
    g, pool, connectors = _standalone_linked_instance(6, 2)
    return lambda bud: _build_linked_families(
        g, pool, connectors, t=6, ell=3, stages=[], paths_per_pair=2,
        budget=bud)


def _extract_stage():
    g, pool, connectors = _standalone_linked_instance(6, 2)
    linked = _build_linked_families(g, pool, connectors, t=6, ell=3, stages=[],
                                    paths_per_pair=2)
    return lambda bud: _extract_partially_anticomplete(
        g, linked.families[(0, 1)], bud)


def _full_minor_stage():
    # K5 has no induced cycle of 4 vertices: the search proves a shortfall
    g, singles = complete_graph(5), CliqueMinor.from_sets([{i} for i in range(5)])

    def stage(bud):
        with pytest.raises(StageShortfall):
            full_vertex_minor(g, singles, 5, 4, budget=bud)
    return stage


@pytest.mark.parametrize("make_stage", [
    lambda: lambda bud: find_clique_minor(_k4_subdivision(), 5, bud),
    _full_minor_stage, _linked_stage, _extract_stage,
    lambda: lambda bud: _select_noninterfering(frozenset(range(5)),
                                               {(0, 1): {2}}, 3, bud),
    lambda: lambda bud: max_independent_subset(gnp(16, 0.5, random.Random(3)),
                                               None, bud),
    lambda: lambda bud: optimal_coloring(gnp(12, 0.5, random.Random(4)), bud),
], ids=["find_clique_minor", "full_vertex_minor", "build_linked_families",
        "extract_partially_anticomplete", "select_noninterfering",
        "max_independent_subset", "optimal_coloring"])
def test_stage_spends_the_budget_it_is_given(make_stage):
    # a SearchBudget handed in is spent from, not replaced by a new allowance,
    # and an int allowance bounds the whole call, sub-searches included
    stage = make_stage()
    bud = SearchBudget(10_000)
    with oracles.node_count() as spent:
        stage(bud)
    assert spent[0] > 0
    assert 10_000 - bud.remaining == spent[0]
    with pytest.raises(BudgetExceeded) as exc:
        stage(spent[0] - 1)
    assert type(exc.value) is BudgetExceeded


def test_pipeline_tree_inconclusive():
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    res = main_pipeline(tree, 6, 2, PipelineOverrides(minor_size=3))
    assert not res.success
    assert res.stages[0].outcome == "absent"
    payload = res.to_json()
    assert payload["success"] is False
    assert payload["stages"][0]["name"] == "minor"


@pytest.mark.parametrize("seed", range(6))
def test_pipeline_finds_planted_cycle(seed):
    # step 2 finds the planted 10-cycle inside the low-adjacency sets of the
    # searched K3 minor
    g = planted_cycle(30, 10, random.Random(seed))
    res = main_pipeline(g, 6, 3, PipelineOverrides(budget=20_000))
    assert isinstance(res.certificate, InducedCycle)
    assert len(res.certificate.vertices) >= 6
    assert verify_certificate(g, res.certificate)
    assert [(s.name, s.outcome) for s in res.stages] == [
        ("minor", "ok"), ("full-minor", "cycle")]


@pytest.mark.parametrize("raised, outcome, achieved", [
    (StageShortfall("full-minor", 3, 1), "shortfall", 1),
    (BudgetExceeded(), "budget", 0)], ids=["shortfall", "budget"])
def test_pipeline_full_minor_inconclusive_outcomes(monkeypatch, raised,
                                                   outcome, achieved):
    def inconclusive(*args, **kwargs):
        raise raised

    monkeypatch.setattr(anticomplete, "full_vertex_minor", inconclusive)
    res = main_pipeline(gnp(20, 0.5, random.Random(1)), 6, 3,
                        PipelineOverrides(budget=20_000))
    last = res.stages[-1]
    assert not res.success
    assert (last.name, last.target_size, last.achieved_size, last.outcome) == \
        ("full-minor", 3, achieved, outcome)


def test_stage_shortfall_is_reexported_by_anticomplete():
    from chibound import detect
    assert StageShortfall is detect.StageShortfall


def test_pipeline_full_minor_errors_propagate(monkeypatch):
    # only StageShortfall and BudgetExceeded from step 2 are inconclusive; a
    # ValueError there (say, "minor is not minimal") is a fault and must not
    # be swallowed
    g = gnp(20, 0.5, random.Random(1))
    res = main_pipeline(g, 6, 3, PipelineOverrides(budget=20_000))
    assert [s.outcome for s in res.stages] == ["ok", "shortfall"]

    def broken(*args, **kwargs):
        raise ValueError("minor is not minimal: endpoint lacks a private set")

    monkeypatch.setattr(anticomplete, "full_vertex_minor", broken)
    with pytest.raises(ValueError, match="not minimal"):
        main_pipeline(g, 6, 3, PipelineOverrides(budget=20_000))


def test_pipeline_random_soundness(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 14), rng.random())
        res = main_pipeline(g, 6, 2, PipelineOverrides(minor_size=3,
                                                       seed=rng.randrange(99)))
        if res.certificate is not None:
            assert verify_certificate(g, res.certificate)


def test_pipeline_rejects_bad_params():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        main_pipeline(g, 5, 2)
    with pytest.raises(ValueError):
        main_pipeline(g, 6, 1)
    # the set {0, 2} is not connected, though 0 is a full vertex of it and
    # the minor passes the step-2 gate, which would take it on to step 3
    tri = Graph.from_edges(4, [(0, 1), (0, 3), (1, 3)])
    with pytest.raises(ValueError, match="injected branch sets are not"):
        main_pipeline(tri, 6, 2, PipelineOverrides(branch_sets=[{0, 2}, {1}, {3}]))
    # a negative count would slice the anchors from the wrong end
    with pytest.raises(ValueError, match="a_count"):
        main_pipeline(g, 6, 2, PipelineOverrides(a_count=-1))


@pytest.mark.parametrize("paths_per_pair", [0, -1])
def test_paths_per_pair_must_be_positive(paths_per_pair):
    # 0 would leave step 5 no path to extract from, and -1 would slice off
    # the last clean path of each pair
    t = 6
    g, sets = pipeline_full_instance(t, copies=2)
    # checked up front, so also on a searched run, which ends at step 2
    for ov in (PipelineOverrides(branch_sets=sets, a_count=t // 2,
                                 paths_per_pair=paths_per_pair),
               PipelineOverrides(paths_per_pair=paths_per_pair)):
        with pytest.raises(ValueError, match="paths_per_pair"):
            main_pipeline(g, t, 3, ov)


def test_only_main_pipeline_and_its_types_are_public():
    # steps 3-6 are main_pipeline's private stages; a re-export such as
    # StageShortfall is not a definition of this module
    tree = ast.parse(Path(anticomplete.__file__).read_text())
    defined = {n.name for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for n in tree.body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    assert sorted(n for n in defined if not n.startswith("_")) == [
        "PipelineOverrides", "PipelineResult", "StageReport", "main_pipeline"]
