import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import anticomplete
from chibound.anticomplete import (AssemblyError, LinkedFamilies,
                                   PipelineOverrides, StageShortfall,
                                   assemble_cycle, build_linked_families,
                                   extract_partially_anticomplete,
                                   main_pipeline, select_noninterfering,
                                   select_pairwise_anticomplete,
                                   separate_families)
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


def test_select_rejects_bad_input():
    core = frozenset({0, 1, 2})
    for touched in ({(0, 1): frozenset({0})}, {(0, 1): frozenset({1, 2})},
                    {(1, 0): frozenset({2})}):
        with pytest.raises(ValueError):
            select_noninterfering(core, touched, 2)
    for s in (0, 4):
        with pytest.raises(ValueError):
            select_noninterfering(core, {}, s)


def test_select_all_empty():
    assert select_noninterfering(frozenset(range(10)), {}, 4) == (0, 1, 2, 3)


def test_select_single():
    touched = random_touched(range(30), 5, random.Random(3))
    assert select_noninterfering(frozenset(range(30)), touched, 1) == (0,)


def test_select_random_verified():
    # M = 100, r = 9 > s^3 = 8 for s = 2: the regime of the paper's random
    # choice; s = 3 is outside it, where a selection exists all the same
    for trial in range(20):
        touched = random_touched(range(100), 9, random.Random(trial))
        for s in (2, 3):
            out = select_noninterfering(frozenset(range(100)), touched, s)
            assert out == oracles.brute_noninterfering(range(100), touched, s)


def test_select_reports_a_shortfall():
    # every pair touches every other vertex, so no three vertices fit
    core = frozenset(range(10))
    touched = {(u, v): core - {u, v} for u, v in combinations(sorted(core), 2)}
    assert select_noninterfering(core, touched, 3) == (0, 1)
    with pytest.raises(BudgetExceeded):
        select_noninterfering(core, touched, 3, budget=5)


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
    out = select_noninterfering(frozenset(core), touched, s)
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
    linked = build_linked_families(g, pool, connectors, t=t, ell=3,
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
        build_linked_families(g, pool, connectors, t=t, ell=4, stages=[],
                              paths_per_pair=2)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == (
        "interference", 3, 2)


def test_build_linked_families_no_connectors():
    g = Graph.from_edges(4, [])
    with pytest.raises(StageShortfall) as exc:
        build_linked_families(g, frozenset({0, 1, 2}), [], t=6, ell=2,
                              stages=[])
    assert exc.value.stage == "groups"


def test_build_linked_families_single_anchor():
    g = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(StageShortfall):
        build_linked_families(g, frozenset({0}), [frozenset({1, 2})], t=6,
                              ell=2, stages=[])


def test_build_linked_families_rejects_odd_or_small_t():
    # the core's target is t/2 anchors, as in main_pipeline, so an odd t or
    # t < 4 is refused before any stage runs
    g, pool, connectors = _standalone_linked_instance(6, 2)
    for t in (3, 5):
        stages = []
        with pytest.raises(ValueError, match="t must be even and at least 4"):
            build_linked_families(g, pool, connectors, t=t, ell=3, stages=stages)
        assert stages == []


def test_build_linked_families_paths_shortfall():
    # each anchor pair gets two connector sets, one short of three paths
    t = 6
    g, pool, connectors = _standalone_linked_instance(t, 2)
    with pytest.raises(StageShortfall) as exc:
        build_linked_families(g, pool, connectors, t=t, ell=3, stages=[],
                              paths_per_pair=3)
    assert (exc.value.stage, exc.value.required, exc.value.achieved) == (
        "paths[0,1]", 3, 2)


def test_extract_single_path_and_isolated_vertices():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    fam = extract_partially_anticomplete(g, [OrientedPath((0, 1, 2))])
    assert len(fam) == 1
    iso = Graph.from_edges(4, [])
    fam = extract_partially_anticomplete(
        iso, [OrientedPath((i,)) for i in range(4)])
    assert len(fam) == 4


def test_extract_eight_edges_with_conflicts(rng):
    # 8 disjoint edges as 2-vertex paths; sprinkle conflicts among aligned
    # endpoints, then compare against the brute-force maximum subfamily
    base = [(2 * i, 2 * i + 1) for i in range(8)]
    extra = [(0, 2), (1, 3), (5, 7), (8, 10), (13, 15)]
    g = Graph.from_edges(16, base + extra)
    paths = [OrientedPath(e) for e in base]
    fam = extract_partially_anticomplete(g, paths)
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
    p2, q2 = separate_families(g, p, q, ell=2, t=4)
    assert p2 == p and q2 == q


def test_separate_empty_q():
    g = Graph.from_edges(2, [(0, 1)])
    p = (OrientedPath((0, 1)),)
    q = ()
    p2, q2 = separate_families(g, p, q, ell=2, t=4)
    assert p2 == p and len(q2) == 0


def test_separate_planted_sparse_conflicts():
    # two families of 2-vertex paths with one cross edge
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (1, 4)]
    g = Graph.from_edges(10, edges)
    p = (OrientedPath((0, 1)), OrientedPath((2, 3)))
    q = (OrientedPath((4, 5)), OrientedPath((6, 7)), OrientedPath((8, 9)))
    p2, q2 = separate_families(g, p, q, ell=2, t=4)
    for a in p2:
        for b in q2:
            assert are_anticomplete(g, a, b)
    assert len(q2) >= 2


def test_separate_size_floors_hold():
    # ell = 1 and one P path of 3 = q*t/2 vertices meet the paper's
    # cardinality hypotheses, under which no path is lost
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    p = (OrientedPath((0, 1, 2)),)
    q = (OrientedPath((3, 4, 5)),)
    p2, q2 = separate_families(g, p, q, ell=1, t=2)
    assert p2 == p and q2 == q


def test_separate_rejects_malformed():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
    touching = (OrientedPath((0, 1)),)
    with pytest.raises(ValueError):
        separate_families(g, touching, touching, 2, 4)


def test_select_pairwise_base_cases():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    fams = [(OrientedPath((0, 1)),)]
    assert select_pairwise_anticomplete(g, fams, 2, 4) == [OrientedPath((0, 1))]
    fams3 = [(OrientedPath((0, 1)),),
             (OrientedPath((2, 3)),),
             (OrientedPath((4, 5)),)]
    out = select_pairwise_anticomplete(g, fams3, 2, 4)
    assert out == [OrientedPath((0, 1)), OrientedPath((2, 3)),
                   OrientedPath((4, 5))]


def test_select_pairwise_shortfalls():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    head = (OrientedPath((0,)),)
    empty = ()
    cases = [
        # nothing left for the last family
        ([empty], "selection[last]"),
        # 1 ~ 0, so the split keeps 1 and strips the head's only vertex
        ([head, (OrientedPath((1,)),)], "selection[round 1]"),
        ([head, empty], "selection[round 1 partner]"),
    ]
    for fams, stage in cases:
        with pytest.raises(StageShortfall) as exc:
            select_pairwise_anticomplete(g, fams, 2, 4)
        assert (exc.value.stage, exc.value.required, exc.value.achieved) == (
            stage, 1, 0)


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
    out = select_pairwise_anticomplete(g, fams, ell=2, t=6)
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


def test_assemble_examples():
    # m = 3, single-vertex paths: a C6
    edges = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
    g = Graph.from_edges(6, edges)
    cert = assemble_cycle(g, [0, 1, 2],
                          [OrientedPath((3,)), OrientedPath((4,)),
                           OrientedPath((5,))])
    assert len(cert.vertices) == 6
    assert verify_certificate(g, cert)

    # m = t/2 single-vertex paths: a C_t
    t = 10
    m = t // 2
    edges = []
    for i in range(m):
        edges.append((i, m + i))
        edges.append((m + i, (i + 1) % m))
    g2 = Graph.from_edges(2 * m, edges)
    cert = assemble_cycle(g2, list(range(m)),
                          [OrientedPath((m + i,)) for i in range(m)])
    assert len(cert.vertices) == t


def test_assemble_orients_and_rejects_paths():
    # C9 through anchors 0, 1, 2 and two-vertex paths 3-4, 5-6, 7-8
    g = Graph.from_edges(9, [(0, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 2),
                             (2, 7), (7, 8), (8, 0)])
    forward = [OrientedPath((3, 4)), OrientedPath((5, 6)), OrientedPath((7, 8))]
    cert = assemble_cycle(g, [0, 1, 2], forward)
    assert cert.vertices == (0, 3, 4, 1, 5, 6, 2, 7, 8)
    # a path given from its far end is turned round
    flipped = [forward[0].reversed()] + forward[1:]
    assert assemble_cycle(g, [0, 1, 2], flipped) == cert
    # 5-6 does not touch anchor 0
    with pytest.raises(ValueError, match="does not link anchors 0 and 1"):
        assemble_cycle(g, [0, 1, 2], [forward[1], forward[0], forward[2]])


def test_assemble_reports_chord():
    edges = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0), (3, 4)]
    g = Graph.from_edges(6, edges)
    with pytest.raises(AssemblyError) as exc:
        assemble_cycle(g, [0, 1, 2],
                       [OrientedPath((3,)), OrientedPath((4,)),
                        OrientedPath((5,))])
    assert exc.value.chord == (3, 4)


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


def test_pipeline_checks_the_cycle_length(monkeypatch):
    # an induced C4 verifies, but does not answer a question about t = 6
    t = 6
    g, sets = pipeline_full_instance(t, copies=2)
    short = InducedCycle((0, 3, 1, 4))
    assert verify_certificate(g, short)
    monkeypatch.setattr(anticomplete, "assemble_cycle", lambda *a: short)
    with pytest.raises(InternalInconsistency):
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
            picked = select_pairwise_anticomplete(*args)
        calls.append((spent[0], picked))
        return picked

    monkeypatch.setattr(anticomplete, "select_pairwise_anticomplete", spy)
    g, sets = pipeline_full_instance(t, copies=2)
    res = main_pipeline(g, t, 3, PipelineOverrides(
        branch_sets=sets, a_count=t // 2, paths_per_pair=2))
    [(spent, picked)] = calls
    assert spent == 0 and len(picked) == t // 2
    on_paths = {v for p in picked for v in p.vertices}
    anchors = [v for v in res.certificate.vertices if v not in on_paths]
    assert assemble_cycle(g, anchors, picked) == res.certificate


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
    return lambda bud: build_linked_families(
        g, pool, connectors, t=6, ell=3, stages=[], paths_per_pair=2,
        budget=bud)


def _extract_stage():
    g, pool, connectors = _standalone_linked_instance(6, 2)
    linked = build_linked_families(g, pool, connectors, t=6, ell=3, stages=[],
                                   paths_per_pair=2)
    return lambda bud: extract_partially_anticomplete(
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
    lambda: lambda bud: select_noninterfering(frozenset(range(5)),
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
    g, pool, connectors = _standalone_linked_instance(t, 2)
    with pytest.raises(ValueError, match="paths_per_pair"):
        build_linked_families(g, pool, connectors, t=t, ell=3, stages=[],
                              paths_per_pair=paths_per_pair)
