import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chibound
import oracles
from chibound.certificates import (BicliqueWitness, EliminationOrder,
                                   IndependentSetWitness, InducedCycle,
                                   InternalInconsistency, LowDegreeVertex,
                                   SubdividedStarWitness, certificate_from_json,
                                   certificate_to_json, certified, require,
                                   verify_certificate)
from chibound.generate import gnp
from chibound.graph import Graph, complete_bipartite, cycle_graph, path_graph
from chibound.lemmas import sstar_elimination_order, sstar_low_degree
from chibound.minors import CliqueMinor, find_clique_minor
from conftest import graphs

PACKAGE_MODULES = sorted(Path(chibound.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check must be an explicit raise
    found = []
    for path in PACKAGE_MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


#: Handlers that catch an exhausted budget, by the names they catch.
BUDGET_CATCHERS = {"BudgetExceeded", "StageShortfall", "Exception", "BaseException"}


def test_package_swallows_no_budget_exhaustion():
    # a handler that catches BudgetExceeded re-raises it, maybe with its best
    # object, unless it is main_pipeline's, which reports the stage that ran
    # out; an exhausted budget never turns into an answer
    found = []
    for path in PACKAGE_MODULES:
        tree = ast.parse(path.read_text(), str(path))
        reporter = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "main_pipeline"
                    for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or id(node) in reporter:
                continue
            caught = ast.unparse(node.type) if node.type else "BaseException"
            if (any(name in caught for name in BUDGET_CATCHERS)
                    and not any(isinstance(n, ast.Raise) for n in ast.walk(node))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


#: Parameters no function reads, as "module:function(parameter)", each with
#: the reason it stays.
UNREAD_BY_DESIGN = {
    "minors.py:find_clique_minor(seed)":
        "bench/ passes it; it goes with the bench change of ROADMAP item 10",
    "minors.py:full_vertex_minor(seed)":
        "bench/ passes it; it goes with the bench change of ROADMAP item 10",
    "generate.py:pipeline_poison_instance(ell)":
        "bench/ passes it; it goes with the bench change of ROADMAP item 10",
}


def test_every_parameter_is_read():
    # a function reads every parameter it takes or hands it on, outside the
    # allowlist: a step that stops searching drops its budget instead of
    # ignoring it, and an option nothing reads goes
    budget_takers, unread = 0, []
    for path in PACKAGE_MODULES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            budget_takers += "budget" in params
            unread += [f"{path.name}:{fn.name}({p})" for p in params if p not in read]
    assert budget_takers > 0 and sorted(unread) == sorted(UNREAD_BY_DESIGN)


BENCH_MODULES = sorted((Path(__file__).parents[1] / "bench").glob("*.py"))

#: Public functions no program calls yet, each with the reason it stays.
UNCALLED_BY_DESIGN = {
    "certificate_from_json": "read back by the command line of ROADMAP item 4",
    "paper_constants": "printed by the command line of ROADMAP item 4",
    "path_graph": "a named small builder",
    "cycle_graph": "a named small builder",
    "complete_graph": "a named small builder",
    "complete_bipartite": "a named small builder",
    "empty_graph": "a named small builder",
}


def test_every_public_function_has_a_program_caller():
    # code that nothing calls is deleted: every public module-level function
    # is named somewhere in the package (re-exports aside) or in bench/,
    # whose harness also calls functions by dotted name strings
    public, called = set(), set()
    for path in PACKAGE_MODULES + BENCH_MODULES:
        tree = ast.parse(path.read_text(), str(path))
        if path in PACKAGE_MODULES:
            public.update(fn.name for fn in tree.body
                          if isinstance(fn, ast.FunctionDef)
                          and not fn.name.startswith("_"))
            if path.name == "__init__.py":
                continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
            elif (path in BENCH_MODULES and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                called.update(node.value.split("."))
    assert BENCH_MODULES and public
    assert sorted(public - called - UNCALLED_BY_DESIGN.keys()) == []


def _importers(module: str) -> set[str]:
    """The package modules that import `module`."""
    found = set()
    for path in PACKAGE_MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(name and name.split(".")[0] == module for name in names):
                found.add(path.stem)
    return found


def test_only_the_generators_import_random():
    # the searches are deterministic: ties break by ascending id, and the
    # certificates are pinned on fixed seeds
    assert _importers("random") == {"generate"}


def test_only_the_degree_queue_and_the_generators_import_heapq():
    # graph.DegreeQueue is the one bucket queue of degrees; generate decodes
    # Pruefer sequences with a heap
    assert _importers("heapq") == {"graph", "generate"}


def test_require():
    require(True, "unused")
    with pytest.raises(InternalInconsistency, match="floor"):
        require(False, "floor")


def test_certified_checks_validity_and_size():
    c5 = cycle_graph(5)
    cycle = InducedCycle((0, 1, 2, 3, 4))
    assert certified(c5, cycle, t=5) is cycle
    with pytest.raises(InternalInconsistency, match="smaller"):
        certified(c5, cycle, t=6)
    with pytest.raises(InternalInconsistency, match="does not verify"):
        certified(c5, InducedCycle((0, 1, 2, 3)), t=4)

    k22 = complete_bipartite(2, 2)
    assert certified(k22, BicliqueWitness((0, 1), (2, 3)), ell=2)
    with pytest.raises(InternalInconsistency, match="smaller"):
        certified(k22, BicliqueWitness((0, 1), (2,)), ell=2)

    # the path 0-1-2-3-4 is the star with 2 leaves, subdivided, centred at 2
    star = SubdividedStarWitness(2, (1, 3), (0, 4))
    assert certified(path_graph(5), star, d=2) is star
    with pytest.raises(InternalInconsistency, match="smaller"):
        certified(path_graph(5), star, d=3)

    with pytest.raises(InternalInconsistency, match="does not verify"):
        certified(c5, EliminationOrder(tuple(range(5)), 1))


def test_sstar_verifier_range_checks_every_vertex():
    # the star with 2 leaves, subdivided, centred at 4: 4-0-2 and 4-1-3;
    # a centre of -1 must not wrap round to 4
    g = Graph.from_edges(5, [(0, 4), (1, 4), (0, 2), (1, 3)])
    assert verify_certificate(g, SubdividedStarWitness(4, (0, 1), (2, 3)))
    for bad in (SubdividedStarWitness(-1, (0, 1), (2, 3)),
                SubdividedStarWitness(7, (0, 1), (2, 3)),
                SubdividedStarWitness(4, (0, 1), (2, 5))):
        with pytest.raises(ValueError, match="out of range"):
            verify_certificate(g, bad)


def test_biclique_verifier_range_checks_both_sides():
    k22 = complete_bipartite(2, 2)
    for bad in (BicliqueWitness((0, 1), (2, 4)), BicliqueWitness((0, 1), (-1, 3)),
                BicliqueWitness((0, 4), (2, 3))):
        with pytest.raises(ValueError, match="out of range"):
            verify_certificate(k22, bad)


@pytest.mark.parametrize("graph, cert", [
    (cycle_graph(5), InducedCycle((0, 1, 2, 3, 4))),
    (complete_bipartite(2, 3), BicliqueWitness((0, 1), (2, 3, 4))),
    (path_graph(5), SubdividedStarWitness(2, (1, 3), (0, 4))),
    (path_graph(5), LowDegreeVertex(2, 2, 3)),
    (path_graph(5), EliminationOrder((0, 1, 2, 3, 4), 1)),
    (cycle_graph(5), IndependentSetWitness((0, 2))),
], ids=lambda x: type(x).__name__)
def test_certificate_json_round_trip(graph, cert):
    assert verify_certificate(graph, cert)
    payload = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(payload, graph)
    assert back == cert
    assert verify_certificate(graph, back)


@pytest.mark.parametrize("vertex", [99, -1])
def test_certificate_from_json_range_checks_the_low_degree_vertex(vertex):
    # 99 used to raise IndexError, and -1 read vertex 4's degree
    payload = {"tag": "LowDegreeVertex", "vertices": [vertex], "claimed_bound": 3}
    with pytest.raises(ValueError, match="out of range"):
        certificate_from_json(payload, path_graph(5))


@pytest.mark.parametrize("payload", [
    {"tag": "InducedCycle"},
    {"tag": "LowDegreeVertex", "claimed_bound": 3},
    {"tag": "LowDegreeVertex", "vertices": [1]},
    {"tag": "BicliqueWitness", "left": [0]},
    {"tag": "EliminationOrder", "vertices": [0, 1]},
], ids=["cycle-vertices", "low-degree-vertices", "low-degree-claimed_bound",
        "biclique-right", "order-claimed_bound"])
def test_certificate_from_json_names_a_missing_field(payload):
    # used to raise KeyError
    with pytest.raises(ValueError, match="lacks the field"):
        certificate_from_json(payload, path_graph(5))


@pytest.mark.parametrize("payload, reason", [
    ({"tag": "SubdividedStarWitness", "vertices": [2, 1, 3]}, r"2d\+1 >= 5"),
    ({"tag": "SubdividedStarWitness", "vertices": [2, 1, 3, 0]}, r"2d\+1 >= 5"),
    ({"tag": "Triangle", "vertices": [0, 1, 2]}, "unknown certificate tag"),
], ids=["sstar-three", "sstar-even", "unknown-tag"])
def test_certificate_from_json_rejects_malformed_payloads(payload, reason):
    with pytest.raises(ValueError, match=reason):
        certificate_from_json(payload, path_graph(5))


@pytest.mark.parametrize("graph, cert", [
    (complete_bipartite(1, 2), BicliqueWitness((), (1,))),
    (complete_bipartite(1, 2), BicliqueWitness((0, 0), (1, 2))),
    (complete_bipartite(1, 2), BicliqueWitness((0, 1), (1,))),
    (path_graph(3), SubdividedStarWitness(0, (1,), (2,))),
    (path_graph(5), SubdividedStarWitness(2, (1, 3), (0, 4, 0))),
    # 2 is the leaf of both middles of the 4-cycle 0-1-2-3
    (cycle_graph(4), SubdividedStarWitness(0, (1, 3), (2, 2))),
    (path_graph(5), SubdividedStarWitness(2, (1, 3), (4, 0))),
    (path_graph(3), IndependentSetWitness((0, 2, 0))),
], ids=["biclique-empty-side", "biclique-repeat", "biclique-overlap",
        "sstar-one-middle", "sstar-extra-leaf", "sstar-repeat",
        "sstar-wrong-edge", "independent-repeat"])
def test_verifiers_reject_malformed_certificates(graph, cert):
    # each case breaks only the check its id names, except that sides that
    # overlap also break the biclique's adjacency (no vertex is its own
    # neighbour)
    assert not verify_certificate(graph, cert)


def test_verify_certificate_rejects_an_unknown_type():
    with pytest.raises(TypeError, match="unknown certificate type tuple"):
        verify_certificate(path_graph(3), (0, 1, 2))


def test_checks_build_their_messages_only_on_failure(monkeypatch):
    # a passing check must not format the certificate or minor it names
    def no_repr(self):
        raise RuntimeError(f"{type(self).__name__} formatted by a passing check")

    for cls in (BicliqueWitness, EliminationOrder, IndependentSetWitness,
                InducedCycle, LowDegreeVertex, SubdividedStarWitness):
        monkeypatch.setattr(cls, "__repr__", no_repr)
    monkeypatch.setattr(CliqueMinor, "__repr__", no_repr)
    monkeypatch.setattr(CliqueMinor, "to_json", no_repr)

    for n in (40, 120):
        g = gnp(n, 6 / (n - 1), random.Random(n))
        order = sstar_elimination_order(g, 2, 3)
        assert isinstance(order, EliminationOrder)
        assert certified(g, order) is order
        assert isinstance(sstar_low_degree(g, 2, 3).certificate, LowDegreeVertex)
        assert len(find_clique_minor(g, 4)) == 4
    cycle = InducedCycle((0, 1, 2, 3, 4))
    assert certified(cycle_graph(5), cycle, t=5) is cycle
    biclique = BicliqueWitness((0, 1), (2, 3))
    assert certified(complete_bipartite(2, 2), biclique, ell=2) is biclique
    star = SubdividedStarWitness(2, (1, 3), (0, 4))
    assert certified(path_graph(5), star, d=2) is star
    # and a failing one still names it
    with pytest.raises(RuntimeError, match="InducedCycle formatted"):
        certified(cycle_graph(5), cycle, t=6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_elimination_check_matches_the_position_count(data):
    g = data.draw(graphs(max_n=10))
    order = list(data.draw(st.permutations(range(g.n))))
    pos = {v: i for i, v in enumerate(order)}
    need = max((sum(pos[w] > pos[v] for w in g.adj(v)) for v in order), default=0)
    bound = need + data.draw(st.integers(-1, 1))
    defect = data.draw(st.sampled_from(["none", "repeat", "drop", "outside"]))
    if defect != "none" and order:
        i = data.draw(st.integers(0, len(order) - 1))
        if defect == "repeat":
            order[i] = order[i - 1]
        elif defect == "drop":
            del order[i]
        else:
            order[i] = data.draw(st.sampled_from([-1, g.n]))
    cert = EliminationOrder(tuple(order), bound)
    verdict = verify_certificate(g, cert)
    assert verdict == oracles.reference_verify_elimination(g, cert)
    permutation = sorted(order) == list(range(g.n))
    assert verdict == (permutation and (bound >= need or g.n == 0))
