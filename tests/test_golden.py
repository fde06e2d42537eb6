"""Golden certificates on fixed seeds.

Tie-breaking by ascending id is part of the contract, so these tests pin
the exact certificates, not only their values: degeneracy orders, graph6
strings, sstar_low_degree outcomes with their traces, and
sstar_elimination_order results.  A change that alters any of them fails
here even when the new certificate would still verify.

The budgeted searches are pinned the same way, together with the number of
search nodes each call spends (counted by wrapping SearchBudget.spend) and,
when the budget runs out, the best object carried by BudgetExceeded: the
induced path and cycle searches, the subdivided-star search, the
clique-minor search, find_biclique_subgraph, max_independent_subset inside
a `within` set, and, on the traces of the odd vertices on the even ones,
vc_dimension and find_shattered_set.  Node counts and budget verdicts
depend on the search order, so a kernel change that keeps the certificates
but visits nodes in a different order fails here too.

The upper layers are pinned on the same terms: chromatic_number_exact (value,
nodes and BudgetExceeded.best), cor_traces_check (on "shatter8" with the
nodes the shattered-set route spends from the caller's budget),
split_by_trace (the split or the CounterWitness certificate), check_branch_diameter and
full_vertex_minor on the G(20, 1/2) minors, the JSON record of main_pipeline on the planted, ideal,
tree and G(20, 1/2) instances, and the pipeline instance builders' graphs
and branch sets.

Regenerate the fixture (only when a certificate change is intended) with
`PYTHONPATH=src python tests/test_golden.py`, which prints one line per
changed record (per call for the search, exact, minor and chromatic
records) with the old and new outcome kind and nodes.
"""
import dataclasses
import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from chibound.anticomplete import PipelineOverrides, main_pipeline
from chibound.certificates import CounterWitness
from chibound.detect import (BudgetExceeded, chromatic_number_exact, degeneracy,
                             find_biclique_subgraph,
                             find_induced_subdivided_star,
                             find_long_induced_cycle,
                             longest_induced_cycle, longest_induced_path,
                             max_independent_subset)
from chibound.generate import (generate, gnp, pipeline_full_instance,
                               pipeline_ideal_instance,
                               pipeline_poison_instance, planted_cycle,
                               random_tree)
from chibound.graph import Graph
from chibound.io import to_graph6
from chibound.lemmas import sstar_elimination_order, sstar_low_degree
from chibound.minors import (CliqueMinor, check_branch_diameter,
                             find_clique_minor, full_vertex_minor,
                             minimize_minor)
from chibound.vc import (cor_traces_check, find_shattered_set,
                         neighborhood_system, split_by_trace, vc_dimension)
from oracles import node_count

FIXTURE = Path(__file__).with_name("golden_certificates.json")

#: (name, n, p, seed): sparse graphs of average degree 6, then dense and
#: middling G(n, p) graphs on which the lemma layer returns bicliques and
#: induced subdivided stars.
GRAPHS = [("sparse", n, 6 / (n - 1), seed)
          for n in (50, 200, 1000) for seed in (1, 2)]
GRAPHS += [("dense", n, 0.5, seed) for n in (20, 30, 40) for seed in (1, 2)]
GRAPHS += [("dense", 40, 0.5, 1340)]
GRAPHS += [("middling", n, p, seed)
           for n, p, seed in ((30, 0.2, 30), (40, 0.2, 40), (30, 0.3, 130))]

SSTAR_PARAMS = ((2, 2), (2, 3), (3, 2))
#: graph6 strings of at least this many vertices are stored as sha256.
HASH_FROM = 200
#: sstar_elimination_order runs on graphs up to this many vertices.
ELIMINATION_UP_TO = 200

#: (family, params, seed) for the budgeted detect searches: one graph of
#: each generator family, with found, proven-absent and budget verdicts.
SEARCH_GRAPHS = [
    ("gnp", {"n": 12, "p": 0.5}, 1), ("gnp", {"n": 16, "p": 0.25}, 11),
    ("gnp", {"n": 20, "p": 0.3}, 2), ("gnp", {"n": 30, "p": 0.2}, 3),
    ("gnp", {"n": 30, "p": 0.1}, 12), ("tree", {"n": 20}, 4),
    ("chordal", {"n": 16}, 5), ("interval", {"n": 18}, 6),
    ("split", {"n": 14}, 7), ("cograph", {"n": 16}, 8),
    ("planted-cycle", {"n": 24, "t": 8}, 9),
    ("planted-biclique", {"n": 20, "ell": 3}, 10),
]
#: Node budgets: the smallest one (the middle PIN_BUDGETS one) runs out in
#: the longest-path and longest-cycle searches on nearly every graph, and
#: the largest one only in the longest-path search on G(30, 0.2).  The
#: bounded subdivided-star search decides d = 2 within the smallest budget
#: on every graph (DECIDED_WITHIN_BUDGETS); its budget verdict is pinned at
#: d = 3.
SEARCH_BUDGETS = (40, 300, 5000)
DECIDED_WITHIN_BUDGETS = {"find_induced_subdivided_star_2"}
SEARCHES = {
    "longest_induced_path": longest_induced_path,
    "longest_induced_cycle": longest_induced_cycle,
    "find_long_induced_cycle_6": lambda g, budget: find_long_induced_cycle(g, 6, budget),
    "find_induced_subdivided_star_2":
        lambda g, budget: find_induced_subdivided_star(g, 2, budget),
    "find_induced_subdivided_star_3":
        lambda g, budget: find_induced_subdivided_star(g, 3, budget),
}


def _trace_system(g: Graph):
    """The traces of the odd vertices on the even ones."""
    return neighborhood_system(g, range(0, g.n, 2), range(1, g.n, 2))


#: The remaining exact searches, pinned on the SEARCH_GRAPHS at the
#: PIN_BUDGETS: the smallest one runs out in most independent-set searches,
#: the middle one in the larger shattered-set and biclique searches.
PIN_BUDGETS = (4, 40, 5000)
PINNED = {
    "find_biclique_subgraph_2_2":
        lambda g, budget: find_biclique_subgraph(g, 2, 2, budget),
    "find_biclique_subgraph_3_3":
        lambda g, budget: find_biclique_subgraph(g, 3, 3, budget),
    "max_independent_subset_mod3":
        lambda g, budget: max_independent_subset(
            g, [v for v in range(g.n) if v % 3], budget),
    "find_shattered_set_2":
        lambda g, budget: find_shattered_set(_trace_system(g), 2, budget),
    "find_shattered_set_3":
        lambda g, budget: find_shattered_set(_trace_system(g), 3, budget),
}
#: (n, p, seed, budget) for find_clique_minor with p = 5, 6, 7.  Every graph
#: has a K4 minor.  On G(20, 1/2) the answer comes from the contraction to a
#: complete quotient; on G(10, 1/2) the quotient is too small and the answer
#: comes from the exhaustive assignment search, which finds a minor or runs
#: out of budget.
MINOR_GRAPHS = [(20, 0.5, seed, 20_000) for seed in (1, 2, 3)]
MINOR_GRAPHS += [(10, 0.5, seed, 50_000) for seed in (1, 2, 3)]
MINOR_SIZES = (5, 6, 7)
#: Graphs and node budgets for chromatic_number_exact: the SEARCH_GRAPHS
#: plus two G(n, 1/2) graphs on which the exact clique fits in the budget of
#: 40 (or 300) and the colorability search does not, which gives
#: BudgetExceeded.best = (k, upper).
CHROMATIC_GRAPHS = SEARCH_GRAPHS + [("gnp", {"n": 20, "p": 0.5}, 2),
                                    ("gnp", {"n": 40, "p": 0.5}, 2)]
CHROMATIC_BUDGETS = (40, 300, 5000)
#: t values for check_branch_diameter and full_vertex_minor on the minors
#: that find_clique_minor returns on the G(20, 1/2) graphs of MINOR_GRAPHS.
MINOR_TS = (3, 4, 5, 6)
#: (kind, t, ell, seed) for main_pipeline, with the node budget and the
#: overrides the pipeline benchmark uses.
PIPELINES = [("full", t, 3, seed) for t in (6, 8) for seed in (0, 1)]
PIPELINES += [("poison", 6, 2, 0), ("poison", 6, 2, 1)]
PIPELINES += [(kind, t, 3, 1) for kind in ("ideal", "ideal-minor3")
              for t in (8, 10)]
PIPELINES += [(kind, 6, 3, seed) for kind in ("tree", "planted-cycle")
              for seed in (0, 1)]
PIPELINES += [("gnp", 6, 3, seed) for seed in (1, 2, 3)]
PIPELINE_BUDGET = 20_000
#: (kind, t, copies or (ell, per_pair)): the builders at the benchmark's
#: parameters.
INSTANCES = [("full", 6, 2), ("full", 8, 2), ("poison", 6, (2, 54))]
#: cor_traces_check instances, see trace_instance().
TRACE_INSTANCES = ("shatter8", "shatter7", "bucket", "holds")
#: split_by_trace instances: on the shattering ones it splits off one
#: vertex, as on "holds".
SPLIT_INSTANCES = ("bucket", "holds")


def _cert_json(cert) -> dict:
    if isinstance(cert, CliqueMinor):
        return {"tag": "CliqueMinor", "branch_sets": cert.to_json()}
    if not dataclasses.is_dataclass(cert):
        return cert  # a plain value, such as a chromatic number or a bound pair
    return {"tag": type(cert).__name__, **dataclasses.asdict(cert)}


def golden_record(n: int, p: float, seed: int) -> dict:
    g = gnp(n, p, random.Random(seed))
    k, order = degeneracy(g)
    g6 = to_graph6(g)
    rec = {
        "degeneracy": [k, _cert_json(order)],
        "graph6": hashlib.sha256(g6.encode()).hexdigest() if n >= HASH_FROM else g6,
        "sstar": {},
        "elimination": {},
    }
    for d, ell in SSTAR_PARAMS:
        out = sstar_low_degree(g, d, ell, with_trace=True)
        rec["sstar"][f"{d},{ell}"] = {"certificate": _cert_json(out.certificate),
                                      "level": out.level, "trace": out.trace}
        if n <= ELIMINATION_UP_TO:
            rec["elimination"][f"{d},{ell}"] = _cert_json(
                sstar_elimination_order(g, d, ell))
    # tuples become lists, as in the stored JSON
    return json.loads(json.dumps(rec))


def _outcome(search, g, budget: int) -> dict:
    """The certificate (or None), or "budget" with the best object so far,
    plus the nodes spent."""
    with node_count() as count:
        try:
            found = search(g, budget=budget)
        except BudgetExceeded as e:
            rec = {"result": "budget",
                   "best": None if e.best is None else _cert_json(e.best)}
        else:
            rec = {"result": None if found is None else _cert_json(found)}
    rec["nodes"] = count[0]
    return rec


def search_record(family: str, params: dict, seed: int) -> dict:
    g = next(generate(family, params, seed))
    rec = {f"{name}@{budget}": _outcome(search, g, budget)
           for budget in SEARCH_BUDGETS for name, search in SEARCHES.items()}
    return json.loads(json.dumps(rec))


def pinned_record(family: str, params: dict, seed: int) -> dict:
    g = next(generate(family, params, seed))
    rec = {"vc_dimension": vc_dimension(_trace_system(g))}
    rec.update({f"{name}@{budget}": _outcome(search, g, budget)
                for budget in PIN_BUDGETS for name, search in PINNED.items()})
    return json.loads(json.dumps(rec))


def minor_record(n: int, p: float, seed: int, budget: int) -> dict:
    g = gnp(n, p, random.Random(seed))
    rec = {f"p{size}": _outcome(
        lambda h, budget: find_clique_minor(h, size, budget), g, budget)
        for size in MINOR_SIZES}
    return json.loads(json.dumps(rec))


def chromatic_record(family: str, params: dict, seed: int) -> dict:
    g = next(generate(family, params, seed))
    rec = {f"chromatic_number_exact@{budget}":
           _outcome(chromatic_number_exact, g, budget) for budget in CHROMATIC_BUDGETS}
    return json.loads(json.dumps(rec))


def _raised(call) -> object:
    """The result of call(), or the type and message of what it raised."""
    try:
        return _cert_json(call())
    except (BudgetExceeded, ValueError) as e:
        return {"raised": type(e).__name__, "message": str(e)}


def minor_layer_record(n: int, p: float, seed: int, budget: int) -> dict:
    g = gnp(n, p, random.Random(seed))
    rec = {}
    for size in MINOR_SIZES:
        try:
            minor = find_clique_minor(g, size, budget)
        except BudgetExceeded:
            continue
        minimal = minimize_minor(g, minor)
        for t in MINOR_TS:
            rec[f"p{size}-t{t}"] = {
                "diameter": _raised(lambda: check_branch_diameter(g, minimal, t)),
                "full": _raised(lambda: full_vertex_minor(g, minor, size, t, seed))}
    return json.loads(json.dumps(rec))


def _pipeline_graph(kind: str, t: int, ell: int, seed: int):
    """The graph and the overrides of one PIPELINES entry."""
    if kind == "full":
        g, sets = pipeline_full_instance(t, 2)
        return g, PipelineOverrides(branch_sets=sets, a_count=t // 2,
                                    paths_per_pair=2)
    if kind == "poison":
        g, sets = pipeline_poison_instance(t, ell, 54)
        return g, PipelineOverrides(branch_sets=sets, a_count=t // 2)
    if kind == "ideal":
        return pipeline_ideal_instance(t), PipelineOverrides()
    if kind == "ideal-minor3":
        return pipeline_ideal_instance(t), PipelineOverrides(minor_size=3)
    if kind == "tree":
        return random_tree(30, random.Random(seed)), PipelineOverrides()
    if kind == "planted-cycle":
        return planted_cycle(30, 10, random.Random(seed)), PipelineOverrides()
    return gnp(20, 0.5, random.Random(seed)), PipelineOverrides()


def pipeline_record(kind: str, t: int, ell: int, seed: int) -> dict:
    g, ov = _pipeline_graph(kind, t, ell, seed)
    ov.seed, ov.budget = seed, PIPELINE_BUDGET
    return json.loads(json.dumps(main_pipeline(g, t, ell, ov).to_json()))


def instance_record(kind: str, t: int, extra) -> dict:
    if kind == "full":
        g, sets = pipeline_full_instance(t, extra)
    else:
        g, sets = pipeline_poison_instance(t, *extra)
    g6 = to_graph6(g)
    return {"graph6": hashlib.sha256(g6.encode()).hexdigest() if g.n >= HASH_FROM else g6,
            "branch_sets": [sorted(s) for s in sets]}


def trace_instance(name: str):
    """(graph, X, Y, ell) for t = 4.

    X is an edgeless set of 8 (or 7) vertices, and each vertex of Y is
    adjacent to its own subset of X of at least 2 vertices: the first |Y|
    such subsets by size, then lexicographically.  With 128 = 2 * 8^2
    distinct traces the bound of cor_traces_check fails and no bucket holds
    2 vertices, so the shattering route answers; "bucket" repeats every
    trace once, which gives a biclique instead, and "holds" stays one
    below the bound.
    """
    nx, ny = (7, 120) if name == "shatter7" else (8, 128)
    traces = [c for r in range(2, nx + 1) for c in combinations(range(nx), r)]
    if name == "bucket":
        traces = [tr for tr in traces[:ny // 2] for _ in range(2)]
    if name == "holds":
        ny -= 1
    edges = [(nx + i, z) for i, tr in enumerate(traces[:ny]) for z in tr]
    g = Graph.from_edges(nx + ny, edges)
    return g, frozenset(range(nx)), frozenset(range(nx, nx + ny)), 2


def trace_record(name: str) -> dict:
    """cor_traces_check on a trace instance: whether the bound holds, and
    the certificate of the CounterWitness it raises when it does not."""
    g, xs, ys, ell = trace_instance(name)
    try:
        cor_traces_check(g, xs, ys, ell, 4)
    except CounterWitness as cw:
        return json.loads(json.dumps({"holds": False,
                                      "witness": _cert_json(cw.certificate)}))
    return {"holds": True, "witness": None}


def trace3_record(name: str) -> dict:
    """split_by_trace on a trace instance: the split (X', Y'), or the
    certificate of the CounterWitness it raises."""
    g, xs, ys, ell = trace_instance(name)
    try:
        x_prime, y_prime = split_by_trace(g, xs, ys, ell)
    except CounterWitness as cw:
        return json.loads(json.dumps({"witness": _cert_json(cw.certificate)}))
    return {"x_prime": sorted(x_prime), "y_prime": sorted(y_prime)}


def _key(spec) -> str:
    return "{}-n{}-p{:.4f}-s{}".format(*spec)


def _search_key(spec) -> str:
    family, params, seed = spec
    return "search-{}-{}-s{}".format(
        family, "-".join(f"{k}{v}" for k, v in sorted(params.items())), seed)


def _pinned_key(spec) -> str:
    return "exact-" + _search_key(spec)[len("search-"):]


def _minor_key(spec) -> str:
    return "minor-n{}-p{:.4f}-s{}-b{}".format(*spec)


def _chromatic_key(spec) -> str:
    return "chromatic-" + _search_key(spec)[len("search-"):]


#: The G(20, 1/2) graphs of MINOR_GRAPHS.
MINOR_LAYER_GRAPHS = [spec for spec in MINOR_GRAPHS if spec[0] == 20]


def _minor_layer_key(spec) -> str:
    return "minor-layer-" + _minor_key(spec)[len("minor-"):]


def _pipeline_key(spec) -> str:
    return "pipeline-{}-t{}-l{}-s{}".format(*spec)


def _instance_key(spec) -> str:
    kind, t, extra = spec
    return f"instance-{kind}-t{t}-" + (
        f"c{extra}" if kind == "full" else "l{}-k{}".format(*extra))


def _trace_key(name: str) -> str:
    return f"traces-{name}"


def _trace3_key(name: str) -> str:
    return f"traces3-{name}"


def _fixture() -> dict:
    out = {_key(s): golden_record(*s[1:]) for s in GRAPHS}
    out.update({_search_key(s): search_record(*s) for s in SEARCH_GRAPHS})
    out.update({_pinned_key(s): pinned_record(*s) for s in SEARCH_GRAPHS})
    out.update({_minor_key(s): minor_record(*s) for s in MINOR_GRAPHS})
    out.update({_chromatic_key(s): chromatic_record(*s) for s in CHROMATIC_GRAPHS})
    out.update({_minor_layer_key(s): minor_layer_record(*s)
                for s in MINOR_LAYER_GRAPHS})
    out.update({_pipeline_key(s): pipeline_record(*s) for s in PIPELINES})
    out.update({_instance_key(s): instance_record(*s) for s in INSTANCES})
    out.update({_trace_key(s): trace_record(s) for s in TRACE_INSTANCES})
    out.update({_trace3_key(s): trace3_record(s) for s in SPLIT_INSTANCES})
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("spec", GRAPHS, ids=_key)
def test_golden_certificates(golden, spec):
    assert golden_record(*spec[1:]) == golden[_key(spec)]


@pytest.mark.parametrize("spec", SEARCH_GRAPHS, ids=_search_key)
def test_golden_searches(golden, spec):
    assert search_record(*spec) == golden[_search_key(spec)]


@pytest.mark.parametrize("spec", SEARCH_GRAPHS, ids=_pinned_key)
def test_golden_exact_searches(golden, spec):
    assert pinned_record(*spec) == golden[_pinned_key(spec)]


@pytest.mark.parametrize("spec", MINOR_GRAPHS, ids=_minor_key)
def test_golden_clique_minors(golden, spec):
    assert minor_record(*spec) == golden[_minor_key(spec)]


@pytest.mark.parametrize("spec", CHROMATIC_GRAPHS, ids=_chromatic_key)
def test_golden_chromatic_number(golden, spec):
    assert chromatic_record(*spec) == golden[_chromatic_key(spec)]


@pytest.mark.parametrize("spec", MINOR_LAYER_GRAPHS, ids=_minor_layer_key)
def test_golden_minor_layer(golden, spec):
    assert minor_layer_record(*spec) == golden[_minor_layer_key(spec)]


@pytest.mark.parametrize("spec", PIPELINES, ids=_pipeline_key)
def test_golden_pipeline(golden, spec):
    assert pipeline_record(*spec) == golden[_pipeline_key(spec)]


@pytest.mark.parametrize("spec", INSTANCES, ids=_instance_key)
def test_golden_pipeline_instances(golden, spec):
    assert instance_record(*spec) == golden[_instance_key(spec)]


@pytest.mark.parametrize("name", TRACE_INSTANCES, ids=_trace_key)
def test_golden_cor_traces_check(golden, name):
    assert trace_record(name) == golden[_trace_key(name)]


@pytest.mark.parametrize("name", SPLIT_INSTANCES, ids=_trace3_key)
def test_golden_cor_traces3_split(golden, name):
    assert trace3_record(name) == golden[_trace3_key(name)]


@pytest.mark.parametrize("lemma", [cor_traces_check], ids=["cor_traces_check"])
def test_shattering_route_spends_the_callers_budget(golden, lemma):
    # the shattered-set search of "shatter8" spends 36 nodes, all from the
    # budget the caller passes: one short runs out, exactly enough answers
    g, xs, ys, ell = trace_instance("shatter8")
    with node_count() as nodes, pytest.raises(CounterWitness):
        lemma(g, xs, ys, ell, 4)
    assert nodes[0] == 36
    with pytest.raises(BudgetExceeded):
        lemma(g, xs, ys, ell, 4, budget=nodes[0] - 1)
    with pytest.raises(CounterWitness) as cw:
        lemma(g, xs, ys, ell, 4, budget=nodes[0])
    witness = json.loads(json.dumps(_cert_json(cw.value.certificate)))
    assert witness == golden[_trace_key("shatter8")]["witness"]


def _outcome_kind(r: dict) -> str:
    """budget, budget+best, absent, a certificate tag or value, for one
    _outcome() record."""
    result = r["result"]
    if result == "budget":
        return "budget" if r["best"] is None else "budget+best"
    return ("absent" if result is None else result["tag"]
            if isinstance(result, dict) else "value")


def _search_outcomes(golden, prefix: str) -> set:
    return {(call.split("@")[0], _outcome_kind(r))
            for key, rec in golden.items() if key.startswith(prefix)
            for call, r in rec.items() if isinstance(r, dict)}


def test_golden_fixture_covers_every_outcome(golden):
    lemma_records = [golden[_key(spec)] for spec in GRAPHS]
    tags = {rec["elimination"][k]["tag"]
            for rec in lemma_records for k in rec["elimination"]}
    tags |= {rec["sstar"][k]["certificate"]["tag"]
             for rec in lemma_records for k in rec["sstar"]}
    assert tags == {"EliminationOrder", "BicliqueWitness",
                    "SubdividedStarWitness", "LowDegreeVertex"}
    assert set(golden) == ({_key(s) for s in GRAPHS}
                           | {_search_key(s) for s in SEARCH_GRAPHS}
                           | {_pinned_key(s) for s in SEARCH_GRAPHS}
                           | {_minor_key(s) for s in MINOR_GRAPHS}
                           | {_chromatic_key(s) for s in CHROMATIC_GRAPHS}
                           | {_minor_layer_key(s) for s in MINOR_LAYER_GRAPHS}
                           | {_pipeline_key(s) for s in PIPELINES}
                           | {_instance_key(s) for s in INSTANCES}
                           | {_trace_key(s) for s in TRACE_INSTANCES}
                           | {_trace3_key(s) for s in SPLIT_INSTANCES})
    for prefix, calls in (("search-", SEARCHES), ("exact-", PINNED)):
        searches = _search_outcomes(golden, prefix)
        for call in calls:
            kinds = {kind for name, kind in searches if name == call}
            if call in DECIDED_WITHIN_BUDGETS:
                assert kinds == {"SubdividedStarWitness", "absent"}, call
                continue
            assert "budget" in kinds or "budget+best" in kinds, call
            assert len(kinds) >= 2, call
    minors = {kind for _, kind in _search_outcomes(golden, "minor-n")}
    assert minors == {"CliqueMinor", "budget"}
    chromatic = {kind for _, kind in _search_outcomes(golden, "chromatic-")}
    assert chromatic == {"budget+best", "value"}
    bests = {type(r["best"]).__name__ for s in CHROMATIC_GRAPHS
             for r in golden[_chromatic_key(s)].values() if r["result"] == "budget"}
    assert bests == {"list"}  # (lower, upper)
    layer = {(call, v if v is None else v.get("raised", v.get("tag")))
             for rec in (golden[_minor_layer_key(s)] for s in MINOR_LAYER_GRAPHS)
             for r in rec.values() for call, v in r.items()}
    assert layer == {("diameter", None), ("diameter", "InducedCycle"),
                     ("full", "InducedCycle"), ("full", "StageShortfall")}
    pipelines = {golden[_pipeline_key(s)]["certificate"]["tag"]
                 if golden[_pipeline_key(s)]["success"] else None
                 for s in PIPELINES}
    assert pipelines == {None, "InducedCycle", "BicliqueWitness"}
    shattered = golden[_trace_key("shatter8")]
    assert shattered["witness"]["tag"] == "InducedCycle"
    splits = {golden[_trace3_key(s)]["witness"]["tag"]
              if "witness" in golden[_trace3_key(s)] else "split"
              for s in SPLIT_INSTANCES}
    assert splits == {"split", "BicliqueWitness"}


def _kind(rec) -> str:
    """What a record or call answered, for the regeneration report."""
    if rec is None:
        return "missing"
    if "result" in rec:
        return _outcome_kind(rec)
    if "success" in rec:  # a main_pipeline record: its certificate or last stage
        return (rec["certificate"]["tag"] if rec["success"]
                else "{name}/{outcome}".format(**rec["stages"][-1]))
    if "full" in rec:  # a minor-layer call pair
        return "diameter {}, full {}".format(*(
            v if v is None else v.get("raised", v.get("tag"))
            for v in (rec["diameter"], rec["full"])))
    return "changed"


def changed_records(old: dict, new: dict) -> list[str]:
    """One line per changed record, or per changed call of the search,
    minor and chromatic records: the old and new outcome kind and nodes."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is not None and b is not None and key.startswith(
                ("search-", "exact-", "minor-", "chromatic-")):
            pairs = [(f"{key} {call}", a.get(call), b.get(call))
                     for call in sorted(a.keys() | b.keys()) if a.get(call) != b.get(call)]
        else:
            pairs = [(key, a, b)]
        for name, x, y in pairs:
            nodes = [r.get("nodes", "-") if r else "-" for r in (x, y)]
            lines.append(f"{name}: {_kind(x)} -> {_kind(y)}, "
                         f"nodes {nodes[0]} -> {nodes[1]}")
    return lines


def test_changed_records_names_each_changed_call(golden):
    key = _minor_key(MINOR_GRAPHS[0])
    changed = json.loads(json.dumps(golden))
    changed[key]["p5"] = {"result": "budget", "best": None, "nodes": 20_001}
    assert changed_records(golden, changed) == [
        f"{key} p5: CliqueMinor -> budget, nodes 0 -> 20001"]


if __name__ == "__main__":
    before = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    after = _fixture()
    print("\n".join(changed_records(before, after)) or "no record changed")
    FIXTURE.write_text(json.dumps(after, indent=None, separators=(",", ":")) + "\n")
