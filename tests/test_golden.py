"""Golden certificates on fixed seeds.

Tie-breaking by ascending id is part of the contract, so these tests pin
the exact certificates, not only their values: degeneracy orders, graph6
strings, sstar_low_degree outcomes with their traces, and
sstar_elimination_order results.  A change that alters any of them fails
here even when the new certificate would still verify.

The budgeted searches are pinned the same way, together with the number of
search nodes each call spends (counted by wrapping SearchBudget.spend) and,
when the budget runs out, the best object carried by BudgetExceeded: the
induced path and cycle searches, the subdivided-star search and the
clique-minor search.  Node counts and budget verdicts depend on the search
order, so a kernel change that keeps the certificates but visits nodes in a
different order fails here too.

Regenerate the fixture (only when a certificate change is intended) with
`PYTHONPATH=src python tests/test_golden.py`.
"""
import dataclasses
import hashlib
import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from chibound.detect import (BudgetExceeded, SearchBudget, degeneracy,
                             find_induced_subdivided_star,
                             find_long_induced_cycle, has_induced_path,
                             longest_induced_cycle, longest_induced_path)
from chibound.generate import generate, gnp
from chibound.io import to_graph6
from chibound.lemmas import sstar_elimination_order, sstar_low_degree
from chibound.minors import CliqueMinor, find_clique_minor

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
#: Node budgets: the small one runs out on most graphs, the large one only
#: in the longest-path and longest-cycle searches on the larger G(n, p).
SEARCH_BUDGETS = (300, 5000)
SEARCHES = {
    "longest_induced_path": longest_induced_path,
    "has_induced_path_6": lambda g, budget: has_induced_path(g, 6, budget),
    "longest_induced_cycle": longest_induced_cycle,
    "find_long_induced_cycle_6": lambda g, budget: find_long_induced_cycle(g, 6, budget),
    "find_induced_subdivided_star_3":
        lambda g, budget: find_induced_subdivided_star(g, 3, budget),
}
#: (n, p, seed, budget) for find_clique_minor with p = 5, 6, 7.  Every graph
#: has a K4 minor.  On G(20, 1/2) the answer mostly comes from the clique or
#: the greedy contraction; on G(10, 1/2) it comes from the exhaustive
#: assignment search, which finds a minor or runs out of budget.
MINOR_GRAPHS = [(20, 0.5, seed, 20_000) for seed in (1, 2, 3)]
MINOR_GRAPHS += [(10, 0.5, seed, 50_000) for seed in (1, 2, 3)]
MINOR_SIZES = (5, 6, 7)


def _cert_json(cert) -> dict:
    if isinstance(cert, CliqueMinor):
        return {"tag": "CliqueMinor", "branch_sets": cert.to_json()}
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


@contextmanager
def _node_count():
    """Count search nodes by wrapping SearchBudget.spend."""
    count = [0]
    original = SearchBudget.spend

    def spend(budget, amount: int = 1) -> None:
        count[0] += amount
        original(budget, amount)

    SearchBudget.spend = spend
    try:
        yield count
    finally:
        SearchBudget.spend = original


def _outcome(search, g, budget: int) -> dict:
    """The certificate (or None), or "budget" with the best object so far,
    plus the nodes spent."""
    with _node_count() as count:
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


def minor_record(n: int, p: float, seed: int, budget: int) -> dict:
    g = gnp(n, p, random.Random(seed))
    rec = {f"p{size}": _outcome(
        lambda h, budget: find_clique_minor(h, size, budget), g, budget)
        for size in MINOR_SIZES}
    return json.loads(json.dumps(rec))


def _key(spec) -> str:
    return "{}-n{}-p{:.4f}-s{}".format(*spec)


def _search_key(spec) -> str:
    family, params, seed = spec
    return "search-{}-{}-s{}".format(
        family, "-".join(f"{k}{v}" for k, v in sorted(params.items())), seed)


def _minor_key(spec) -> str:
    return "minor-n{}-p{:.4f}-s{}-b{}".format(*spec)


def _fixture() -> dict:
    out = {_key(s): golden_record(*s[1:]) for s in GRAPHS}
    out.update({_search_key(s): search_record(*s) for s in SEARCH_GRAPHS})
    out.update({_minor_key(s): minor_record(*s) for s in MINOR_GRAPHS})
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


@pytest.mark.parametrize("spec", MINOR_GRAPHS, ids=_minor_key)
def test_golden_clique_minors(golden, spec):
    assert minor_record(*spec) == golden[_minor_key(spec)]


def _search_outcomes(golden, prefix: str) -> set:
    out = set()
    for key, rec in golden.items():
        if key.startswith(prefix):
            for call, r in rec.items():
                result = r["result"]
                if result == "budget":
                    kind = "budget" if r["best"] is None else "budget+best"
                else:
                    kind = "absent" if result is None else result["tag"]
                out.add((call.split("@")[0], kind))
    return out


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
                           | {_minor_key(s) for s in MINOR_GRAPHS})
    searches = _search_outcomes(golden, "search-")
    for call in SEARCHES:
        kinds = {kind for name, kind in searches if name == call}
        assert "budget" in kinds or "budget+best" in kinds, call
        assert len(kinds) >= 2, call
    minors = {kind for _, kind in _search_outcomes(golden, "minor-")}
    assert minors == {"CliqueMinor", "budget"}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_fixture(), indent=None,
                                  separators=(",", ":")) + "\n")
