"""Golden certificates on fixed seeds.

Tie-breaking by ascending id is part of the contract, so these tests pin
the exact certificates, not only their values: degeneracy orders, graph6
strings, sstar_low_degree outcomes with their traces, and
sstar_elimination_order results.  A change that alters any of them fails
here even when the new certificate would still verify.

Regenerate the fixture (only when a certificate change is intended) with
`PYTHONPATH=src python tests/test_golden.py`.
"""
import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from chibound.detect import degeneracy
from chibound.generate import gnp
from chibound.io import to_graph6
from chibound.lemmas import sstar_elimination_order, sstar_low_degree

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


def _cert_json(cert) -> dict:
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


def _key(spec) -> str:
    return "{}-n{}-p{:.4f}-s{}".format(*spec)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("spec", GRAPHS, ids=_key)
def test_golden_certificates(golden, spec):
    assert golden_record(*spec[1:]) == golden[_key(spec)]


def test_golden_fixture_covers_every_outcome(golden):
    tags = {rec["elimination"][k]["tag"]
            for rec in golden.values() for k in rec["elimination"]}
    tags |= {rec["sstar"][k]["certificate"]["tag"]
             for rec in golden.values() for k in rec["sstar"]}
    assert tags == {"EliminationOrder", "BicliqueWitness",
                    "SubdividedStarWitness", "LowDegreeVertex"}
    assert set(golden) == {_key(spec) for spec in GRAPHS}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({_key(s): golden_record(*s[1:]) for s in GRAPHS},
                                  indent=None, separators=(",", ":")) + "\n")
