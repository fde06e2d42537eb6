import ast
from pathlib import Path

import pytest

import chibound
from chibound.certificates import (BicliqueWitness, EliminationOrder,
                                   InducedCycle, InternalInconsistency,
                                   SubdividedStarWitness, certified, require)
from chibound.graph import complete_bipartite, cycle_graph, path_graph


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check must be an explicit raise
    found = []
    for path in sorted(Path(chibound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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
