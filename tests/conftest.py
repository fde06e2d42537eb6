import random
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from chibound.graph import Graph
from oracles import reference_gnp


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return reference_gnp(n, p, rng)


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    """Labelled graphs of 0..max_n vertices, every edge drawn on its own."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])


def distinct_traces(size_x: int, size_y: int
                    ) -> tuple[Graph, frozenset[int], frozenset[int]]:
    """(graph, X, Y): a trace-lemma input whose traces are all distinct.
    X = 0..size_x-1 is edgeless, and vertex size_x + i of Y is adjacent to
    the i-th subset of X of at least 2 vertices, by size, then
    lexicographically."""
    traces = (c for r in range(2, size_x + 1) for c in combinations(range(size_x), r))
    edges = [(size_x + i, z) for i, tr in zip(range(size_y), traces) for z in tr]
    return (Graph.from_edges(size_x + size_y, edges), frozenset(range(size_x)),
            frozenset(range(size_x, size_x + size_y)))


@pytest.fixture
def rng():
    return random.Random(20250810)
