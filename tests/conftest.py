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


@pytest.fixture
def rng():
    return random.Random(20250810)
