import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings

from chibound.graph import Graph, complete_graph, cycle_graph, path_graph
from chibound.io import from_dimacs, from_graph6, to_dimacs, to_graph6
from conftest import graphs, random_graph


def _nx_to_graph(h) -> Graph:
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def test_graph6_roundtrip(rng):
    for _ in range(300):
        n = rng.randint(0, 15)
        g = random_graph(rng, n, rng.random())
        assert from_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("n", [0, 1, 62, 63, 200, 211])
def test_graph6_decodes_the_graph_of_from_edges(n):
    # from_graph6 builds the neighbor sets without from_edges; 62 and 63
    # bracket the one-character vertex count.
    shapes = [[], [(i, j) for i in range(n) for j in range(i + 1, n)]]
    for seed in (1, 2, 3):
        shapes.append(random_graph(random.Random(seed), n, 6 / max(n - 1, 1)).edges())
    for edges in shapes:
        g = Graph.from_edges(n, edges)
        h = from_graph6(to_graph6(g))
        assert h == g and h.m == g.m and h.masks() == g.masks()


def test_graph6_matches_networkx(rng):
    # networkx is the external reference for bit-exactness
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        ours = to_graph6(g)
        theirs = nx.to_graph6_bytes(
            nx.from_edgelist(g.edges(), nx.Graph()) if g.m else nx.empty_graph(n),
            header=False).decode().strip()
        if g.m:  # from_edgelist drops isolated vertices; rebuild exactly
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        assert _nx_to_graph(nx.from_graph6_bytes(ours.encode())) == g


def test_graph6_known_strings():
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(path_graph(4)) == "Ch"
    assert from_graph6("DQc") == Graph.from_edges(
        5, list(nx.from_graph6_bytes(b"DQc").edges()))


def test_graph6_long_form():
    g = path_graph(70)
    s = to_graph6(g)
    assert s.startswith("~")
    assert from_graph6(s) == g
    # cross-check against networkx on the >62-vertex form
    h = nx.Graph()
    h.add_nodes_from(range(70))
    h.add_edges_from(g.edges())
    assert s == nx.to_graph6_bytes(h, header=False).decode().strip()


def test_graph6_header_tolerated():
    g = cycle_graph(5)
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("D")  # truncated body


def test_graph6_rejects_characters_outside_the_alphabet():
    # surrounding whitespace is stripped, so a space is tested inside the body
    g6 = to_graph6(cycle_graph(8))
    for bad in (chr(62), chr(127), " ", "\u00e9"):
        for at in (1, 3):
            s = g6[:at] + bad + g6[at + 1:]
            with pytest.raises(ValueError, match="invalid graph6 character"):
                from_graph6(s)


def test_graph6_ignores_padding_bits():
    # n = 2 has one adjacency bit, the top bit of the only body byte
    assert from_graph6("A@") == Graph.from_edges(2, [])
    assert from_graph6("A`") == complete_graph(2)
    assert from_graph6("A~") == complete_graph(2)
    # C5: 10 bits, so the last two bits of the second byte are padding
    s = to_graph6(cycle_graph(5))
    assert from_graph6(s[:-1] + chr(ord(s[-1]) | 3)) == cycle_graph(5)


def test_graph6_bulk_packing_matches_networkx(rng):
    # several bytes per column and the four-character vertex count
    for n in (63, 100, 150, 301):
        for p in (0.0, 0.02, 0.5, 1.0):
            g = random_graph(rng, n, p)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            s = to_graph6(g)
            assert s == nx.to_graph6_bytes(h, header=False).decode().strip()
            assert from_graph6(s) == g


def test_dimacs_roundtrip(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert from_dimacs(to_dimacs(g)) == g


def test_dimacs_format():
    g = Graph.from_edges(3, [(0, 2)])
    text = to_dimacs(g)
    assert text.splitlines()[0] == "p edge 3 1"
    assert "e 1 3" in text
    parsed = from_dimacs("c comment\np edge 3 1\ne 1 3\n")
    assert parsed == g
    with pytest.raises(ValueError):
        from_dimacs("p edge 3 2\ne 1 3\n")
    with pytest.raises(ValueError):
        from_dimacs("e 1 2\n")
    with pytest.raises(ValueError, match="bad edge line: 'e 1'"):
        from_dimacs("p edge 3 1\ne 1\n")  # used to raise IndexError
    with pytest.raises(ValueError, match="second problem line: 'p edge 4 1'"):
        # used to read a 4-vertex graph: the second line reset n
        from_dimacs("p edge 3 1\np edge 4 1\ne 1 4\n")


def test_dimacs_reads_each_kind_of_line_as_before():
    # edge lines are read from one split; every other line is stripped
    # first, and the messages quote the stripped line
    g = Graph.from_edges(3, [(0, 2), (1, 2)])
    text = " \t c indented comment\n\np edge 3 2\n  e 1 3 \nc\ne\t2 3\n"
    assert from_dimacs(text) == g
    with pytest.raises(ValueError, match="^edge line before problem line$"):
        from_dimacs("c comment\n e 1 2\np edge 3 1\n")
    with pytest.raises(ValueError, match="^bad edge line: 'e 1'$"):
        from_dimacs("p edge 3 1\n  e 1  \n")
    with pytest.raises(ValueError, match="^bad edge line: 'e 1 2 3'$"):
        from_dimacs("p edge 3 1\ne 1 2 3\n")
    with pytest.raises(ValueError, match="^unknown DIMACS line: 'x 1 2'$"):
        from_dimacs("p edge 3 1\n x 1 2\n")
    with pytest.raises(ValueError, match="invalid literal"):
        from_dimacs("p edge 3 1\ne 1 b\n")


def test_graph6_rejects_characters_outside_the_alphabet_in_the_header():
    long_form = to_graph6(path_graph(70))
    assert long_form.startswith("~")
    cases = [
        "!",             # used to report a body-length error
        "!" + "?" * 78,  # used to reach Graph.from_edges with n = -30
        chr(127) + "?",
        "~" + long_form[1] + "!" + long_form[3:],
        "~~??!???" + "?",
    ]
    for s in cases:
        with pytest.raises(ValueError, match="invalid graph6 character"):
            from_graph6(s)


def test_graph6_decoder_matches_networkx_on_sparse_graphs(rng):
    # average degree about 6, across the one- to four-character count switch
    for n in (63, 64, 65, 200, 1000):
        g = random_graph(rng, n, 6 / (n - 1))
        s = to_graph6(g)
        ours = from_graph6(s)
        assert ours == g
        assert ours == _nx_to_graph(nx.from_graph6_bytes(s.encode()))


def test_graph6_decodes_the_first_and_the_last_bit():
    for n in (2, 3, 7, 63, 64, 200):
        for edge in ((0, 1), (n - 2, n - 1)):
            g = Graph.from_edges(n, [edge])
            s = to_graph6(g)
            assert from_graph6(s) == g
            assert _nx_to_graph(nx.from_graph6_bytes(s.encode())) == g


def test_graph6_ignores_every_padding_width():
    # n(n-1)/2 mod 6 is 0, 1, 3 or 4, so the padding is 0, 5, 3 or 2 bits
    widths = set()
    for n in range(2, 14):
        pad = -(n * (n - 1) // 2) % 6
        widths.add(pad)
        g = random_graph(random.Random(n), n, 0.5)
        s = to_graph6(g)
        last = chr(((ord(s[-1]) - 63) | ((1 << pad) - 1)) + 63)
        assert (last == s[-1]) == (pad == 0)
        assert from_graph6(s[:-1] + last) == g
    assert widths == {0, 2, 3, 5}


def test_graph6_names_the_character_outside_the_alphabet():
    g6 = to_graph6(path_graph(200))
    last = len(g6) - 1
    for bad in (chr(62), chr(127), " ", "\u00e9"):
        # a space at the very end is stripped like any trailing whitespace
        for at in (len(g6) // 2, last - 1 if bad == " " else last):
            s = g6[:at] + bad + g6[at + 1:]
            message = f"invalid graph6 character {re.escape(repr(bad))}"
            with pytest.raises(ValueError, match=message):
                from_graph6(s)
    with pytest.raises(ValueError, match="graph6 body has 3316 chars"):
        from_graph6(g6[:last] + " ")


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=20))
def test_graph6_round_trip_both_ways(g):
    s = to_graph6(g)
    assert from_graph6(s) == g
    assert to_graph6(from_graph6(s)) == s
