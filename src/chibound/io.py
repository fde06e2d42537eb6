"""graph6 and DIMACS edge-format parsing and serialization.

graph6 follows the canonical format description shipped with nauty: N(n)
followed by the upper triangle of the adjacency matrix in column order,
packed into 6-bit groups, each group printed as chr(value + 63).

The body is packed and unpacked in bulk rather than bit by bit: bit
k = j(j-1)/2 + i of the upper triangle (i < j) is bit 5 - k % 6 of byte
k // 6.  Encoding sets one bit per edge in a bytearray, then shifts every
byte by 63 with one `translate`.  Decoding shifts back the same way, checks
the alphabet with one deleting `translate`, and translates the groups into
a mark buffer of 0s and 1s; `find` on that buffer jumps from one non-zero
group to the next, a 64-entry table lists each group's set bits, and the
column j of bit k only moves forward, so it is walked rather than solved
for.  Both directions cost O(n^2 / 6) byte operations in C plus O(n + m) in
Python.
"""
from __future__ import annotations

import re

from .graph import DEFAULT_VERTEX_CAP, Graph

_G6_HEADER = ">>graph6<<"
_G6_INVALID = re.compile("[^?-~]")
_G6_SHIFT_UP = bytes((b + 63) % 256 for b in range(256))
_G6_SHIFT_DOWN = bytes((b - 63) % 256 for b in range(256))
_G6_DIGITS = bytes(range(64))
_G6_MARK = bytes(min(b, 1) for b in range(256))
_G6_BITS = tuple(tuple(b for b in range(6) if v & (32 >> b)) for v in range(64))


def _encode_n(n: int) -> str:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        bits = [(n >> s) & 63 for s in (12, 6, 0)]
        return "~" + "".join(chr(b + 63) for b in bits)
    if n <= 68719476735:
        bits = [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
        return "~~" + "".join(chr(b + 63) for b in bits)
    raise ValueError("vertex count too large for graph6")


def _decode_n(s: str) -> tuple[int, int]:
    """Return (n, characters consumed)."""
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] != "~":
        start, width = 0, 1
    elif len(s) >= 2 and s[1] != "~":
        start, width = 1, 3
    else:
        start, width = 2, 6
    digits = s[start:start + width]
    if len(digits) < width:
        raise ValueError("truncated graph6 vertex count")
    n = 0
    for v in _values(digits):
        n = (n << 6) | v
    return n, start + width


def _values(s: str) -> bytearray:
    """The 6-bit values of graph6 characters, checked against the alphabet."""
    vals = bytearray(s, "ascii", "replace").translate(_G6_SHIFT_DOWN)
    if not s.isascii() or vals.translate(None, _G6_DIGITS):
        bad = _G6_INVALID.search(s)
        raise ValueError(f"invalid graph6 character {bad.group()!r}")
    return vals


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for j in range(1, g.n):
        base = j * (j - 1) // 2
        for i in g.adj(j):
            if i < j:
                k = base + i
                body[k // 6] |= 32 >> k % 6
    return _encode_n(g.n) + body.translate(_G6_SHIFT_UP).decode("ascii")


def from_graph6(s: str) -> Graph:
    """Decode one graph6 string (a leading >>graph6<< header is tolerated).

    Padding bits past the n(n-1)/2 bits of the upper triangle are ignored.
    """
    s = s.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    n, consumed = _decode_n(s)
    body = s[consumed:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} chars, expected {need}")
    vals = _values(body)
    if need:  # clear the padding bits past the n(n-1)/2 of the triangle
        vals[-1] &= 64 - (1 << (6 * need - n * (n - 1) // 2))
    if n > DEFAULT_VERTEX_CAP:
        raise ValueError(f"vertex count {n} exceeds cap {DEFAULT_VERTEX_CAP}")
    # With the padding cleared, every set bit is one pair i < j < n, met
    # once, so the neighbor sets are built here without from_edges' checks.
    marks = vals.translate(_G6_MARK)
    sets: list[set[int]] = [set() for _ in range(n)]
    j = end = 1  # column j holds bits end - j .. end - 1
    at = marks.find(1)
    while at >= 0:
        for b in _G6_BITS[vals[at]]:
            k = 6 * at + b
            while k >= end:
                j += 1
                end += j
            i = k - end + j
            sets[i].add(j)
            sets[j].add(i)
        at = marks.find(1, at + 1)
    return Graph(n, tuple(map(frozenset, sets)))


def to_dimacs(g: Graph) -> str:
    """DIMACS edge format: 'p edge n m' then 1-indexed 'e u v' lines."""
    out = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def from_dimacs(text: str) -> Graph:
    n = None
    m_declared = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        tokens = raw.split()    # split() and strip() share one whitespace set
        if len(tokens) == 3 and tokens[0] == "e" and n is not None:
            edges.append((int(tokens[1]) - 1, int(tokens[2]) - 1))
            continue
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1].lower() != "edge":
                raise ValueError(f"bad problem line: {line!r}")
            if n is not None:
                raise ValueError(f"second problem line: {line!r}")
            n = int(tokens[2])
            m_declared = int(tokens[3])
        elif tokens[0] == "e":
            if n is None:
                raise ValueError("edge line before problem line")
            raise ValueError(f"bad edge line: {line!r}")
        else:
            raise ValueError(f"unknown DIMACS line: {line!r}")
    if n is None:
        raise ValueError("missing problem line")
    if m_declared is not None and m_declared != len(edges):
        raise ValueError(f"declared {m_declared} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)
