"""generate.gnp draws its coin flips in bulk; it must give the graph, and
leave the generator in the state, that one rng.random() call per pair
gives."""
import math
import random

import pytest

import chibound.generate as gen
from chibound.generate import generate, gnp
from oracles import reference_gnp

#: Edge cases of the threshold p * 2**53 besides the usual densities: below
#: zero, NaN and above one, one draw value either side of it, and 0.5, whose
#: bound sits on a byte boundary of the draws.
PROBABILITIES = (0, 1e-9, 0.02, 0.3, 0.5, 0.999, 1, 1.5, -1, math.nan,
                 math.inf, 2.0 ** -53, 1 - 2.0 ** -53, 0.5 + 2.0 ** -53)


def _check(n: int, p: float, seed: int) -> None:
    bulk, single = random.Random(seed), random.Random(seed)
    assert gnp(n, p, bulk) == reference_gnp(n, p, single), (n, p, seed)
    assert bulk.random() == single.random(), (n, p, seed)


@pytest.mark.parametrize("p", PROBABILITIES)
def test_gnp_matches_one_draw_per_pair(p):
    for seed in range(10):
        for n in range(61):
            _check(n, p, seed)


def test_gnp_matches_one_draw_per_pair_past_one_chunk():
    # 257 * 256 / 2 = 32896 pairs, more than one chunk of 2**15 pairs
    assert gen._CHUNK < 257 * 256 // 2
    for n in (257, 300):
        for p in (0.5, 0.02, 6 / (n - 1), 1 - 2.0 ** -53, 0, math.nan):
            _check(n, p, n)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_gnp_rows_may_straddle_chunks(monkeypatch, chunk):
    # small chunks cut rows anywhere and mix compress- and find-listed chunks
    # in one graph
    monkeypatch.setattr(gen, "_CHUNK", chunk)
    for seed in range(3):
        for n in (2, 3, 9, 16, 30):
            for p in (0.02, 0.1, 0.3, 0.5, 1):
                _check(n, p, seed)


class Words:
    """A stand-in for random.Random over a fixed list of 32-bit words, drawn
    the way CPython draws them: random() from the next two words,
    getrandbits(32 * k) from the next k, the first one least significant."""

    def __init__(self, words):
        self.words, self.at = list(words), 0

    def _next(self) -> int:
        self.at += 1
        return self.words[self.at - 1]

    def random(self) -> float:
        a, b = self._next() >> 5, self._next() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k: int) -> int:
        assert k % 32 == 0
        return sum(self._next() << (32 * i) for i in range(k // 32))


def test_words_draw_like_random():
    rng = random.Random(3)
    words = Words(rng.getrandbits(32) for _ in range(4000))
    rng = random.Random(3)
    assert [words.random() for _ in range(1000)] == [rng.random() for _ in range(1000)]
    assert words.getrandbits(64 * 500) == rng.getrandbits(64 * 500)


@pytest.mark.parametrize("p", [0.5, 0.3, 0.999, 1e-9, 6 / 3999,
                               2.0 ** -53, 1 - 2.0 ** -53])
def test_gnp_compares_each_draw_exactly(p):
    # draws on both sides of the bound c = ceil(p * 2**53) and of the top
    # byte it shares with c, with the bits random() drops set at random
    top = (1 << 53) - 1
    c = math.ceil(p * 2 ** 53)
    edge = (c >> 45) << 45
    draws = [0, 1, c - 2, c - 1, c, c + 1, edge - 1, edge, edge + (1 << 45) - 1,
             edge + (1 << 45), top - 1, top]
    rng = random.Random(c)
    n = 20
    draws += [rng.getrandbits(53) for _ in range(n * (n - 1) // 2 - len(draws))]
    words = []
    for d in (min(max(d, 0), top) for d in draws):
        words += [(d >> 26) << 5 | rng.getrandbits(5),
                  (d & (1 << 26) - 1) << 6 | rng.getrandbits(6)]
    bulk, single = Words(words), Words(words)
    assert gnp(n, p, bulk) == reference_gnp(n, p, single)
    assert bulk.at == single.at == len(words)


def test_gnp_family_stream_continues():
    rng = random.Random(7)
    expected = [reference_gnp(30, 0.3, rng) for _ in range(3)]
    assert list(generate("gnp", {"n": 30, "p": 0.3}, seed=7, count=3)) == expected


def test_gnp_rejects_a_negative_vertex_count_before_drawing():
    # n(n-1)/2 is positive for n < 0 too, but the per-pair loop draws nothing
    rng = random.Random(0)
    with pytest.raises(ValueError, match="non-negative"):
        gnp(-3, 0.0, rng)
    assert rng.random() == random.Random(0).random()
