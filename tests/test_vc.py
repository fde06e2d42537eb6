import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chibound.certificates import (BicliqueWitness, CounterWitness,
                                   InducedCycle, InternalInconsistency,
                                   verify_certificate)
from chibound.detect import BudgetExceeded, max_independent_subset
from chibound.graph import Graph, complete_bipartite, cycle_graph, empty_graph
from chibound.vc import (DEFAULT_UNIVERSE_CAP, SetSystem, _cycle_from_shattered,
                         cor_traces_check, find_shattered_set,
                         neighborhood_system, split_by_trace, trace_buckets,
                         vc_dimension)
from conftest import distinct_traces, random_graph
from oracles import (brute_shattered_sets, brute_vc_dimension, node_count,
                     sauer_shelah_bound)


def powerset_system(n: int) -> SetSystem:
    members = []
    for r in range(n + 1):
        members.extend(frozenset(c) for c in combinations(range(n), r))
    return SetSystem(tuple(range(n)), tuple(members))


def shattering_gadget(t: int) -> tuple[Graph, tuple, dict]:
    """z_0..z_{m-1} independent plus one independent y per subset pattern,
    with the traces of the y's on the z's."""
    m = t // 2
    patterns = []
    for r in range(m + 1):
        patterns.extend(combinations(range(m), r))
    n = m + len(patterns)
    edges = []
    for idx, pat in enumerate(patterns):
        y = m + idx
        edges.extend((z, y) for z in pat)
    g = Graph.from_edges(n, edges)
    x = frozenset(range(m))
    return g, tuple(range(m)), {y: g.neighbors_in(y, x) for y in range(m, n)}


def test_neighborhood_system_rows():
    g = Graph.from_edges(5, [(0, 1)])
    s = neighborhood_system(g, frozenset({2, 3}), frozenset({0, 1, 4}))
    assert all(m == frozenset() for m in s.members)

    star = complete_bipartite(1, 4)  # center 0, leaves 1..4
    s = neighborhood_system(star, frozenset({1, 2, 3, 4}), frozenset({0}))
    assert s.members == (frozenset({1, 2, 3, 4}),)

    c6 = cycle_graph(6)
    s = neighborhood_system(c6, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    assert sorted(sorted(m) for m in s.members) == [[0, 2], [0, 4], [2, 4]]
    with pytest.raises(ValueError):
        neighborhood_system(c6, frozenset({0}), frozenset({0, 3}))


def test_set_system_rejects_malformed_systems():
    with pytest.raises(ValueError, match="member not contained in universe"):
        SetSystem((0, 1), (frozenset({0}), frozenset({1, 2})))
    with pytest.raises(ValueError, match="repeated"):
        SetSystem((0, 0), ())
    assert SetSystem((), ()).members == ()
    assert [f.name for f in dataclasses.fields(SetSystem)] == ["universe", "members"]


def test_vc_dimension_examples():
    assert vc_dimension(powerset_system(3)) == 3
    assert vc_dimension(SetSystem((0, 1), (frozenset(),))) == 0
    singles = SetSystem(tuple(range(4)),
                        tuple(frozenset({i}) for i in range(4)) + (frozenset(),))
    assert vc_dimension(singles) == 1
    assert vc_dimension(SetSystem((0, 1), ())) == -1
    with pytest.raises(ValueError):
        # the guard raises before the search
        vc_dimension(SetSystem(tuple(range(DEFAULT_UNIVERSE_CAP + 1)), ()))


def test_sauer_shelah_bound():
    assert sauer_shelah_bound(4, 2) == 11
    assert sauer_shelah_bound(5, 5) == 32
    assert sauer_shelah_bound(5, 0) == 1
    with pytest.raises(ValueError):
        sauer_shelah_bound(3, 4)


def test_sauer_shelah_inequality_random(rng):
    for _ in range(400):
        n = rng.randint(1, 10)
        members = tuple(frozenset(x for x in range(n) if rng.random() < 0.4)
                        for _ in range(rng.randint(1, 24)))
        s = SetSystem(tuple(range(n)), members)
        dim = vc_dimension(s)
        assert len(set(s.members)) <= sauer_shelah_bound(n, dim)


@st.composite
def set_systems(draw) -> SetSystem:
    """Families of 0-24 members on a universe of at most 8 distinct ids in
    any order: random members, or prefixes of one ordering of the universe,
    whose VC dimension of at most 1 lies below floor(log2 distinct members)
    once there are four or more."""
    universe = tuple(draw(st.lists(st.integers(0, 30), max_size=8, unique=True)))
    n = len(universe)
    if draw(st.booleans()):
        masks = draw(st.lists(st.integers(0, 2 ** n - 1), max_size=24))
        members = [frozenset(x for i, x in enumerate(universe) if m >> i & 1)
                   for m in masks]
    else:
        chain = draw(st.permutations(universe))
        sizes = draw(st.lists(st.integers(0, n), max_size=24))
        members = [frozenset(chain[:k]) for k in sizes]
    return SetSystem(universe, tuple(members))


@settings(max_examples=300, deadline=None)
@given(set_systems())
@example(SetSystem(tuple(range(8)), tuple(frozenset(range(k)) for k in range(9))))
def test_vc_dimension_and_shattered_sets_match_brute_force(s):
    dim = vc_dimension(s)
    assert dim == brute_vc_dimension(s)
    shattered = brute_shattered_sets(s)
    for k in range(len(s.universe) + 2):
        first = next((zs for zs in shattered if len(zs) == k), None)
        assert find_shattered_set(s, k) == first


@settings(max_examples=150, deadline=None)
@given(set_systems(), st.data())
def test_repeated_members_change_neither_levels_nor_nodes(s, data):
    # Shattering depends only on the distinct members, so repeating some
    # leaves every answer and every node spent as they are.
    repeats = data.draw(st.lists(st.sampled_from(s.members), max_size=8)
                        if s.members else st.just([]))
    repeated = SetSystem(s.universe, s.members + tuple(repeats))
    distinct = SetSystem(s.universe, tuple(dict.fromkeys(s.members)))

    def answers(system):
        out = []
        for k in range(len(system.universe) + 2):
            with node_count() as spent:
                out.append((find_shattered_set(system, k), spent[0]))
        with node_count() as spent:
            out.append((vc_dimension(system), spent[0]))
        return out

    assert answers(repeated) == answers(distinct) == answers(s)


def test_vc_dimension_of_a_power_set_needs_no_search():
    with node_count() as spent:
        assert vc_dimension(powerset_system(12)) == 12
    assert spent[0] == 0
    # one member short of the power set: the level walk answers n - 1
    s = powerset_system(5)
    assert vc_dimension(SetSystem(s.universe, s.members[:-1])) == 4


def test_find_shattered_set():
    s = powerset_system(3)
    assert find_shattered_set(s, 3) == (0, 1, 2)
    assert find_shattered_set(s, 4) is None


def test_trace_buckets():
    g = empty_graph(6)
    big, trace, buckets = trace_buckets(g, frozenset({0, 1}), frozenset({2, 3, 4}))
    assert big == frozenset({2, 3, 4}) and trace == frozenset()
    assert len(buckets) == 1

    g2 = Graph.from_edges(4, [(0, 2), (1, 3)])
    big, trace, buckets = trace_buckets(g2, frozenset({0, 1}), frozenset({2, 3}))
    assert len(buckets) == 2 and all(len(b) == 1 for b in buckets.values())

    c6 = cycle_graph(6)
    _, _, buckets = trace_buckets(c6, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    assert len(buckets) == 3 and all(len(b) == 1 for b in buckets.values())

    assert trace_buckets(c6, frozenset({0, 2}), frozenset()) == (
        frozenset(), frozenset(), {})


def test_bucket_splits_build_no_set_system(monkeypatch):
    # the splits bucket the trace map; a SetSystem is built by
    # neighborhood_system and before the shattered-set search alone
    built = []
    post_init = SetSystem.__post_init__

    def count(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SetSystem, "__post_init__", count)
    c6 = cycle_graph(6)
    trace_buckets(c6, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    split_by_trace(c6, frozenset({0, 2, 4}), frozenset({1, 3, 5}), ell=2)
    assert built == []
    neighborhood_system(c6, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    assert len(built) == 1
    g, xs, ys = distinct_traces(7, 120)
    with pytest.raises(CounterWitness):
        cor_traces_check(g, xs, ys, ell=2, t=4)
    assert len(built) == 2


def test_trace_buckets_partition(rng):
    for _ in range(100):
        g = random_graph(rng, 9, rng.random())
        xs = frozenset(rng.sample(range(9), 4))
        ys = frozenset(range(9)) - xs
        _, _, buckets = trace_buckets(g, xs, ys)
        union = set()
        for trace, bucket in buckets.items():
            assert all(g.neighbors_in(y, xs) == trace for y in bucket)
            assert not (union & bucket)
            union |= bucket
        assert union == ys


def test_cycle_from_shattered_gadget():
    for t in (6, 10):
        g, zs, traces = shattering_gadget(t)
        cert = _cycle_from_shattered(g, zs, traces, t)
        assert len(cert.vertices) == t
        assert verify_certificate(g, cert)


def test_cycle_from_shattered_takes_one_witness_per_pair():
    # every pair of X = {0, 1, 2} has a witness; the least witness 3 of
    # {0, 1} is adjacent to the only witness 5 of {1, 2}, the other witness
    # 4 of {0, 1} is not tried in its place, and the exit's certified, the
    # cycle's one check, rejects the chord a dependent Y lets through
    g = Graph.from_edges(7, [(3, 0), (3, 1), (4, 0), (4, 1), (5, 1), (5, 2),
                             (6, 2), (6, 0), (3, 5)])
    traces = {y: g.neighbors_in(y, frozenset({0, 1, 2})) for y in (3, 4, 5, 6)}
    with pytest.raises(InternalInconsistency, match=r"\(0, 3, 1, 5, 2, 6\)"):
        _cycle_from_shattered(g, (0, 1, 2), traces, 6)


def test_cor_traces_check_holds_small(rng):
    # X is a maximum independent subset of six drawn vertices and Y the
    # vertices off X with two or more neighbors in X and none among the
    # rest, so every draw with |X| >= t/2 and a nonempty Y meets the
    # hypotheses and is checked
    checked = attempts = 0
    while checked < 40 and attempts < 4000:
        attempts += 1
        g = random_graph(rng, 10, 0.3)
        xs = frozenset(max_independent_subset(g, rng.sample(range(10), 6)).vertices)
        rest = sorted(set(range(10)) - xs)
        ys = frozenset(y for y in rest
                       if g.degree_in(y, xs) >= 2
                       and not (g.adj(y) & set(rest)))
        if not ys or len(xs) < 2:
            continue
        # tiny |Y| never beats the bound: a CounterWitness fails the test
        assert cor_traces_check(g, xs, ys, ell=2, t=4) is None
        checked += 1
    assert checked == 40


def test_cor_traces_check_planted_biclique():
    # bound is ell * |X|^(t/2) = 2 * 27 = 54; plant 60 same-trace vertices
    nY = 60
    edges = []
    for i in range(nY):
        edges += [(3 + i, 0), (3 + i, 1)]
    g = Graph.from_edges(3 + nY, edges)
    xs = frozenset({0, 1, 2})
    ys = frozenset(range(3, 3 + nY))
    with pytest.raises(CounterWitness) as exc:
        cor_traces_check(g, xs, ys, ell=2, t=6)
    witness = exc.value.certificate
    assert isinstance(witness, BicliqueWitness)
    assert verify_certificate(g, witness)


def test_cor_traces_check_empty_y():
    g = empty_graph(4)
    assert cor_traces_check(g, frozenset({0, 1, 2}), frozenset(),
                            ell=2, t=6) is None


def test_cor_traces_check_rejects_bad_hypotheses():
    # |Y| = 2 stays below the bound, so only the checks can raise, and the
    # message names the hypothesis each input breaks (a vertex of X and Y
    # has no neighbor in the independent X, so the overlap breaks two)
    for edges, xs, ys, t, reason in [
            ([(2, 3), (2, 0), (2, 1), (3, 0), (3, 1)], {0, 1}, {2, 3}, 4,
             "Y is not independent"),
            ([(0, 1), (2, 0), (2, 1), (3, 0), (3, 1)], {0, 1}, {2, 3}, 4,
             "X is not independent"),
            ([(2, 0), (2, 1), (3, 0), (3, 1)], {0, 1}, {1, 2, 3}, 4,
             "X and Y overlap"),
            ([(2, 0), (2, 1), (3, 0), (3, 1)], {0, 1}, {2, 3}, 6, "below t/2 = 3"),
            ([(2, 0), (3, 0), (3, 1)], {0, 1}, {2, 3}, 4,
             r"\[2\] have fewer than ell"),
            ([(2, 0), (2, 1), (3, 0), (3, 1)], {0, 1}, {2, 3}, 5, "t must be even"),
            ([(2, 0), (2, 1), (3, 0), (3, 1)], {0, 1}, {2, 3}, 2, "at least 4")]:
        g = Graph.from_edges(4, edges)
        with pytest.raises(ValueError, match=reason):
            cor_traces_check(g, frozenset(xs), frozenset(ys), 2, t)


def test_cor_traces_check_shattering_cycle():
    # all traces distinct: the bound fails with every bucket of size 1 < ell,
    # so the trace count forces a shattered pair and an induced C4 comes out
    t, ell = 4, 2
    # all 2^7 - 7 - 1 = 120 traces of 2 or more of 7 vertices; 120 >= 2 * 7^2
    g, xs, ys = distinct_traces(7, 120)
    assert len(ys) >= ell * len(xs) ** 2
    with pytest.raises(CounterWitness) as exc:
        cor_traces_check(g, xs, ys, ell=ell, t=t)
    witness = exc.value.certificate
    assert isinstance(witness, InducedCycle)
    assert verify_certificate(g, witness)
    assert len(witness.vertices) == t


def test_cor_traces_check_t4_pair_with_one_witness():
    # the first shattered pair {0, 1} lies in one trace only, too few for a
    # C4 through it; |Y| = 128 >= 2 * 8^2 traces of two or more of the 28
    # pairs of X share a pair all the same, and the first shared one, {0, 2}
    # (traces {0, 2} and {0, 2, 3}), gives the cycle
    pairless = [c for r in range(2, 9) for c in combinations(range(8), r)
                if not {0, 1} <= set(c)]
    traces = [(0, 1)] + pairless[:127]
    g = Graph.from_edges(136, [(8 + i, z) for i, tr in enumerate(traces)
                               for z in tr])
    xs, ys = frozenset(range(8)), frozenset(range(8, 136))
    assert find_shattered_set(neighborhood_system(g, xs, ys), 2) == (0, 1)
    with pytest.raises(CounterWitness) as exc:
        cor_traces_check(g, xs, ys, ell=2, t=4)
    assert exc.value.certificate == InducedCycle((0, 9, 2, 36))
    assert verify_certificate(g, exc.value.certificate)


def test_cor_traces_check_shattering_route_at_t6():
    # t = 6 and ell = 2 first let the counting apply at |X| = 12 and
    # |Y| = 2 * 12^3 = 3,456 (at |X| = 11 fewer traces exist than it needs),
    # the least such input on which step 4 searches for a shattered set;
    # the search spends 298 nodes, all from the caller's budget
    t, ell = 6, 2
    g, xs, ys = distinct_traces(12, ell * 12 ** 3)
    with node_count() as nodes, pytest.raises(CounterWitness) as exc:
        cor_traces_check(g, xs, ys, ell=ell, t=t)
    assert nodes[0] == 298
    witness = exc.value.certificate
    assert witness == InducedCycle((0, 12, 1, 23, 2, 13))
    assert verify_certificate(g, witness)
    with pytest.raises(BudgetExceeded):
        cor_traces_check(g, xs, ys, ell=ell, t=t, budget=nodes[0] - 1)


def test_cor_traces3_trivial_splits():
    g = empty_graph(7)
    xp, yp = split_by_trace(g, frozenset({0, 1, 2}), frozenset({3, 4, 5, 6}),
                            ell=1)
    assert xp == frozenset({0, 1, 2}) and yp == frozenset({3, 4, 5, 6})

    # every y adjacent to one fixed x
    edges = [(0, y) for y in range(3, 7)]
    g2 = Graph.from_edges(7, edges)
    xp, yp = split_by_trace(g2, frozenset({0, 1, 2}), frozenset(range(3, 7)),
                            ell=2)
    assert xp == frozenset({1, 2}) and yp == frozenset(range(3, 7))
    assert all(not g2.adj(y) & xp for y in yp)


def test_cor_traces3_splits_a_full_bucket_with_a_small_trace():
    # every subset of X = {0..3} is the trace of two y's: the largest
    # bucket holds ell = 2 vertices (those of the empty trace), whose trace
    # is too small for a biclique
    subsets = [c for r in range(5) for c in combinations(range(4), r)]
    edges = [(4 + 2 * i + k, x) for i, c in enumerate(subsets) for k in (0, 1)
             for x in c]
    g = Graph.from_edges(36, edges)
    xp, yp = split_by_trace(g, frozenset(range(4)), frozenset(range(4, 36)), ell=2)
    assert xp == frozenset(range(4)) and yp == frozenset({4, 5})


def test_cor_traces3_surfaces_biclique():
    nY = 8
    edges = []
    for i in range(nY):
        edges += [(3 + i, 0), (3 + i, 1)]
    g = Graph.from_edges(3 + nY, edges)
    with pytest.raises(CounterWitness) as exc:
        split_by_trace(g, frozenset({0, 1, 2}), frozenset(range(3, 3 + nY)), ell=2)
    assert isinstance(exc.value.certificate, BicliqueWitness)
    assert verify_certificate(g, exc.value.certificate)


def test_cor_traces3_postconditions_random(rng):
    done = 0
    while done < 60:
        g = random_graph(rng, 11, 0.25)
        xs = frozenset(rng.sample(range(11), 4))
        rest = sorted(set(range(11)) - xs)
        ys = frozenset(y for y in rest if not (g.adj(y) & set(rest)))
        if not ys:
            continue
        try:
            xp, yp = split_by_trace(g, xs, ys, ell=2)
        except CounterWitness as w:
            assert verify_certificate(g, w.certificate)
            done += 1
            continue
        assert xp <= xs and yp <= ys
        for y in yp:
            assert not (g.adj(y) & xp)
        done += 1
