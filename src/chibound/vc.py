"""Set systems, exact VC dimension, and the neighborhood-trace machinery.

The traces of Y on X are one map {y: N(y) & X} in ascending y (_trace_map,
the one check that X and Y are disjoint); the bucket splits read it, and
only neighborhood_system and the shattered-set search make a SetSystem.
Step 4 checks the bound |Y| < ell * |X|^(t/2) with cor_traces_check, the
one trace lemma.  When the bound fails, a bucket of ell same-trace vertices
with a common trace of ell gives a biclique; failing that, too many
distinct traces force a shattered set of t/2 vertices, which assembles
into an induced cycle of t vertices (at t = 4, when the shattered pair has
one witness, through a pair of X that two traces share).  The certificate
leaves as certificates.CounterWitness.  The paper states the lemma for a
q-colorable X and takes the shattered set's largest color class; step 4's
X is the independent core, so q = 1, the lemma checks that X is
independent, and the whole shattered set is the class.

Step 6 separates path families with split_by_trace: the largest trace
bucket and the part of X outside its trace, or the biclique when both reach
ell.  The paper counts traces there at q = 2t - 1, an exponent (2t - 1)t/2
of at least 14 for t >= 4: buckets that all stay below ell while the count
applies need more than 10^27 vertices, so the split builds no counting exit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .certificates import (BicliqueWitness, CounterWitness, InducedCycle,
                           InternalInconsistency, certified, require)
from .detect import Budget, SearchBudget
from .graph import Graph, VertexSet, is_independent

DEFAULT_UNIVERSE_CAP = 20
Buckets = tuple[frozenset[int], frozenset[int], dict[frozenset[int], frozenset[int]]]
Traces = dict[int, frozenset[int]]


@dataclass(frozen=True)
class SetSystem:
    """Universe elements plus a family of subsets."""

    universe: tuple[int, ...]
    members: tuple[frozenset[int], ...]

    def __post_init__(self):
        uni = set(self.universe)
        if len(uni) != len(self.universe):
            raise ValueError("universe has repeated elements")
        # One C-level pass: an element outside the universe enlarges the union.
        if len(uni.union(*self.members)) != len(uni):
            raise ValueError("member not contained in universe")


def _trace_map(g: Graph, x_set: frozenset[int], y_set: VertexSet) -> Traces:
    """{y: N(y) & X} in ascending y; X and Y must be disjoint."""
    if x_set & frozenset(y_set):
        raise ValueError("X and Y must be disjoint")
    return {y: g.neighbors_in(y, x_set) for y in sorted(y_set)}


def neighborhood_system(g: Graph, x_set: VertexSet, y_set: VertexSet) -> SetSystem:
    """The traces of Y on the sorted X, one member per y in ascending y,
    duplicates retained."""
    x_set = frozenset(x_set)
    return SetSystem(tuple(sorted(x_set)), tuple(_trace_map(g, x_set, y_set).values()))


def _is_shattered(members_masks: list[int], z_mask: int, z_size: int) -> bool:
    need = 1 << z_size
    seen: set[int] = set()
    for m in members_masks:
        seen.add(m & z_mask)
        if len(seen) == need:
            return True
    return False


def _shattered_levels(system: SetSystem, bud: SearchBudget
                      ) -> Iterator[list[tuple[int, ...]]]:
    """The shattered index tuples of the universe, level k holding those of
    k elements, each level in lexicographic order.

    Shattered sets are closed downward, so level k + 1 is grown from the
    sets of level k and the search never tests a superset of an unshattered
    set; one node is spent per set tested.  Every tested set is a shattered
    set plus one element, so at most n * S sets are tested, S the number of
    shattered sets, each test scanning the distinct members once.  A family
    shatters at least as many sets as it has distinct members (Pajor, 1985,
    the lemma behind the Sauer-Shelah bound), so the search is polynomial
    in S, its output.  A level is computed only when the caller asks for
    it; an empty family yields none.
    """
    if not system.members:
        return
    index = {x: i for i, x in enumerate(system.universe)}
    # Shattering depends only on the distinct members: one mask for each,
    # in order of first appearance.
    masks = [sum(1 << index[x] for x in m) for m in dict.fromkeys(system.members)]
    n = len(system.universe)
    level: list[tuple[int, ...]] = [()]
    while level:
        yield level
        k = len(level[0]) + 1
        nxt: list[tuple[int, ...]] = []
        for base in level:
            base_mask = sum(1 << i for i in base)
            for x in range(base[-1] + 1 if base else 0, n):
                bud.spend()
                if _is_shattered(masks, base_mask | 1 << x, k):
                    nxt.append(base + (x,))
        level = nxt


def vc_dimension(system: SetSystem) -> int:
    """Exact VC dimension: the size of the last level of _shattered_levels,
    -1 for an empty family (not even the empty set is shattered).

    A family of all 2^n subsets shatters the universe itself and answers n
    without a search.  Otherwise it spends nodes of an unlimited budget, so
    it never raises BudgetExceeded; by Pajor's lemma (1985) its cost is
    polynomial in the number of shattered sets (see _shattered_levels).
    """
    n = len(system.universe)
    if n > DEFAULT_UNIVERSE_CAP:
        raise ValueError(f"universe size {n} exceeds cap {DEFAULT_UNIVERSE_CAP}")
    if len(set(system.members)) == 1 << n:
        return n
    return sum(1 for _ in _shattered_levels(system, SearchBudget(math.inf))) - 1


def find_shattered_set(system: SetSystem, size: int,
                       budget: Budget = None) -> Optional[tuple[int, ...]]:
    """The lexicographically first shattered subset of the universe (by
    index) with exactly `size` elements, or None.

    Runs _shattered_levels up to level `size` and spends no node beyond it.
    """
    for level in _shattered_levels(system, SearchBudget.of(budget)):
        if len(level[0]) == size:
            return tuple(system.universe[i] for i in level[0])
    return None


def trace_buckets(g: Graph, x_set: VertexSet, y_set: VertexSet) -> Buckets:
    """Partition Y by trace on X: (largest bucket, its common trace, all
    buckets keyed by trace), ties going to the lexicographically smallest
    trace; an empty Y gives two empty sets and no bucket."""
    return _buckets(_trace_map(g, frozenset(x_set), y_set))


def _buckets(traces: Traces) -> Buckets:
    buckets: dict[frozenset[int], set[int]] = {}
    for y, trace in traces.items():
        buckets.setdefault(trace, set()).add(y)
    if not buckets:
        return frozenset(), frozenset(), {}
    best_trace = min(buckets, key=lambda tr: (-len(buckets[tr]), sorted(tr)))
    frozen = {tr: frozenset(b) for tr, b in buckets.items()}
    return frozen[best_trace], best_trace, frozen


def _shared_pair(traces: Traces) -> tuple[tuple[int, int], list[int]]:
    """The first pair of X that two traces hold, and the two y's, in
    ascending y."""
    first: dict[tuple[int, int], int] = {}
    for y, trace in traces.items():
        for pair in combinations(sorted(trace), 2):
            if first.setdefault(pair, y) != y:
                return pair, [first[pair], y]
    raise InternalInconsistency("more traces than pairs, but no pair shared")


def _cycle_from_shattered(g: Graph, zs: tuple[int, ...], traces: Traces,
                          t: int) -> InducedCycle:
    """The cycle z_0 y_0 z_1 y_1 ... through the t/2 shattered vertices zs,
    y_i the least y whose trace meets zs in {z_i, z_(i+1)} (indices mod
    t/2).  At t = 4 that one pair needs two witnesses; failing them,
    _shared_pair gives the C4, as every trace holds a pair of X and
    |Y| > C(|X|, 2).  cor_traces_check's X and Y are independent, so the
    cycle is induced; certified proves it.
    """
    m = t // 2
    chosen = frozenset(zs)
    if m == 2:
        picked = [y for y, trace in traces.items() if chosen <= trace][:2]
        if len(picked) < 2:
            zs, picked = _shared_pair(traces)
    else:
        picked = [next(y for y, trace in traces.items()
                       if trace & chosen == {zs[i], zs[(i + 1) % m]})
                  for i in range(m)]
    cycle = tuple(v for pair in zip(zs, picked) for v in pair)
    return certified(g, InducedCycle(cycle), t=t)


def _biclique_exit(g: Graph, bucket: frozenset[int], trace: frozenset[int],
                   ell: int) -> None:
    """Raise CounterWitness with a K_{ell,ell} when a trace bucket and its
    common trace both reach ell."""
    if len(bucket) >= ell and len(trace) >= ell:
        raise CounterWitness(certified(
            g, BicliqueWitness(tuple(sorted(bucket))[:ell], tuple(sorted(trace))[:ell]),
            ell=ell))


def cor_traces_check(g: Graph, x_set: VertexSet, y_set: VertexSet,
                     ell: int, t: int, budget: Budget = None) -> None:
    """Verify |Y| < ell * |X|^(t/2) for an independent X; on failure raise
    CounterWitness with a biclique from a bucket of ell same-trace vertices,
    failing that with an induced t-cycle through a shattered set of t/2
    vertices of X.

    The hypotheses (t even and at least 4, X and Y disjoint and independent,
    |X| >= t/2, every y with ell or more neighbors in X) are checked first,
    and a violated one raises ValueError.  The shattered-set search spends
    `budget` and raises BudgetExceeded when it runs out.
    """
    x_set, y_set = frozenset(x_set), frozenset(y_set)
    exponent = t // 2
    failures = []
    if t % 2 or t < 4:
        failures.append("t must be even and at least 4")
    if x_set & y_set:
        failures.append("X and Y overlap")
    if len(x_set) < exponent:
        failures.append(f"|X| = {len(x_set)} below t/2 = {exponent}")
    if not is_independent(g, x_set):
        failures.append("X is not independent")
    if not is_independent(g, y_set):
        failures.append("Y is not independent")
    lazy = [y for y in sorted(y_set) if g.degree_in(y, x_set) < ell]
    if lazy:
        failures.append(f"vertices {lazy[:5]} have fewer than ell = {ell} "
                        "neighbors in X")
    if failures:
        raise ValueError("hypotheses violated: " + "; ".join(failures))
    if len(y_set) < ell * len(x_set) ** exponent:
        return
    traces = _trace_map(g, x_set, y_set)
    bucket, trace, _ = _buckets(traces)
    # every y has >= ell neighbors in X, so a bucket of ell has a trace of
    # ell and exits here
    _biclique_exit(g, bucket, trace, ell)
    system = SetSystem(tuple(sorted(x_set)), tuple(traces.values()))
    shattered = find_shattered_set(system, exponent, budget)
    require(shattered is not None, "counting promised a shattered set; none found")
    raise CounterWitness(_cycle_from_shattered(g, shattered, traces, t))


def split_by_trace(g: Graph, x_set: VertexSet, y_set: VertexSet,
                   ell: int) -> tuple[frozenset[int], frozenset[int]]:
    """Split off the largest trace bucket Y' of Y and the part X' of X
    outside its trace, or raise CounterWitness with the biclique when the
    bucket and its trace both reach ell.

    X' and Y' have no edges between them, unconditionally: every vertex of
    Y' sees exactly the trace in X.
    """
    bucket, trace, _ = trace_buckets(g, x_set, y_set)
    _biclique_exit(g, bucket, trace, ell)
    return frozenset(x_set) - trace, bucket
