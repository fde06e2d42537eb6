"""Set systems, exact VC dimension, and the neighborhood-trace machinery.

Whenever a trace bound fails, the failure is converted into a concrete
certificate by one decision that both trace lemmas share (_overload): a large
bucket with a large common trace gives a biclique, and too many distinct
traces force a shattered set, which assembles into an induced cycle of t
vertices.  The decision raises that certificate as
certificates.CounterWitness, the one way out the lemma layer has for it:
cor_traces_check returns nothing and cor_traces3_split only its split.
Both lemmas take the caller's coloring of G[X]: it certifies that G[X] is
q-colorable and picks the shattered set's color class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .certificates import (BicliqueWitness, CounterWitness, InducedCycle,
                           InternalInconsistency, certified, require)
from .detect import Budget, SearchBudget
from .graph import Graph, VertexSet, is_independent

DEFAULT_UNIVERSE_CAP = 20
Buckets = tuple[frozenset[int], frozenset[int], dict[frozenset[int], frozenset[int]]]


@dataclass(frozen=True)
class SetSystem:
    """Universe elements plus a family of subsets; tags name each member's origin."""

    universe: tuple[int, ...]
    members: tuple[frozenset[int], ...]
    tags: tuple[int, ...] = ()

    def __post_init__(self):
        uni = set(self.universe)
        if len(uni) != len(self.universe):
            raise ValueError("universe has repeated elements")
        # One C-level pass: an element outside the universe enlarges the union.
        if len(uni.union(*self.members)) != len(uni):
            raise ValueError("member not contained in universe")
        if self.tags and len(self.tags) != len(self.members):
            raise ValueError("tags must parallel members")


def neighborhood_system(g: Graph, x_set: VertexSet, y_set: VertexSet) -> SetSystem:
    """The traces of Y-vertices on X: one member per y, tagged by y.

    Duplicate traces are retained so multiplicities map back to Y.
    """
    x_set, y_set = frozenset(x_set), frozenset(y_set)
    if x_set & y_set:
        raise ValueError("X and Y must be disjoint")
    universe = tuple(sorted(x_set))
    ys = tuple(sorted(y_set))
    members = tuple(g.neighbors_in(y, x_set) for y in ys)
    return SetSystem(universe, members, ys)


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


def sauer_shelah_bound(n: int, k: int) -> int:
    """Sum of binomial(n, i) for i = 0..k, as an exact integer."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(math.comb(n, i) for i in range(k + 1))


def trace_buckets(g: Graph, x_set: VertexSet, y_set: VertexSet) -> Buckets:
    """Partition Y by trace on X (the members of neighborhood_system):
    (largest bucket, its common trace, all buckets keyed by trace), ties
    going to the lexicographically smallest trace."""
    return _buckets(neighborhood_system(g, x_set, y_set))


def _buckets(system: SetSystem) -> Buckets:
    buckets: dict[frozenset[int], set[int]] = {}
    for trace, y in zip(system.members, system.tags):
        buckets.setdefault(trace, set()).add(y)
    if not buckets:
        return frozenset(), frozenset(), {}
    best_trace = min(buckets, key=lambda tr: (-len(buckets[tr]), sorted(tr)))
    frozen = {tr: frozenset(b) for tr, b in buckets.items()}
    return frozen[best_trace], best_trace, frozen


def cycle_from_shattered(g: Graph, z_set: VertexSet, system: SetSystem,
                         t: int) -> InducedCycle:
    """Assemble an induced t-cycle from an independent shattered set.

    Uses the first t/2 elements of z_set; for each consecutive pair the
    least tag not yet taken whose trace meets the chosen set in exactly
    that pair supplies the in-between vertex (two pairs share their tags
    only when t = 4).  The lemmas pass an independent Y as the tags, so the
    picks are independent; picks that are not raise ValueError.
    """
    if t % 2 or t < 4:
        raise ValueError("t must be even and at least 4")
    z_sorted = sorted(z_set)
    m = t // 2
    if len(z_sorted) < m:
        raise ValueError(f"need at least t/2 = {m} shattered vertices")
    if not is_independent(g, z_set):
        raise ValueError("z_set must be independent")
    if not system.tags:
        raise ValueError("set system must carry tags")
    zs = z_sorted[:m]
    chosen_set = frozenset(zs)
    picked: list[int] = []
    for i in range(m):
        pattern = frozenset({zs[i], zs[(i + 1) % m]})
        pool = [tag for member, tag in zip(system.members, system.tags)
                if member & chosen_set == pattern and tag not in picked]
        if not pool:
            raise ValueError(f"no witness left for pair {sorted(pattern)}")
        picked.append(min(pool))
    if not is_independent(g, picked):
        raise ValueError("witnesses conflict; cannot assemble an induced cycle")
    cycle: list[int] = []
    for i in range(m):
        cycle.append(zs[i])
        cycle.append(picked[i])
    return certified(g, InducedCycle(tuple(cycle)), t=t)


def _check_coloring(g: Graph, x_set: frozenset[int], q: int,
                    coloring: dict[int, int]) -> Optional[str]:
    """None if the coloring certifies G[X] q-colorable, else a failure
    description."""
    for v in x_set:
        if v not in coloring:
            return f"coloring misses vertex {v}"
    used = len({coloring[v] for v in x_set})
    if used > q:
        return f"coloring uses {used} > q = {q} colors"
    for v in x_set:
        for w in g.adj(v):
            if w in x_set and w > v and coloring[v] == coloring[w]:
                return f"coloring repeats on edge ({v},{w})"
    return None


def _trace_exponent(q: int, t: int) -> int:
    if (q * t) % 2:
        raise ValueError("q*t must be even")
    return (q * t) // 2


def _trace_hypotheses(g: Graph, x_set: frozenset[int], y_set: frozenset[int],
                      q: int, t: int, coloring: dict[int, int]) -> list[str]:
    """The failed hypotheses that both trace lemmas share."""
    failures = []
    if x_set & y_set:
        failures.append("X and Y overlap")
    if len(x_set) < _trace_exponent(q, t):
        failures.append(f"|X| = {len(x_set)} below q*t/2 = {_trace_exponent(q, t)}")
    msg = _check_coloring(g, x_set, q, coloring)
    if msg:
        failures.append(msg)
    if not is_independent(g, y_set):
        failures.append("Y is not independent")
    return failures


def _overload(g: Graph, x_set: frozenset[int], y_set: frozenset[int],
              ell: int, q: int, t: int, coloring: Optional[dict[int, int]],
              budget: Budget = None) -> tuple[frozenset[int], frozenset[int]]:
    """The largest trace bucket of Y and its trace, unless an overload
    yields a certificate, which is raised as CounterWitness: a biclique when
    bucket and trace both reach ell; else, when the counting applies and
    the bucket stays below ell, an induced t-cycle through a shattered set
    of size qt/2, whose largest color class is independent.  The caller
    passes the checked coloring of G[X] when the counting applies and None
    when it does not; the shattered-set search spends the caller's budget."""
    system = neighborhood_system(g, x_set, y_set)
    bucket, trace, _ = _buckets(system)
    if len(bucket) >= ell and len(trace) >= ell:
        raise CounterWitness(certified(
            g, BicliqueWitness(tuple(sorted(bucket))[:ell], tuple(sorted(trace))[:ell]),
            ell=ell))
    if coloring is None or len(bucket) >= ell:
        return bucket, trace
    shattered = find_shattered_set(system, _trace_exponent(q, t), budget)
    require(shattered is not None, "counting promised a shattered set; none found")
    by_color: dict[int, list[int]] = {}
    for z in shattered:
        by_color.setdefault(coloring[z], []).append(z)
    best = max(by_color.values(), key=lambda c: (len(c), [-z for z in c]))
    require(len(best) >= t // 2, "pigeonhole on color classes failed")
    raise CounterWitness(cycle_from_shattered(g, frozenset(best), system, t))


def cor_traces_check(g: Graph, x_set: VertexSet, y_set: VertexSet,
                     ell: int, q: int, t: int, coloring: dict[int, int],
                     budget: Budget = None) -> None:
    """Verify |Y| < ell * |X|^(qt/2); on failure raise CounterWitness with
    the certificate of _overload: a biclique from a bucket of ell same-trace
    vertices, failing that an induced t-cycle through a shattered set.

    `coloring` is the caller's certificate that G[X] is q-colorable; it is
    checked with the other hypotheses, and a violated one raises ValueError.
    The shattered-set search spends `budget` and raises BudgetExceeded when
    it runs out.
    """
    x_set, y_set = frozenset(x_set), frozenset(y_set)
    failures = _trace_hypotheses(g, x_set, y_set, q, t, coloring)
    lazy = [y for y in sorted(y_set) if g.degree_in(y, x_set) < ell]
    if lazy:
        failures.append(f"vertices {lazy[:5]} have fewer than ell = {ell} "
                        "neighbors in X")
    if failures:
        raise ValueError("hypotheses violated: " + "; ".join(failures))
    if len(y_set) < ell * len(x_set) ** _trace_exponent(q, t):
        return
    # every y has >= ell neighbors in X, so a bucket of ell has a trace of
    # ell, and _overload raises its certificate
    _overload(g, x_set, y_set, ell, q, t, coloring, budget)
    raise InternalInconsistency("the trace bound failed without a certificate")


def cor_traces3_split(g: Graph, x_set: VertexSet, y_set: VertexSet,
                      ell: int, q: int, t: int, coloring: dict[int, int],
                      budget: Budget = None) -> tuple[frozenset[int], frozenset[int]]:
    """Split off the largest trace bucket Y' and the trace-free part X' of X.

    X' and Y' have no edges between them, unconditionally.  Under the
    stated hypotheses |X'| > |X| - ell and |Y'| >= |Y| / |X|^(qt/2); a
    bucket and trace both of size >= ell instead raise CounterWitness with
    the biclique (or, when the hypotheses hold and the bucket stays small
    against the counting, with an induced t-cycle).  `coloring` is the
    caller's certificate that G[X] is q-colorable.  Inputs that miss the
    hypotheses, this certificate among them, are split all the same.  The
    shattered-set search spends `budget`, as in cor_traces_check.  Step 6
    calls this with q = 2t - 1, where the exponent (2t - 1)t/2 is at least
    14 for t >= 4: small buckets under the counting then need more than
    10^27 vertices, so at any runnable size the counting route never
    applies and the lemma is the split plus its biclique exit.
    """
    x_set, y_set = frozenset(x_set), frozenset(y_set)
    failures = _trace_hypotheses(g, x_set, y_set, q, t, coloring)
    if not y_set:
        return x_set, frozenset()
    counted = not failures and len(y_set) >= ell * len(x_set) ** _trace_exponent(q, t)
    bucket, trace = _overload(g, x_set, y_set, ell, q, t,
                              coloring if counted else None, budget)
    x_prime = x_set - trace
    require(all(not (g.adj(y) & x_prime) for y in bucket), "split left an X'-Y' edge")
    return x_prime, bucket
