"""The long-cycle pipeline: linked path families between an independent
core, the selection of anchors their paths do not interfere with,
partially-anticomplete extraction, family separation, and assembly of an
induced cycle.

The paper picks the t/2 anchors of step 4 at random and proves by counting
that this works once sqrt(M) >= r > s^3; _select_noninterfering searches
for them exactly instead, in ascending id, so it finds anchors whenever
the random choice would, and the same ones on every run.

Steps 3-6 run only on an injected minor that passes the step-2 gate (each
branch set holds a full vertex and has diameter below 2t); a searched
minor ends at step 2 until ROADMAP item 1 lands.  Step 6 selects one path
per family by splitting off trace buckets (vc.split_by_trace); it runs no
search, so it spends nothing from the run's budget.  At t = 4 the two
halves of the anchors' one family give both arcs; one path falls short.

main_pipeline is the one entry point: it checks the parameters and the
injected minor, and each stage after it takes the invariants of the
stages before as given.  Each invariant is checked once, by the stage
that establishes it:
- the minor is valid (step 1: validate_minor on an injected minor, inside
  find_clique_minor on a searched one), so the anchor pool (full vertices
  of the first a_count sets) misses the connector sets (the rest);
- every branch set holds a full vertex within diameter 2t (the step-2
  gate);
- the core is independent, and the connector paths are induced,
  vertex-disjoint, oriented u-side first and touch the core only at
  their ends (_verify_linked, at the end of step 4);
- each extracted family is partially anticomplete (the require of
  _extract_partially_anticomplete, step 5), and so is every subfamily
  that step 6 keeps of it;
- no edge runs between two separated families (the require of
  _separate_families) and the selected paths are pairwise anticomplete
  (the require of _select_pairwise_anticomplete, step 6);
- the assembled cycle is induced and has at least t vertices (certified
  at main_pipeline's exit).

The quantitative guarantees hold only at astronomically large sizes, so
every stage runs best-effort: a stage that falls short of its target size
raises StageShortfall, while structural soundness is unconditional.  Every
certificate leaves through certified, and a certificate or postcondition
that fails its check raises InternalInconsistency.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .certificates import (Certificate, CounterWitness, InducedCycle,
                           InternalInconsistency, certificate_to_json,
                           certified, require)
from .detect import (Budget, BudgetExceeded, SearchBudget, StageShortfall,
                     max_independent_subset)
from .graph import (Graph, OrientedPath, PathFamily, VertexSet,
                    are_anticomplete, is_independent,
                    is_partially_anticomplete, verify_induced_path)
from .minors import (CliqueMinor, eccentric_pair, find_clique_minor,
                     full_vertex_minor, full_vertices, validate_minor)
from .vc import cor_traces_check, split_by_trace


def _select_noninterfering(core: VertexSet,
                           touched: Mapping[tuple[int, int], VertexSet], s: int,
                           budget: Budget = None) -> tuple[int, ...]:
    """The lexicographically first s vertices of `core` that do not interfere.

    touched[(u, v)], for u < v, holds the core vertices other than u and v
    that the (u, v) connector paths touch (a missing pair touches none).  A
    selection does not interfere when no pair of it touches a vertex of it.
    Backtracks over the core, of at least s >= 1 vertices (the
    independent-core stage), in ascending id, one budget node per partial
    selection.  When no s vertices fit, returns the longest partial
    selection reached, which has fewer than s vertices.
    """
    order = sorted(core)
    bud = SearchBudget.of(budget)
    chosen: list[int] = []
    best: tuple[int, ...] = ()

    def fits(x: int) -> bool:
        # the chosen vertices are all below x, so x adds the pairs (a, x)
        return (all(x not in touched.get(pair, frozenset())
                    for pair in combinations(chosen, 2))
                and all(touched.get((a, x), frozenset()).isdisjoint(chosen)
                        for a in chosen))

    def extend(start: int) -> bool:
        nonlocal best
        bud.spend()
        if len(chosen) > len(best):
            best = tuple(chosen)
        if len(chosen) == s:
            return True
        for idx in range(start, len(order) - (s - len(chosen)) + 1):
            if fits(order[idx]):
                chosen.append(order[idx])
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    extend(0)
    return best


@dataclass
class StageReport:
    name: str
    target_size: int
    achieved_size: int
    outcome: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class _LinkedFamilies:
    """Independent core A' plus, per ordered pair (u, v) with u < v, a family
    of induced connector paths oriented u-side first."""

    a_prime: tuple[int, ...]
    families: dict[tuple[int, int], PathFamily]


def _build_linked_families(g: Graph, a_pool: frozenset[int],
                           branch_sets: Sequence[frozenset[int]], t: int,
                           ell: int, stages: list[StageReport],
                           paths_per_pair: int = 1,
                           budget: Budget = None) -> _LinkedFamilies:
    """From a vertex pool fully adjacent to every branch set, produce an
    independent core of at least t/2 vertices and, per pair, vertex-disjoint
    connector paths, then keep t/2 anchors A' of the core
    (_select_noninterfering) whose paths touch the chosen anchors only at
    their designated endpoints.  The pool and the branch sets are disjoint,
    as main_pipeline takes both from one validated minor.

    Each sub-stage that passes appends its report to `stages`.  Raises
    StageShortfall naming the stage when a target size is missed and
    CounterWitness when the heavy screen surfaces a biclique or an induced
    cycle through a shattered set: cor_traces_check with the core as the
    independent X and, as Y, an independent subset of the path vertices
    with ell or more core neighbors.
    """
    bud = SearchBudget.of(budget)
    target_core = t // 2

    bud.stage = ("independent-core", target_core)
    independent_core = max_independent_subset(g, a_pool, bud).vertices
    if len(independent_core) < target_core:
        raise StageShortfall("independent-core", target_core, len(independent_core))
    stages.append(StageReport("independent-core", target_core,
                              len(independent_core), "ok"))

    pairs = list(combinations(sorted(independent_core), 2))
    groups: dict[tuple[int, int], list[frozenset[int]]] = {p: [] for p in pairs}
    for idx, b in enumerate(branch_sets):
        groups[pairs[idx % len(pairs)]].append(b)
    empty = [p for p in pairs if not groups[p]]
    if empty:
        raise StageShortfall("groups", len(pairs), len(pairs) - len(empty))
    stages.append(StageReport("groups", len(pairs), len(pairs), "ok"))

    core_set = frozenset(independent_core)
    families: dict[tuple[int, int], PathFamily] = {}
    for (u, v) in pairs:
        raw: list[OrientedPath] = []
        for branch in groups[(u, v)]:
            # a shortest u-v path through the branch set, trimmed to its inside
            path = g.shortest_path(u, v, branch | {u, v})
            if path is not None and 2 < len(path) < 2 * t + 2:
                raw.append(OrientedPath(tuple(path[1:-1])))
        heavy = frozenset(w for p in raw for w in p.vertices
                          if g.degree_in(w, core_set) >= ell)
        bud.stage = (f"paths[{u},{v}]", paths_per_pair)
        if heavy:
            screen = max_independent_subset(g, heavy, bud).vertices
            cor_traces_check(g, core_set, frozenset(screen), ell, t, budget=bud)
        clean = [p for p in raw if not (p.vertex_set() & heavy)]
        if len(clean) < paths_per_pair:
            raise StageShortfall(f"paths[{u},{v}]", paths_per_pair, len(clean))
        stages.append(StageReport(f"paths[{u},{v}]", paths_per_pair,
                                  len(clean), "ok"))
        families[(u, v)] = tuple(clean[:paths_per_pair])

    touched: dict[tuple[int, int], frozenset[int]] = {}
    for (u, v), paths in families.items():
        span = frozenset(w for p in paths for w in p.vertices)
        touched[(u, v)] = frozenset(x for x in core_set - {u, v} if g.adj(x) & span)
    bud.stage = ("interference", target_core)
    a_prime = _select_noninterfering(core_set, touched, target_core, bud)
    if len(a_prime) < target_core:
        raise StageShortfall("interference", target_core, len(a_prime))
    stages.append(StageReport("interference", target_core, len(a_prime), "ok"))
    keep = {p: paths for p, paths in families.items()
            if p[0] in a_prime and p[1] in a_prime}
    result = _LinkedFamilies(a_prime, keep)
    _verify_linked(g, result)
    return result


def _verify_linked(g: Graph, linked: _LinkedFamilies) -> None:
    core = frozenset(linked.a_prime)
    require(is_independent(g, core), "linked core is not independent")
    seen: set[int] = set()
    for (u, v), family in linked.families.items():
        for p in family:
            vs = p.vertex_set()
            if not (verify_induced_path(g, p) and not (vs & seen)):
                raise InternalInconsistency(
                    f"path {p.vertices} is not induced or shares vertices")
            seen |= vs
            # u and v are in the core, so this also checks u ~ first, last ~ v
            ends = {u: {p.first}, v: {p.last}}
            if not all(g.adj(x) & vs == ends.get(x, set()) for x in core):
                raise InternalInconsistency(
                    f"path {p.vertices} touches the core off its ends")


def _extract_partially_anticomplete(g: Graph, family: Sequence[OrientedPath],
                                    budget: Budget = None) -> PathFamily:
    """The layered-independence refinement: keep paths whose vertex at each
    position survives an exact maximum-independent-set pass over that layer.

    The paths are induced, vertex-disjoint (_verify_linked) and of one
    length (main_pipeline groups them by length), and there is at least one.
    Output verified partially anticomplete."""
    survivors = list(family)
    bud = SearchBudget.of(budget)
    for i in range(len(family[0])):
        layer = frozenset(p.vertices[i] for p in survivors)
        kept = set(max_independent_subset(g, layer, bud).vertices)
        survivors = [p for p in survivors if p.vertices[i] in kept]
    result = tuple(survivors)
    require(is_partially_anticomplete(g, result),
            "extracted family is not partially anticomplete")
    return result


def _separate_families(g: Graph, p_fam: PathFamily, q_fam: PathFamily,
                       ell: int) -> tuple[PathFamily, PathFamily]:
    """Shrink two disjoint, non-empty, partially anticomplete families until
    no edges run between them.

    Round i splits off the largest same-trace bucket of Q's i-th layer
    against the remaining P-vertices (vc.split_by_trace); that bucket is
    non-empty, so Q keeps a path through every round.  That no edge is
    left between the two results is required; how many paths survive is
    not (the paper's size floors need ell <= 1).  A biclique found along
    the way propagates as CounterWitness.  The paper's trace count at
    q = 2t - 1 applies only beyond 10^27 vertices (see vc), so no round
    searches.
    """
    x_set = frozenset(w for p in p_fam for w in p.vertices)
    q_current = list(q_fam)
    for i in range(len(q_fam[0])):
        layer = frozenset(p.vertices[i] for p in q_current)
        x_set, bucket = split_by_trace(g, x_set, layer, ell)
        q_current = [p for p in q_current if p.vertices[i] in bucket]
    p_kept = tuple(p for p in p_fam if p.vertex_set() <= x_set)
    q_kept = tuple(q_current)
    require(all(are_anticomplete(g, p, qq) for p in p_kept for qq in q_kept),
            "separation left an edge")
    return p_kept, q_kept


def _select_pairwise_anticomplete(g: Graph, families: Sequence[PathFamily],
                                  ell: int, t: int) -> list[OrientedPath]:
    """One path per family, pairwise anticomplete, from non-empty families.

    Each round trims the first remaining family to a working set of
    2 t^2 ell paths, separates it against each of the others in turn (only
    the head can run out), keeps a survivor, and goes on with the reduced
    others.  The selection is verified pairwise anticomplete once, at the
    end.
    """
    remaining = list(families)
    out: list[OrientedPath] = []
    while len(remaining) > 1:
        head = remaining[0][:2 * t * t * ell]
        reduced: list[PathFamily] = []
        for i in range(1, len(remaining)):
            head, shrunk = _separate_families(g, head, remaining[i], ell)
            if not head:
                raise StageShortfall(f"selection[round {i}]", 1, 0)
            reduced.append(shrunk)
        out.append(head[0])
        remaining = reduced
    out.append(remaining[0][0])
    require(all(are_anticomplete(g, a, b) for a, b in combinations(out, 2)),
            "selected paths are not pairwise anticomplete")
    return out


@dataclass
class PipelineOverrides:
    """Surrogate sizes for desk-scale pipeline runs.

    branch_sets, when given, is a pre-built minor injected in place of the
    step-1 search; it is validated, and steps 3-6 run on it only when every
    set already holds a full vertex within diameter 2t.  Any other minor
    ends at step 2, in a cycle or a shortfall.  budget bounds the whole run:
    every stage spends from one SearchBudget.
    """

    minor_size: Optional[int] = None
    a_count: Optional[int] = None
    paths_per_pair: int = 1
    seed: int = 0
    budget: Optional[int] = None
    branch_sets: Optional[Sequence[VertexSet]] = None

    MINOR_CAP = 8


@dataclass
class PipelineResult:
    certificate: Optional[Certificate]
    stages: list[StageReport]
    seed: int

    @property
    def success(self) -> bool:
        return self.certificate is not None

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "certificate": certificate_to_json(self.certificate)
            if self.certificate else None,
            "seed": self.seed,
            "stages": [s.to_json() for s in self.stages],
        }


def main_pipeline(g: Graph, t: int, ell: int,
                  overrides: Optional[PipelineOverrides] = None) -> PipelineResult:
    """Best-effort six-step search for an induced cycle on >= t vertices.

    Any stage may instead surface a biclique, which is returned; shortfalls
    and exhausted budgets produce an inconclusive result whose last stage
    report names where the run stopped.  Every certificate, the assembled
    cycle included, is checked once, by certified on the way out.
    """
    if t < 4 or t % 2:
        raise ValueError("t must be even and at least 4")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    ov = overrides or PipelineOverrides()
    bud = SearchBudget.of(ov.budget)
    stages: list[StageReport] = []
    cert: Optional[Certificate] = None
    minor_size = ov.minor_size if ov.minor_size is not None \
        else min(PipelineOverrides.MINOR_CAP, max(3, t // 2))
    a_count = ov.a_count if ov.a_count is not None else t // 2
    if a_count < 0:
        raise ValueError("a_count must be non-negative")
    if ov.paths_per_pair < 1:
        raise ValueError("paths_per_pair must be positive")
    bud.stage = ("minor", minor_size)
    try:
        # Step 1: clique minor (searched, or injected and validated)
        if ov.branch_sets is not None:
            minor = CliqueMinor.from_sets(ov.branch_sets)
            if not validate_minor(g, minor):
                raise ValueError("injected branch sets are not a valid clique minor")
            stages.append(StageReport("minor", minor_size, len(minor), "injected"))
        else:
            minor = find_clique_minor(g, minor_size, bud)
            if minor is None:
                stages.append(StageReport("minor", minor_size, 0, "absent"))
                return PipelineResult(None, stages, ov.seed)
            stages.append(StageReport("minor", minor_size, len(minor), "ok"))

        # Step 2: an injected minor whose sets all hold a full vertex within
        # diameter 2t passes the gate; any other minor ends here.  A set of
        # fewer than 2t vertices has a smaller diameter, so it is not measured
        bud.stage = ("full-minor", len(minor))
        if (ov.branch_sets is not None
                and None not in (fulls := full_vertices(g, minor))
                and all(len(s) < 2 * t or eccentric_pair(g, s)[2] + 1 < 2 * t
                        for s in minor.branch_sets)):
            stages.append(StageReport("full-minor", len(minor), len(minor),
                                      "preverified"))
        else:  # a cycle, certified for t by the minor layer, or a raise
            cycle = full_vertex_minor(g, minor, len(minor), t, budget=bud)
            stages.append(StageReport("full-minor", len(minor),
                                      len(cycle.vertices), "cycle"))
            return PipelineResult(cycle, stages, ov.seed)

        # Step 3: partition into anchor sets and connector sets
        if len(minor) < a_count + 1:
            raise StageShortfall("partition", a_count + 1, len(minor))
        anchors = fulls[:a_count]
        stages.append(StageReport("partition", a_count, len(anchors), "ok"))

        # Steps 4-6
        linked = _build_linked_families(
            g, frozenset(anchors), minor.branch_sets[a_count:], t, ell,
            stages, paths_per_pair=ov.paths_per_pair, budget=bud)
        core = linked.a_prime  # t/2 anchors in ascending order
        cyclic: list[PathFamily] = []
        for i in range(len(core) if t > 4 else 1):  # t = 4: one family
            u, v = core[i], core[(i + 1) % len(core)]
            by_len: dict[int, list[OrientedPath]] = {}
            for p in linked.families[(min(u, v), max(u, v))]:
                by_len.setdefault(len(p), []).append(p)
            length = max(by_len, key=lambda k: (len(by_len[k]), -k))
            bud.stage = (f"extract[{u},{v}]", 1)
            extracted = _extract_partially_anticomplete(g, by_len[length],
                                                        bud)
            stages.append(StageReport(f"extract[{u},{v}]", 1,
                                      len(extracted), "ok"))
            if u > v:  # the family of (v, u) runs v-side first
                extracted = tuple(p.reversed() for p in extracted)
            cyclic.append(extracted)
        if t == 4:  # its two halves give the arcs (a0, a1) and (a1, a0)
            if len(fam := cyclic[0]) < 2:
                raise StageShortfall(f"selection[{core[0]},{core[1]}]", 2, len(fam))
            cyclic = [fam[::2], tuple(p.reversed() for p in fam[1::2])]
        picked = _select_pairwise_anticomplete(g, cyclic, ell, t)
        # each picked path runs from its anchor to the next one
        cert = InducedCycle(tuple(v for a, p in zip(core, picked)
                                  for v in (a, *p.vertices)))
        stages.append(StageReport("assemble", t, len(cert.vertices), "ok"))
    except CounterWitness as cw:
        cert = cw.certificate
        stages.append(StageReport("witness", 0, 0, type(cert).__name__))
    except StageShortfall as sf:
        stages.append(StageReport(sf.stage, sf.required, sf.achieved, "shortfall"))
    except BudgetExceeded:
        stages.append(StageReport(*bud.stage, 0, "budget"))
    if cert is not None:
        certified(g, cert, t=t, ell=ell)
    return PipelineResult(cert, stages, ov.seed)
