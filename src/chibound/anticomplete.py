"""The long-cycle pipeline: interference-free index selection, linked path
families between an independent core, partially-anticomplete extraction,
family separation, and assembly of an induced cycle.

The quantitative guarantees hold only at astronomically large sizes, so
every stage checks its hypotheses and otherwise runs best-effort: size
floors are required when the hypotheses held, while structural soundness
is unconditional.  Every certificate leaves through certified, every
postcondition through require, and both raise InternalInconsistency.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .certificates import Certificate, InducedCycle, certified, require
from .detect import BudgetExceeded, max_independent_subset
from .graph import (Graph, OrientedPath, PathFamily, VertexSet,
                    are_anticomplete, first_bad_pair, is_independent,
                    is_partially_anticomplete, verify_induced_path)
from .minors import (CliqueMinor, eccentric_pair, find_clique_minor,
                     full_vertex_minor, full_vertices, validate_minor)
from .vc import CounterWitness, cor_traces3_split, cor_traces_check


def derive_rng(seed: int, label: str) -> random.Random:
    """Independent per-stage stream; stable across processes and runs."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class StageShortfall(Exception):
    """A pipeline stage undershot its target size."""

    def __init__(self, stage: str, required: int, achieved: int):
        super().__init__(f"stage {stage!r}: needed {required}, achieved {achieved}")
        self.stage = stage
        self.required = required
        self.achieved = achieved


class AssemblyError(Exception):
    """Cycle assembly found a chord; carries the offending pair."""

    def __init__(self, chord: tuple[int, int]):
        super().__init__(f"unexpected chord {chord}")
        self.chord = chord


class InterferenceMatrix:
    """Square matrix of index sets; entry(i, j) never contains i or j.

    Backed either by materialized rows or by a generator function, so that
    large random instances never hold all order**2 entries at once.
    """

    def __init__(self, order: int,
                 entries: Union[dict[tuple[int, int], frozenset[int]],
                                Callable[[int, int], frozenset[int]]],
                 bound: Optional[int] = None):
        self.order = order
        self._entries = entries
        if bound is None:
            if callable(entries):
                raise ValueError("generated matrices need an explicit bound")
            bound = max((len(s) for s in entries.values()), default=0)
        self.bound = bound

    def entry(self, i: int, j: int) -> frozenset[int]:
        if i == j:
            return frozenset()
        if callable(self._entries):
            out = self._entries(i, j)
        else:
            out = self._entries.get((i, j), frozenset())
        if i in out or j in out:
            raise ValueError(f"entry ({i},{j}) contains its own index")
        return out

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Sequence[int]]]) -> "InterferenceMatrix":
        order = len(rows)
        entries = {}
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if cell:
                    entries[(i, j)] = frozenset(cell)
        return cls(order, entries)


def random_interference_matrix(order: int, bound: int, seed: int
                               ) -> InterferenceMatrix:
    """Entries of size exactly `bound`, generated lazily per (i, j)."""
    if bound > order - 2:
        raise ValueError("bound too large for the order")

    def gen(i: int, j: int) -> frozenset[int]:
        rng = derive_rng(seed, f"entry:{i}:{j}")
        pool = [k for k in range(order) if k != i and k != j]
        return frozenset(rng.sample(pool, bound))

    return InterferenceMatrix(order, gen, bound)


def count_bad_triples(matrix: InterferenceMatrix, chosen: Sequence[int]) -> int:
    s = set(chosen)
    bad = 0
    for i in chosen:
        for j in chosen:
            if i != j:
                bad += len(matrix.entry(i, j) & s)
    return bad


def select_noninterfering(matrix: InterferenceMatrix, s: int, seed: int = 0,
                          best_effort: bool = False) -> tuple[int, ...]:
    """s indices whose pairwise entries avoid the whole selection.

    64 uniform samples, then a deterministic greedy fallback.
    The probabilistic guarantee needs sqrt(M) >= r > s**3; pass
    best_effort=True to run outside that regime anyway.
    """
    m, r = matrix.order, matrix.bound
    if s < 1 or s > m:
        raise ValueError(f"cannot select {s} of {m} indices")
    if r == 0:
        return tuple(range(s))
    if not best_effort and not (m >= r * r and r > s ** 3):
        raise ValueError(
            f"guarantee needs sqrt(M) >= r > s^3; got M={m}, r={r}, s={s} "
            "(pass best_effort=True to try anyway)")
    rng = derive_rng(seed, "noninterfering")
    for _ in range(64):
        chosen = sorted(rng.sample(range(m), s))
        if count_bad_triples(matrix, chosen) == 0:
            return tuple(chosen)
    chosen = []
    for idx in range(m):
        if count_bad_triples(matrix, chosen + [idx]) == 0:
            chosen.append(idx)
            if len(chosen) == s:
                return tuple(chosen)
    raise BudgetExceeded("interference selection failed even greedily",
                         best=tuple(chosen))


@dataclass
class StageReport:
    name: str
    target_size: int
    achieved_size: int
    outcome: str

    def to_json(self) -> dict:
        return {"name": self.name, "target_size": self.target_size,
                "achieved_size": self.achieved_size, "outcome": self.outcome}


@dataclass
class LinkedFamilies:
    """Independent core A' plus, per ordered pair (u, v) with u < v, a family
    of induced connector paths oriented u-side first."""

    a_prime: tuple[int, ...]
    families: dict[tuple[int, int], PathFamily]
    reports: list[StageReport] = field(default_factory=list)


def _pair_list(core: Sequence[int]) -> list[tuple[int, int]]:
    core = sorted(core)
    return [(core[i], core[j]) for i in range(len(core))
            for j in range(i + 1, len(core))]


def build_linked_families(g: Graph, a_pool: VertexSet,
                          branch_sets: Sequence[VertexSet],
                          t: int, ell: int, paths_per_pair: int = 1,
                          a_prime_size: Optional[int] = None,
                          seed: int = 0,
                          budget: Optional[int] = None) -> LinkedFamilies:
    """From a vertex pool fully adjacent to every branch set, produce an
    independent core A' and, per pair, vertex-disjoint connector paths whose
    only core contacts are the designated endpoints.

    Raises StageShortfall naming the stage when a target size is missed and
    CounterWitness when the overload filter surfaces a biclique.
    """
    reports: list[StageReport] = []
    target_core = a_prime_size if a_prime_size is not None else t // 2
    branch_sets = [frozenset(b) for b in branch_sets]
    a_pool = frozenset(a_pool)
    for b in branch_sets:
        if b & a_pool:
            raise ValueError("pool overlaps a branch set")

    independent_core = max_independent_subset(g, a_pool, budget).vertices
    if len(independent_core) < max(2, target_core):
        raise StageShortfall("independent-core", max(2, target_core),
                             len(independent_core))
    reports.append(StageReport("independent-core", target_core,
                               len(independent_core), "ok"))

    pairs = _pair_list(independent_core)
    groups: dict[tuple[int, int], list[frozenset[int]]] = {p: [] for p in pairs}
    for idx, b in enumerate(branch_sets):
        groups[pairs[idx % len(pairs)]].append(b)
    empty = [p for p in pairs if not groups[p]]
    if empty:
        raise StageShortfall("groups", len(pairs), len(pairs) - len(empty))
    reports.append(StageReport("groups", len(pairs), len(pairs), "ok"))

    core_set = frozenset(independent_core)
    families: dict[tuple[int, int], list[OrientedPath]] = {}
    for (u, v) in pairs:
        raw: list[OrientedPath] = []
        for branch in groups[(u, v)]:
            # a shortest u-v path through the branch set, trimmed to its inside
            path = g.shortest_path(u, v, branch | {u, v})
            if path is not None and 2 < len(path) < 2 * t + 2:
                raw.append(OrientedPath(tuple(path[1:-1])))
        heavy = frozenset(w for p in raw for w in p.vertices
                          if g.degree_in(w, core_set) >= ell)
        if heavy and len(core_set) >= t // 2:
            screen = max_independent_subset(g, heavy, budget).vertices
            holds, witness = cor_traces_check(
                g, core_set, frozenset(screen), ell, 1, t,
                coloring={x: 0 for x in core_set})
            if not holds:
                raise CounterWitness(witness)
        clean = [p for p in raw if not (p.vertex_set() & heavy)]
        if len(clean) < paths_per_pair:
            raise StageShortfall(f"paths[{u},{v}]", paths_per_pair, len(clean))
        reports.append(StageReport(f"paths[{u},{v}]", paths_per_pair,
                                   len(clean), "ok"))
        families[(u, v)] = clean[:paths_per_pair]

    order = list(independent_core)
    position = {x: i for i, x in enumerate(order)}
    entries: dict[tuple[int, int], frozenset[int]] = {}
    bound = 0
    for (u, v), paths in families.items():
        touched = set()
        span = frozenset(w for p in paths for w in p.vertices)
        for x in order:
            if x not in (u, v) and g.adj(x) & span:
                touched.add(position[x])
        key = (position[u], position[v])
        if touched:
            entries[key] = frozenset(touched)
            entries[(key[1], key[0])] = frozenset(touched)
            bound = max(bound, len(touched))
    matrix = InterferenceMatrix(len(order), entries, bound)
    try:
        picked = select_noninterfering(matrix, target_core, seed,
                                       best_effort=True)
    except BudgetExceeded as exc:
        raise StageShortfall("interference", target_core,
                             len(exc.best) if exc.best else 0)
    reports.append(StageReport("interference", target_core, len(picked), "ok"))
    a_prime = tuple(order[i] for i in picked)
    keep = {p: PathFamily(tuple(paths)) for p, paths in families.items()
            if p[0] in a_prime and p[1] in a_prime}
    result = LinkedFamilies(a_prime, keep, reports)
    _verify_linked(g, result)
    return result


def _verify_linked(g: Graph, linked: LinkedFamilies) -> None:
    core = frozenset(linked.a_prime)
    require(is_independent(g, core), "linked core is not independent")
    seen: set[int] = set()
    for (u, v), family in linked.families.items():
        for p in family:
            vs = p.vertex_set()
            require(verify_induced_path(g, p) and not (vs & seen),
                    f"path {p.vertices} is not induced or shares vertices")
            seen |= vs
            # u and v are in the core, so this also checks u ~ first, last ~ v
            ends = {u: {p.first}, v: {p.last}}
            require(all(g.adj(x) & vs == ends.get(x, set()) for x in core),
                    f"path {p.vertices} touches the core off its ends")


def extract_partially_anticomplete(g: Graph,
                                   family: Union[PathFamily, Sequence[OrientedPath]],
                                   budget: Optional[int] = None) -> PathFamily:
    """The layered-independence refinement: keep paths whose vertex at each
    position survives an exact maximum-independent-set pass over that layer.
    Output verified partially anticomplete."""
    paths = tuple(family.paths if isinstance(family, PathFamily) else family)
    if not paths:
        return PathFamily((), None)
    k = len(paths[0])
    seen: set[int] = set()
    for p in paths:
        if len(p) != k:
            raise ValueError("paths must share one length")
        if p.vertex_set() & seen:
            raise ValueError("paths must be vertex-disjoint")
        seen |= p.vertex_set()
        if not verify_induced_path(g, p):
            raise ValueError("paths must be induced")
    survivors = list(paths)
    for i in range(k):
        layer = frozenset(p.vertices[i] for p in survivors)
        kept = set(max_independent_subset(g, layer, budget).vertices)
        survivors = [p for p in survivors if p.vertices[i] in kept]
    result = PathFamily(tuple(survivors), k)
    require(is_partially_anticomplete(g, result),
            "extracted family is not partially anticomplete")
    return result


def _position_coloring(family: PathFamily) -> dict[int, int]:
    colors: dict[int, int] = {}
    for p in family:
        for i, v in enumerate(p.vertices):
            colors[v] = i
    return colors


def _validate_separation_input(g: Graph, p_fam: PathFamily, q_fam: PathFamily,
                               t: int) -> None:
    for fam, name in ((p_fam, "P"), (q_fam, "Q")):
        if not is_partially_anticomplete(g, fam):
            raise ValueError(f"family {name} is not partially anticomplete")
        for p in fam:
            if len(p) >= 2 * t:
                raise ValueError(f"family {name} has a path with >= 2t vertices")
    pv = frozenset(w for p in p_fam for w in p.vertices)
    qv = frozenset(w for q in q_fam for w in q.vertices)
    if pv & qv:
        raise ValueError("families share vertices")


def separate_families(g: Graph, p_fam: PathFamily, q_fam: PathFamily,
                      ell: int, t: int) -> tuple[PathFamily, PathFamily]:
    """Shrink both families until no edges run between them.

    Round i splits off the largest same-trace bucket of Q's i-th layer
    against the remaining P-vertices.  That no edge is left between the
    two results is required always; the size floors (|P'| >= |P| -
    (ell-1)(2t-1), |Q'| >= 1) only when the stated cardinality hypotheses
    held, which needs ell <= 1.  A biclique or cycle found along the way
    propagates as CounterWitness.
    """
    _validate_separation_input(g, p_fam, q_fam, t)
    if not q_fam.paths:
        return p_fam, q_fam
    if not p_fam.paths:
        return p_fam, q_fam
    q = 2 * t - 1
    k_q = len(q_fam.paths[0])
    coloring = _position_coloring(p_fam)
    x_set = frozenset(w for p in p_fam for w in p.vertices)
    guaranteed = (ell <= 1 and
                  len(q_fam) >= len(p_fam) ** ((q ** 2) * t // 2) and
                  len(x_set) >= q * t // 2)
    q_current = list(q_fam.paths)
    for i in range(k_q):
        if not q_current:
            break
        layer = frozenset(p.vertices[i] for p in q_current)
        x_set, bucket = cor_traces3_split(g, x_set, layer, ell, q, t,
                                          coloring=coloring)
        q_current = [p for p in q_current if p.vertices[i] in bucket]
    p_kept = tuple(p for p in p_fam if p.vertex_set() <= x_set)
    q_kept = tuple(q_current)
    require(all(are_anticomplete(g, p, qq) for p in p_kept for qq in q_kept),
            "separation left an edge")
    require(not guaranteed or (len(p_kept) >= len(p_fam) - (ell - 1) * (2 * t - 1)
                               and len(q_kept) >= 1),
            "separation undershot its size floors")
    return (PathFamily(p_kept, p_fam.common_length),
            PathFamily(q_kept, q_fam.common_length))


def select_pairwise_anticomplete(g: Graph, families: Sequence[PathFamily],
                                 ell: int, t: int) -> list[OrientedPath]:
    """One path per family, pairwise anticomplete.

    Trims the first family to a working set of 2 t^2 ell paths, separates
    it against each of the others in turn, keeps a survivor, and recurses
    on the reduced remainder.  Output is re-verified pairwise anticomplete.
    """
    if not families:
        return []
    if len(families) == 1:
        if not families[0].paths:
            raise StageShortfall("selection[last]", 1, 0)
        return [families[0].paths[0]]
    head = PathFamily(families[0].paths[:2 * t * t * ell],
                      families[0].common_length)
    reduced: list[PathFamily] = []
    for i in range(1, len(families)):
        head, shrunk = separate_families(g, head, families[i], ell, t)
        if not head.paths:
            raise StageShortfall(f"selection[round {i}]", 1, 0)
        if not shrunk.paths:
            raise StageShortfall(f"selection[round {i} partner]", 1, 0)
        reduced.append(shrunk)
    choice = head.paths[0]
    rest = select_pairwise_anticomplete(g, reduced, ell, t)
    out = [choice] + rest
    require(all(are_anticomplete(g, out[i], out[j])
                for i in range(len(out)) for j in range(i + 1, len(out))),
            "selected paths are not pairwise anticomplete")
    return out


def assemble_cycle(g: Graph, anchors: Sequence[int],
                   paths: Sequence[OrientedPath]) -> InducedCycle:
    """Concatenate anchor_i - path_i - anchor_{i+1} - ... into a cycle and
    verify it is induced; a chord raises AssemblyError carrying the pair."""
    m = len(anchors)
    if m < 2 or len(paths) != m:
        raise ValueError("need k >= 2 anchors and as many paths")
    oriented: list[OrientedPath] = []
    for i, p in enumerate(paths):
        u, v = anchors[i], anchors[(i + 1) % m]
        if g.has_edge(u, p.first) and g.has_edge(v, p.last):
            oriented.append(p)
        elif g.has_edge(u, p.last) and g.has_edge(v, p.first):
            oriented.append(p.reversed())
        else:
            raise ValueError(f"path {i} does not link anchors {u} and {v}")
    cycle: list[int] = []
    for i in range(m):
        cycle.append(anchors[i])
        cycle.extend(oriented[i].vertices)
    chord = first_bad_pair(g, cycle, closed=True)
    if chord is not None:
        raise AssemblyError(chord)
    return certified(g, InducedCycle(tuple(cycle)))


@dataclass
class PipelineOverrides:
    """Surrogate sizes for desk-scale pipeline runs.

    branch_sets, when given, is a pre-built minor injected in place of the
    step-1 search; it is validated, and accepted for step 2 only when every
    set already holds a full vertex within diameter 2t.
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
        from .certificates import certificate_to_json
        return {
            "success": self.success,
            "certificate": certificate_to_json(self.certificate)
            if self.certificate else None,
            "seed": self.seed,
            "stages": [s.to_json() for s in self.stages],
        }


def _diameter_ok(g: Graph, s: frozenset[int], limit: int) -> bool:
    _, _, dist = eccentric_pair(g, s)
    return dist + 1 < limit


def main_pipeline(g: Graph, t: int, ell: int,
                  overrides: Optional[PipelineOverrides] = None) -> PipelineResult:
    """Best-effort six-step search for an induced cycle on >= t vertices.

    Any stage may instead surface a biclique, which is returned
    immediately; shortfalls produce an inconclusive result with a stage
    report.  Certificates are verified before being returned.
    """
    if t < 4 or t % 2:
        raise ValueError("t must be even and at least 4")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    ov = overrides or PipelineOverrides()
    stages: list[StageReport] = []

    def finish(cert: Optional[Certificate]) -> PipelineResult:
        if cert is not None:
            certified(g, cert, t=t, ell=ell)
        return PipelineResult(cert, stages, ov.seed)

    # Step 1: clique minor (searched, or injected and validated)
    minor_size = ov.minor_size if ov.minor_size is not None \
        else min(PipelineOverrides.MINOR_CAP, max(3, t // 2))
    if ov.branch_sets is not None:
        minor = CliqueMinor.from_sets(ov.branch_sets)
        if not validate_minor(g, minor):
            raise ValueError("injected branch sets are not a valid clique minor")
        stages.append(StageReport("minor", minor_size, len(minor), "injected"))
    else:
        try:
            found = find_clique_minor(g, minor_size, ov.budget)
        except BudgetExceeded:
            stages.append(StageReport("minor", minor_size, 0, "budget"))
            return finish(None)
        if found is None:
            stages.append(StageReport("minor", minor_size, 0, "absent"))
            return finish(None)
        minor = found
        stages.append(StageReport("minor", minor_size, len(minor), "ok"))

    # Step 2: full-vertex minor (skipped when the injected minor already
    # meets the postconditions)
    full_size = len(minor)
    fulls = full_vertices(g, minor)
    preverified = (ov.branch_sets is not None
                   and all(v is not None for v in fulls)
                   and all(_diameter_ok(g, s, 2 * t) for s in minor.branch_sets))
    if preverified:
        working = minor
        stages.append(StageReport("full-minor", full_size, len(minor),
                                  "preverified"))
    else:
        try:
            out = full_vertex_minor(g, minor, full_size, t, ov.seed)
        except BudgetExceeded:
            stages.append(StageReport("full-minor", full_size, 0, "shortfall"))
            return finish(None)
        if isinstance(out, InducedCycle):
            stages.append(StageReport("full-minor", full_size,
                                      len(out.vertices), "cycle"))
            return finish(out)
        working = out
        stages.append(StageReport("full-minor", full_size, len(working), "ok"))
        fulls = full_vertices(g, working)

    # Step 3: partition into anchor sets and connector sets
    a_count = ov.a_count if ov.a_count is not None else t // 2
    if len(working) < a_count + 1:
        stages.append(StageReport("partition", a_count + 1, len(working),
                                  "shortfall"))
        return finish(None)
    anchors_pool = []
    for i in range(a_count):
        v = fulls[i]
        if v is None:
            stages.append(StageReport("partition", a_count, i, "shortfall"))
            return finish(None)
        anchors_pool.append(v)
    connector_sets = list(working.branch_sets[a_count:])
    stages.append(StageReport("partition", a_count, len(anchors_pool), "ok"))

    # Steps 4-6
    try:
        linked = build_linked_families(
            g, frozenset(anchors_pool), connector_sets, t, ell,
            paths_per_pair=ov.paths_per_pair,
            a_prime_size=t // 2, seed=ov.seed, budget=ov.budget)
        stages.extend(linked.reports)

        core = sorted(linked.a_prime)[:t // 2]
        if len(core) < t // 2:
            raise StageShortfall("core", t // 2, len(core))
        cyclic: list[PathFamily] = []
        for i in range(len(core)):
            u, v = core[i], core[(i + 1) % len(core)]
            key = (min(u, v), max(u, v))
            family = linked.families[key]
            by_len: dict[int, list[OrientedPath]] = {}
            for p in family:
                by_len.setdefault(len(p), []).append(p)
            length = max(by_len, key=lambda k: (len(by_len[k]), -k))
            extracted = extract_partially_anticomplete(g, by_len[length],
                                                       ov.budget)
            stages.append(StageReport(f"extract[{u},{v}]", 1,
                                      len(extracted), "ok"))
            if u > v:
                extracted = PathFamily(tuple(p.reversed() for p in extracted),
                                       extracted.common_length)
            cyclic.append(extracted)
        picked = select_pairwise_anticomplete(g, cyclic, ell, t)
        cert = assemble_cycle(g, core, picked)
        stages.append(StageReport("assemble", t, len(cert.vertices), "ok"))
        return finish(cert)
    except CounterWitness as cw:
        stages.append(StageReport("witness", 0, 0,
                                  type(cw.certificate).__name__))
        return finish(cw.certificate)
    except StageShortfall as sf:
        stages.append(StageReport(sf.stage, sf.required, sf.achieved,
                                  "shortfall"))
        return finish(None)
    except BudgetExceeded:
        stages.append(StageReport("budget", 0, 0, "budget"))
        return finish(None)
