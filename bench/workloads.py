"""The three workloads: how each makes its instances from the seed, which
program calls answer an instance, and how the gate checks the answers.

An instance is one input graph plus every query the workload asks of it.
Sizes, counts and the node budget are constants here, so two commits
compared on one seed run identical work.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

import networkx as nx
import oracles

from gate import (GateError, adjacency, check_biclique, check_clique_minor,
                  check_elimination, check_independent, check_induced_cycle,
                  check_induced_path, check_subdivided_star, is_forest, require)
from harness import INCONCLUSIVE

#: Node budget of every budgeted call.
NODE_BUDGET = 20_000

#: Seed of the fixed catalogue of random graph shapes that exact-search and
#: pipeline relabel with the run's seed.
CATALOGUE_SEED = 0


@dataclass
class Instance:
    kind: str
    n: int
    edges: list[tuple[int, int]]
    graph: Any = None
    seed: int = 0
    params: dict = field(default_factory=dict)
    queries: list = field(default_factory=list)
    #: Facts about the input the gate computes once, e.g. oracle values.
    cache: dict = field(default_factory=dict)

    @property
    def adj(self) -> list[set[int]]:
        if "adj" not in self.cache:
            self.cache["adj"] = adjacency(self.n, self.edges)
        return self.cache["adj"]

    def fact(self, key: str, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]


def _graph_instance(kind: str, g, **kw) -> Instance:
    return Instance(kind, g.n, list(g.edges()), graph=g, **kw)


def _relabelled(graph_cls, shape, rng: random.Random):
    """`shape` with its vertex labels permuted by `rng`."""
    perm = list(range(shape.n))
    rng.shuffle(perm)
    return graph_cls.from_edges(shape.n, [(perm[u], perm[v]) for u, v in shape.edges()])


def _answered(x) -> bool:
    return x is not None and x is not INCONCLUSIVE


def _max_core(inst: Instance) -> int:
    def compute() -> int:
        nxg = nx.Graph(inst.edges)
        nxg.add_nodes_from(range(inst.n))
        return max(nx.core_number(nxg).values(), default=0)
    return inst.fact("max_core", compute)


def _check_structure(mods, g, adj, cert, *, d: int, ell: int, t: int,
                     what: str) -> None:
    """A certificate verifies and answers the question asked."""
    cm = mods["certificates"]
    try:
        verified = cm.verify_certificate(g, cert)
    except (ValueError, TypeError) as exc:
        raise GateError(f"{what}: malformed certificate {cert}: {exc}") from exc
    require(verified, f"{what}: verify_certificate rejected {cert}")
    if isinstance(cert, cm.InducedCycle):
        check_induced_cycle(adj, cert.vertices, t, what)
    elif isinstance(cert, cm.BicliqueWitness):
        check_biclique(adj, cert.left, cert.right, ell, ell, what)
    elif isinstance(cert, cm.SubdividedStarWitness):
        check_subdivided_star(adj, cert.center, cert.middles, cert.leaves, d, what)
    elif isinstance(cert, cm.IndependentSetWitness):
        check_independent(adj, cert.vertices, what)
    else:
        raise GateError(f"{what}: unexpected certificate {type(cert).__name__}")


class SparseCore:
    """Sparse random graphs, average degree about 6, from 10^3 vertices up
    to where to_graph6, from_graph6 and degeneracy each take about a second.

    Why: every "linear-time core" item of the roadmap (bucket-queue
    degeneracy, linear verification, bulk graph6 packing, the shrinking
    vertex mask in sstar_elimination_order) does almost all its work here.
    Encoding runs beside decoding, so a faster reader that slows the writer
    shows.
    """

    name = "sparse-core"
    why = ("sparse graphs of 200 to 4000 vertices: every linear-time-core item "
           "(degeneracy, its verification, graph6 packing, the lemma layer) does "
           "its work here; encode runs beside decode")
    AVERAGE_DEGREE = 6
    #: These also run sstar_elimination_order, which is quadratic.
    ELIMINATION_SIZES = (200, 300, 400)
    #: Three graphs of 1000 vertices hold the median instance, which
    #: otherwise fell between instances whose order changed with the seed.
    SIZES = (1000, 1000, 1000, 1400, 2000, 4000)
    SSTAR_D, SSTAR_ELL = 2, 3

    def make(self, mods, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        out = []
        for n in self.ELIMINATION_SIZES + self.SIZES:
            g = mods["generate"].gnp(n, self.AVERAGE_DEGREE / (n - 1), rng)
            out.append(Instance("sparse", n, list(g.edges())))
        return out

    def run(self, inst: Instance, call) -> dict:
        d, ell = self.SSTAR_D, self.SSTAR_ELL
        g = call("graph", "Graph.from_edges", inst.n, inst.edges)
        a = {"graph": g}
        a["graph6"] = call("io", "from_graph6", call("io", "to_graph6", g))
        a["dimacs"] = call("io", "from_dimacs", call("io", "to_dimacs", g))
        a["degeneracy"] = call("detect", "degeneracy", g)
        a["verified"] = call("certificates", "verify_certificate", g,
                             a["degeneracy"][1])
        a["sstar"] = call("lemmas", "sstar_low_degree", g, d, ell)
        if inst.n in self.ELIMINATION_SIZES:
            a["elimination"] = call("lemmas", "sstar_elimination_order", g, d, ell)
        return a

    def check(self, mods, inst: Instance, a: dict) -> None:
        adj, g = inst.adj, a["graph"]
        d, ell = self.SSTAR_D, self.SSTAR_ELL
        require(g.n == inst.n and all(g.adj(v) == adj[v] for v in range(g.n)),
                "from_edges: graph differs from its edge list")
        require(a["graph6"] == g, "graph6 round trip changed the graph")
        require(a["dimacs"] == g, "DIMACS round trip changed the graph")
        k, order = a["degeneracy"]
        require(k == _max_core(inst),
                f"degeneracy {k}, networkx max core number {_max_core(inst)}")
        require(order.bound == k, "elimination order claims another bound")
        require(a["verified"] is True, "verify_certificate rejected the elimination order")
        check_elimination(adj, order.order, k, "degeneracy")
        top = mods["lemmas"].degree_bound(ell, d, ell)
        answers = [a["sstar"].certificate] + ([a["elimination"]] if "elimination" in a else [])
        for cert in answers:
            what = f"{type(cert).__name__} from the lemma layer"
            if isinstance(cert, mods["certificates"].LowDegreeVertex):
                require(mods["certificates"].verify_certificate(g, cert)
                        and cert.degree == len(adj[cert.vertex]) <= cert.bound <= top,
                        f"{what}: degree {cert.degree} against bound {top}")
            elif isinstance(cert, mods["certificates"].EliminationOrder):
                require(mods["certificates"].verify_certificate(g, cert)
                        and k <= cert.bound <= top,
                        f"{what}: bound {cert.bound} outside [{k}, {top}]")
                check_elimination(adj, cert.order, cert.bound, what)
            else:
                _check_structure(mods, g, adj, cert, d=d, ell=ell, t=3, what=what)


class ExactSearch:
    """Many small graphs from every generator family but all-small, each
    budgeted call with the same node budget.

    The mix holds answers found early (planted cycle or biclique), absences
    proven by exhausting the search (chordal, interval, split, cograph and
    tree graphs have no long induced cycle) and calls that hit the budget
    (longest_induced_path on G(n, p)).  Why: this measures per-node cost and
    pruning in `detect` and `vc`.  The graphs are tiny, so optimisations to
    the linear core should leave this workload unchanged.

    The graphs' shapes come from a fixed catalogue and the seed permutes
    their vertex labels.  Every search breaks ties by ascending id, so a
    relabelling changes each search's path but not the mix of work.  Drawing
    fresh shapes per seed instead moved the median instance time by about
    20% between seeds, which no affordable number of instances averages out.
    """

    name = "exact-search"
    why = ("small graphs of eight families with found, proven-absent and budget "
           "verdicts: per-node cost and pruning in detect and vc; linear-core "
           "work should leave it unchanged")
    SIZES = (20, 24, 28, 32, 36, 40)
    COPIES = 3
    #: One instance per family at this size is checked against tests/oracles.py.
    ORACLE_SIZE = 12
    FAMILY_PARAMS = {"gnp": {"p": 0.3}, "planted-cycle": {"t": 10},
                     "planted-biclique": {"ell": 3}}
    BICLIQUE_SIDE = 3
    CYCLE_T = 6
    STAR_D = 3
    SHATTER_SIZE = 3
    VC_UNIVERSE = 12

    def make(self, mods, seed: int) -> list[Instance]:
        gen, graph_cls = mods["generate"], mods["graph"].Graph
        shapes, labels = random.Random(CATALOGUE_SEED), random.Random(seed)
        families = [f for f in gen.FAMILIES if f != "all-small"]
        out = []
        for n, copies in [(self.ORACLE_SIZE, 1)] + [(n, self.COPIES) for n in self.SIZES]:
            for family in families:
                for _ in range(copies):
                    params = {"n": n, **self.FAMILY_PARAMS.get(family, {})}
                    shape = next(gen.generate(family, params, seed=shapes.randrange(2**32)))
                    g = _relabelled(graph_cls, shape, labels)
                    x = frozenset(range(min(self.VC_UNIVERSE, n // 2)))
                    out.append(_graph_instance(
                        family, g, params={"x": x, "y": frozenset(range(n)) - x}))
        return out

    def run(self, inst: Instance, call) -> dict:
        g, b, x, y = inst.graph, NODE_BUDGET, inst.params["x"], inst.params["y"]
        side = self.BICLIQUE_SIDE
        a = {
            "biclique": call("detect", "find_biclique_subgraph", g, side, side, budget=b),
            "path": call("detect", "longest_induced_path", g, budget=b),
            "long_cycle": call("detect", "find_long_induced_cycle", g, self.CYCLE_T, budget=b),
            "cycle": call("detect", "longest_induced_cycle", g, budget=b),
            "star": call("detect", "find_induced_subdivided_star", g, self.STAR_D, budget=b),
            "mis": call("detect", "max_independent_set", g, budget=b),
            "chi": call("detect", "chromatic_number_exact", g, budget=b),
            "system": call("vc", "neighborhood_system", g, x, y),
        }
        a["vc"] = call("vc", "vc_dimension", a["system"])
        a["shattered"] = call("vc", "find_shattered_set", a["system"],
                              self.SHATTER_SIZE, budget=b)
        a["buckets"] = call("vc", "trace_buckets", g, x, y)
        return a

    def check(self, mods, inst: Instance, a: dict) -> None:
        self._check_detect(mods, inst, a)
        self._check_vc(inst, a)
        if inst.n <= self.ORACLE_SIZE:
            self._check_oracles(inst, a)

    def _check_detect(self, mods, inst: Instance, a: dict) -> None:
        adj, g, fam = inst.adj, inst.graph, inst.kind
        side, t = self.BICLIQUE_SIDE, self.CYCLE_T
        for key in ("biclique", "long_cycle", "cycle", "star", "mis"):
            if _answered(a[key]):
                _check_structure(mods, g, adj, a[key], d=self.STAR_D, ell=side,
                                 t=t if key == "long_cycle" else 3,
                                 what=f"{key} on {fam} n={inst.n}")
        if _answered(a["path"]):
            check_induced_path(adj, a["path"].vertices, f"path on {fam} n={inst.n}")
        if a["long_cycle"] is not INCONCLUSIVE and a["cycle"] is not INCONCLUSIVE:
            longest = len(a["cycle"].vertices) if a["cycle"] else 0
            require((a["long_cycle"] is not None) == (longest >= t),
                    f"{fam} n={inst.n}: longest induced cycle {longest} but "
                    f"find_long_induced_cycle(t={t}) says {a['long_cycle']}")
        if fam == "planted-cycle":
            require(a["long_cycle"] is not None, "planted cycle reported absent")
        if fam == "planted-biclique":
            require(a["biclique"] is not None, "planted biclique reported absent")
        chi = a["chi"]
        if chi is not INCONCLUSIVE:
            lower = 1 if inst.n else 0
            if inst.edges:
                lower = 2
            if _answered(a["cycle"]) and len(a["cycle"].vertices) % 2:
                lower = 3
            if _answered(a["mis"]):
                lower = max(lower, math.ceil(inst.n / len(a["mis"].vertices)))
            require(lower <= chi <= _max_core(inst) + 1,
                    f"{fam} n={inst.n}: chromatic number {chi} outside "
                    f"[{lower}, {_max_core(inst) + 1}]")

    def _check_vc(self, inst: Instance, a: dict) -> None:
        adj, x, y = inst.adj, inst.params["x"], inst.params["y"]
        system = a["system"]
        require(system.universe == tuple(sorted(x))
                and system.members == tuple(frozenset(adj[v] & x) for v in sorted(y)),
                "neighborhood_system: members are not the traces on X")
        dim, shattered = a["vc"], a["shattered"]
        traces = set(system.members)
        require(0 <= dim <= len(x) and 2 ** dim <= len(traces),
                f"vc_dimension {dim} impossible for {len(traces)} distinct traces")
        if _answered(shattered):
            s = frozenset(shattered)
            require(len(s) == self.SHATTER_SIZE and s <= x
                    and len({m & s for m in traces}) == 2 ** len(s),
                    f"find_shattered_set: {shattered} is not shattered")
            require(dim >= len(s), f"vc_dimension {dim} below a shattered set")
        elif shattered is None:
            require(dim < self.SHATTER_SIZE,
                    f"vc_dimension {dim} but no shattered {self.SHATTER_SIZE}-set")
        bucket, trace, buckets = a["buckets"]
        require(sorted(v for b in buckets.values() for v in b) == sorted(y)
                and all(adj[v] & x == tr for tr, b in buckets.items() for v in b),
                "trace_buckets: buckets do not partition Y by trace")
        require(buckets.get(trace) == bucket
                and len(bucket) == max(map(len, buckets.values()), default=0),
                "trace_buckets: reported bucket is not a largest one")

    def _check_oracles(self, inst: Instance, a: dict) -> None:
        g, what = inst.graph, f"{inst.kind} n={inst.n} against the oracle"
        side, t = self.BICLIQUE_SIDE, self.CYCLE_T
        exp = inst.fact("oracle", lambda: {
            "biclique": oracles.brute_has_biclique(g, side, side),
            "path": oracles.brute_longest_induced_path(g),
            "cycle": oracles.brute_longest_induced_cycle(g),
            "star": oracles.brute_has_subdivided_star(g, self.STAR_D),
            "mis": oracles.brute_mis_size(g),
            "chi": oracles.brute_chromatic(g),
            "vc": _brute_vc(a["system"]),
        })
        got = {
            "biclique": None if a["biclique"] is INCONCLUSIVE else a["biclique"] is not None,
            "path": a["path"] if a["path"] is INCONCLUSIVE else len(a["path"].vertices),
            "cycle": a["cycle"] if a["cycle"] is INCONCLUSIVE
            else len(a["cycle"].vertices) if a["cycle"] else 0,
            "star": None if a["star"] is INCONCLUSIVE else a["star"] is not None,
            "mis": a["mis"] if a["mis"] is INCONCLUSIVE else len(a["mis"].vertices),
            "chi": a["chi"],
            "vc": a["vc"],
        }
        for key, value in got.items():
            if value is not None and value is not INCONCLUSIVE:
                require(value == exp[key], f"{key} on {what}: {value}, oracle {exp[key]}")
        if a["long_cycle"] is not INCONCLUSIVE:
            require((a["long_cycle"] is not None) == (exp["cycle"] >= t),
                    f"long_cycle on {what}: oracle's longest is {exp['cycle']}")


def _brute_vc(system) -> int:
    """VC dimension by trying every subset of the universe."""
    traces = set(system.members)
    if not traces:
        return -1
    best = 0
    universe = system.universe
    for mask in range(1 << len(universe)):
        s = frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)
        if len(s) > best and len({m & s for m in traces}) == 2 ** len(s):
            best = len(s)
    return best


class Pipeline:
    """main_pipeline on several instance kinds, plus direct minor searches.

    Searched-minor runs on ideal instances and G(n, p) end at step 1 or 2
    (minor/budget, full-minor/shortfall), so the conclusive ratio is low;
    that is what the roadmap's clique-minor item must raise.  The injected
    full and poison instances reach steps 3-6, assembly or a biclique, and
    must not slow.  find_clique_minor(p=5) on a tree and on a planted cycle
    spends its whole budget instead of proving absence (a forest has no
    K3 minor): a known defect kept visible.  Why: `minors` and
    `anticomplete` do most of the work here; `detect` enters only through
    max_clique.

    As in exact-search, the random graphs' shapes come from the fixed
    catalogue and the seed relabels them; fresh G(20, 1/2) draws moved the
    90th-percentile instance time by about 20% between seeds.
    """

    name = "pipeline"
    why = ("searched and injected main_pipeline runs plus clique-minor searches: "
           "minors and anticomplete do the work, and searched runs end without "
           "a verdict, which the conclusive ratio shows")
    ELL = 3
    SEARCH_T = 6
    IDEAL_T = (8, 10)
    FULL_T = (6, 8)
    FULL_COPIES = 2
    #: (t, ell, connector sets per anchor pair): enough sets to defeat the
    #: trace bound, so step 4 surfaces a biclique.
    POISON = (6, 2, 54)
    #: On G(20, 1/2), K5 and K6 are found (and full_vertex_minor then runs
    #: out) while K7 to K9 exhaust the budget, on almost every draw; sparser
    #: or larger graphs flip between found and budget from draw to draw.
    GNP_SHAPES = ((20, 0.5),)
    GNP_COPIES = 24
    MINOR_SIZES = (5, 6, 7, 8, 9)
    DEFECT_N = 30
    DEFECT_MINOR = 5

    def make(self, mods, seed: int) -> list[Instance]:
        gen, ac, graph_cls = mods["generate"], mods["anticomplete"], mods["graph"].Graph
        rng, shapes = random.Random(seed), random.Random(CATALOGUE_SEED)
        b = NODE_BUDGET

        def pipeline(g, t, ell, kind, s, **kw) -> Instance:
            ov = ac.PipelineOverrides(seed=s, budget=b, **kw)
            return _graph_instance(kind, g, seed=s, queries=[("pipeline", t, ell, ov)])

        out = []
        for t in self.FULL_T:
            g, sets = gen.pipeline_full_instance(t, self.FULL_COPIES)
            out.append(pipeline(g, t, self.ELL, "full", rng.randrange(2**16),
                                branch_sets=sets, a_count=t // 2, paths_per_pair=2))
        t, ell, per_pair = self.POISON
        g, sets = gen.pipeline_poison_instance(t, ell, per_pair)
        out.append(pipeline(g, t, ell, "poison", rng.randrange(2**16),
                            branch_sets=sets, a_count=t // 2))
        defects = [("tree", gen.random_tree(self.DEFECT_N, shapes)),
                   ("planted-cycle", gen.planted_cycle(self.DEFECT_N, 10, shapes))]
        for kind, shape in defects:
            inst = pipeline(_relabelled(graph_cls, shape, rng), self.SEARCH_T,
                            self.ELL, kind, rng.randrange(2**16))
            inst.queries.insert(0, ("minor", self.DEFECT_MINOR))
            out.append(inst)
        for n, p in self.GNP_SHAPES:
            for _ in range(self.GNP_COPIES):
                g = _relabelled(graph_cls, gen.gnp(n, p, shapes), rng)
                inst = pipeline(g, self.SEARCH_T, self.ELL, "gnp", rng.randrange(2**16))
                inst.queries += [("minor", k) for k in self.MINOR_SIZES]
                out.append(inst)
        for t in self.IDEAL_T:
            inst = pipeline(gen.pipeline_ideal_instance(t), t, self.ELL, "ideal",
                            rng.randrange(2**16))
            inst.queries.append(("pipeline", t, self.ELL, ac.PipelineOverrides(
                seed=inst.seed, budget=b, minor_size=3)))
            out.append(inst)
        return out

    def run(self, inst: Instance, call) -> list:
        g, answers = inst.graph, []
        for query in inst.queries:
            if query[0] == "pipeline":
                _, t, ell, ov = query
                answers.append(call("anticomplete", "main_pipeline", g, t, ell, ov))
                continue
            minor = call("minors", "find_clique_minor", g, query[1],
                         budget=NODE_BUDGET, seed=inst.seed)
            full = None
            if _answered(minor):
                full = call("minors", "full_vertex_minor", g, minor, query[1],
                            self.SEARCH_T, seed=inst.seed)
            answers.append((minor, full))
        return answers

    def check(self, mods, inst: Instance, answers: list) -> None:
        adj, g = inst.adj, inst.graph
        validate = mods["minors"].validate_minor
        found, absent = [], []
        for query, ans in zip(inst.queries, answers):
            what = f"{query[0]} query on {inst.kind} n={inst.n}"
            if query[0] == "pipeline":
                self._check_pipeline(mods, inst, query, ans, what)
                continue
            p, (minor, full) = query[1], ans
            if minor is None:
                absent.append(p)
            elif minor is not INCONCLUSIVE:
                found.append(p)
                require(validate(g, minor), f"{what}: validate_minor rejected K{p}")
                check_clique_minor(adj, minor.branch_sets, p, f"{what} K{p}")
            if isinstance(full, mods["minors"].CliqueMinor):
                require(validate(g, full), f"{what}: validate_minor rejected the full minor")
                check_clique_minor(adj, full.branch_sets, p, f"{what} full K{p}")
                for i, s in enumerate(full.branch_sets):
                    others = [o for j, o in enumerate(full.branch_sets) if j != i]
                    require(any(all(adj[v] & o for o in others) for v in s),
                            f"{what}: full minor set {i} has no full vertex")
            elif _answered(full):
                _check_structure(mods, g, adj, full, d=2, ell=self.ELL,
                                 t=self.SEARCH_T, what=f"{what} full_vertex_minor")
        if found and absent:
            require(max(found) < min(absent), f"{inst.kind} n={inst.n}: "
                    f"K{min(absent)} minor absent but K{max(found)} found")

    def _check_pipeline(self, mods, inst: Instance, query, res, what: str) -> None:
        _, t, ell, _ = query
        require(res.success == (res.certificate is not None) and res.stages,
                f"{what}: result and stage reports disagree")
        if res.certificate is not None:
            _check_structure(mods, inst.graph, inst.adj, res.certificate,
                             d=2, ell=ell, t=t, what=what)
            return
        last = res.stages[-1]
        if last.outcome == "absent":
            require(last.name == "minor", f"{what}: absent verdict from stage {last.name}")
            if last.target_size <= 3:
                require(is_forest(inst.adj), f"{what}: K3 minor reported absent")


WORKLOADS = (SparseCore(), ExactSearch(), Pipeline())
