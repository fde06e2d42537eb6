"""Set-up, the timed pass loop, spans and metrics shared by every workload.

One run works like this:

1. Set-up: import `chibound` afresh, generate the workload's instances
   from the seed and answer one warm-up instance (checked in every pass).
   An untraced run sets up SETUP_REPS times and reports the median,
   corrected for contention like the pass times below, as `setup_s`.
2. Measurement: answer every instance of the workload in order (one
   *pass*), timing each program call, then check the instance's answers
   outside the timed region.  Passes repeat until `seconds` have gone by;
   at least one pass always runs, and a pass is never cut short.  An
   instance's time is the sum of its calls' times.

   Other load on a shared machine slows everything in a run (on a shared
   2-vCPU VM, by up to 2x for a minute at a time), so raw times vary more
   between runs than any useful bound allows.  Each pass therefore also
   times a fixed pure-Python reference probe between calls, and divides
   each call's time by the contention around it: the mean time of the
   probes within PROBE_WINDOW_S of the call, over REFERENCE_QUIET_S, the
   probe's time on an idle machine.  A call's time is then its fastest
   corrected time over the passes, so reported times are in idle-machine
   seconds.
3. A traced run first makes one untraced reference pass, then traced
   passes.  Traced passes record a span around every program call and
   count search nodes by wrapping `detect.SearchBudget.spend`; each node is
   charged to the layer whose span encloses it.  Per-layer metrics are per
   traced pass (busy times fastest over the passes, as above), and
   `trace.overhead_s` is the traced pass time minus the untraced one.
"""
from __future__ import annotations

import importlib
import json
import math
import resource
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import reduce
from itertools import accumulate
from pathlib import Path

#: The layers are the modules under src/chibound/.  `generate` makes the
#: inputs and counts toward set-up; `constants` is pure big-integer
#: arithmetic that takes microseconds, so no workload calls it.
LAYERS = ("graph", "io", "certificates", "detect", "lemmas", "vc", "minors",
          "anticomplete")

#: Every public function a workload calls, by layer.  Each gets a span and a
#: `<layer>.<function>.busy_s` metric in the traced run.
SPANNED = {
    "graph": ("from_edges",),
    "io": ("to_graph6", "from_graph6", "to_dimacs", "from_dimacs"),
    "certificates": ("verify_certificate",),
    "detect": ("degeneracy", "find_biclique_subgraph", "longest_induced_path",
               "find_long_induced_cycle", "longest_induced_cycle",
               "find_induced_subdivided_star", "max_independent_set",
               "chromatic_number_exact"),
    "lemmas": ("sstar_low_degree", "sstar_elimination_order"),
    "vc": ("neighborhood_system", "vc_dimension", "find_shattered_set",
           "trace_buckets"),
    "minors": ("find_clique_minor", "full_vertex_minor"),
    "anticomplete": ("main_pipeline",),
}

#: Layers whose calls spend search nodes.
NODE_LAYERS = ("detect", "vc", "minors", "anticomplete")

#: Every (stage, outcome) pair a `StageReport` of `main_pipeline` can carry.
#: Indexed stage names such as `paths[0,1]` are counted under `paths`.
STAGE_OUTCOMES = (
    ("minor", ("ok", "injected", "absent", "budget")),
    ("full-minor", ("ok", "preverified", "cycle", "shortfall")),
    ("partition", ("ok", "shortfall")),
    ("independent-core", ("ok", "shortfall")),
    ("groups", ("ok", "shortfall")),
    ("paths", ("ok", "shortfall")),
    ("interference", ("ok", "shortfall")),
    ("core", ("shortfall",)),
    ("extract", ("ok",)),
    ("selection", ("shortfall",)),
    ("assemble", ("ok",)),
    ("witness", ("BicliqueWitness", "InducedCycle")),
    ("budget", ("budget",)),
)

#: Stage outcomes that leave a `main_pipeline` call without a verdict.
INCONCLUSIVE_STAGE_OUTCOMES = ("budget", "shortfall")

#: Set-ups per untraced run; `setup_s` is their median.
SETUP_REPS = 5

#: Reference probes timed after each set-up to correct it for contention.
SETUP_PROBES = 30

#: Mean time of reference_probe() on an idle machine (2-vCPU x86-64 VM,
#: CPython 3.11).  It only sets the scale of the reported times.
REFERENCE_QUIET_S = 2.7e-4

#: Seconds between reference probes during a pass.  After a longer call,
#: one probe per PROBE_EVERY_S of it runs, up to PROBE_BURST probes.
PROBE_EVERY_S = 0.02
PROBE_BURST = 10

#: Probes this close to a call measure the contention it ran under.
PROBE_WINDOW_S = 0.1

#: A pass needs this many instances before its p90 has ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("instance_p50_ms", "ms", "lower"),
    ("instance_p90_ms", "ms", "lower"),
    ("conclusive_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [(f"{layer}.{fn}.busy_s", "s", "lower")
             for layer, fns in SPANNED.items() for fn in fns]
    specs.append(("certificates.verify_certificate.calls", "count", "lower"))
    specs += [(f"{layer}.nodes", "count", "lower") for layer in NODE_LAYERS]
    specs += [
        ("detect.us_per_node", "us", "lower"),
        ("detect.budget_exceeded", "count", "lower"),
        ("detect.absent", "count", "higher"),
        ("minors.found_ratio", "ratio", "higher"),
        ("minors.budget_exceeded", "count", "lower"),
        ("anticomplete.success_ratio", "ratio", "higher"),
    ]
    specs += [(f"anticomplete.stage.{stage}.{outcome}", "count",
               "lower" if outcome in INCONCLUSIVE_STAGE_OUTCOMES else "higher")
              for stage, outcomes in STAGE_OUTCOMES for outcome in outcomes]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def reference_probe() -> float:
    """Time a fixed job of set and dict work, the kind chibound does."""
    start = time.perf_counter()
    seen, counts = set(), {}
    for i in range(1500):
        k = i * 7919 % 4093
        seen.add(k)
        counts[k] = counts.get(k, 0) + 1
    sorted(seen)
    return time.perf_counter() - start


def contention_of(mean_probe_s: float) -> float:
    """How many times slower than idle the machine ran, from probe times."""
    return mean_probe_s / REFERENCE_QUIET_S


def import_program() -> dict:
    """Import every chibound module afresh, so set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "chibound" or m.startswith("chibound.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"chibound.{name}")
            for name in LAYERS + ("generate",)}


class Inconclusive:
    """Stands in for the answer of a call that raised BudgetExceeded."""

    def __repr__(self) -> str:
        return "INCONCLUSIVE"


INCONCLUSIVE = Inconclusive()


def verdict(out) -> str:
    """found, absent, budget or inconclusive (a pipeline without verdict)."""
    if out is INCONCLUSIVE:
        return "budget"
    if out is None:
        return "absent"
    stages = getattr(out, "stages", None)
    if stages is not None and out.certificate is None:
        if stages and stages[-1].outcome in INCONCLUSIVE_STAGE_OUTCOMES:
            return "inconclusive"
        return "absent"
    return "found"


class Calls:
    """Makes a workload's calls into the program.

    A call that raises BudgetExceeded returns INCONCLUSIVE.  Every call
    counts as one query; when tracing, it also leaves a span.  Reference
    probes follow any call that ends `probe_every` seconds after the last.
    """

    def __init__(self, mods: dict, probe_every: float = PROBE_EVERY_S):
        self.mods = mods
        self.probe_every = probe_every
        self.tracing = False
        self.spans: list[dict] = []
        self.instance = -1
        self.layer = "unspanned"
        self.attempted = 0
        self.inconclusive = 0
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.probe_ends: list[float] = []
        self.probes: list[float] = []
        self.last_probe = 0.0

    def __call__(self, layer: str, fn: str, *args, **kwargs):
        func = reduce(getattr, fn.split("."), self.mods[layer])
        self.layer = layer
        start = time.perf_counter()
        try:
            out = func(*args, **kwargs)
        except self.mods["detect"].BudgetExceeded:
            out = INCONCLUSIVE
        end = time.perf_counter()
        self.layer = "unspanned"
        self.starts.append(start)
        self.durations.append(end - start)
        gap = end - self.last_probe
        if gap >= self.probe_every:
            for _ in range(min(PROBE_BURST, int(gap / self.probe_every))):
                self.probe()
        kind = verdict(out)
        self.attempted += 1
        self.inconclusive += kind in ("budget", "inconclusive")
        if self.tracing:
            span = {"name": f"{layer}.{fn.split('.')[-1]}", "start": start,
                    "end": end, "instance": self.instance, "verdict": kind}
            if getattr(out, "stages", None) is not None:
                span["stages"] = [[s.name, s.outcome] for s in out.stages]
            self.spans.append(span)
        return out

    def probe(self) -> None:
        self.probes.append(reference_probe())
        self.last_probe = time.perf_counter()
        self.probe_ends.append(self.last_probe)

    def corrected(self, first_call: int, first_probe: int) -> list[float]:
        """Times of the calls since `first_call`, each divided by the
        contention the probes since `first_probe` saw around it."""
        ends, probes = self.probe_ends[first_probe:], self.probes[first_probe:]
        total = list(accumulate(probes, initial=0.0))
        out = []
        for start, seconds in zip(self.starts[first_call:], self.durations[first_call:]):
            lo = bisect_left(ends, start - PROBE_WINDOW_S)
            hi = bisect_right(ends, start + seconds + PROBE_WINDOW_S)
            if hi == lo:
                lo, hi = 0, len(probes)
            out.append(seconds / contention_of((total[hi] - total[lo]) / (hi - lo)))
        return out


class NodeCounter:
    """Wraps SearchBudget.spend to charge nodes to the calling layer."""

    def __init__(self, calls: Calls):
        self.calls = calls
        self.nodes: Counter = Counter()

    def __enter__(self) -> "NodeCounter":
        budget_cls = self.calls.mods["detect"].SearchBudget
        self.original = original = budget_cls.spend
        calls, nodes = self.calls, self.nodes

        def spend(budget, amount: int = 1) -> None:
            nodes[calls.layer] += amount
            original(budget, amount)

        budget_cls.spend = spend
        return self

    def __exit__(self, *exc) -> None:
        self.calls.mods["detect"].SearchBudget.spend = self.original


def set_up(workload, seed: int):
    """Import, generate the instances and answer one warm-up instance (the
    gate checks that instance's answers in every pass)."""
    start = time.perf_counter()
    mods = import_program()
    instances = workload.make(mods, seed)
    workload.run(instances[0], Calls(mods, probe_every=math.inf))
    seconds = time.perf_counter() - start
    factor = contention_of(statistics.mean(reference_probe() for _ in range(SETUP_PROBES)))
    return mods, instances, seconds / factor


def run_pass(workload, mods, instances, calls: Calls) -> tuple[list, float]:
    """Answer every instance once.  Returns each instance's corrected call
    times and the seconds spent answering (checks excluded, span bookkeeping
    and probes not), corrected by the pass's mean contention."""
    bounds, answering = [], 0.0
    first_call, first_probe = len(calls.durations), len(calls.probes)
    for i, inst in enumerate(instances):
        calls.instance = i
        first = len(calls.durations)
        start = time.perf_counter()
        answers = workload.run(inst, calls)
        answering += time.perf_counter() - start
        bounds.append((first - first_call, len(calls.durations) - first_call))
        workload.check(mods, inst, answers)
    calls.probe()
    corrected = calls.corrected(first_call, first_probe)
    factor = contention_of(statistics.mean(calls.probes[first_probe:]))
    return [corrected[a:b] for a, b in bounds], answering / factor


def _passes(workload, mods, instances, calls, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, mods, instances, calls))
    return passes


def run(workload, seed: int, seconds: float, trace: bool,
        span_dir: Path | None = None) -> tuple[dict, int, int]:
    """One benchmark run: the result object printed as JSON, the number of
    passes made and the number of instances in a pass."""
    setups = []
    for _ in range(1 if trace else SETUP_REPS):
        mods, instances, setup_s = set_up(workload, seed)
        setups.append(setup_s)
    calls = Calls(mods)
    if trace:
        _, reference = run_pass(workload, mods, instances, calls)
        calls = Calls(mods)
        calls.tracing = True
        with NodeCounter(calls) as counter:
            passes = _passes(workload, mods, instances, calls, seconds)
        metrics = _per_layer(calls.spans, counter.nodes, [t for t, _ in passes],
                             statistics.median(a for _, a in passes) - reference)
        if span_dir is not None:
            _write_spans(span_dir, workload.name, seed, calls.spans)
    else:
        passes = _passes(workload, mods, instances, calls, seconds)
        metrics = _end_to_end([t for t, _ in passes], statistics.median(setups), calls)
    result = {"correct": True, "attempted": calls.attempted, "failed": 0,
              "metrics": metrics}
    return result, len(passes), len(instances)


def _end_to_end(passes: list, setup_s: float, calls: Calls) -> dict:
    # zip(*passes) pairs an instance's call times across passes, and
    # zip(*those) pairs one call's times.
    times = [sum(map(min, zip(*runs))) for runs in zip(*passes)]
    values = {
        "setup_s": setup_s,
        "instances_per_s": len(times) / sum(times),
        "instance_p50_ms": 1e3 * statistics.median(times),
        "instance_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
        "conclusive_ratio": 1 - calls.inconclusive / calls.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def _per_layer(spans: list[dict], nodes: Counter, passes: list,
               overhead_s: float) -> dict:
    # Every pass makes the same calls in the same order, so the i-th call
    # time of each pass and the i-th span belong to one call; as for the
    # end-to-end times, a call's busy time is its fastest over the passes,
    # and counts come from one pass.
    first = spans[:len(spans) // len(passes)]
    call_times = list(map(min, zip(*([t for inst in times for t in inst]
                                     for times in passes))))
    passes = len(passes)
    busy: Counter = Counter()
    calls: Counter = Counter()
    verdicts: Counter = Counter()
    stages: Counter = Counter()
    for span, seconds in zip(first, call_times):
        name = span["name"]
        busy[name] += seconds
        calls[name] += 1
        verdicts[name.split(".")[0], span["verdict"]] += 1
        verdicts[name, span["verdict"]] += 1
        for stage, outcome in span.get("stages", ()):
            stages[stage.split("[")[0], outcome] += 1
    known = {(stage, o) for stage, outcomes in STAGE_OUTCOMES for o in outcomes}
    for unknown in sorted(set(stages) - known):
        print(f"note: stage outcome {unknown} has no metric", file=sys.stderr)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    detect_busy = sum(v for k, v in busy.items() if k.startswith("detect."))
    fcm, pipe = "minors.find_clique_minor", "anticomplete.main_pipeline"
    values = {f"{layer}.{fn}.busy_s": busy[f"{layer}.{fn}"]
              for layer, fns in SPANNED.items() for fn in fns}
    values["certificates.verify_certificate.calls"] = calls["certificates.verify_certificate"]
    values.update({f"{layer}.nodes": nodes[layer] / passes for layer in NODE_LAYERS})
    values.update({
        "detect.us_per_node": 1e6 * ratio(detect_busy, nodes["detect"] / passes),
        "detect.budget_exceeded": verdicts["detect", "budget"],
        "detect.absent": verdicts["detect", "absent"],
        "minors.found_ratio": ratio(verdicts[fcm, "found"], calls[fcm]),
        "minors.budget_exceeded": verdicts["minors", "budget"],
        "anticomplete.success_ratio": ratio(verdicts[pipe, "found"], calls[pipe]),
        "trace.overhead_s": overhead_s,
    })
    values.update({f"anticomplete.stage.{stage}.{outcome}": stages[stage, outcome]
                   for stage, outcome in sorted(known)})
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_specs()}


def summary(name: str, result: dict, passes: int, per_pass: int, trace: bool) -> str:
    """The human-readable line printed before a run's JSON result."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        return (f"# {name}: traced {passes} pass(es) of {per_pass} instances, "
                f"tracing overhead {m['trace.overhead_s']:.3f} s per pass")
    tail = "" if per_pass >= P90_MIN_SAMPLES else ", so fewer than 10 lie beyond p90"
    return (f"# {name}: {passes} pass(es) of {per_pass} instances{tail}; "
            f"inconclusive_ratio {1 - m['conclusive_ratio']:.4f} "
            f"of {result['attempted']} queries")


def _write_spans(span_dir: Path, workload: str, seed: int, spans: list[dict]) -> None:
    span_dir.mkdir(parents=True, exist_ok=True)
    path = span_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans))
