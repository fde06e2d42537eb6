"""Benchmark of chibound: three seeded workloads, timed end to end, with a
separate traced run for per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-search --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads: sparse-core, exact-search and pipeline (see workloads.py for why
each exists); `all` runs the three in turn.  For each workload the run
prints a summary line and then one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.  A traced run also writes
its spans to .bench_out/.  A wrong answer aborts the run with exit code 1,
and a checkout without src/chibound exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sparse-core", "exact-search", "pipeline")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chibound" / "__init__.py").is_file():
        print(f"error: no chibound sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(HERE)]
    import harness
    import workloads
    from gate import GateError

    chosen = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    by_name = {w.name: w for w in workloads.WORKLOADS}
    for name in chosen:
        try:
            result, passes, per_pass = harness.run(
                by_name[name], args.seed, args.seconds, bool(args.trace), SPAN_DIR)
        except GateError as exc:
            print(f"error: correctness gate failed on {name}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                              "metrics": {}}))
            return 1
        print(harness.summary(name, result, passes, per_pass, bool(args.trace)))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
