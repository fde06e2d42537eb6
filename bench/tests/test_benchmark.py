"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from gate import GateError  # noqa: E402


def tiny(name: str):
    """The named workload with its sizes cut down so a run takes a second."""
    if name == "sparse-core":
        wl = workloads.SparseCore()
        wl.ELIMINATION_SIZES, wl.SIZES = (30,), (80,)
    elif name == "exact-search":
        wl = workloads.ExactSearch()
        wl.SIZES, wl.COPIES, wl.ORACLE_SIZE = (14,), 1, 10
    else:
        wl = workloads.Pipeline()
        wl.IDEAL_T, wl.FULL_T, wl.GNP_COPIES = (6,), (6,), 1
        wl.GNP_SHAPES, wl.MINOR_SIZES, wl.DEFECT_N = ((16, 0.3),), (5, 6), 12
    return wl


NAMES = ("sparse-core", "exact-search", "pipeline")


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_at_tiny_size(name, tmp_path):
    result, passes, _ = harness.run(tiny(name), seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and passes == 1
    values = _values(result)
    assert list(values) == [m for m, _, _ in harness.END_TO_END]
    assert all(v > 0 for v in values.values())

    traced, _, _ = harness.run(tiny(name), seed=3, seconds=0, trace=True,
                               span_dir=tmp_path)
    assert list(traced["metrics"]) == [m for m, _, _ in harness.per_layer_specs()]
    spans = json.loads((tmp_path / f"spans-{name}-seed3.json").read_text())
    assert len(spans) == traced["attempted"]
    assert {s["name"].split(".")[0] for s in spans} <= set(harness.LAYERS)


def _tamper(monkeypatch, layer: str, fn: str, change):
    real_import = harness.import_program

    def tampered_import():
        mods = real_import()
        real = getattr(mods[layer], fn)
        setattr(mods[layer], fn, lambda *a, **kw: change(mods, real(*a, **kw)))
        return mods

    monkeypatch.setattr(harness, "import_program", tampered_import)


def _drop_last_vertex(mods, result):
    k, order = result
    return k, type(order)(order.order[:-1], order.bound)


def _claim_lower_degeneracy(mods, result):
    k, order = result
    return k - 1, type(order)(order.order, order.bound - 1)


@pytest.mark.parametrize("change", [_drop_last_vertex, _claim_lower_degeneracy])
def test_tampered_elimination_order_fails(monkeypatch, change):
    _tamper(monkeypatch, "detect", "degeneracy", change)
    with pytest.raises(GateError):
        harness.run(tiny("sparse-core"), seed=3, seconds=0, trace=False)


def _cut_cycle(mods, cycle):
    if cycle is None:
        return None
    return mods["certificates"].InducedCycle(cycle.vertices[:-1])


def _hide_cycle(mods, cycle):
    return None


@pytest.mark.parametrize("fn", ["longest_induced_cycle", "find_long_induced_cycle"])
@pytest.mark.parametrize("change", [_cut_cycle, _hide_cycle])
def test_tampered_induced_cycle_fails(monkeypatch, fn, change):
    _tamper(monkeypatch, "detect", fn, change)
    with pytest.raises(GateError):
        harness.run(tiny("exact-search"), seed=3, seconds=0, trace=False)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_work(name):
    wl = tiny(name)
    mods = harness.import_program()
    first, second = wl.make(mods, 5), wl.make(mods, 5)
    assert [(i.kind, i.n, i.edges, i.seed) for i in first] == \
        [(i.kind, i.n, i.edges, i.seed) for i in second]

    runs = [harness.run(wl, seed=5, seconds=0, trace=False)[0] for _ in range(2)]
    assert _values(runs[0])["conclusive_ratio"] == _values(runs[1])["conclusive_ratio"]
    traced = [_values(harness.run(wl, seed=5, seconds=0, trace=True)[0])
              for _ in range(2)]
    counts = [m for m, unit, _ in harness.per_layer_specs() if unit in ("count", "ratio")]
    assert {m: traced[0][m] for m in counts} == {m: traced[1][m] for m in counts}


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        harness.per_layer_specs()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
