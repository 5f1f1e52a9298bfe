"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layer_metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_targets  # noqa: E402

SEED = 11
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_SUFFIXES = (".calls", ".rows", ".points")
# cheap operations that still reach every traced layer but the CSV-heavy ones
SUBSET = {
    "leaf": ("trace_weighted_n4", "level_map_ball2"),
    "scan": ("suite_corpus", "scan_normsq_n8", "weights_weighted_n8"),
    "grid": ("burns_normsq_n4",),
}


def _subset_ops():
    return [op for w, names in SUBSET.items() for op in workloads.build(w, SEED) if op.name in names]


def _traced_pass(ops):
    tracer = Tracer()
    with tracer.installed(layer_targets()):
        wall, records = run.run_pass(ops, tracer)
    return tracer, wall, records


@pytest.fixture(scope="module")
def traced_twice():
    ops = _subset_ops()
    return [_traced_pass(ops) for _ in range(2)]


def test_subset_operations_meet_expectations(traced_twice):
    for _, _, records in traced_twice:
        assert [r["problems"] for r in records] == [[]] * len(records)


def test_spans_nest(traced_twice):
    tracer, _, _ = traced_twice[0]
    spans = tracer.arrays()
    parent = spans["parent"]
    child = np.nonzero(parent >= 0)[0]
    assert len(child) > 1000
    assert np.all(parent[child] < child)
    assert np.all(spans["start"][child] >= spans["start"][parent[child]])
    assert np.all(spans["end"][child] <= spans["end"][parent[child]])
    assert np.all(spans["op"][child] == spans["op"][parent[child]])
    assert np.all(spans["self"] >= -1e-9)
    bounds = np.array(tracer.op_bounds)
    op = spans["op"]
    assert np.all(op >= 0)
    assert np.all(spans["start"] >= bounds[op, 0]) and np.all(spans["end"] <= bounds[op, 1])


def test_top_level_spans_fit_in_pass_wall(traced_twice):
    tracer, wall, _ = traced_twice[0]
    spans = tracer.arrays()
    top = spans["parent"] < 0
    assert top.any()
    assert float((spans["end"] - spans["start"])[top].sum()) <= wall


def test_count_metrics_repeat_exactly(traced_twice):
    first, second = (layer_metrics.compute(tr) for tr, _, _ in traced_twice)
    counts = [n for n in first if n.endswith(COUNT_SUFFIXES) or n == "foliation.field_evals_per_node"]
    assert first["foliation.field_evals_per_node"] > 0
    assert first["levi.fields_at_many.points"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_digests_repeat_exactly(traced_twice):
    (_, _, first), (_, _, second) = traced_twice
    assert [r["digest"] for r in first] == [r["digest"] for r in second]
    assert all(r["digest"] for r in first)


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrapped_names_restored_when_an_operation_raises():
    from mafoliation import levi, potential

    class Unpackable(potential.PolyPotential):
        __slots__ = ()

        def _pack(self):
            raise RuntimeError("boom")

    targets = layer_targets()
    before = [_bound(owner, attr) for owner, attr, _ in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets), tracer.operation("raises"):
            levi.fields_at_many(Unpackable(1, {((1,), (1,)): 1}), np.ones((1, 1)))
    assert all(_bound(owner, attr) is b for (owner, attr, _), b in zip(targets, before))
    assert tracer.names[tracer.name_id[0]] == "levi.fields_at_many"
    assert tracer.end[0] >= tracer.start[0]


def _run_bench(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


@pytest.fixture(scope="module")
def scan_runs():
    runs = {trace: _run_bench("scan", trace) for trace in (0, 1)}
    for out in runs.values():
        assert out.returncode == 0, out.stderr
    return runs


def test_printed_names_are_declared(scan_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    sections = {0: "end_to_end", 1: "per_layer"}
    for trace, out in scan_runs.items():
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared[sections[trace]]}
        for m in declared[sections[trace]]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        for line in lines:
            if line.startswith("metric "):
                _, name, _value, unit = line.split(" ")
                assert NAME_RE.fullmatch(name) and re.search(rf"\b{re.escape(name)}\b", text), name
                assert unit


def test_timed_workload_fails_nothing_and_probe_shows_known_defects(scan_runs):
    result = json.loads(scan_runs[0].stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    shown = [line for line in scan_runs[0].stdout.splitlines() if line.startswith("known_defect ")]
    assert [line.split(":")[0] for line in shown] == [
        "known_defect suite_bundled", "known_defect suite_generated", "known_defect analyze_normsq_n8"]
    assert "known_defect suite_generated: shown ['FAIL chain_n8.pot euler_ma_iff'" in scan_runs[0].stdout


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    out = _run_bench("leaf", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
