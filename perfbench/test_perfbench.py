"""Self-test of the benchmark: every workload at a tiny size, traced and
untraced, plus the agreement of BENCHMARK.json with what run.py prints.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_untraced(name, tmp_path):
    res = workloads.WORKLOADS[name](5, 0.1, False, tmp_path / "work", workloads.TINY)
    assert res.attempted > 0 and res.failed == 0
    metrics = res.end_to_end()
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_traced(name, tmp_path):
    res = workloads.WORKLOADS[name](5, 0.1, True, tmp_path / "work", workloads.TINY)
    assert res.attempted > 0 and res.failed == 0
    assert res.overhead_ms is not None
    metrics = tracing.layer_metrics(res.spans)
    metrics["trace.overhead_ms"] = res.overhead_ms
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.spans"] > 0


def test_same_seed_same_compose_frames(tmp_path):
    first = workloads.run_compose(9, 0.1, False, tmp_path / "a", workloads.TINY)
    second = workloads.run_compose(9, 0.1, False, tmp_path / "b", workloads.TINY)
    assert first.digests == second.digests
    assert len({d for ds in first.digests.values() for d in ds}) == 1


def test_cycle_runs_one_round_then_stops_at_the_deadline():
    calls = []
    durations = workloads._cycle(0.0, ("a", "b", "c"), lambda k: calls.append(k) or 1.0)
    assert calls == ["a", "b", "c"] and durations == [1.0, 1.0, 1.0]


def test_benchmark_json_units_match_run():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    for metric in SPEC["per_layer"]:
        assert run.layer_unit(metric["name"]) == metric["unit"], metric["name"]


def test_self_time_excludes_children():
    spans = [tracing.Span(0, None, "a", 0, 100, {}),
             tracing.Span(1, 0, "b", 10, 40, {}),
             tracing.Span(2, 0, "b", 30, 50, {})]
    children = {0: spans[1:]}
    assert tracing._self_ns(spans[0], children) == 60


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "compose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
