"""Smoke test of the benchmark harness itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402 - puts the checkout's src on the import path
from build_load import BuildWorkload  # noqa: E402
from repro.serving import ServingClient  # noqa: E402

_TINY_SERVING = {"release_nodes": 300, "setups": 1, "warmup_s": 0.1, "windows": 2}
TINY = {
    "batch-single": dataclasses.replace(
        run.WORKLOADS["batch-single"], batch_size=16, pool=4, **_TINY_SERVING),
    "batch-tier": dataclasses.replace(
        run.WORKLOADS["batch-tier"], batch_size=16, pool=4, **_TINY_SERVING),
    "query-tier": dataclasses.replace(run.WORKLOADS["query-tier"], pool=64, **_TINY_SERVING),
    "build-release": BuildWorkload(documents=60, length=8, batch_size=16, corpora=2),
}


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run(name, tmp_path):
    result = run.benchmark(name, TINY[name], seed=3, seconds=0.6, trace=True, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.PER_LAYER)

    record = json.loads((tmp_path / f"{name}-seed3-trace1.json").read_text())
    for phase in ("untraced", "traced"):
        metrics = record[phase]["metrics"]
        assert set(metrics) == set(run.END_TO_END) | set(run.REPORTED)
        assert all(value > 0 for value in metrics.values()), metrics
    assert set(record["tracing_overhead"]) == set(run.END_TO_END) | set(run.REPORTED)
    assert record["environment"]["seed"] == 3 and record["environment"]["cpus"] >= 1

    events = json.loads((tmp_path / f"{name}-seed3-trace1.trace.json").read_text())["traceEvents"]
    assert events and all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
    assert not list(tmp_path.glob("work-*")), "scratch stores must be removed"


def test_wrong_count_fails_the_run(tmp_path, monkeypatch):
    original = ServingClient.batch

    def off_by_one(self, patterns, *args, **kwargs):
        counts = original(self, patterns, *args, **kwargs)
        counts[0] += 1.0
        return counts

    monkeypatch.setattr(ServingClient, "batch", off_by_one)
    result = run.benchmark("batch-single", TINY["batch-single"], seed=3, seconds=0.3,
                           trace=False, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
