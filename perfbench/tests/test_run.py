"""A tiny-size pass of every workload through the one command."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_code():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END, WORKLOADS

    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_pass(workload, trace):
    result = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", trace, "--refs-per-cpu", "10",
    )
    assert result.returncode == 0, result.stderr[-3000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, result.stdout[-3000:]
    assert last["attempted"] >= 1 and last["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in last["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    if trace == "1":
        trace_file = ROOT / "perfbench" / "out" / f"trace-{workload}-seed3.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
    else:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    result = _run(tmp_path, "--workload", "model_2d", "--seconds", "1")
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
