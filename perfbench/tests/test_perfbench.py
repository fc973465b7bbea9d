"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT,
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    printed = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}")
            for line in printed
        ), name


def test_raising_run_is_counted_as_failed_not_fatal(monkeypatch):
    from repro.experiments.harness import ExperimentRun

    original = ExperimentRun.step

    def step(run, *args, **kwargs):
        if run.variant.name == "Degrade":
            raise RuntimeError("forced failure")
        return original(run, *args, **kwargs)

    monkeypatch.setattr(ExperimentRun, "step", step)
    result = worker.measure("paper16-figures", 42, 3, 0.0, "run", tiny=True)
    # Fig-8 (three queries) and Fig-11 each compare one Degrade run.
    assert result["attempted"] == 16
    assert result["failed"] == 4
    assert all("forced failure" in line for line in result["failures"])
    assert result["ticks"] == 12 * 60


def test_digest_disagreement_between_passes_fails_the_run():
    def outcome(digest):
        return workloads.RunOutcome(digest)

    first, second = worker.PassResult(), worker.PassResult()
    first.outcomes = [outcome("a"), outcome("b")]
    second.outcomes = [outcome("a"), outcome("c")]
    attempted, failed, lines = worker.check_passes([first, second])
    assert (attempted, failed) == (4, 1)
    assert "differs from the first pass" in lines[0]


def test_span_self_time_excludes_children():
    from repro.experiments.harness import ExperimentRun

    recorder = spans.SpanRecorder()
    original_step = ExperimentRun.step
    recorder.install()
    assert ExperimentRun.step is not original_step
    recorder.uninstall()
    assert ExperimentRun.step is original_step

    outer = recorder._wrap("experiments.harness.step", lambda f: f())
    inner = recorder._wrap("engine.runtime.tick", lambda: time.sleep(0.02))
    outer(inner)
    per_layer = recorder.per_layer()
    calls, self_s, _ = per_layer["experiments.harness.step"]
    tick_calls, tick_self_s, _ = per_layer["engine.runtime.tick"]
    assert (calls, tick_calls) == (1, 1)
    assert tick_self_s >= 0.02
    assert 0.0 <= self_s < 0.01


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wan64-live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
