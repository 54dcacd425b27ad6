"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

Every workload runs untraced and traced at tiny size, and the result must
carry exactly the metrics BENCHMARK.json names.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import gate
import workloads
import yardstick

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.FULL) and names == list(workloads.SMOKE)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "dense-shallow", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_catches_a_shifted_mean_and_a_changed_analytic_value():
    ref = {"analytic_rate": "300.0", "trials": 8, "mean": 200.0, "sd": 8.0, "n": 400,
           "bound_required": True}
    report = SimpleNamespace(analytic_rate=300.0, trials=8, mean_rate=203.0, bound_satisfied=True)
    assert gate.check_report(report, ref) == []
    assert gate.check_report(SimpleNamespace(**{**vars(report), "mean_rate": 230.0}), ref)
    assert gate.check_report(SimpleNamespace(**{**vars(report), "analytic_rate": 299.0}), ref)


def test_steady_seconds_scale_work_by_the_yardstick_beside_it():
    clock = yardstick.SteadyClock()
    clock.runs = [(0.0, 1.0), (3.0, 4.0), (5.0, 8.0)]  # yardstick took 1, 1, 3 seconds
    ref = clock.reference_s
    assert clock.steady_seconds(1.0, 3.0) == pytest.approx(2.0 * ref)
    assert clock.steady_seconds(1.0, 5.0) == pytest.approx(2.0 * ref + 1.0 * ref / 2.0)
    assert clock.steady_seconds(8.0, 9.0) == pytest.approx(ref / 3.0)
