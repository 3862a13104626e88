"""Smoke tests of the benchmark at its tiny size: every workload runs, passes
its checks, and prints every metric that BENCHMARK.json names.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train-mlp", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["b", 6.0, 8.0, 0, 0],
    ]
    selfs = tracer.self_times()[0]
    assert selfs == {"op": 4.0, "a": 3.0, "b": 3.0}


def test_absent_names_are_reported_not_fatal():
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    tracer._patch("pan.training", "no_such_function", lambda fn: fn)
    assert tracer.absent == ["pan.training.no_such_function"]


def test_near_ties_widen_the_accepted_range():
    # ranks 2 and 3 are a near-tie between a negative and a positive
    scores = np.array([0.9, 0.5, 0.5 + 1e-12, 0.1])
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    low, high = reference._ap_bounds(scores, labels)
    assert low == pytest.approx((1 / 3 + 2 / 4) / 2) and high == pytest.approx((1 / 2 + 2 / 4) / 2)
    assert not reference.within(high + 1e-6, (low, high))
