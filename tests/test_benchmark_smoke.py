"""The benchmark's training workloads at smoke size, run as the benchmark is
run: ``python3 benchmarks/run.py ... --smoke`` from the repository root.

Each run repeats `train_pan` and checks every op itself: bit-identical
parameters and history across ops, a falling loss, and pair scores whose bits
do not change when (i, j) is swapped. A run that fails any check reports
``"correct": false`` or a failed op.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train-gcn", "train-mlp"])
def test_training_workload_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1


def _traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result["metrics"]


# the tracer patches module globals, so a trainer that binds one of these
# names early, or calls it under another name, would read 0 here
def test_traced_run_attributes_time_to_each_training_layer():
    metrics = _traced_metrics("train-mlp")
    for layer in ("training.adam_ms", "training.sample_pairs_ms", "encoders.encode_tape_ms",
                  "csm.tape_forward_ms", "autodiff.backward_ms", "training.validate_ms"):
        assert metrics[layer]["value"] > 0, layer


def test_traced_gcn_run_attributes_time_to_edge_dropout():
    assert _traced_metrics("train-gcn")["encoders.drop_edges_ms"]["value"] > 0
