"""The benchmark's workloads at smoke size, run as the benchmark is run:
``python3 benchmarks/run.py ... --smoke`` from the repository root.

Each run checks every op itself. A training op must give bit-identical
parameters and history across ops, a falling loss, and pair scores whose bits
do not change when (i, j) is swapped; an eval op must match its reference
metrics, and a gradcheck op its finite differences. A traced run also checks
each op's call counts against those its inputs imply. A run that fails any
check reports ``"correct": false`` or a failed op.
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
    assert result["failed"] == 0, proc.stderr
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


# a traced eval or gradcheck op whose encode, scoring or probe counts differ
# from those its inputs imply is not correct
@pytest.mark.parametrize("workload,counters", [
    ("eval", ("evaluation.encode_calls", "evaluation.pairs_scored")),
    ("gradcheck", ("autodiff.probes",)),
])
def test_eval_and_gradcheck_workloads_pass_their_checks(workload, counters):
    metrics = _traced_metrics(workload)
    for name in counters:
        assert metrics[name]["value"] > 0, name
