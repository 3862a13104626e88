"""Benchmark for `pan`: times calls into its public functions from outside.

    python3 benchmarks/run.py --workload train-mlp --seed 1 --seconds 15 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (setup_s, op_ms, ops_per_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, from a run that
wraps `pan`'s functions (see tracing.py). ``--smoke`` shrinks every input for
a quick test; its numbers are not comparable with full-size runs.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads: the default threads doubled the
# time of an MLP epoch and its spread on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # every run compiles `pan` alike, and leaves no cache

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train-mlp", "train-gcn", "gradcheck", "eval")


def _process_age() -> float:
    """Seconds since this process started, as far as /proc tells (10 ms steps)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_START = _process_age()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return p.parse_args(argv)


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Phase:
    """Timed ops of one stretch of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # ops that returned outputs a check rejected
        self.durations = []     # seconds, ops that passed
        self.busy = 0.0         # seconds inside ops, passed or not
        self.ok_ops = []
        self.problems = []

    def op_ms(self) -> float:
        return 1000.0 * statistics.median(self.durations)


def measure(workload, seconds: float, settle, tracer=None, first_op: int = 0) -> Phase:
    """Whole rounds of ops until ``seconds`` have passed; ``settle`` runs
    before each op, and it and the checks are not timed."""
    phase = Phase()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for item in workload.round():
            op = first_op + phase.attempted
            phase.attempted += 1
            settle()
            if tracer is not None:
                tracer.begin(op)
            t0 = time.perf_counter()
            try:
                result = workload.run(item)
                error = None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            phase.busy += elapsed
            if error is not None:
                phase.failed += 1
                phase.problems.append(f"op {item}: {error}")
                continue
            problems = workload.check(item, result)
            if tracer is not None:
                for name, want in workload.expected_counts(item, result).items():
                    got = tracer.counts[op].get(name, 0)
                    if got != want:
                        problems.append(f"traced {name} = {got}, inputs give {want}")
            if problems:
                phase.failed += 1
                phase.wrong += 1
                phase.problems.append(f"op {item}: {'; '.join(problems)}")
                continue
            phase.durations.append(elapsed)
            phase.ok_ops.append(op)
    return phase


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pan" / "__init__.py").is_file():
        print(f"benchmark: no `pan` package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pan

    if Path(pan.__file__).resolve().parent != (SRC / "pan").resolve():
        print(f"benchmark: imported `pan` from {pan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, layer_metrics

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, Path(tmp))
        if tracer is not None:
            tracer.install()
            tracer.begin("setup")
        workload.setup()
        if tracer is None:
            setup_s = time.perf_counter() - _START + _AGE_AT_START
            phase = measure(workload, args.seconds, workloads.settle)
        else:
            tracer.end()
            tracer.uninstall()
            plain = measure(workload, args.seconds / 2, workloads.settle)
            tracer.install()
            absent = list(tracer.absent)
            if hasattr(workload, "wrap_probe"):
                workload.wrap_probe = tracer.probe
            phase = measure(workload, args.seconds / 2, workloads.settle, tracer,
                            first_op=plain.attempted)
            tracer.uninstall()

    for line in phase.problems[:5]:
        print(f"failed {line}", file=sys.stderr)
    if not phase.durations:
        print("benchmark: no op completed", file=sys.stderr)
        return 1
    lo, hi = _quartiles(phase.durations)
    print(f"workload {args.workload} seed {args.seed}: {len(phase.durations)} ops, "
          f"op_ms median {phase.op_ms():.2f} quartiles {1000 * lo:.2f}-{1000 * hi:.2f}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (phase.op_ms(), "ms"),
            "ops_per_s": (len(phase.durations) / phase.busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}; absent: {absent or 'none'}")
        layers = layer_metrics(tracer, phase.ok_ops)
        layers["trace.overhead_ms"] = phase.op_ms() - plain.op_ms()
        metrics = {
            name: (value, "count" if "_ms" not in name else "ms")
            for name, value in layers.items()
        }
        phase.attempted += plain.attempted
        phase.failed += plain.failed
        phase.wrong += plain.wrong
    print(json.dumps({
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
