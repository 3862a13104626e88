"""Per-layer tracing by wrapping `pan` functions from outside.

Each wrapped function is replaced under the name by which its caller looks it
up (``pan.training.normalize_adjacency`` as well as
``pan.encoders.normalize_adjacency``), so a call is seen whichever module makes
it. Spans live in memory as ``[name, start, end, parent, op]`` and are written
out once, at exit. A layer's self time is its span's duration minus the time
covered by its child spans. A name that no longer exists is reported as absent
and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, layer) for every function timed as a span;
# autodiff.backward is timed and counted by Tracer.install itself
SPAN_TARGETS = (
    ("pan.cli", "gradcheck_composition", "cli.gradcheck_draw"),
    ("pan.training", "drop_edges", "encoders.drop_edges"),
    ("pan.training", "normalize_adjacency", "encoders.adjacency"),
    ("pan.encoders", "normalize_adjacency", "encoders.adjacency"),
    ("pan.cli", "normalize_adjacency", "encoders.adjacency"),
    ("pan.training", "encode_on_tape", "encoders.encode_tape"),
    # gradcheck_composition imports encode_on_tape from pan.encoders per call
    ("pan.encoders", "encode_on_tape", "encoders.encode_tape"),
    ("pan.training", "encode", "encoders.encode"),
    ("pan.csm", "csm_on_tape", "csm.tape_forward"),
    ("pan.csm", "csm_pair_scores", "csm.pair_scores"),
    ("pan.training", "pair_label_matrix", "attributes.pair_labels"),
    ("pan.evaluation", "pair_label_matrix", "attributes.pair_labels"),
    ("pan.training", "_sample_pair_arrays", "training.sample_pairs"),
    ("pan.training", "adam_step", "training.adam"),
    ("pan.training", "_Validator.__call__", "training.validate"),
    ("pan.evaluation", "few_shot_accuracy", "evaluation.fewshot"),
    ("pan.evaluation", "balanced_pair_accuracy", "evaluation.pair_acc"),
    ("pan.evaluation", "fitb_accuracy", "evaluation.fitb"),
    ("pan.evaluation", "compatibility_auc", "evaluation.auc"),
    ("pan.evaluation", "attribute_map", "evaluation.attr_map"),
    ("pan.evaluation", "recall_at_k", "evaluation.recall"),
    ("pan.data", "generate", "data.generate"),
    ("pan.data", "presence_bayes_accuracy", "data.presence_oracle"),
    ("pan.data", "save_bundle", "data.save_bundle"),
    ("pan.data", "load_bundle", "data.load_bundle"),
    ("pan.data", "build_episodes", "data.episodes"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPAN_TARGETS)) + (
    "autodiff.backward", "autodiff.probe",
)
# layers timed in set-up (total ms), not per op
SETUP_LAYERS = (
    "data.generate", "data.presence_oracle", "data.save_bundle",
    "data.load_bundle", "data.episodes",
)
COUNTERS = (
    "autodiff.tape_ops", "autodiff.probes", "evaluation.encode_calls",
    "evaluation.pairs_scored",
)
ROOT = "op"


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans and counters for calls made while an op (or set-up) is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def begin(self, op) -> None:
        """Open the root span of an op; ``op`` is its id, or "setup"."""
        self.op = op
        self._open(ROOT)

    def end(self) -> None:
        self._close(self.stack[-1])
        self.op = None

    def count(self, name: str, amount: int) -> None:
        if self.op is not None:
            self.counts[self.op][name] += amount

    def timed(self, fn, name: str):
        """``fn`` wrapped in a span named ``name`` while an op is open."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def probe(self, loss_fn):
        """The ``loss_fn`` handed to ``finite_diff_errors``, timed and counted."""
        timed = self.timed(loss_fn, "autodiff.probe")

        def wrapper(tape, tensors):
            self.count("autodiff.probes", 1)
            return timed(tape, tensors)

        return wrapper

    # -- installing wrappers ---------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr = found
        original = owner.__dict__.get(attr, getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module, path, layer in SPAN_TARGETS:
            self._patch(module, path, lambda fn, layer=layer: self.timed(fn, layer))

        def backward(fn):
            timed = self.timed(fn, "autodiff.backward")

            @functools.wraps(fn)
            def wrapper(tape, output, *args, **kwargs):
                self.count("autodiff.tape_ops", len(tape.records))
                return timed(tape, output, *args, **kwargs)

            return wrapper

        def score_pairs(fn):
            @functools.wraps(fn)
            def wrapper(model, pairs, *args, **kwargs):
                self.count("evaluation.pairs_scored", len(pairs))
                return fn(model, pairs, *args, **kwargs)

            return wrapper

        def encode_all(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.count("evaluation.encode_calls", 1)
                return fn(*args, **kwargs)

            return wrapper

        self._patch("pan.autodiff", "backward", backward)
        self._patch("pan.evaluation", "score_pairs", score_pairs)
        self._patch("pan.training", "ModelBundle.encode_all", encode_all)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.absent.clear()

    # -- reporting -------------------------------------------------------

    def self_times(self) -> dict:
        """{op: {layer: self seconds}} over every recorded span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, _parent, op) in enumerate(self.spans):
            out[op][name] += (end - start) - covered[k]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Per-layer metrics: mean self ms and counts per op in ``ops``, and
    set-up layers as total ms."""
    selfs = tracer.self_times()
    n = max(1, len(ops))
    out = {}
    for layer in LAYERS:
        if layer in SETUP_LAYERS:
            out[f"{layer}_ms"] = 1000.0 * selfs["setup"].get(layer, 0.0)
        else:
            out[f"{layer}_ms"] = 1000.0 * sum(selfs[op].get(layer, 0.0) for op in ops) / n
    for name in COUNTERS:
        out[name] = sum(tracer.counts[op].get(name, 0) for op in ops) / n
    out["trace.unattributed_ms"] = 1000.0 * sum(selfs[op].get(ROOT, 0.0) for op in ops) / n
    return out
