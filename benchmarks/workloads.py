"""The four workloads: set-up, one op, and the checks on an op's outputs.

A workload's ``setup`` makes its inputs from the seed, runs one untimed
warm-up op and shows that each of its checks fails on a deliberately wrong
input. ``round`` lists the ops of one round; the runner times ``run`` and then
calls ``check``, which returns the problems it found (none for a good op).
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import gc
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pan import autodiff as ad
from pan import cli
from pan import csm
from pan import data
from pan import evaluation as ev
from pan import training as tr
from pan.encoders import EncoderSpec

import reference as refmod

GRAD_TOLERANCE = 1e-4   # acceptance criterion 1
SCORE_TOLERANCE = 1e-12  # program against reference pair scores
OMEGA_TOLERANCE = 1e-12  # relevance weights sum to one


@dataclass(frozen=True)
class Sizes:
    items: int = 2000            # compat-manifest bundle
    fewshot_items: int = 1000    # fewshot-clusters bundle
    pairs_per_epoch: int = 4096
    mlp_epochs: int = 12
    gcn_epochs: int = 6
    checkpoint_epochs: int = 20  # the checkpoints `eval` reads
    gradcheck_seeds: int = 100
    episodes: int = 600
    attr_pairs: int = 20000


FULL = Sizes()
SMOKE = Sizes(items=400, fewshot_items=440, pairs_per_epoch=256, mlp_epochs=3,
              gcn_epochs=3, checkpoint_epochs=3, gradcheck_seeds=6, episodes=20,
              attr_pairs=2000)


def _libc_trim():
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None


_TRIM = _libc_trim()


def settle() -> None:
    """Free the garbage of whatever ran before, and hand freed heap pages back
    to the system, so an op's peak memory does not depend on what preceded
    it. Called before every op, the warm-up included; never timed."""
    gc.collect()
    if _TRIM is not None:
        _TRIM(0)


class SetupError(RuntimeError):
    """Set-up could not make valid inputs, or a check did not fail on a
    deliberately wrong input."""


def _must_fail(problems: list[str], control: str) -> None:
    if not problems:
        raise SetupError(f"negative control passed a check it must fail: {control}")


def _pan(*argv) -> None:
    """Run the `pan` command line in-process; its chatter goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SetupError(f"pan {argv[0]} exited with {code}")


def _gen_compat(tmp: Path, sizes: Sizes, seed: int) -> Path:
    out = tmp / "compat"
    _pan("gen", "--task", "compat-manifest", "--items", sizes.items, "--dim", 16,
         "--attrs", 6, "--density", 0.8, "--noise", 0.2, "--seed", seed, "--out", out)
    return out


def _gen_fewshot(tmp: Path, sizes: Sizes, seed: int) -> Path:
    out = tmp / "fewshot"
    _pan("gen", "--task", "fewshot-clusters", "--items", sizes.fewshot_items,
         "--dim", 32, "--attrs", 6, "--noise", 0.05, "--classes", 20,
         "--seed", seed, "--out", out)
    return out


def _adjacency(bundle) -> np.ndarray:
    linked = np.zeros((bundle.n, bundle.n), dtype=bool)
    edges = np.array(bundle.graph.edges, dtype=np.int64).reshape(-1, 2)
    linked[edges[:, 0], edges[:, 1]] = True
    linked[edges[:, 1], edges[:, 0]] = True
    return linked


def _pairs_within(indices: np.ndarray, count: int, rng) -> np.ndarray:
    """``count`` distinct unordered pairs of ``indices``, in index order."""
    a, b = np.triu_indices(len(indices), 1)
    keep = np.sort(rng.choice(len(a), size=min(count, len(a)), replace=False))
    return np.stack([indices[a[keep]], indices[b[keep]]], axis=1)


# ---------------------------------------------------------------------------
# checks shared by the workloads; each returns a list of problems
# ---------------------------------------------------------------------------

def check_losses(losses) -> list[str]:
    losses = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(losses).all():
        return ["a training loss is not finite"]
    k = max(1, len(losses) // 3)
    if not losses[-k:].mean() < losses[:k].mean():
        return [f"mean loss of the last {k} epochs is not below that of the first {k}"]
    return []


def check_symmetric(scores, swapped) -> list[str]:
    if not np.array_equal(scores.view(np.uint64), swapped.view(np.uint64)):
        return ["pair scores differ in their bits when (i, j) is swapped"]
    return []


def check_ranges(scores, omega) -> list[str]:
    problems = []
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        problems.append("a pair score lies outside [0, 1]")
    if np.abs(omega.sum(axis=1) - 1.0).max() > OMEGA_TOLERANCE:
        problems.append("a row of relevance weights does not sum to 1")
    return problems


def check_reference(scores, expected) -> list[str]:
    gap = float(np.abs(scores - expected).max())
    if gap > SCORE_TOLERANCE:
        return [f"pair scores differ from the reference forward by {gap:.3e}"]
    return []


def check_metric(name: str, value: float, bounds) -> list[str]:
    if not refmod.within(value, bounds):
        return [f"{name} = {value!r} outside the brute-force range {bounds}"]
    return []


# ---------------------------------------------------------------------------
# train-mlp and train-gcn: one op is one training.train_pan call
# ---------------------------------------------------------------------------

def _fingerprint(model_dict: dict, history) -> str:
    rows = [
        [row.epoch, float(row.train_loss).hex(),
         None if row.val_metric is None else float(row.val_metric).hex()]
        for row in history
    ]
    return json.dumps([model_dict, rows], sort_keys=True)


class Train:
    def __init__(self, encoder: str, seed: int, sizes: Sizes, tmp: Path):
        self.encoder, self.seed, self.sizes, self.tmp = encoder, seed, sizes, tmp
        if encoder == "mlp":
            self.spec = EncoderSpec(kind="mlp", layer_dims=(24, 16))
            epochs = sizes.mlp_epochs
        else:
            self.spec = EncoderSpec(kind="gcn", num_layers=2, hidden_dim=16,
                                    layer_dropout_p=0.5, edge_dropout_p=0.15)
            epochs = sizes.gcn_epochs
        self.csm_config = csm.CsmConfig(m=6, supervision="supervised")
        self.config = tr.TrainConfig(
            lambda_=1.0, learning_rate=0.03, epochs=epochs, seed=seed, fa="or",
            validation_every=max(1, epochs // 3), pairs_per_epoch=sizes.pairs_per_epoch,
        )

    def setup(self) -> None:
        self.bundle = data.load_bundle(_gen_compat(self.tmp, self.sizes, self.seed))
        rng = np.random.default_rng([self.seed, 1])
        val = np.asarray(self.bundle.splits["val"], dtype=np.int64)
        self.check_pairs = _pairs_within(val, 2000, rng)
        self.acc_items = np.sort(rng.choice(val, size=min(200, len(val)), replace=False))
        self.linked = _adjacency(self.bundle)

        settle()
        first = self.run(None)
        self.expected = _fingerprint(tr.model_to_dict(first.model), first.history)
        problems = self.check(None, first)
        if problems:
            raise SetupError(f"warm-up op failed its checks: {problems}")
        self._negative_controls(first)

    def round(self) -> list:
        return [None]

    def run(self, _op):
        return tr.train_pan(self.bundle, self.spec, self.csm_config, self.config)

    def _outputs(self, result):
        model, feats = result.model, self.bundle.features
        scores = model.pair_scores(self.check_pairs, feats)
        swapped = model.pair_scores(self.check_pairs[:, ::-1], feats)
        _rho, omega = model.pair_conditions(self.check_pairs, feats)
        return scores, swapped, omega

    def check(self, _op, result) -> list[str]:
        model_dict = tr.model_to_dict(result.model)
        problems = []
        if _fingerprint(model_dict, result.history) != self.expected:
            problems.append("parameters or history differ from the warm-up op")
        problems += check_losses([row.train_loss for row in result.history])
        scores, swapped, omega = self._outputs(result)
        problems += check_symmetric(scores, swapped)
        problems += check_ranges(scores, omega)
        if self.encoder == "mlp":
            ref = refmod.Reference(model_dict)
            problems += check_reference(scores, ref.pair_scores(self.bundle.features, self.check_pairs))
            value = ev.balanced_pair_accuracy(
                result.model, self.bundle.features, self.bundle.graph, self.acc_items
            ).value
            bounds = refmod.pair_accuracy_bounds(
                ref, self.bundle.features, self.linked, self.acc_items
            )
            problems += check_metric("balanced_pair_accuracy", value, bounds)
        return problems

    def _negative_controls(self, first) -> None:
        model_dict = copy.deepcopy(tr.model_to_dict(first.model))
        w1 = model_dict["csm"]["w1"]["values"]
        w1[0] = float(np.nextafter(float.fromhex(w1[0]), np.inf)).hex()
        if _fingerprint(model_dict, first.history) == self.expected:
            raise SetupError("negative control: a one-ulp parameter change kept the fingerprint")
        losses = [row.train_loss for row in first.history]
        _must_fail(check_losses(losses[::-1]), "reversed loss history")
        scores, swapped, omega = self._outputs(first)
        nudged = swapped.copy()
        nudged[0] = np.nextafter(nudged[0], np.inf)
        _must_fail(check_symmetric(scores, nudged), "one-ulp asymmetric score")
        bad_omega = omega.copy()
        bad_omega[0] *= 1.0 + 1e-9
        _must_fail(check_ranges(scores, bad_omega), "relevance row summing to 1 + 1e-9")
        _must_fail(check_ranges(scores + 1.0, omega), "scores above 1")
        if self.encoder == "mlp":
            ref = refmod.Reference(tr.model_to_dict(first.model))
            expected = ref.pair_scores(self.bundle.features, self.check_pairs)
            _must_fail(check_reference(scores + 1e-9, expected), "scores perturbed by 1e-9")
            bounds = refmod.pair_accuracy_bounds(
                ref, self.bundle.features, self.linked, self.acc_items
            )
            value = ev.balanced_pair_accuracy(
                first.model, self.bundle.features, self.bundle.graph, self.acc_items
            ).value
            wrong = refmod.off_by_one(value, bounds, len(self.acc_items) ** 2)
            _must_fail(check_metric("balanced_pair_accuracy", wrong, bounds),
                       "pair accuracy off by one pair")

    def expected_counts(self, _op, _result) -> dict:
        return {}


# ---------------------------------------------------------------------------
# gradcheck: one op is one seed of acceptance criterion 1
# ---------------------------------------------------------------------------

def _negate(store):
    return ad.GradientStore({k: -v for k, v in store.grads.items()})


class Gradcheck:
    """Criterion 1's compositions (seeds 0-99); the benchmark seed sets the
    order they run in and which of them the negated-gradient control uses."""

    def __init__(self, seed: int, sizes: Sizes, tmp: Path):
        self.seed, self.sizes = seed, sizes
        self.wrap_probe = None  # set by a traced run

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.order = [int(s) for s in rng.permutation(self.sizes.gradcheck_seeds)]
        for kind in range(3):  # one composition of each kind: csm, mlp, gcn
            s = next(s for s in self.order if s % 3 == kind)
            loss_fn, params = cli.gradcheck_composition(s, 6, 4)
            errors = ad.finite_diff_errors(loss_fn, params, step=1e-5, grad_transform=_negate)
            _must_fail(self._problems(errors), f"negated gradients on seed {s}")
        problems = self.check(self.order[0], self.run(self.order[0]))
        if problems:
            raise SetupError(f"warm-up op failed its checks: {problems}")

    def round(self) -> list:
        return self.order

    def run(self, s):
        loss_fn, params = cli.gradcheck_composition(s, 6, 4)
        if self.wrap_probe is not None:
            loss_fn = self.wrap_probe(loss_fn)
        return params, ad.finite_diff_errors(loss_fn, params, step=1e-5)

    @staticmethod
    def _problems(errors) -> list[str]:
        worst = max(float(e.max()) for e in errors.values())
        if not worst < GRAD_TOLERANCE:
            return [f"worst relative gradient error {worst:.3e} >= {GRAD_TOLERANCE:g}"]
        return []

    def check(self, _s, result) -> list[str]:
        return self._problems(result[1])

    def expected_counts(self, _s, result) -> dict:
        params = result[0]
        return {"autodiff.probes": 2 * sum(np.size(v) for v in params.values()) + 1}


# ---------------------------------------------------------------------------
# eval: one op is one evaluation pass over trained MLP checkpoints
# ---------------------------------------------------------------------------

class ConstantModel:
    """Scores every pair 0.5."""

    def pair_scores(self, pairs, features, graph_context=None):
        return np.full(len(pairs), 0.5)


class Eval:
    def __init__(self, seed: int, sizes: Sizes, tmp: Path):
        self.seed, self.sizes, self.tmp = seed, sizes, tmp

    def _checkpoint(self, bundle_dir: Path, name: str):
        out = self.tmp / name
        epochs = self.sizes.checkpoint_epochs
        _pan("train", "--bundle", bundle_dir, "--out", out, "--encoder", "mlp",
             "--mlp-dims", "24,16", "--fa", "or", "--lambda", 1, "--epochs", epochs,
             "--val-every", epochs, "--pairs-per-epoch", self.sizes.pairs_per_epoch,
             "--seed", self.seed)
        path = out / "checkpoint.json"
        return tr.load_checkpoint(path), refmod.Reference(json.loads(path.read_text()))

    def setup(self) -> None:
        seed, sizes = self.seed, self.sizes
        compat_dir = _gen_compat(self.tmp, sizes, seed)
        fewshot_dir = _gen_fewshot(self.tmp, sizes, seed)
        self.compat = cm = data.load_bundle(compat_dir)
        self.fewshot = fs = data.load_bundle(fewshot_dir)
        self.model, ref = self._checkpoint(compat_dir, "compat-model")
        self.fs_model, fs_ref = self._checkpoint(fewshot_dir, "fewshot-model")

        test = np.asarray(cm.splits["test"], dtype=np.int64)
        self.episodes = data.build_episodes(fs, 5, 5, 16, sizes.episodes, seed, split="novel")
        self.questions = data.build_fitb_questions(
            cm.sets["test"], 10, cm.categories, seed, pool=test
        )
        self.positives = [s for s in cm.sets["test"] if len(s) >= 2]
        self.negatives = data.resample_negative_sets(
            self.positives, cm.categories, seed, pool=test
        )
        rng = np.random.default_rng([seed, 3])
        self.attr_pairs = _pairs_within(test, sizes.attr_pairs, rng)
        self.query = test
        self.gallery = np.asarray(cm.splits["train"], dtype=np.int64)
        self.score_pairs = _pairs_within(test, 2000, rng)
        self.expected_scores = ref.pair_scores(cm.features, self.score_pairs)

        feats = cm.features
        self.bounds = {
            "fewshot_accuracy": refmod.fewshot_bounds(fs_ref, fs.features, self.episodes),
            "balanced_pair_accuracy": refmod.pair_accuracy_bounds(
                ref, feats, _adjacency(cm), test),
            "fitb_accuracy": refmod.fitb_bounds(ref, feats, self.questions),
            "compatibility_auc": refmod.auc_bounds(ref, feats, self.positives, self.negatives),
            "attribute_map": refmod.attribute_map_bounds(
                ref, feats, self.attr_pairs, cm.attributes.values, cm.attributes.mask),
            "recall_at_1": refmod.recall_at_1_bounds(
                ref, feats[self.query], feats[self.gallery],
                cm.categories[self.query], cm.categories[self.gallery]),
        }
        settle()
        first = self.run(None)
        problems = self.check(None, first)
        if problems:
            raise SetupError(f"warm-up op failed its checks: {problems}")
        self._negative_controls(first)

    def round(self) -> list:
        return [None]

    def run(self, _op) -> dict:
        cm, feats = self.compat, self.compat.features
        reports = [
            ev.few_shot_accuracy(self.fs_model, self.episodes, self.fewshot.features),
            ev.balanced_pair_accuracy(self.model, feats, cm.graph, cm.splits["test"]),
            ev.fitb_accuracy(self.model, self.questions, feats),
            ev.compatibility_auc(self.model, self.positives, self.negatives, feats),
            ev.attribute_map(self.model, self.attr_pairs, cm.attributes, "or", feats),
            ev.recall_at_k(feats[self.query], feats[self.gallery], cm.categories[self.query],
                           cm.categories[self.gallery], 1, model=self.model),
        ]
        return {r.name: r for r in reports}

    def check(self, _op, reports) -> list[str]:
        problems = []
        for name, bounds in self.bounds.items():
            problems += check_metric(name, reports[name].value, bounds)
        scores = self.model.pair_scores(self.score_pairs, self.compat.features)
        problems += check_reference(scores, self.expected_scores)
        return problems

    def _negative_controls(self, first) -> None:
        const = ConstantModel()
        auc = ev.compatibility_auc(const, self.positives, self.negatives, self.compat.features)
        if auc.value != 0.5:
            raise SetupError(f"constant model: AUC {auc.value!r}, not exactly 0.5")
        episodes = self.episodes[:100]
        accuracy = ev.few_shot_accuracy(const, episodes, self.fewshot.features).value
        base_rate = float(np.mean([np.mean([c == 0 for _, c in ep.query]) for ep in episodes]))
        if accuracy != base_rate:
            raise SetupError(f"constant model: few-shot {accuracy!r} != class-0 rate {base_rate!r}")
        for name, bounds in self.bounds.items():
            wrong = refmod.off_by_one(first[name].value, bounds, max(1, first[name].count))
            _must_fail(check_metric(name, wrong, bounds), f"{name} off by one item")
        scores = self.model.pair_scores(self.score_pairs, self.compat.features)
        _must_fail(check_reference(scores + 1e-9, self.expected_scores), "scores perturbed by 1e-9")

    def expected_counts(self, _op, _reports) -> dict:
        """encode_all calls and scored pairs of one pass, from the inputs."""
        fewshot = sum(len(ep.query) * sum(len(c) for c in ep.support) for ep in self.episodes)
        n_test = len(self.query)
        fitb = sum(len(q.candidates) * len(q.question_items) for q in self.questions)
        sets = sum(len(s) * (len(s) - 1) // 2 for s in self.positives + self.negatives)
        recall = len(self.query) * len(self.gallery)
        return {
            "evaluation.pairs_scored": fewshot + n_test * (n_test - 1) // 2 + fitb + sets + recall,
            "evaluation.encode_calls": (
                len(self.episodes) + 2 + len(self.questions)
                + len(self.positives) + len(self.negatives) + 2
            ),
        }


WORKLOADS = {
    "train-mlp": lambda seed, sizes, tmp: Train("mlp", seed, sizes, tmp),
    "train-gcn": lambda seed, sizes, tmp: Train("gcn", seed, sizes, tmp),
    "gradcheck": Gradcheck,
    "eval": Eval,
}
