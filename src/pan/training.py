"""Objective assembly, pair sampling, Adam, the one training loop, the
trainers, the gradient check's draws, and the checkpoint codec.

Training minimizes, over balanced samples of linked and unlinked pairs,

    BCE(e_ij, p) + lambda * masked mean BCE(pairwise attribute labels, rho prefix)

with the attribute term dropped entirely when lambda is 0, no supervision is
configured, or every label is masked — so those runs are bit-identical to the
unsupervised run under the same seed.

Everything here is deterministic given (dataset, configs, seed): all sampling
goes through labelled streams from :mod:`pan.rng`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import csm as csm_mod
from . import data as data_mod
from . import evaluation as ev
from .attributes import AttributeTable, FA_CHOICES, label_dimension, pair_label_matrix
from .encoders import (
    EncoderSpec,
    SimilarityGraph,
    drop_edges,
    dropout_masks_for_epoch,
    encode_on_tape,
    init_encoder_weights,
    pair_array,
    within_pairs,
)
from .errors import (
    ContractError, DimensionError, GenerationError, NumericError, SamplingError,
    check_choice, check_range,
)
from .rng import derive_seed, generator

TRAIN_MODES = ("single_batch", "minibatch")
# Adam's moment decays and denominator floor: the defaults of Kingma & Ba,
# "Adam: A Method for Stochastic Optimization" (ICLR 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lambda_: float = 1.0
    learning_rate: float = 0.001
    epochs: int = 200
    mode: str = "single_batch"
    batch_size: int = 96
    seed: int = 0
    fa: str = "or"
    validation_every: int = 10
    pairs_per_epoch: int | None = None  # per-class cap; None means every edge

    def __post_init__(self):
        check_range("lambda_", self.lambda_, 0)
        check_range("learning_rate", self.learning_rate, 0, above=True)
        check_range("epochs", self.epochs, 0)
        check_choice("mode", self.mode, TRAIN_MODES)
        check_range("batch_size", self.batch_size, 1)
        check_choice("fa", self.fa, FA_CHOICES)
        check_range("validation_every", self.validation_every, 1)
        if self.pairs_per_epoch is not None:
            check_range("pairs_per_epoch", self.pairs_per_epoch, 1)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _objective(rho: ad.Tensor, p: ad.Tensor, e, labels, mask, lam: float) -> ad.Tensor:
    """Mean BCE(e, p) + lam * masked mean BCE(labels, the first label-count
    columns of rho). The attribute term is left out, not added as 0, when lam
    is 0 or every label is masked (or there are none)."""
    loss = ad.bce_mean(p, np.asarray(e, dtype=np.float64).reshape(-1, 1))
    if lam == 0.0 or not np.any(mask):
        return loss
    if labels.shape[1] < rho.shape[1]:
        rho = ad.slice_cols(rho, 0, labels.shape[1])
    return ad.add(loss, ad.scale(ad.masked_bce_mean(rho, labels, mask), lam))


def gradcheck_composition(seed: int, d: int, m: int):
    """One randomized (loss_fn, params) pair cycling the encoder kinds: PAN's
    own forward (``ModelBundle.encode`` and ``head``) under the training
    objective at lambda = 1, plus a per-node term.

    Draws are redrawn (deterministically) when the composition is unmeasurable
    by central differences at 64-bit: a relu/abs argument on the draw's tape
    within 64 probe steps of its kink, or a parameter entry whose true
    gradient sits below the subtraction noise floor of the difference quotient.
    """
    kind = ("csm", "mlp", "gcn")[seed % 3]
    n, n_pairs = 8, 6
    cfg = csm_mod.CsmConfig(m=m)
    spec = {"csm": EncoderSpec(kind="identity"),
            "mlp": EncoderSpec(kind="mlp", layer_dims=(d + 1, d)),
            "gcn": EncoderSpec(kind="gcn", num_layers=2, hidden_dim=d)}[kind]
    for attempt in range(64):
        rng = generator(seed, "gradcheck", attempt)
        feats = rng.normal(size=(n, d))
        idx_i = rng.integers(0, n, size=n_pairs)
        idx_j = (idx_i + 1 + rng.integers(0, n - 1, size=n_pairs)) % n
        e = rng.integers(0, 2, size=(n_pairs, 1)).astype(float)
        labels = rng.integers(0, 2, size=(n_pairs, m)).astype(float)
        mask = rng.integers(0, 2, size=(n_pairs, m)).astype(float)
        draw_seed = derive_seed(seed, attempt)
        # the identity encoder has no parameters: the features themselves are checked
        params = csm_mod.init_params(d, m, draw_seed) | init_encoder_weights(spec, d, draw_seed)
        if kind == "csm":
            params["features"] = feats
        edges = set()
        while len(edges) < n:
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        propagate = SimilarityGraph(n, edges).propagation()
        model = ModelBundle(spec, cfg, params)

        def loss_fn(tape, tensors):
            x = tensors["features"] if kind == "csm" else ad.Tensor(feats)
            h = model.encode(tensors, x, propagate)
            rho, _, p = model.head(tensors, h, idx_i, idx_j)
            # |h_i - h_j| cancels any common shift of the encodings (the final
            # mlp bias is invisible to it); a direct per-node term keeps every
            # parameter measurable
            node = ad.scale(ad.mean_all(ad.sigmoid(h)), 0.25)
            return ad.add(_objective(rho, p, e, labels, mask, 1.0), node)

        probe = ad.Tape()
        loss = loss_fn(probe, {k: probe.parameter(v, k) for k, v in params.items()})
        if probe.kink_margin() <= 64 * ad.PROBE_STEP:
            continue
        grads = ad.backward(probe, loss)
        # exactly-zero gradients belong to structurally dead directions (for
        # example a relu channel off for every node); the probe cannot move
        # them either, so numeric and analytic agree at 0. Only tiny nonzero
        # gradients drown in the difference-quotient noise floor.
        live_mins = [
            float(np.abs(g[g != 0.0]).min()) for g in grads.values() if (g != 0.0).any()
        ]
        if min(live_mins, default=1.0) >= 1e-6:
            return loss_fn, params
    raise NumericError(f"could not draw a finite-difference-measurable composition for seed {seed}")


# ---------------------------------------------------------------------------
# pair sampling
# ---------------------------------------------------------------------------

def _sample_pair_arrays(
    g: SimilarityGraph, count_per_class: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, e) arrays with count_per_class positives then as many negatives."""
    total = g.n * (g.n - 1) // 2
    if g.num_edges == 0:
        raise SamplingError("graph has no edges to sample positives from")
    if g.num_edges == total:
        raise SamplingError("graph is complete; no negative pairs exist")
    edges = g.pairs
    pos = edges[rng.integers(0, len(edges), size=count_per_class)]

    density = g.num_edges / total
    if density > 0.7:
        pairs = within_pairs(np.arange(g.n))
        non_edges = pairs[~g.has_edges(pairs[:, 0], pairs[:, 1])]
        neg = non_edges[rng.integers(0, len(non_edges), size=count_per_class)]
    else:
        chunks = []
        needed = count_per_class
        while needed > 0:
            draw = max(2 * needed, 64)
            a = rng.integers(0, g.n, size=draw)
            b = rng.integers(0, g.n, size=draw)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            keep = np.flatnonzero((lo != hi) & ~g.has_edges(lo, hi))[:needed]
            chunks.append(np.stack([lo[keep], hi[keep]], axis=1))
            needed -= len(keep)
        neg = np.concatenate(chunks)

    # contiguous, not columns of one (N, 2) array: each gather would copy a strided index
    i, j = (np.concatenate([pos[:, c], neg[:, c]]) for c in (0, 1))
    return i, j, np.repeat(np.array([1, 0], dtype=np.int64), count_per_class)


# ---------------------------------------------------------------------------
# Adam, and the one step and one epoch loop every trainer takes
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray], grads, state: AdamState, learning_rate: float
) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"gradient for {name} has shape {g.shape}, parameter is {p.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _step(
    params: dict[str, np.ndarray], state: AdamState, config: TrainConfig,
    loss_fn: ad.LossFn, epoch: int,
) -> float:
    """One step of every trainer: ``loss_fn`` on a fresh tape over ``params``,
    backward, and Adam in place. Returns the loss; a non-finite one raises."""
    tape = ad.Tape()
    loss = loss_fn(tape, {k: tape.parameter(v, k) for k, v in params.items()})
    adam_step(params, ad.backward(tape, loss), state, config.learning_rate)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite training loss at epoch {epoch}")
    return value


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    val_metric: float | None


@dataclass
class TrainResult:
    model: _PairModel
    history: list[HistoryRow]
    best_epoch: int
    best_metric: float | None


def _fit(model, config: TrainConfig, epoch_steps, params=None, validator=None) -> TrainResult:
    """The one epoch loop. From fresh Adam moments over ``params`` (default
    ``model.params``), each epoch takes one ``_step`` per (LossFn, pair count)
    that ``epoch_steps(epoch)`` yields, and records their pair-weighted mean
    loss. ``validator`` scores the model every validation_every epochs and at
    the last; the result holds a copy of the best-scoring model, else the
    model itself."""
    params = model.params if params is None else params
    state = adam_init(params)
    history: list[HistoryRow] = []
    best, best_metric, best_epoch = model, None, config.epochs
    for epoch in range(1, config.epochs + 1):
        loss_sum, count = 0.0, 0
        for loss_fn, n in epoch_steps(epoch):
            loss_sum += _step(params, state, config, loss_fn, epoch) * n
            count += n
        val_value = None
        if validator is not None and (epoch % config.validation_every == 0
                                      or epoch == config.epochs):
            val_value = validator(model)
            if val_value is not None and (best_metric is None or val_value > best_metric):
                best, best_metric, best_epoch = model.copy(), val_value, epoch
        history.append(HistoryRow(epoch, loss_sum / count, val_value))
    return TrainResult(best, history, best_epoch, best_metric)


def _fit_head(model, train: data_mod.DatasetBundle, config: TrainConfig,
              pairs_label: str, init: dict[str, np.ndarray]) -> None:
    """Train ``model.head`` over the model's frozen encoding of the ``train``
    split, on balanced pairs drawn afresh each epoch. Only the parameters in
    ``init`` are trained; they then join ``model.params``."""
    h = ad.Tensor(model.encode_all(train.features))

    def epoch_steps(epoch):
        rng = generator(config.seed, pairs_label, epoch)
        li, lj, e = _sample_pair_arrays(train.graph, train.graph.num_edges, rng)
        y = e.reshape(-1, 1).astype(np.float64)
        yield (lambda tape, t: ad.bce_mean(model.head(t, h, li, lj)[-1], y)), len(e)

    _fit(model, config, epoch_steps, params=init)
    model.params |= init


# ---------------------------------------------------------------------------
# the one pair scorer shared by the models
# ---------------------------------------------------------------------------

SCORE_BLOCK = 4096  # pairs per pair-head call: scoring memory grows with this, not the pair count


def _untaped(arrays: dict[str, np.ndarray]) -> dict[str, ad.Tensor]:
    """Parameter arrays as tensors on no tape, wrapped without a copy or the
    finiteness scan that each primitive would otherwise make per call."""
    return {name: ad.Tensor(value) for name, value in arrays.items()}


def _logistic(x, w, b) -> ad.Tensor:
    """sigmoid(x w + b): the link and attribute heads of every baseline."""
    return ad.sigmoid(ad.add_row(ad.matmul(x, w), b))


def _pair_concat(values, idx_i, idx_j) -> np.ndarray:
    """Row k is [values[idx_i[k]], values[idx_j[k]]]."""
    return np.concatenate(
        [ad.gather_rows(values, idx_i).value, ad.gather_rows(values, idx_j).value], axis=1
    )


def _blocks(n: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of SCORE_BLOCK rows covering n rows, one empty range
    for n = 0. A 1-row remainder joins the block before it, because BLAS gives
    a one-row product other bits than the same row of a larger one."""
    starts = list(range(0, n, SCORE_BLOCK)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


class _PairModel:
    """What PAN and the baselines share. A model writes its forward once, as
    two methods over a parameter mapping: ``encode(params, x, propagation,
    masks)`` encodes the item rows x, and ``head(params, h, i, j)`` returns a
    tuple of (pairs, columns) tensors for the index pairs (i, j) of h's rows,
    ending with the scores p. A trainer calls them on taped parameters; the
    scorer calls them on the model's own ``params``, wrapped once per call.

    Scoring encodes once (``encode_all``), then runs the head on blocks of
    SCORE_BLOCK pairs and keeps only the outputs asked for, so its memory
    does not grow with the pair count."""

    uses_graph = False  # whether encode reads a propagation operator
    input_matrix: str  # the parameter whose rows the item features enter

    @property
    def input_dim(self) -> int:
        return self.params[self.input_matrix].shape[0]

    def encode_all(self, features, graph_context: SimilarityGraph | None = None) -> np.ndarray:
        """Evaluation-mode encoding of every item row, no dropout. Only a model
        that uses a graph builds a propagation; a GCN without a context graph
        sees self-loops only."""
        x = ad.Tensor(ad.as_matrix(features))
        propagation = None
        if self.uses_graph:
            propagation = (graph_context or SimilarityGraph(x.shape[0])).propagation()
        return self.encode(_untaped(self.params), x, propagation).value

    def _in_blocks(self, pairs, features, graph_context, keep: slice) -> list[np.ndarray]:
        idx = pair_array(pairs)
        h = ad.Tensor(self.encode_all(features, graph_context))
        params = _untaped(self.params)
        outs = []
        for start, stop in _blocks(len(idx)):
            kept = self.head(params, h, idx[start:stop, 0], idx[start:stop, 1])[keep]
            if not outs:
                outs = [np.empty((len(idx), t.shape[1])) for t in kept]
            for out, t in zip(outs, kept):
                out[start:stop] = t.value
        return outs

    def pair_scores(
        self, pairs, features, graph_context: SimilarityGraph | None = None
    ) -> np.ndarray:
        return self._in_blocks(pairs, features, graph_context, slice(-1, None))[0][:, 0]


class _SpecEncoded(_PairModel):
    """A model whose encoder is its ``encoder_spec`` over the enc_* params;
    without encoder layers the features go straight into ``input_matrix``."""

    @property
    def uses_graph(self) -> bool:
        return self.encoder_spec.kind == "gcn"

    @property
    def input_dim(self) -> int:
        return self.params["enc_w0" if self.encoder_spec.dims else self.input_matrix].shape[0]

    def encode(self, params, x, propagation=None, masks=None) -> ad.Tensor:
        return encode_on_tape(self.encoder_spec, x, params, propagation, masks)


def _abs_diff_link(model, params, h: ad.Tensor, i, j) -> tuple[ad.Tensor]:
    """(p,): the logistic link head on |h_i - h_j| of the Siamese and
    multitask models."""
    return (_logistic(ad.pair_abs_diff(h, i, j), params["link_w"], params["link_b"]),)


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

@dataclass
class ModelBundle(_SpecEncoded):
    """PAN: an encoder and the CSM, with every trainable matrix in ``params``
    (enc_w{k}, enc_b{k}, csm_w1, csm_b1, csm_w2, csm_b2)."""

    encoder_spec: EncoderSpec
    csm_config: csm_mod.CsmConfig
    params: dict[str, np.ndarray]
    input_matrix = "csm_w1"

    def copy(self) -> "ModelBundle":
        return ModelBundle(
            self.encoder_spec, self.csm_config, {k: v.copy() for k, v in self.params.items()}
        )

    def head(self, params, h: ad.Tensor, i, j) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
        """(rho, omega, p): the CSM on |h_i - h_j|."""
        return csm_mod.csm_on_tape(ad.pair_abs_diff(h, i, j), params, self.csm_config)

    def pair_conditions(
        self, pairs, features, graph_context: SimilarityGraph | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(rho, omega) matrices for a batch of pairs."""
        rho, omega = self._in_blocks(pairs, features, graph_context, slice(0, 2))
        return rho, omega


def init_model(
    encoder_spec: EncoderSpec, csm_config: csm_mod.CsmConfig, d_in: int, seed: int
) -> ModelBundle:
    d_out = (encoder_spec.dims or (d_in,))[-1]  # identity passes the features on
    params = init_encoder_weights(encoder_spec, d_in, seed) | csm_mod.init_params(
        d_out, csm_config.m, seed
    )
    return ModelBundle(encoder_spec, csm_config, params)


# ---------------------------------------------------------------------------
# shared training scaffolding
# ---------------------------------------------------------------------------

def _train_split(
    bundle: data_mod.DatasetBundle, attribute_table: AttributeTable | None = None
) -> tuple[np.ndarray, data_mod.DatasetBundle]:
    """All a trainer reads of the bundle: the train (else base) split's item
    ids, and that split as a bundle of its own (``DatasetBundle.subset``),
    with ``attribute_table`` in place of the bundle's table when given."""
    train_key = next((k for k in ("train", "base") if k in bundle.splits), None)
    if train_key is None:
        raise ContractError("bundle has no train/base split")
    if attribute_table is not None:
        bundle = replace(bundle, attributes=attribute_table)
    train = bundle.subset(train_key)
    if train.graph.num_edges == 0:
        raise SamplingError("training split has no linked pairs")
    return bundle.splits[train_key], train


def _uniform(seed: int, label: str, rows: int, cols: int) -> np.ndarray:
    """A rows x cols init, uniform in +-1/sqrt(rows), from its own stream."""
    bound = 1.0 / np.sqrt(rows)
    return generator(seed, label).uniform(-bound, bound, size=(rows, cols))


def _balanced_eval_pairs(local: SimilarityGraph, seed: int, cap: int = 2000):
    """Balanced (pairs, labels) of one split's graph, or None when impossible."""
    total = local.n * (local.n - 1) // 2
    if local.num_edges == 0 or local.num_edges == total:
        return None
    rng = generator(seed, "balanced-eval-pairs")
    edges = local.pairs
    if len(edges) > cap:
        edges = edges[rng.choice(len(edges), size=cap, replace=False)]
    count = len(edges)
    i_neg, j_neg, _ = _sample_pair_arrays(local, count, rng)
    neg = np.stack([i_neg[count:], j_neg[count:]], axis=1)
    labels = np.concatenate([np.ones(count), np.zeros(count)])
    return np.concatenate([edges, neg]), labels


class _Validator:
    """Scores a model on the val split alone (``DatasetBundle.subset``, whose
    rows its pairs and episodes index): few-shot accuracy for a
    fewshot_clusters bundle, else pair accuracy."""

    def __init__(self, bundle: data_mod.DatasetBundle, config: TrainConfig):
        self.metric = "fewshot" if bundle.task == "fewshot_clusters" else "pair_accuracy"
        self.pairs = self.labels = self.episodes = None
        if "val" not in bundle.splits:
            return
        val = bundle.subset("val")
        self.features = val.features
        if self.metric == "fewshot" and val.categories is not None:
            try:
                self.episodes = data_mod.build_episodes(
                    val, n_way=5, k_shot=5, n_query=8, count=20,
                    seed=derive_seed(config.seed, "val-episodes"), split="val",
                )
                return
            except GenerationError:  # too few val classes for an episode
                pass
        self.metric = "pair_accuracy"
        sampled = _balanced_eval_pairs(val.graph, derive_seed(config.seed, "val-pairs"))
        if sampled is not None:
            self.pairs, self.labels = sampled

    def __call__(self, model: ModelBundle) -> float | None:
        if self.episodes is not None:
            return ev.few_shot_accuracy(model, self.episodes, self.features).value
        if self.pairs is None:
            return None
        scores = model.pair_scores(self.pairs, self.features)
        return float(((scores >= 0.5) == (self.labels == 1)).mean())


def _epoch_batches(n_pairs: int, config: TrainConfig, rng) -> list[slice | np.ndarray]:
    """Each step's pairs: in single-batch mode one slice over all of them, so
    that a step indexes views, not copies; else shuffled index batches."""
    if config.mode == "single_batch":
        return [slice(0, n_pairs)]
    order = np.arange(n_pairs)
    rng.shuffle(order)
    return [
        order[start : start + config.batch_size]
        for start in range(0, n_pairs, config.batch_size)
    ]


# ---------------------------------------------------------------------------
# PAN trainer
# ---------------------------------------------------------------------------

def train_pan(
    bundle,
    encoder_spec: EncoderSpec,
    csm_config: csm_mod.CsmConfig,
    config: TrainConfig,
    attribute_table: AttributeTable | None = None,
) -> TrainResult:
    """Train the conditional-similarity model on a dataset bundle.

    ``attribute_table`` overrides the bundle's table (for example a label
    randomization); by default the bundle's own attributes are used whenever
    the configuration calls for supervision.
    """
    ids, train = _train_split(bundle, attribute_table)
    x_train, local, table = train.features, train.graph, train.attributes
    supervised_count = csm_config.supervised_count
    if supervised_count > 0:
        if table is None:
            raise ContractError("supervised or hybrid training requires an attribute table")
        expected = label_dimension(table.m, config.fa)
        if supervised_count != expected:
            raise ContractError(
                f"supervised condition count {supervised_count} does not match the "
                f"{config.fa} label dimension {expected}"
            )

    model = init_model(encoder_spec, csm_config, train.d, config.seed)
    count_per_class = local.num_edges
    if config.pairs_per_epoch is not None:
        count_per_class = min(count_per_class, config.pairs_per_epoch)

    def epoch_steps(epoch):
        pair_rng = generator(config.seed, "pairs", epoch)
        li, lj, e = _sample_pair_arrays(local, count_per_class, pair_rng)

        propagation = None
        if encoder_spec.kind == "gcn":
            g_epoch = local
            if encoder_spec.edge_dropout_p > 0.0:
                g_epoch = drop_edges(local, encoder_spec.edge_dropout_p,
                                     derive_seed(config.seed, "edge-drop", epoch))
            propagation = g_epoch.propagation()

        labels = mask = np.zeros((len(e), 0))  # no labels: the attribute term is left out
        if supervised_count > 0 and config.lambda_ > 0.0:
            labels, mask = pair_label_matrix(table, li, lj, config.fa)

        batch_rng = generator(config.seed, "batch-order", epoch)
        for step, batch in enumerate(_epoch_batches(len(e), config, batch_rng)):
            # drawn one batch at a time: _fit takes each step before asking for the next
            masks = dropout_masks_for_epoch(
                encoder_spec, bundle.n, derive_seed(config.seed, "layer-drop", epoch, step)
            )
            if masks is not None:  # drawn for every item, so no mask depends on the split
                masks = [item_masks[ids] for item_masks in masks]

            bi, bj, be, b_labels, b_mask = (arr[batch] for arr in (li, lj, e, labels, mask))

            def loss_fn(tape, tensors):
                h = model.encode(tensors, tape.constant(x_train), propagation, masks)
                rho, _, p = model.head(tensors, h, bi, bj)
                return _objective(rho, p, be, b_labels, b_mask, config.lambda_)

            yield loss_fn, len(be)

    return _fit(model, config, epoch_steps, validator=_Validator(bundle, config))


# ---------------------------------------------------------------------------
# baseline: triplet-trained embedding + link classifier
# ---------------------------------------------------------------------------

@dataclass
class SiameseModel(_PairModel):
    """Linear embedding trained with a triplet loss, plus a dense link head:
    ``params`` holds embed_w (d x e), link_w (e x 1) and link_b (1 x 1)."""

    params: dict[str, np.ndarray]
    head = _abs_diff_link
    input_matrix = "embed_w"

    def encode(self, params, x, propagation=None, masks=None) -> ad.Tensor:
        return ad.matmul(x, params["embed_w"])


def _sample_triplets(
    local: SimilarityGraph, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All positive pairs as (anchor, positive), one random unlinked negative each:
    the anchors walk one stream of draws k in [0, n), drawn in blocks, and each
    takes the first k that is neither itself nor linked to it (200 tries)."""
    n, (anchors, positives) = local.n, local.pairs.T
    # a * n + k for every k an anchor a may not take: its partners and itself
    blocked = set(np.concatenate([local.pairs @ [n, 1], local.pairs @ [1, n],
                                  np.arange(n) * (n + 1)]).tolist())
    negatives = np.empty(len(anchors), dtype=np.int64)
    draws, at = [], 0
    for row, a in enumerate(anchors.tolist()):
        for _ in range(200):
            if at == len(draws):
                draws, at = rng.integers(0, n, size=max(len(anchors), 64)).tolist(), 0
            k, at = draws[at], at + 1
            if a * n + k not in blocked:
                negatives[row] = k
                break
        else:
            raise SamplingError(f"node {a} has no unlinked partner for a negative")
    return anchors, positives, negatives


def _l2_rows(tape: ad.Tape, a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    diff = ad.subtract(a, b)
    sq = ad.row_sum(ad.multiply(diff, diff))
    # tiny floor keeps the sqrt differentiable when two rows coincide
    floor = tape.constant(np.full(sq.shape, 1e-12))
    return ad.sqrt_entries(ad.add(sq, floor))


def train_siamese_baseline(
    bundle, margin: float, config: TrainConfig, embed_dim: int | None = None
) -> SiameseModel:
    """Triplet-loss embedding over frozen features, then a logistic link head."""
    check_range("margin", margin, 0)
    _, train = _train_split(bundle)
    d = train.d
    e_dim = embed_dim or d
    model = SiameseModel({"embed_w": _uniform(config.seed, "siamese-init", d, e_dim)})

    def epoch_steps(epoch):
        a_idx, p_idx, n_idx = _sample_triplets(train.graph,
                                               generator(config.seed, "triplets", epoch))

        def loss_fn(tape, tensors):
            emb = model.encode(tensors, tape.constant(train.features))
            anc = ad.gather_rows(emb, a_idx)
            pos = ad.gather_rows(emb, p_idx)
            neg = ad.gather_rows(emb, n_idx)
            d_pos = _l2_rows(tape, anc, pos)
            d_neg = _l2_rows(tape, anc, neg)
            margins = tape.constant(np.full(d_pos.shape, float(margin)))
            return ad.mean_all(ad.relu(ad.add(ad.subtract(d_pos, d_neg), margins)))

        yield loss_fn, len(a_idx)

    _fit(model, config, epoch_steps)
    # stage 2: frozen embedding, logistic link prediction on |f_i - f_j|
    _fit_head(model, train, config, "link-pairs", {
        "link_w": _uniform(config.seed, "link-init", e_dim, 1), "link_b": np.zeros((1, 1)),
    })
    return model


# ---------------------------------------------------------------------------
# baseline: hard-parameter-sharing multitask
# ---------------------------------------------------------------------------

@dataclass
class MultitaskModel(_SpecEncoded):
    """A shared encoder with a link head (link_w, link_b) and, when trained
    with attributes, a per-image attribute head (attr_w, attr_b)."""

    encoder_spec: EncoderSpec
    params: dict[str, np.ndarray]
    head = _abs_diff_link
    input_matrix = "link_w"

    def attribute_head(self, params, h: ad.Tensor) -> ad.Tensor:
        """Per-item attribute probabilities from the shared encoding h."""
        return _logistic(h, params["attr_w"], params["attr_b"])

    def attribute_scores(self, features: np.ndarray) -> np.ndarray:
        if "attr_w" not in self.params:
            raise ContractError("model was trained without an attribute head")
        h = ad.Tensor(self.encode_all(features))
        return self.attribute_head(_untaped(self.params), h).value


def train_multitask_baseline(
    bundle, config: TrainConfig, attribute_table: AttributeTable | None = None
) -> MultitaskModel:
    """Shared one-layer MLP encoder; link head on |h_i - h_j| plus a per-image
    attribute head.

    The attribute loss is weighted by lambda and skipped entirely when lambda
    is 0 or there are no attributes, which makes those runs bit-identical to a
    link-only model under the same seed. ``attribute_table`` overrides the
    bundle's table."""
    _, train = _train_split(bundle, attribute_table)
    table, d = train.attributes, train.d
    spec = EncoderSpec(kind="mlp", layer_dims=(d,))

    params = init_encoder_weights(spec, d, config.seed)
    params["link_w"] = _uniform(config.seed, "link-init", d, 1)
    params["link_b"] = np.zeros((1, 1))
    use_attrs = table is not None and config.lambda_ > 0.0 and table.mask.any()
    if table is not None:
        # drawn from its own stream so presence never shifts the link-path init
        params["attr_w"] = _uniform(config.seed, "attr-head-init", d, table.m)
        params["attr_b"] = np.zeros((1, table.m))
    model = MultitaskModel(spec, params)

    def epoch_steps(epoch):
        rng = generator(config.seed, "pairs", epoch)
        li, lj, e = _sample_pair_arrays(train.graph, train.graph.num_edges, rng)

        def loss_fn(tape, tensors):
            h = model.encode(tensors, tape.constant(train.features))
            (link,) = model.head(tensors, h, li, lj)
            loss = ad.bce_mean(link, e.reshape(-1, 1).astype(np.float64))
            if use_attrs:
                attr_loss = ad.masked_bce_mean(
                    model.attribute_head(tensors, h), table.values, table.mask,
                )
                loss = ad.add(loss, ad.scale(attr_loss, config.lambda_))
            return loss

        yield loss_fn, len(e)

    _fit(model, config, epoch_steps)
    return model


# ---------------------------------------------------------------------------
# baseline: per-image attribute prediction, then a pair classifier
# ---------------------------------------------------------------------------

@dataclass
class AttrSimilarityModel(_PairModel):
    """The lossy two-stage pipeline: per-image attributes predicted from
    features (attr_w, attr_b), then a dense pair head (pair_w, pair_b)."""

    params: dict[str, np.ndarray]
    input_matrix = "attr_w"

    def encode(self, params, x, propagation=None, masks=None) -> ad.Tensor:
        """Predicted attribute probabilities per item."""
        return _logistic(x, params["attr_w"], params["attr_b"])

    def head(self, params, h: ad.Tensor, i, j) -> tuple[ad.Tensor]:
        """(p,): the pair head on the concatenated attribute vectors."""
        return (_logistic(_pair_concat(h, i, j), params["pair_w"], params["pair_b"]),)


def train_attr_similarity_baseline(
    bundle, config: TrainConfig, attribute_table: AttributeTable | None = None
) -> AttrSimilarityModel:
    """Stage 1 predicts attributes per image (from ``attribute_table`` if given,
    else the bundle's); stage 2 maps the concatenated attribute vectors of a
    pair to a similarity logit."""
    _, train = _train_split(bundle, attribute_table)
    table = train.attributes
    if table is None:
        raise ContractError("attribute-similarity baseline requires an attribute table")

    model = AttrSimilarityModel({
        "attr_w": _uniform(config.seed, "attr-stage1-init", train.d, table.m),
        "attr_b": np.zeros((1, table.m)),
    })

    def attribute_loss(tape, tensors):
        return ad.masked_bce_mean(model.encode(tensors, train.features), table.values, table.mask)

    _fit(model, config, lambda epoch: [(attribute_loss, train.n)])
    _fit_head(model, train, config, "pairs", {
        "pair_w": _uniform(config.seed, "attr-stage2-init", 2 * table.m, 1),
        "pair_b": np.zeros((1, 1)),
    })
    return model


# ---------------------------------------------------------------------------
# checkpoint, history and other run-output files
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "pan-checkpoint-v1"
BASELINE_FORMAT = "pan-baseline-v1"


def spec_to_dict(spec: EncoderSpec) -> dict:
    return asdict(spec) | {"layer_dims": list(spec.layer_dims)}


def spec_from_dict(obj: dict) -> EncoderSpec:
    values = {f.name: obj[f.name] for f in fields(EncoderSpec)}
    return EncoderSpec(**values | {"layer_dims": tuple(values["layer_dims"])})


def write_json(path, obj) -> None:
    """The one JSON writer of every checkpoint, manifest and metrics file:
    sorted keys, one-space indent, a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """The one CSV writer of every run output: a header line, then one line
    per row, where None is an empty cell, a float its shortest round-trip
    repr, and anything else its str."""
    lines = [",".join(header)] + [",".join(_csv_cell(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _hex(arr: np.ndarray) -> dict:
    """A checkpoint matrix: its shape and its entries as hex floats, so that
    a load gives back every bit."""
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
            "values": [float(v).hex() for v in arr.ravel()]}


def _unhex(obj: dict, *shape: int) -> np.ndarray:
    """The matrix of ``_hex``; a wrong value count, a non-finite entry or a
    shape other than ``shape`` (when given) raises."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    values = [float.fromhex(v) for v in obj["values"]]
    if len(values) != rows * cols:
        raise ContractError(f"matrix payload has {len(values)} values for shape ({rows}, {cols})")
    return ad.as_matrix(np.reshape(values, (rows, cols)), *shape)


def model_to_dict(model: ModelBundle) -> dict:
    """PAN's checkpoint: the encoder spec with its weights and biases, and the
    csm block of d, m, the hex matrices w1, b1, w2, b2 and relevance_enabled."""
    params, spec = model.params, model.encoder_spec
    layers = range(len(spec.dims))
    d, m = params["csm_w1"].shape
    return {
        "format": CHECKPOINT_FORMAT,
        "encoder": {
            **spec_to_dict(spec),
            "weights": [_hex(params[f"enc_w{k}"]) for k in layers],
            "biases": [_hex(params[f"enc_b{k}"]) for k in layers if spec.kind == "mlp"],
        },
        "csm": {
            "d": d, "m": m,
            **{name: _hex(params[f"csm_{name}"]) for name in ("w1", "b1", "w2", "b2")},
            "relevance_enabled": model.csm_config.relevance_enabled,
        },
    }


def _check_encoder(spec: EncoderSpec, params: dict, layers: int) -> None:
    """Raise unless a checkpoint's encoder is the one ``spec.dims`` describes:
    ``layers`` (the count the file states) is its length, and the enc_*
    matrices in ``params`` are enc_w{k} of (fan-in, width), each fan-in the
    width before it, and for an MLP an enc_b{k} of (1, width)."""
    fan_ins = [params["enc_w0"].shape[0] if "enc_w0" in params else None, *spec.dims]
    shapes = {f"enc_w{k}": (fan_ins[k], width) for k, width in enumerate(spec.dims)}
    if spec.kind == "mlp":
        shapes |= {f"enc_b{k}": (1, width) for k, width in enumerate(spec.dims)}
    held = {k: v.shape for k, v in params.items() if k.startswith("enc_")}
    if (layers, held) != (len(spec.dims), shapes):
        raise ContractError(f"a {spec.kind} encoder of dims {list(spec.dims)} has matrices "
                            f"{shapes}, the checkpoint holds {layers} layers of {held}")


def model_from_dict(obj: dict) -> ModelBundle:
    """The ModelBundle of ``model_to_dict``: the encoder matrices must be those
    of its spec, the csm block's d and m the shape of w1, and b1, w2 and b2
    shaped to match."""
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise ContractError(f"unknown checkpoint format {obj.get('format')!r}")
    enc, head = obj["encoder"], obj["csm"]
    spec = spec_from_dict(enc)
    params = {}
    for prefix, key in (("enc_w", "weights"), ("enc_b", "biases")):
        for k, matrix in enumerate(enc[key]):
            params[f"{prefix}{k}"] = _unhex(matrix)
    _check_encoder(spec, params, len(enc["weights"]))
    params["csm_w1"] = w1 = _unhex(head["w1"])
    d, m = w1.shape
    if (head["d"], head["m"]) != (d, m):
        raise ContractError(f"csm block says d={head['d']!r}, m={head['m']!r}, "
                            f"but w1 is {d} x {m}")
    for name, shape in (("b1", (1, m)), ("w2", (d, m)), ("b2", (1, m))):
        params[f"csm_{name}"] = _unhex(head[name], *shape)
    cfg = csm_mod.CsmConfig(m=m, relevance_enabled=head["relevance_enabled"])
    return ModelBundle(spec, cfg, params)


BASELINES = {
    "siamese": SiameseModel, "multitask": MultitaskModel, "attr-sim": AttrSimilarityModel,
}


def save_checkpoint(path, model) -> None:
    """The one checkpoint writer: PAN's format for a ModelBundle, else the
    baseline format under the kind that BASELINES gives the model's class."""
    if isinstance(model, ModelBundle):
        write_json(path, model_to_dict(model))
        return
    kind = next(k for k, cls in BASELINES.items() if type(model) is cls)
    extra = {}
    if kind == "multitask":  # n_enc_layers repeats the spec's layer count
        extra = {"encoder": spec_to_dict(model.encoder_spec),
                 "n_enc_layers": len(model.encoder_spec.dims)}
    write_json(path, {
        "format": BASELINE_FORMAT,
        "kind": kind,
        "matrices": {k: _hex(v) for k, v in model.params.items()},
        **extra,
    })


def checkpoint_from_dict(obj: dict):
    """A PAN or baseline model from a checkpoint's JSON object, after its
    structure fields are checked and one forward has run through it, so a
    checkpoint whose matrices do not chain fails here rather than at scoring."""
    if obj.get("format") != BASELINE_FORMAT:
        model = model_from_dict(obj)
    else:
        model_class = BASELINES[obj["kind"]]
        params = {k: _unhex(v) for k, v in obj["matrices"].items()}
        if model_class is MultitaskModel:
            spec = spec_from_dict(obj["encoder"])
            _check_encoder(spec, params, obj["n_enc_layers"])
            model = MultitaskModel(spec, params)
        else:
            model = model_class(params)
    model.pair_scores([(0, 0)], np.zeros((1, model.input_dim)))
    return model


def load_checkpoint(path):
    """The PAN or baseline model in a checkpoint file; a file that is not JSON,
    lacks a key, holds a wrong type, a non-finite matrix entry or matrices that
    do not chain raises ContractError naming it."""
    try:
        return checkpoint_from_dict(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, NumericError) as exc:
        raise ContractError(f"{path}: not a valid checkpoint ({type(exc).__name__}: {exc})") from exc


def write_history_csv(path, history: list[HistoryRow]) -> None:
    write_csv(path, ("epoch", "train_loss", "val_metric"),
              [(row.epoch, row.train_loss, row.val_metric) for row in history])
