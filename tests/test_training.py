import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pan
from pan import autodiff as ad
from pan import training as tr
from pan.attributes import AttributeTable
from pan.csm import CsmConfig
from pan.data import DatasetBundle, SyntheticSpec, build_episodes, generate
from pan.csm import csm_on_tape
from pan.encoders import EncoderSpec, SimilarityGraph, encode_on_tape, init_encoder_weights
from pan.errors import ContractError, SamplingError
from pan.evaluation import (
    average_precision, balanced_pair_accuracy, few_shot_accuracy, product_pairs,
)
from pan.rng import derive_seed, generator


@pytest.fixture(scope="module")
def separable_bundle():
    spec = SyntheticSpec(
        n_items=160, d=12, m_attributes=4, noise_sd=0.02,
        task_kind="linear_separable", hamming_threshold=1,
    )
    bundle, _ = generate(spec, seed=3)
    return bundle


def quick_config(**kw):
    base = dict(lambda_=0.0, learning_rate=0.03, epochs=60, seed=5, validation_every=20)
    base.update(kw)
    return tr.TrainConfig(**base)


def total_loss(e, p, pair_labels, pair_mask, rho, lam):
    """One pair's value of the objective ``train_pan`` minimizes."""
    def row(values):
        return np.array([values], dtype=np.float64)

    return tr._objective(row(rho), row([p]), [e], row(pair_labels), row(pair_mask), lam).item()


class TestTotalLoss:
    def test_lambda_zero_equals_link_bce(self):
        got = total_loss(1, 0.8, [1, 0], [1, 1], [0.3, 0.9], lam=0.0)
        assert got == ad.bce([[0.8]], [[1.0]]).item()

    def test_all_masked_equals_link_bce(self):
        got = total_loss(0, 0.25, [1, 1], [0, 0], [0.3, 0.9], lam=10.0)
        assert got == ad.bce([[0.25]], [[0.0]]).item()

    def test_hand_value_two_log_two(self):
        got = total_loss(1, 0.5, [1.0], [1.0], [0.5], lam=1.0)
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError):
            tr.TrainConfig(lambda_=-0.1)

    @pytest.mark.parametrize("fields,name", [
        ({"lambda_": float("nan")}, "lambda_"),
        ({"lambda_": float("inf")}, "lambda_"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"epochs": -1}, "epochs"),
        ({"pairs_per_epoch": 0}, "pairs_per_epoch"),
        ({"mode": "online"}, "mode"),
    ], ids=["lambda-nan", "lambda-inf", "lr-nan", "lr-inf", "lr-zero", "epochs-negative",
            "pairs-per-epoch-zero", "unknown-mode"])
    def test_out_of_range_setting_rejected(self, fields, name):
        with pytest.raises(ContractError, match=f"^{name} must be"):
            tr.TrainConfig(**fields)

    def test_prefix_supervision(self):
        # rho longer than labels: only the prefix is supervised
        got = total_loss(1, 0.5, [1.0], [1.0], [0.5, 0.99], lam=1.0)
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def sample(g, count_per_class, seed):
    return tr._sample_pair_arrays(g, count_per_class, generator(seed, "pair-sampling"))


class TestSamplePairs:
    def test_two_node_graph_has_unique_positive_but_no_negative(self):
        g = SimilarityGraph(2, [(0, 1)])
        with pytest.raises(SamplingError):
            sample(g, 1, seed=0)

    def test_empty_graph_rejected(self):
        with pytest.raises(SamplingError):
            sample(SimilarityGraph(4), 1, seed=0)

    def test_positives_are_edges_negatives_are_not(self):
        g = SimilarityGraph(8, [(0, 1), (2, 3), (4, 5), (0, 7)])
        i, j, e = sample(g, 50, seed=1)
        assert len(e) == 100
        pos, neg = e == 1, e == 0
        assert pos.sum() == neg.sum() == 50
        assert g.has_edges(i[pos], j[pos]).all()
        assert not g.has_edges(i[neg], j[neg]).any() and (i[neg] != j[neg]).all()

    def test_deterministic(self):
        g = SimilarityGraph(6, [(0, 1), (2, 3)])
        a = sample(g, 10, seed=9)
        b = sample(g, 10, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_positive_frequency_uniform(self):
        edges = [(0, 1), (0, 2), (1, 3), (2, 4)]
        g = SimilarityGraph(5, edges)
        draws = 100_000
        i, j, _ = sample(g, draws, seed=2)
        counts = {e: 0 for e in g.edges}
        for a, b in zip(i[:draws].tolist(), j[:draws].tolist()):
            counts[(min(a, b), max(a, b))] += 1
        expected = draws / len(edges)
        sigma = math.sqrt(draws * (1 / len(edges)) * (1 - 1 / len(edges)))
        for e, c in counts.items():
            assert abs(c - expected) < 3 * sigma, (e, c)

    def test_dense_graph_negative_sampling(self):
        n = 12
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = SimilarityGraph(n, all_pairs[:-3])  # only three non-edges
        i, j, _ = sample(g, 30, seed=3)
        assert not g.has_edges(i[30:], j[30:]).any()


def _list_sample_pair_arrays(g, count_per_class, rng):
    """The per-pair Python sampler that _sample_pair_arrays replaced, kept
    as the reference for its draws."""
    total = g.n * (g.n - 1) // 2
    edges = np.array(g.edges, dtype=np.int64)
    edge_set = set(g.edges)
    pos = edges[rng.integers(0, len(edges), size=count_per_class)]
    if g.num_edges / total > 0.7:
        non_edges = np.array(
            [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if (i, j) not in edge_set],
            dtype=np.int64,
        )
        neg = non_edges[rng.integers(0, len(non_edges), size=count_per_class)]
    else:
        chunks = []
        needed = count_per_class
        while needed > 0:
            draw = max(2 * needed, 64)
            a = rng.integers(0, g.n, size=draw)
            b = rng.integers(0, g.n, size=draw)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            keep = [
                (i, j) for i, j in zip(lo.tolist(), hi.tolist())
                if i != j and (i, j) not in edge_set
            ]
            chunks.extend(keep[:needed])
            needed = count_per_class - len(chunks)
        neg = np.array(chunks, dtype=np.int64)
    i = np.concatenate([pos[:, 0], neg[:, 0]])
    j = np.concatenate([pos[:, 1], neg[:, 1]])
    e = np.concatenate([np.ones(count_per_class, dtype=np.int64),
                        np.zeros(count_per_class, dtype=np.int64)])
    return i, j, e


class TestSamplerMatchesListReference:
    @pytest.mark.parametrize("n,n_edges", [(60, 150), (60, 1500), (25, 280), (25, 299)])
    def test_same_pairs_as_list_sampler(self, n, n_edges):
        # densities 0.08 and 0.85 (sparse branch) vs 0.93 and 0.997 (dense branch)
        rng = np.random.default_rng(n_edges)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.choice(len(all_pairs), size=n_edges, replace=False)
        g = SimilarityGraph(n, [all_pairs[k] for k in chosen])
        for seed in range(4):
            for count in (1, 7, 200):
                got = tr._sample_pair_arrays(g, count, np.random.default_rng(seed))
                want = _list_sample_pair_arrays(g, count, np.random.default_rng(seed))
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)

    def test_local_graph_matches_position_map(self):
        rng = np.random.default_rng(5)
        g = SimilarityGraph(40, {tuple(sorted(rng.choice(40, 2, replace=False))) for _ in range(200)})
        indices = rng.permutation(40)[:25]
        position = {int(v): k for k, v in enumerate(indices)}
        expected = SimilarityGraph(25, [
            (position[i], position[j]) for i, j in g.edges if i in position and j in position
        ])
        assert g.subgraph(indices) == expected


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([[1.0, -2.0]])}
        state = tr.adam_init(params)
        before = params["w"].copy()
        tr.adam_step(params, {"w": np.zeros((1, 2))}, state, learning_rate=0.1)
        np.testing.assert_array_equal(params["w"], before)
        assert state.t == 1

    def test_first_step_magnitude_close_to_lr(self):
        g = np.array([[0.3, -4.0, 1e-3]])
        params = {"w": np.zeros((1, 3))}
        state = tr.adam_init(params)
        tr.adam_step(params, {"w": g}, state, learning_rate=0.05)
        # first step: lr * g / (|g| + eps) elementwise
        np.testing.assert_allclose(np.abs(params["w"]), 0.05, rtol=1e-4)
        assert np.all(np.sign(params["w"]) == -np.sign(g))

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        state = tr.adam_init(params)
        with pytest.raises(Exception):
            tr.adam_step(params, {"w": np.zeros((1, 2))}, state, learning_rate=0.1)

    def test_trajectories_bit_identical(self, separable_bundle):
        cfg = quick_config(epochs=15)
        enc = EncoderSpec(kind="identity")
        a = tr.train_pan(separable_bundle, enc, CsmConfig(m=3), cfg)
        b = tr.train_pan(separable_bundle, enc, CsmConfig(m=3), cfg)
        for k, v in a.model.params.items():
            assert np.array_equal(v, b.model.params[k]), k
        assert [(h.epoch, h.train_loss) for h in a.history] == [
            (h.epoch, h.train_loss) for h in b.history
        ]


def test_step_frees_its_tape_without_the_collector():
    spec, cfg = EncoderSpec(kind="mlp", layer_dims=(8, 5)), CsmConfig(m=3)
    model = tr.init_model(spec, cfg, 6, seed=1)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(20, 6))
    i, j = rng.integers(0, 20, size=(2, 30))
    e = rng.integers(0, 2, size=30)
    tapes = []

    def loss_fn(tape, tensors):
        tapes.append(weakref.ref(tape))
        h = encode_on_tape(spec, tape.constant(feats), tensors)
        rho, _, p = csm_on_tape(ad.pair_abs_diff(h, i, j), tensors, cfg)
        return tr._objective(rho, p, e, np.zeros((30, 0)), np.zeros((30, 0)), 0.0)

    gc.disable()
    try:
        tr._step(model.params, tr.adam_init(model.params), quick_config(), loss_fn, 1)
        assert tapes[0]() is None  # no cycle keeps it for the collector
    finally:
        gc.enable()


@pytest.mark.parametrize("train,min_steps", [
    (lambda b, cfg: tr.train_pan(b, EncoderSpec(kind="identity"), CsmConfig(m=3), cfg), 3),
    (lambda b, cfg: tr.train_pan(b, EncoderSpec(kind="mlp", layer_dims=(6, 4)), CsmConfig(m=3),
                                 replace(cfg, mode="minibatch", batch_size=64)), 4),
    (lambda b, cfg: tr.train_siamese_baseline(b, margin=0.2, config=cfg), 6),
    (lambda b, cfg: tr.train_multitask_baseline(b, cfg), 3),
    (lambda b, cfg: tr.train_attr_similarity_baseline(b, cfg), 6),
], ids=["pan", "pan-minibatch", "siamese", "multitask", "attr-sim"])
def test_every_trainer_steps_only_inside_fit(separable_bundle, monkeypatch, train, min_steps):
    fit, step = tr._fit, tr._step
    fitting, steps = [], []

    def fit_spy(*args, **kwargs):
        fitting.append(True)
        try:
            return fit(*args, **kwargs)
        finally:
            fitting.pop()

    def step_spy(*args):
        assert fitting, "a training step outside _fit"
        steps.append(args[-1])
        return step(*args)

    monkeypatch.setattr(tr, "_fit", fit_spy)
    monkeypatch.setattr(tr, "_step", step_spy)
    train(separable_bundle, quick_config(epochs=3, lambda_=1.0))
    assert len(steps) >= min_steps


class TestTrainPan:
    def test_zero_epochs_returns_initialized_model(self, separable_bundle):
        cfg = quick_config(epochs=0)
        enc = EncoderSpec(kind="identity")
        res = tr.train_pan(separable_bundle, enc, CsmConfig(m=4), cfg)
        init = tr.init_model(enc, CsmConfig(m=4), separable_bundle.d, cfg.seed)
        for k, v in res.model.params.items():
            assert np.array_equal(v, init.params[k])
        assert res.history == []

    def test_lambda_zero_supervised_equals_unsupervised_bitwise(self, separable_bundle):
        cfg = quick_config(epochs=25, lambda_=0.0, fa="or")
        enc = EncoderSpec(kind="identity")
        sup = tr.train_pan(
            separable_bundle, enc, CsmConfig(m=4, supervision="supervised"), cfg
        )
        unsup = tr.train_pan(separable_bundle, enc, CsmConfig(m=4), cfg)
        for k, v in sup.model.params.items():
            assert np.array_equal(v, unsup.model.params[k]), k
        assert [h.train_loss for h in sup.history] == [h.train_loss for h in unsup.history]

    def test_all_masked_supervision_equals_unsupervised_bitwise(self, separable_bundle):
        table = separable_bundle.attributes
        masked = AttributeTable(table.values.copy(), np.zeros_like(table.mask))
        cfg = quick_config(epochs=25, lambda_=10.0, fa="or")
        enc = EncoderSpec(kind="identity")
        sup = tr.train_pan(
            separable_bundle, enc, CsmConfig(m=4, supervision="supervised"), cfg,
            attribute_table=masked,
        )
        unsup = tr.train_pan(separable_bundle, enc, CsmConfig(m=4), quick_config(epochs=25))
        for k, v in sup.model.params.items():
            assert np.array_equal(v, unsup.model.params[k]), k

    def test_masked_positions_never_affect_training(self, separable_bundle):
        rng = np.random.default_rng(0)
        base = separable_bundle.attributes
        mask = rng.integers(0, 2, size=base.mask.shape).astype(float)
        table_a = AttributeTable(base.values.copy(), mask)
        flipped = base.values.copy()
        flipped[mask == 0] = 1.0 - flipped[mask == 0]
        table_b = AttributeTable(flipped, mask.copy())
        cfg = quick_config(epochs=20, lambda_=5.0, fa="xor")
        enc = EncoderSpec(kind="identity")
        a = tr.train_pan(separable_bundle, enc, CsmConfig(m=4, supervision="supervised"), cfg, table_a)
        b = tr.train_pan(separable_bundle, enc, CsmConfig(m=4, supervision="supervised"), cfg, table_b)
        for k, v in a.model.params.items():
            assert np.array_equal(v, b.model.params[k]), k

    def test_loss_decreases_on_separable_task(self, separable_bundle):
        cfg = quick_config(epochs=40)
        res = tr.train_pan(separable_bundle, EncoderSpec(kind="identity"), CsmConfig(m=4), cfg)
        assert res.history[-1].train_loss < res.history[0].train_loss

    def test_reaches_95_percent_on_separable_task(self, separable_bundle):
        cfg = quick_config(epochs=300, lambda_=1.0, fa="xor", learning_rate=0.05)
        res = tr.train_pan(
            separable_bundle, EncoderSpec(kind="identity"),
            CsmConfig(m=4, supervision="supervised"), cfg,
        )
        report = balanced_pair_accuracy(
            res.model, separable_bundle.features, separable_bundle.graph,
            separable_bundle.splits["test"],
        )
        assert report.value >= 0.95

    def test_supervised_requires_attributes(self, separable_bundle):
        bundle = DatasetBundle(
            separable_bundle.features, separable_bundle.graph,
            dict(separable_bundle.splits), None, None, None, task=None,
        )
        with pytest.raises(ContractError):
            tr.train_pan(
                bundle, EncoderSpec(kind="identity"),
                CsmConfig(m=4, supervision="supervised"), quick_config(lambda_=1.0),
            )

    def test_condition_count_must_match_label_dimension(self, separable_bundle):
        with pytest.raises(ContractError):
            tr.train_pan(
                separable_bundle, EncoderSpec(kind="identity"),
                CsmConfig(m=4, supervision="supervised"),
                quick_config(lambda_=1.0, fa="and_xor"),  # needs 2 * 4 conditions
            )

    def test_hybrid_supervises_only_the_prefix(self, separable_bundle):
        # hybrid with lambda=0 reduces to the unsupervised run with the same m
        hybrid_cfg = CsmConfig(m=6, supervision="hybrid", m_sup=4, m_unsup=2)
        enc = EncoderSpec(kind="identity")
        a = tr.train_pan(separable_bundle, enc, hybrid_cfg, quick_config(epochs=15))
        b = tr.train_pan(separable_bundle, enc, CsmConfig(m=6), quick_config(epochs=15))
        for k, v in a.model.params.items():
            assert np.array_equal(v, b.model.params[k]), k
        # with supervision on, the attribute term only touches the prefix path
        c = tr.train_pan(
            separable_bundle, enc, hybrid_cfg, quick_config(epochs=15, lambda_=1.0, fa="or")
        )
        assert not np.array_equal(
            c.model.params["csm_w1"], b.model.params["csm_w1"]
        )

    def test_gcn_training_runs_with_dropout(self, separable_bundle):
        enc = EncoderSpec(
            kind="gcn", num_layers=2, hidden_dim=8,
            layer_dropout_p=0.5, edge_dropout_p=0.15,
        )
        cfg = quick_config(epochs=8)
        res = tr.train_pan(separable_bundle, enc, CsmConfig(m=3), cfg)
        assert np.isfinite(res.history[-1].train_loss)

    def test_minibatch_mode_runs(self, separable_bundle):
        cfg = quick_config(epochs=5, mode="minibatch", batch_size=64)
        res = tr.train_pan(separable_bundle, EncoderSpec(kind="identity"), CsmConfig(m=3), cfg)
        assert len(res.history) == 5


@pytest.mark.parametrize("train", [
    lambda b, cfg: tr.train_pan(b, EncoderSpec(kind="identity"), CsmConfig(m=3), cfg),
    lambda b, cfg: tr.train_siamese_baseline(b, margin=0.2, config=cfg),
    lambda b, cfg: tr.train_multitask_baseline(b, cfg),
    lambda b, cfg: tr.train_attr_similarity_baseline(b, cfg),
], ids=["pan", "siamese", "multitask", "attr-sim"])
def test_every_trainer_rejects_a_bundle_it_cannot_train_on(separable_bundle, train):
    b = separable_bundle
    splits = {k: v for k, v in b.splits.items() if k not in ("train", "base")}
    no_split = DatasetBundle(b.features, b.graph, splits, b.attributes, None, None)
    with pytest.raises(ContractError, match="no train/base split"):
        train(no_split, quick_config(epochs=2))
    # a train split without links fails before the first epoch, even with none
    no_links = DatasetBundle(
        b.features, SimilarityGraph(b.n), dict(b.splits), b.attributes, None, None
    )
    with pytest.raises(SamplingError, match="no linked pairs"):
        train(no_links, quick_config(epochs=0))


@pytest.mark.parametrize("train", [
    lambda b, cfg, t: tr.train_pan(b, EncoderSpec(kind="identity"),
                                   CsmConfig(m=4, supervision="supervised"), cfg, t),
    lambda b, cfg, t: tr.train_pan(b, EncoderSpec(kind="identity"), CsmConfig(m=3), cfg, t),
    lambda b, cfg, t: tr.train_multitask_baseline(b, cfg, attribute_table=t),
    lambda b, cfg, t: tr.train_attr_similarity_baseline(b, cfg, attribute_table=t),
], ids=["pan-supervised", "pan-unsupervised", "multitask", "attr-sim"])
def test_an_attribute_table_of_other_rows_is_rejected(separable_bundle, train):
    b = separable_bundle
    for rows in (b.n - 10, b.n + 30):
        table = AttributeTable(np.ones((rows, 4)), np.ones((rows, 4)))
        with pytest.raises(ContractError, match=f"attribute table has {rows} rows"):
            train(b, quick_config(epochs=1, lambda_=1.0), table)


def _pan_checkpoint(spec, csm_config):
    def train(b, cfg, path):
        tr.save_checkpoint(path, tr.train_pan(b, spec, csm_config, cfg).model)
    return train


def _baseline_checkpoint(fit):
    def train(b, cfg, path):
        tr.save_checkpoint(path, fit(b, cfg))
    return train


@pytest.mark.parametrize("train", [
    _pan_checkpoint(EncoderSpec(kind="mlp", layer_dims=(8, 5)),
                    CsmConfig(m=4, supervision="supervised")),
    _pan_checkpoint(EncoderSpec(kind="gcn", num_layers=2, hidden_dim=8,
                                layer_dropout_p=0.5, edge_dropout_p=0.15),
                    CsmConfig(m=4, supervision="supervised")),
    _baseline_checkpoint(lambda b, cfg: tr.train_siamese_baseline(b, 0.2, cfg)),
    _baseline_checkpoint(tr.train_multitask_baseline),
    _baseline_checkpoint(tr.train_attr_similarity_baseline),
], ids=["pan-mlp", "pan-gcn", "siamese", "multitask", "attr-sim"])
def test_training_reads_only_its_split(separable_bundle, tmp_path, train):
    b = separable_bundle
    test = b.splits["test"]
    rng = np.random.default_rng(4)
    features = b.features.copy()
    features[test] = rng.normal(size=(len(test), b.d))
    values, mask = b.attributes.values.copy(), b.attributes.mask.copy()
    values[test] = 1.0 - values[test]
    mask[test] = rng.integers(0, 2, size=mask[test].shape)
    table = AttributeTable(values, mask)
    other = DatasetBundle(features, b.graph, dict(b.splits), table, b.categories, None,
                          task=b.task)
    cfg = quick_config(epochs=6, lambda_=1.0, validation_every=3)
    train(b, cfg, tmp_path / "a.json")
    train(other, cfg, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestValidator:
    def small_fewshot_bundle(self):
        # 10 items per class: no val class has the 13 a 5-shot, 8-query episode needs
        spec = SyntheticSpec(n_items=120, d=24, m_attributes=4, noise_sd=0.1,
                             task_kind="fewshot_clusters", n_classes=12)
        return generate(spec, seed=2)[0]

    def test_too_few_val_classes_fall_back_to_pair_accuracy(self):
        bundle = self.small_fewshot_bundle()
        validator = tr._Validator(bundle, quick_config())
        assert validator.metric == "pair_accuracy" and validator.episodes is None
        res = tr.train_pan(bundle, EncoderSpec(kind="identity"), CsmConfig(m=3),
                           quick_config(epochs=4, validation_every=2))
        assert all(0.0 <= row.val_metric <= 1.0 for row in res.history[1::2])

    def test_fewshot_validation_encodes_the_val_rows_alone(self, monkeypatch):
        spec = SyntheticSpec(n_items=1000, d=32, m_attributes=6, noise_sd=0.05,
                             task_kind="fewshot_clusters", n_classes=20)
        bundle = generate(spec, seed=1)[0]
        val = bundle.splits["val"]
        validator = tr._Validator(bundle, quick_config())
        assert validator.metric == "fewshot" and len(validator.episodes) == 20
        rows = []
        encode_all = tr.ModelBundle.encode_all

        def recording(self, features, graph_context=None):
            rows.append(features)
            return encode_all(self, features, graph_context)

        monkeypatch.setattr(tr.ModelBundle, "encode_all", recording)
        model = tr.init_model(EncoderSpec(kind="mlp", layer_dims=(8, 4)), CsmConfig(m=3),
                              bundle.d, 1)
        value = validator(model)
        assert len(val) == 250 and len(rows) == 20
        assert all(np.array_equal(f, bundle.features[val]) for f in rows)
        # the same episodes over bundle ids score the same
        episodes = build_episodes(
            bundle, n_way=5, k_shot=5, n_query=8, count=20,
            seed=derive_seed(quick_config().seed, "val-episodes"), split="val",
        )
        assert value == few_shot_accuracy(model, episodes, bundle.features).value

    def test_an_episode_bug_is_not_swallowed(self, monkeypatch):
        import pan.data

        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(pan.data, "build_episodes", broken)
        with pytest.raises(KeyError, match="bug"):
            tr._Validator(self.small_fewshot_bundle(), quick_config())


class TestOneForward:
    """Training and evaluation score a pair through the same primitives."""

    @pytest.mark.parametrize("relevance", [True, False])
    def test_training_p_equals_pair_scores_bitwise(self, separable_bundle, relevance):
        feats = separable_bundle.features
        spec = EncoderSpec(kind="mlp", layer_dims=(8, 5))
        cfg = CsmConfig(m=6, relevance_enabled=relevance)
        model = tr.init_model(spec, cfg, feats.shape[1], seed=2)
        pairs = np.random.default_rng(3).integers(0, len(feats), size=(2000, 2))
        tape = ad.Tape()
        tensors = {k: tape.parameter(v, k) for k, v in model.params.items()}
        h = encode_on_tape(spec, tape.constant(feats), tensors)
        rho, omega, p = csm_on_tape(ad.pair_abs_diff(h, pairs[:, 0], pairs[:, 1]), tensors, cfg)
        assert p.tape is tape
        assert model.pair_scores(pairs, feats).tobytes() == p.value[:, 0].tobytes()
        got_rho, got_omega = model.pair_conditions(pairs, feats)
        assert got_rho.tobytes() == rho.value.tobytes()
        assert got_omega.tobytes() == omega.value.tobytes()

    @pytest.mark.parametrize("kind", ["pan-mlp", "pan-gcn", "siamese", "multitask", "attr-sim"])
    def test_encode_then_head_on_a_tape_equals_the_scorer_bitwise(self, separable_bundle, kind):
        feats = separable_bundle.features
        d = feats.shape[1]
        rng = np.random.default_rng(5)
        mlp = EncoderSpec(kind="mlp", layer_dims=(d,))
        model = {
            "pan-mlp": lambda: tr.init_model(
                EncoderSpec(kind="mlp", layer_dims=(8, 5)), CsmConfig(m=4), d, seed=3),
            "pan-gcn": lambda: tr.init_model(
                EncoderSpec(kind="gcn", num_layers=2, hidden_dim=6), CsmConfig(m=4), d, seed=3),
            "siamese": lambda: tr.SiameseModel({
                "embed_w": rng.normal(size=(d, 5)), "link_w": rng.normal(size=(5, 1)),
                "link_b": rng.normal(size=(1, 1))}),
            "multitask": lambda: tr.MultitaskModel(mlp, init_encoder_weights(mlp, d, 3) | {
                "link_w": rng.normal(size=(d, 1)), "link_b": rng.normal(size=(1, 1))}),
            "attr-sim": lambda: tr.AttrSimilarityModel({
                "attr_w": rng.normal(size=(d, 4)), "attr_b": rng.normal(size=(1, 4)),
                "pair_w": rng.normal(size=(8, 1)), "pair_b": rng.normal(size=(1, 1))}),
        }[kind]()
        graph = separable_bundle.graph if kind == "pan-gcn" else None  # a context graph
        propagation = None if graph is None else graph.propagation()
        pairs = rng.integers(0, len(feats), size=(2000, 2))
        tape = ad.Tape()
        tensors = {k: tape.parameter(v, k) for k, v in model.params.items()}
        h = model.encode(tensors, tape.constant(feats), propagation)
        out = model.head(tensors, h, pairs[:, 0], pairs[:, 1])
        assert out[-1].tape is tape
        assert model.pair_scores(pairs, feats, graph).tobytes() == out[-1].value[:, 0].tobytes()
        if isinstance(model, tr.ModelBundle):
            rho, omega = model.pair_conditions(pairs, feats, graph)
            assert rho.tobytes() == out[0].value.tobytes()
            assert omega.tobytes() == out[1].value.tobytes()


@pytest.mark.parametrize("model_class,train", [
    (tr.ModelBundle, lambda b, cfg: tr.train_pan(
        b, EncoderSpec(kind="mlp", layer_dims=(6, 4)), CsmConfig(m=3), cfg)),
    (tr.SiameseModel, lambda b, cfg: tr.train_siamese_baseline(b, margin=0.2, config=cfg)),
    (tr.MultitaskModel, lambda b, cfg: tr.train_multitask_baseline(b, cfg)),
    (tr.AttrSimilarityModel, lambda b, cfg: tr.train_attr_similarity_baseline(b, cfg)),
], ids=["pan", "siamese", "multitask", "attr-sim"])
def test_trainers_train_through_the_models_head(separable_bundle, monkeypatch, model_class,
                                                train):
    """Each trainer's loss runs the model class's own ``head`` on taped
    parameters, once per epoch, so no trainer keeps a copy of the forward."""
    taped = []
    head = model_class.head

    def recording(self, params, h, i, j):
        out = head(self, params, h, i, j)
        tape = out[-1].tape
        taped.append(tape is not None and any(t.tape is tape for t in params.values()))
        return out

    monkeypatch.setattr(model_class, "head", recording)
    train(separable_bundle, quick_config(epochs=3, lambda_=1.0))
    assert sum(taped) == 3


def _scored_models(d: int, rng) -> list:
    """Every model kind at the shapes the CLI trains (MLP 24,16, M = 6)."""
    mlp = EncoderSpec(kind="mlp", layer_dims=(24, 16))
    return [
        tr.init_model(mlp, CsmConfig(m=6), d, 1),
        tr.init_model(EncoderSpec(kind="identity"), CsmConfig(m=6, relevance_enabled=False), d, 2),
        tr.SiameseModel({"embed_w": rng.normal(size=(d, 16)), "link_w": rng.normal(size=(16, 1)),
                         "link_b": rng.normal(size=(1, 1))}),
        tr.MultitaskModel(mlp, init_encoder_weights(mlp, d, 3) | {
            "link_w": rng.normal(size=(16, 1)), "link_b": rng.normal(size=(1, 1))}),
        tr.AttrSimilarityModel({"attr_w": rng.normal(size=(d, 6)), "attr_b": rng.normal(size=(1, 6)),
                                "pair_w": rng.normal(size=(12, 1)), "pair_b": rng.normal(size=(1, 1))}),
    ]


def check_blocks_keep_bits() -> None:
    """Blocked scoring equals the one-block composition bit for bit, at pair
    counts around the block size (run at one BLAS thread)."""
    block = tr.SCORE_BLOCK
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(500, 16))
    for model in _scored_models(16, rng):
        for n in (1, 2, block - 1, block, block + 1, 2 * block + 1, 2 * block + 3):
            pairs = rng.integers(0, len(feats), size=(n, 2))
            outputs = []
            for size in (block, 1 << 40):
                tr.SCORE_BLOCK = size
                out = [model.pair_scores(pairs, feats)]
                if isinstance(model, tr.ModelBundle):
                    out += model.pair_conditions(pairs, feats)
                outputs.append([a.tobytes() for a in out])
            tr.SCORE_BLOCK = block
            assert outputs[0] == outputs[1], (type(model).__name__, n)


class TestBlockedScoring:
    """Every model encodes once and runs its pair head on blocks of
    SCORE_BLOCK pairs, with the bits and less memory than one block."""

    @pytest.mark.parametrize("n,expected", [
        (0, [(0, 0)]), (1, [(0, 1)]), (4096, [(0, 4096)]), (4097, [(0, 4097)]),
        (4098, [(0, 4096), (4096, 4098)]), (8195, [(0, 4096), (4096, 8192), (8192, 8195)]),
    ])
    def test_blocks_cover_the_rows_and_leave_no_single_row(self, n, expected):
        assert tr.SCORE_BLOCK == 4096
        assert tr._blocks(n) == expected

    def test_block_boundaries_keep_bits(self):
        # one BLAS thread: under several, row bits may depend on the split (README)
        env = os.environ | {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        src = str(Path(pan.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import test_training; test_training.check_blocks_keep_bits()")
        proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_one_encode_per_call(self, monkeypatch):
        calls = []
        encode_all = tr.ModelBundle.encode_all
        monkeypatch.setattr(tr.ModelBundle, "encode_all",
                            lambda *a: calls.append(1) or encode_all(*a))
        model = _scored_models(16, np.random.default_rng(1))[0]
        feats = np.random.default_rng(2).normal(size=(50, 16))
        pairs = product_pairs(np.arange(50), np.arange(50)).repeat(4, axis=0)  # 10,000 pairs
        model.pair_scores(pairs, feats)
        model.pair_conditions(pairs, feats)
        assert len(calls) == 2

    def test_scoring_memory_does_not_grow_with_the_pair_count(self):
        model = _scored_models(16, np.random.default_rng(1))[0]
        feats = np.random.default_rng(2).normal(size=(1600, 16))
        pairs = product_pairs(np.arange(400), np.arange(400, 1600))  # 480,000 pairs
        tracemalloc.start()
        try:
            scores = model.pair_scores(pairs, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (len(pairs),)
        assert peak < 30e6, peak  # one block of the head at once; 181 MB unblocked


def _every_model(d, seed=0):
    rng = np.random.default_rng(seed)
    spec = EncoderSpec(kind="mlp", layer_dims=(3,))
    return [
        tr.init_model(EncoderSpec(kind="mlp", layer_dims=(5, 3)), CsmConfig(m=2), d, seed),
        tr.SiameseModel({
            "embed_w": rng.normal(size=(d, 3)), "link_w": rng.normal(size=(3, 1)),
            "link_b": np.zeros((1, 1)),
        }),
        tr.MultitaskModel(
            spec, init_encoder_weights(spec, d, seed)
            | {"link_w": rng.normal(size=(3, 1)), "link_b": np.zeros((1, 1))},
        ),
        tr.AttrSimilarityModel({
            "attr_w": rng.normal(size=(d, 2)), "attr_b": np.zeros((1, 2)),
            "pair_w": rng.normal(size=(4, 1)), "pair_b": np.zeros((1, 1)),
        }),
    ]


def test_negative_pair_indices_raise_index_error():
    feats = np.random.default_rng(1).normal(size=(6, 4))
    for model in _every_model(4):
        assert model.pair_scores([(0, 5), (3, 3)], feats).shape == (2,)
        for pair in ((-1, 2), (2, -6), (0, 6)):
            with pytest.raises(IndexError):
                model.pair_scores([pair], feats)
    with pytest.raises(IndexError):
        _every_model(4)[0].pair_conditions([(1, -1)], feats)


class TestSiameseBaseline:
    def test_hand_triplet_loss_value(self):
        # 1-d embeddings 0, 1, 3 with margin 0.2: hinge is inactive
        tape = ad.Tape()
        f = tape.constant([[0.0], [1.0], [3.0]])
        anchor = ad.gather_rows(f, [0])
        pos = ad.gather_rows(f, [1])
        neg = ad.gather_rows(f, [2])
        d_pos = tr._l2_rows(tape, anchor, pos)
        d_neg = tr._l2_rows(tape, anchor, neg)
        hinge = ad.relu(ad.add(ad.subtract(d_pos, d_neg), tape.constant([[0.2]])))
        assert hinge.item() == 0.0

    def test_zero_positive_distance(self):
        tape = ad.Tape()
        f = tape.constant([[1.0, 2.0], [1.0, 2.0], [4.0, 6.0]])
        d_pos = tr._l2_rows(tape, ad.gather_rows(f, [0]), ad.gather_rows(f, [1]))
        d_neg = tr._l2_rows(tape, ad.gather_rows(f, [0]), ad.gather_rows(f, [2]))
        hinge = ad.relu(ad.add(ad.subtract(d_pos, d_neg), tape.constant([[0.2]])))
        expected = max(0.2 - 5.0, 0.0)
        assert hinge.item() == pytest.approx(expected, abs=1e-6)

    def test_satisfied_triplet_has_zero_gradient(self):
        tape = ad.Tape()
        w = tape.parameter([[1.0], [0.0]], "w")
        f = ad.matmul(tape.constant([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), w)
        d_pos = tr._l2_rows(tape, ad.gather_rows(f, [0]), ad.gather_rows(f, [1]))
        d_neg = tr._l2_rows(tape, ad.gather_rows(f, [0]), ad.gather_rows(f, [2]))
        loss = ad.mean_all(ad.relu(ad.add(ad.subtract(d_pos, d_neg), tape.constant([[0.2]]))))
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads["w"], np.zeros((2, 1)))

    def test_trains_and_scores(self, separable_bundle):
        model = tr.train_siamese_baseline(
            separable_bundle, margin=0.2, config=quick_config(epochs=30), embed_dim=8
        )
        scores = model.pair_scores([(0, 1), (2, 3)], separable_bundle.features)
        assert scores.shape == (2,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_single_class_graph_raises(self):
        # every node linked to every other: no negative exists for a triplet
        feats = np.random.default_rng(1).normal(size=(6, 3))
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        bundle = DatasetBundle(
            feats, SimilarityGraph(n, edges), {"train": np.arange(n)}, None, None, None
        )
        with pytest.raises(SamplingError, match="node 0 has no unlinked partner"):
            tr.train_siamese_baseline(bundle, margin=0.2, config=quick_config(epochs=2))

    def test_negative_margin_rejected(self, separable_bundle):
        with pytest.raises(ContractError):
            tr.train_siamese_baseline(separable_bundle, margin=-1.0, config=quick_config())


def _scalar_sample_triplets(local, rng):
    """The sampler that _sample_triplets replaced, kept as the reference for
    its draws: one scalar draw and one edge lookup per candidate negative."""
    linked = set(local.edges)
    anchors, positives = local.pairs[:, 0], local.pairs[:, 1]
    negatives = np.empty(len(anchors), dtype=np.int64)
    for row, a in enumerate(anchors.tolist()):
        for _ in range(200):
            k = int(rng.integers(0, local.n))
            if k != a and (min(a, k), max(a, k)) not in linked:
                negatives[row] = k
                break
        else:
            raise SamplingError(f"node {a} has no unlinked partner for a negative")
    return anchors, positives, negatives


class TestTripletSamplerMatchesScalarReference:
    def assert_same(self, local, rng_of):
        got = tr._sample_triplets(local, rng_of())
        want = _scalar_sample_triplets(local, rng_of())
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_compat_train_split_over_twenty_epochs(self):
        spec = SyntheticSpec(n_items=500, d=16, m_attributes=6, noise_sd=0.2, attr_density=0.8)
        bundle, _ = generate(spec, seed=7)
        local = bundle.graph.subgraph(bundle.splits["train"])
        for epoch in range(1, 21):
            self.assert_same(local, lambda: generator(1, "triplets", epoch))

    def test_dense_graph_where_anchors_redraw_many_times(self):
        # each node is unlinked from only its four ring neighbours i +- 1, i +- 2
        n = 30
        ring = {(min(i, (i + s) % n), max(i, (i + s) % n)) for i in range(n) for s in (1, 2)}
        g = SimilarityGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if (i, j) not in ring])
        for seed in range(5):
            self.assert_same(g, lambda: np.random.default_rng(seed))


class TestMultitaskBaseline:
    def test_lambda_zero_matches_attribute_free_run(self, separable_bundle):
        cfg = quick_config(epochs=20, lambda_=0.0)
        with_attrs = tr.train_multitask_baseline(separable_bundle, cfg)
        stripped = DatasetBundle(
            separable_bundle.features, separable_bundle.graph,
            dict(separable_bundle.splits), None, separable_bundle.categories,
            None, task=separable_bundle.task,
        )
        without = tr.train_multitask_baseline(stripped, cfg)
        assert np.array_equal(with_attrs.params["link_w"], without.params["link_w"])
        assert np.array_equal(with_attrs.params["enc_w0"], without.params["enc_w0"])
        pairs = [(0, 1), (5, 9)]
        np.testing.assert_array_equal(
            with_attrs.pair_scores(pairs, separable_bundle.features),
            without.pair_scores(pairs, separable_bundle.features),
        )

    def test_attribute_head_reaches_high_ap_on_linear_attributes(self, separable_bundle):
        cfg = quick_config(epochs=300, lambda_=1.0, learning_rate=0.05)
        model = tr.train_multitask_baseline(separable_bundle, cfg)
        test_idx = separable_bundle.splits["test"]
        scores = model.attribute_scores(separable_bundle.features[test_idx])
        values = separable_bundle.attributes.values[test_idx]
        aps = [
            average_precision(scores[:, a], values[:, a])
            for a in range(values.shape[1])
            if 0 < values[:, a].sum() < len(values)
        ]
        assert np.mean(aps) >= 0.99

    def test_deterministic(self, separable_bundle):
        cfg = quick_config(epochs=10, lambda_=1.0)
        a = tr.train_multitask_baseline(separable_bundle, cfg)
        b = tr.train_multitask_baseline(separable_bundle, cfg)
        assert np.array_equal(a.params["link_w"], b.params["link_w"])
        assert np.array_equal(a.params["attr_w"], b.params["attr_w"])


def _without_attributes(bundle):
    return DatasetBundle(
        bundle.features, bundle.graph, dict(bundle.splits), None, bundle.categories,
        None, task=bundle.task,
    )


def make_linear_pair_task(seed=0):
    """Similarity is a symmetric linear function of the two attribute vectors."""
    rng = np.random.default_rng(seed)
    n, m = 140, 4
    values = rng.integers(0, 2, size=(n, m)).astype(float)
    v = np.array([2.0, 1.0, 1.0, 0.5])
    theta = 3.0
    edges = []
    order = rng.permutation(n)
    splits = {"train": np.sort(order[:90]), "val": np.sort(order[90:115]), "test": np.sort(order[115:])}
    split_of = {}
    for name, idx in splits.items():
        for i in idx.tolist():
            split_of[i] = name
    for i in range(n):
        for j in range(i + 1, n):
            if split_of[i] != split_of[j]:
                continue
            if v @ values[i] + v @ values[j] >= theta:
                edges.append((i, j))
    feats = values @ np.eye(4, 6) + 0.01 * rng.normal(size=(n, 6))
    table = AttributeTable(values, np.ones_like(values))
    return DatasetBundle(feats, SimilarityGraph(n, edges), splits, table, None, None)


class TestAttrSimilarityBaseline:
    def test_ground_truth_attributes_solve_linear_pair_task(self):
        # the features carry the attributes linearly, so stage 1 recovers them
        bundle = make_linear_pair_task()
        cfg = quick_config(epochs=400, learning_rate=0.05)
        model = tr.train_attr_similarity_baseline(bundle, cfg)
        report = balanced_pair_accuracy(
            model, bundle.features, bundle.graph, bundle.splits["test"]
        )
        assert report.value >= 0.95

    def test_deterministic(self, separable_bundle):
        cfg = quick_config(epochs=10)
        a = tr.train_attr_similarity_baseline(separable_bundle, cfg)
        b = tr.train_attr_similarity_baseline(separable_bundle, cfg)
        assert np.array_equal(a.params["pair_w"], b.params["pair_w"])
        assert np.array_equal(a.params["attr_w"], b.params["attr_w"])

    def test_requires_attributes(self, separable_bundle):
        bundle = DatasetBundle(
            separable_bundle.features, separable_bundle.graph,
            dict(separable_bundle.splits), None, None, None,
        )
        with pytest.raises(ContractError):
            tr.train_attr_similarity_baseline(bundle, quick_config())


class TestCheckpointAndHistory:
    def test_checkpoint_round_trip_bit_identical(self, tmp_path, separable_bundle):
        cfg = quick_config(epochs=5)
        res = tr.train_pan(
            separable_bundle, EncoderSpec(kind="mlp", layer_dims=(6, 4)), CsmConfig(m=3), cfg
        )
        path = tmp_path / "model.json"
        tr.save_checkpoint(path, res.model)
        loaded = tr.load_checkpoint(path)
        for k, v in res.model.params.items():
            assert np.array_equal(
                v.view(np.uint64), loaded.params[k].view(np.uint64)
            ), k
        assert loaded.encoder_spec == res.model.encoder_spec
        # saving the loaded model reproduces the file byte for byte
        path2 = tmp_path / "model2.json"
        tr.save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("kind,train", [
        ("siamese", lambda b, cfg: tr.train_siamese_baseline(b, margin=0.2, config=cfg)),
        ("multitask", lambda b, cfg: tr.train_multitask_baseline(b, cfg)),
        ("multitask", lambda b, cfg: tr.train_multitask_baseline(_without_attributes(b), cfg)),
        ("attr-sim", lambda b, cfg: tr.train_attr_similarity_baseline(b, cfg)),
    ], ids=["siamese", "multitask", "multitask-no-attributes", "attr-sim"])
    def test_baseline_round_trip_bit_identical(self, tmp_path, separable_bundle, kind, train):
        model = train(separable_bundle, quick_config(epochs=5, lambda_=1.0))
        path, again = tmp_path / "model.json", tmp_path / "model2.json"
        tr.save_checkpoint(path, model)
        assert json.loads(path.read_text())["kind"] == kind
        loaded = tr.load_checkpoint(path)
        assert type(loaded) is type(model)
        tr.save_checkpoint(again, loaded)
        assert path.read_bytes() == again.read_bytes()
        pairs = [(0, 1), (2, 3), (5, 9), (7, 7)]
        feats = separable_bundle.features
        assert loaded.pair_scores(pairs, feats).tobytes() == model.pair_scores(pairs, feats).tobytes()

    @pytest.mark.parametrize("kind,digest", [
        ("pan-identity",
         "caeb30245c78dd696f1dcd57812232ef8317f9f423bbe23514c30d5ba8cc5f82"),
        ("pan-mlp",
         "dc820e0c15b1b21756c7700aef595730ca78caa283c260c826c625a4b25245ff"),
        ("pan-gcn",
         "af38de7227419bff7bc5910cdacfa7c5b1c5d0772f6d40af51e3998263175120"),
        ("siamese",
         "ee015890bcc6360a9e1a38a0648e69b9e8996dd7be2a18f8ccc92264c7887ab6"),
        ("multitask",
         "886ee6a2e87f81b71fdc5734c63e9b2caf41193527a8106efb7a22d22f434e73"),
        ("attr-sim",
         "6f0f44874dfec3e55fec397e5728ab357c7c52fb3d1a7434a08d661d94e4d7ce"),
    ])
    def test_pinned_checkpoint_bytes(self, tmp_path, kind, digest):
        # each trainer's seeded init at 0 epochs: the bytes depend on no BLAS
        n, d = 6, 3
        bundle = DatasetBundle(np.zeros((n, d)), SimilarityGraph(n, [(0, 1), (2, 3)]),
                               {"train": np.arange(n)},
                               AttributeTable(np.ones((n, 2)), np.ones((n, 2))))
        cfg = tr.TrainConfig(epochs=0, seed=11)
        specs = {"pan-identity": EncoderSpec(kind="identity"),
                 "pan-mlp": EncoderSpec(kind="mlp", layer_dims=(5, 4)),
                 "pan-gcn": EncoderSpec(kind="gcn", num_layers=2, hidden_dim=4)}
        if kind in specs:
            model = tr.train_pan(bundle, specs[kind], CsmConfig(m=4), cfg).model
        elif kind == "siamese":
            model = tr.train_siamese_baseline(bundle, 0.2, cfg)
        elif kind == "multitask":
            model = tr.train_multitask_baseline(bundle, cfg)
        else:
            model = tr.train_attr_similarity_baseline(bundle, cfg)
        path, again = tmp_path / "model.json", tmp_path / "model2.json"
        tr.save_checkpoint(path, model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        tr.save_checkpoint(again, tr.load_checkpoint(path))
        assert again.read_bytes() == path.read_bytes()

    def test_history_csv_layout(self, tmp_path):
        rows = [tr.HistoryRow(1, 0.5, None), tr.HistoryRow(2, 0.25, 0.75),
                tr.HistoryRow(3, np.float64(0.1), np.float64(1.0))]
        path = tmp_path / "history.csv"
        tr.write_history_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == "epoch,train_loss,val_metric"
        assert text[1] == "1,0.5,"
        assert text[2] == "2,0.25,0.75"
        assert text[3] == "3,0.1,1.0"  # a numpy float is written as the float it holds
