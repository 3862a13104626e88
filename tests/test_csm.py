import json
import math

import numpy as np
import pytest

from pan import autodiff as ad
from pan import csm
from pan import training as tr
from pan.encoders import EncoderSpec
from pan.errors import ContractError, DimensionError


def make_config(m, relevance=True):
    return csm.CsmConfig(m=m, relevance_enabled=relevance)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = csm.init_params(5, 3, seed=11)
        b = csm.init_params(5, 3, seed=11)
        for k in ("csm_w1", "csm_b1", "csm_w2", "csm_b2"):
            x, y = a[k], b[k]
            assert np.array_equal(x, y)

    def test_biases_exactly_zero(self):
        p = csm.init_params(4, 6, seed=0)
        assert not p["csm_b1"].any() and not p["csm_b2"].any()

    def test_entry_mean_within_three_sigma(self):
        d, m = 50, 100  # 10^4 draws total in w1
        p = csm.init_params(d, m, seed=3)
        bound = 1.0 / math.sqrt(d)
        sigma_mean = (2 * bound / math.sqrt(12.0)) / math.sqrt(d * m)
        assert abs(p["csm_w1"].mean()) < 3 * sigma_mean

    def test_rejects_bad_dims(self):
        with pytest.raises(ContractError):
            csm.init_params(0, 3, seed=0)
        with pytest.raises(ContractError):
            csm.init_params(3, 0, seed=0)


class TestForward:
    def test_identical_inputs_zero_bias(self):
        p = csm.init_params(4, 5, seed=1)
        h = np.array([[0.3, -1.0, 2.0, 0.7]])
        out = csm.csm_forward(h, h, p, make_config(5))
        np.testing.assert_array_equal(out.rho, np.full(5, 0.5))
        np.testing.assert_allclose(out.omega, np.full(5, 0.2), atol=1e-15)
        assert out.p == pytest.approx(0.5, abs=1e-15)

    def test_identical_inputs_general_biases(self):
        p = csm.init_params(3, 4, seed=2)
        p["csm_b1"][:] = np.array([[0.5, -1.0, 2.0, 0.0]])
        p["csm_b2"][:] = np.array([[1.0, 0.0, -0.5, 0.25]])
        h1 = np.array([[9.0, -3.0, 0.1]])
        h2 = np.array([[-2.0, 7.0, 4.4]])
        out1 = csm.csm_forward(h1, h1, p, make_config(4))
        out2 = csm.csm_forward(h2, h2, p, make_config(4))
        np.testing.assert_array_equal(out1.rho, ad.sigmoid_values(p["csm_b1"])[0])
        np.testing.assert_array_equal(out1.omega, ad.row_softmax_values(p["csm_b2"])[0])
        np.testing.assert_array_equal(out1.rho, out2.rho)
        np.testing.assert_array_equal(out1.omega, out2.omega)

    def test_hand_arithmetic(self):
        params = {
            "csm_w1": np.eye(2), "csm_b1": np.zeros((1, 2)),
            "csm_w2": np.zeros((2, 2)), "csm_b2": np.zeros((1, 2)),
        }
        out = csm.csm_forward([[1.0, 0.0]], [[0.0, 0.0]], params, make_config(2))
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(out.rho, [sig1, 0.5], atol=1e-12)
        np.testing.assert_allclose(out.omega, [0.5, 0.5], atol=1e-15)
        assert out.p == pytest.approx(0.5 * sig1 + 0.25, abs=1e-12)
        assert out.p == pytest.approx(0.6155, abs=1e-4)

    def test_symmetry_bit_exact_over_1000_pairs(self):
        rng = np.random.default_rng(7)
        p = csm.init_params(8, 6, seed=5)
        cfg = make_config(6)
        for _ in range(1000):
            h_i = rng.normal(size=(1, 8))
            h_j = rng.normal(size=(1, 8))
            a = csm.csm_forward(h_i, h_j, p, cfg)
            b = csm.csm_forward(h_j, h_i, p, cfg)
            assert a.p == b.p
            assert np.array_equal(a.rho, b.rho) and np.array_equal(a.omega, b.omega)

    def test_relevance_disabled_means_mean_rho(self):
        rng = np.random.default_rng(8)
        p = csm.init_params(5, 3, seed=6)
        out = csm.csm_forward(
            rng.normal(size=(1, 5)), rng.normal(size=(1, 5)), p, make_config(3, relevance=False)
        )
        assert out.p == pytest.approx(out.rho.mean(), abs=1e-15)
        assert out.p == (out.rho.reshape(1, -1).sum(axis=1) * (1.0 / 3))[0]

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(9)
        p = csm.init_params(4, 4, seed=7)
        cfg = make_config(4)
        for _ in range(200):
            out = csm.csm_forward(
                rng.normal(scale=5.0, size=(1, 4)), rng.normal(scale=5.0, size=(1, 4)), p, cfg
            )
            assert 0.0 <= out.p <= 1.0

    def test_logit_shift_leaves_omega_unchanged(self):
        rng = np.random.default_rng(10)
        p = csm.init_params(5, 4, seed=8)
        shifted = dict(p)
        shifted["csm_b2"] = p["csm_b2"] + 3.7  # common constant on every relevance logit
        h_i, h_j = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        a = csm.csm_forward(h_i, h_j, p, make_config(4))
        b = csm.csm_forward(h_i, h_j, shifted, make_config(4))
        np.testing.assert_allclose(a.omega, b.omega, atol=1e-12)

    def test_dimension_mismatch_names_d(self):
        p = csm.init_params(4, 2, seed=0)
        with pytest.raises(DimensionError) as err:
            csm.csm_forward([[1.0, 2.0]], [[1.0, 2.0]], p, make_config(2))
        assert "d=4" in str(err.value)


def batch_forward(pairs, feats, p, cfg):
    """Untaped (rho, omega, p) of csm_on_tape over |h_i - h_j| per index pair."""
    idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return csm.csm_on_tape(ad.pair_abs_diff(feats, idx[:, 0], idx[:, 1]), p, cfg)


class TestBatchForward:
    def test_singleton_matches_forward(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(4, 6))
        p = csm.init_params(6, 3, seed=9)
        cfg = make_config(3)
        _, _, batch = batch_forward([(0, 2)], feats, p, cfg)
        single = csm.csm_forward(feats[0:1], feats[2:3], p, cfg)
        assert batch.item() == single.p

    def test_flipped_pairs_identical(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(5, 4))
        p = csm.init_params(4, 3, seed=10)
        cfg = make_config(3)
        _, _, fwd = batch_forward([(1, 3), (3, 1)], feats, p, cfg)
        assert fwd.value[0, 0] == fwd.value[1, 0]

    def test_out_of_range_index(self):
        feats = np.zeros((3, 2))
        p = csm.init_params(2, 2, seed=0)
        for pair in ((0, 3), (0, -1)):
            with pytest.raises(IndexError):
                batch_forward([pair], feats, p, make_config(2))


class TestGradients:
    def test_p_and_loss_gradients_pass_finite_diff(self):
        rng = np.random.default_rng(14)
        d, m, n = 6, 4, 5
        feats = rng.normal(size=(n, d))
        idx_i = rng.integers(0, n, size=7)
        idx_j = (idx_i + 1 + rng.integers(0, n - 1, size=7)) % n
        e = rng.integers(0, 2, size=(7, 1)).astype(float)
        labels = rng.integers(0, 2, size=(7, m)).astype(float)
        mask = rng.integers(0, 2, size=(7, m)).astype(float)
        cfg = make_config(m)

        def loss(tape, params):
            h = params["features"]
            rho, _, p = csm.csm_on_tape(ad.pair_abs_diff(h, idx_i, idx_j), params, cfg)
            link = ad.bce_mean(p, e)
            attr = ad.masked_bce_mean(rho, labels, mask)
            return ad.add(link, attr)

        init = csm.init_params(d, m, seed=15)
        params = dict(init)
        params["features"] = feats
        errors = ad.finite_diff_errors(loss, params, step=1e-5)
        assert max(float(e.max()) for e in errors.values()) < 1e-4


class TestCheckpointRoundTrip:
    def test_bit_identical_via_hex_floats(self):
        model = tr.init_model(EncoderSpec(kind="identity"), make_config(5), 6, seed=21)
        p = model.params
        p["csm_w1"][0, 0] = 1.0 / 3.0  # not exactly representable in decimal
        blob = json.dumps(tr.model_to_dict(model), sort_keys=True)
        q = tr.model_from_dict(json.loads(blob)).params
        for k in ("csm_w1", "csm_b1", "csm_w2", "csm_b2"):
            x, y = p[k], q[k]
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestConfig:
    def test_hybrid_counts_must_sum(self):
        with pytest.raises(ContractError):
            csm.CsmConfig(m=5, supervision="hybrid", m_sup=2, m_unsup=2)
        cfg = csm.CsmConfig(m=5, supervision="hybrid", m_sup=2, m_unsup=3)
        assert cfg.supervised_count == 2

    def test_supervised_prefix_is_everything(self):
        assert csm.CsmConfig(m=4, supervision="supervised").supervised_count == 4
        assert csm.CsmConfig(m=4).supervised_count == 0
