import math

import numpy as np
import pytest

from pan import autodiff as ad
from pan.errors import ContractError, DimensionError, NumericError


def matmul_oracle(a, b):
    """Naive triple loop, the independent reference for matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        x = np.arange(9, dtype=float).reshape(3, 3)
        out = ad.matmul(np.eye(3), x)
        np.testing.assert_array_equal(out.value, x)

    def test_scalar(self):
        assert ad.matmul([[2.0]], [[3.0]]).item() == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        got = ad.matmul(a, b).value
        assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12

    def test_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError) as err:
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))
        assert "(2, 3)" in str(err.value)

    def test_vjp_skips_constant_operands(self):
        rng = np.random.default_rng(1)
        tape = ad.Tape()
        x = tape.constant(rng.normal(size=(4, 3)))
        w = tape.parameter(rng.normal(size=(3, 2)), "w")
        ad.matmul(x, w)
        ad.matmul(w.value.T.copy(), tape.parameter(rng.normal(size=(3, 5)), "v"))
        upstream = rng.normal(size=(4, 2))
        grad_x, grad_w = tape.records[0][2](upstream)
        assert grad_x is None
        np.testing.assert_array_equal(grad_w, x.value.T @ upstream)
        grad_a, grad_v = tape.records[1][2](np.ones((2, 5)))
        assert grad_a is None and grad_v is not None


class TestElementwise:
    def test_abs_of_equal_inputs_is_zero(self):
        h = np.random.default_rng(1).normal(size=(1, 5))
        out = ad.absolute(ad.subtract(h, h))
        np.testing.assert_array_equal(out.value, np.zeros((1, 5)))

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid([[0.0]]).item() == 0.5

    def test_sigmoid_saturation_is_guarded(self):
        out = ad.sigmoid([[40.0, -40.0]]).value
        assert abs(out[0, 0] - 1.0) < 1e-12
        assert abs(out[0, 1] - 0.0) < 1e-12
        assert np.all(np.isfinite(out))
        # complement identity for a spread of magnitudes
        xs = np.array([[-1e3, -40.0, -1.5, 0.0, 2.5, 40.0, 1e3]])
        s = ad.sigmoid(xs).value + ad.sigmoid(-xs).value
        assert np.max(np.abs(s - 1.0)) < 1e-12

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(np.ones((2, 2)), np.ones((1, 2)))

    def test_gather_rows_vjp_equals_add_at_bitwise(self):
        rng = np.random.default_rng(3)
        for rows, cols, n in ((7, 3, 50), (1, 4, 9), (20, 1, 0), (500, 16, 8192)):
            tape = ad.Tape()
            a = tape.parameter(rng.normal(size=(rows, cols)), "a")
            idx = rng.integers(0, rows, size=n)  # repeated and unsorted
            ad.gather_rows(a, idx)
            _out, _inputs, vjp = tape.records[-1]
            g = rng.normal(size=(n, cols)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
            expected = np.zeros((rows, cols))
            np.add.at(expected, idx, g)
            (got,) = vjp(g)
            assert got.tobytes() == expected.tobytes()


def _pair_abs_diff_grads(make_diff, a0, extra_use, seed):
    """Gradient of a loss through ``make_diff(a, i, j)``, optionally with ``a``
    also feeding a second term recorded after it."""
    rng = np.random.default_rng(seed)
    n, cols = a0.shape
    i = rng.integers(0, n, size=40)  # repeated and unsorted, with i == j rows
    j = rng.integers(0, n, size=40)
    w = rng.normal(size=(cols, 3))
    tape = ad.Tape()
    a = tape.parameter(a0, "a")
    diff = make_diff(a, i, j)
    loss = ad.mean_all(ad.sigmoid(ad.matmul(diff, w)))
    if extra_use:
        loss = ad.add(loss, ad.mean_all(ad.sigmoid(ad.gather_rows(a, np.arange(n)[::-1]))))
    return diff.value, ad.backward(tape, loss)["a"]


class TestPairAbsDiff:
    @staticmethod
    def composition(a, i, j):
        return ad.absolute(ad.subtract(ad.gather_rows(a, i), ad.gather_rows(a, j)))

    def test_value_and_gradient_equal_the_composition_bitwise(self):
        for seed, extra_use in ((0, False), (1, True), (2, False), (3, True)):
            rng = np.random.default_rng(seed)
            a0 = rng.normal(size=(9, 5)) * 10.0 ** rng.integers(-4, 5, size=(9, 1))
            a0[3] = a0[5]  # equal rows give exact zeros in |a_i - a_j|
            got = _pair_abs_diff_grads(ad.pair_abs_diff, a0, extra_use, seed)
            want = _pair_abs_diff_grads(self.composition, a0, extra_use, seed)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_gradient_equals_the_composition_with_zeros_in_the_input(self):
        # a training-sized step: 8192 pairs over 300 rows, with +0.0 and -0.0
        # entries, zero rows and equal rows, so that many differences are
        # exactly 0 (some of them -0.0 - +0.0) and take the subgradient 0
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=(300, 16))
        a0[rng.random(a0.shape) < 0.3] = 0.0
        a0[rng.random(a0.shape) < 0.1] = -0.0
        a0[:20] = 0.0
        a0[20:40] = a0[40:60]
        i = rng.integers(0, 300, size=8192)
        j = rng.integers(0, 300, size=8192)
        w = rng.normal(size=(16, 6))

        def grad(make_diff):
            tape = ad.Tape()
            a = tape.parameter(a0, "a")
            diff = make_diff(a, i, j)
            loss = ad.mean_all(ad.sigmoid(ad.matmul(diff, w)))
            return diff.value, ad.backward(tape, loss)["a"]

        got, want = grad(ad.pair_abs_diff), grad(self.composition)
        assert (got[0] == 0.0).mean() > 0.1
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_untaped_value(self):
        a = np.array([[1.0, -2.0], [0.5, 4.0], [-3.0, 0.0]])
        out = ad.pair_abs_diff(a, [0, 2, 1], [1, 0, 1])
        assert out.tape is None
        np.testing.assert_array_equal(out.value, [[0.5, 6.0], [4.0, 2.0], [0.0, 0.0]])

    def test_index_out_of_range(self):
        a = np.zeros((3, 2))
        for i, j in (([-1], [0]), ([0], [-3]), ([3], [0]), ([0], [7])):
            with pytest.raises(IndexError):
                ad.pair_abs_diff(a, i, j)

    def test_index_lengths_must_match(self):
        with pytest.raises(DimensionError):
            ad.pair_abs_diff(np.zeros((3, 2)), [0, 1], [2])


class TestRowSoftmax:
    def test_uniform_on_equal_row(self):
        out = ad.row_softmax(np.full((1, 4), 3.25)).value
        np.testing.assert_allclose(out, np.full((1, 4), 0.25), atol=1e-15)

    def test_single_column(self):
        assert ad.row_softmax([[7.0]]).item() == 1.0

    def test_closed_form(self):
        out = ad.row_softmax([[0.0, math.log(3.0)]]).value
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-14)

    def test_rows_sum_to_one_even_for_large_magnitudes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=1e3, size=(20, 7))
        out = ad.row_softmax(x).value
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
        assert out.min() >= 0.0 and out.max() <= 1.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _numpy_row_sum(x):
    return x.sum(axis=1, keepdims=True)


def _numpy_row_max(x):
    return x.max(axis=1, keepdims=True)


class TestRowReductions:
    """``row_sum_values`` and ``row_max_values`` against numpy's own row
    reductions. A numpy whose summation order moved fails here first, before
    any recorded artifact hash does."""

    def _rows(self, rng, width):
        # magnitudes spread over 10^-8 to 10^8 within and across rows
        return rng.normal(size=(9, width)) * 10.0 ** rng.uniform(-8, 8, size=(9, width))

    @pytest.mark.parametrize("helper, reference", [
        (ad.row_sum_values, _numpy_row_sum), (ad.row_max_values, _numpy_row_max),
    ])
    def test_every_width_matches_numpy_bitwise(self, helper, reference):
        # widths cross the 8-column partial sums and the 128-column split
        rng = np.random.default_rng(30)
        for width in range(1, 141):
            x = self._rows(rng, width)
            for rows in (x, x * 1e8, x * 1e-8):
                got = helper(rows)
                assert got.shape == (9, 1), width
                assert np.array_equal(_bits(got), _bits(reference(rows))), width

    def test_sum_order_is_not_left_to_right(self):
        # the test above can tell the pairwise order from a running sum
        rng = np.random.default_rng(31)
        x = self._rows(rng, 24)
        running = x[:, :1] + 0.0
        for c in range(1, 24):
            running += x[:, c : c + 1]
        assert not np.array_equal(_bits(running), _bits(ad.row_sum_values(x)))

    def test_signed_zero_rows(self):
        rng = np.random.default_rng(32)
        for width in (1, 6, 9, 16, 130):
            negative = np.full((3, width), -0.0)
            assert np.array_equal(_bits(ad.row_sum_values(negative)), _bits(np.zeros((3, 1))))
            assert np.array_equal(_bits(ad.row_max_values(negative)),
                                  _bits(_numpy_row_max(negative)))
            mixed = np.where(rng.random((40, width)) < 0.5, 0.0, -0.0)
            assert np.array_equal(_bits(ad.row_sum_values(mixed)), _bits(_numpy_row_sum(mixed)))
            # a maximum over mixed zeros is 0 in value; its sign follows the
            # lane order of numpy's SIMD loop, which no column order reproduces
            # on every machine
            np.testing.assert_array_equal(ad.row_max_values(mixed), 0.0)

    def test_empty_row_sums_to_zero(self):
        np.testing.assert_array_equal(ad.row_sum_values(np.zeros((2, 0))), np.zeros((2, 1)))

    def test_softmax_vjp_and_row_sum_keep_the_numpy_bits(self):
        rng = np.random.default_rng(33)
        for width in (1, 6, 16):
            x = rng.normal(scale=3.0, size=(50, width))
            shifted = np.exp(x - x.max(axis=1, keepdims=True))
            s = shifted / shifted.sum(axis=1, keepdims=True)
            tape = ad.Tape()
            out = ad.row_softmax(tape.parameter(x, "x"))
            assert np.array_equal(_bits(out.value), _bits(s))
            g = rng.normal(size=(50, width))
            (piece,) = tape.records[-1][2](g)
            want = s * (g - (g * s).sum(axis=1, keepdims=True))
            assert np.array_equal(_bits(piece), _bits(want))
            assert np.array_equal(_bits(ad.row_sum(x).value), _bits(_numpy_row_sum(x)))


class TestSameBitsRewrites:
    """The one-division sigmoid and the minimum/maximum clamp give the bits
    of the expressions they replaced."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]

    def test_sigmoid_matches_the_two_branch_form(self):
        x = np.concatenate([self.EDGES, np.random.default_rng(34).normal(scale=20.0, size=200)])
        x = x.reshape(1, -1)
        ex = np.exp(-np.abs(x))
        old = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        assert np.array_equal(_bits(ad.sigmoid_values(x)), _bits(old))

    def test_clamp_matches_np_clip(self):
        rng = np.random.default_rng(35)
        p = np.concatenate([self.EDGES, [ad.BCE_EPS, 1.0 - ad.BCE_EPS, 1.0, 1e-13],
                            rng.random(200), 1.0 - rng.random(20) * 1e-11])
        p = p.reshape(-1, 1)
        y = rng.integers(0, 2, size=p.shape).astype(float)
        ph = np.clip(p, ad.BCE_EPS, 1.0 - ad.BCE_EPS)
        old_values = -(y * np.log(ph) + (1.0 - y) * np.log1p(-ph))
        old_grad = np.where(p == ph, (ph - y) / (ph * (1.0 - ph)), 0.0)
        assert np.array_equal(_bits(ad.bce_values(p, y)), _bits(old_values))
        assert np.array_equal(_bits(ad._bce_grad(p, y)), _bits(old_grad))


class TestBce:
    def test_symmetric_point(self):
        assert abs(ad.bce([[0.5]], [[1.0]]).item() - math.log(2.0)) < 1e-15

    def test_masked_all_zero_mask_is_exactly_zero(self):
        out = ad.masked_bce_mean([[0.9, 0.1]], [[1.0, 1.0]], [[0.0, 0.0]])
        assert out.item() == 0.0

    def test_masked_mean_hand_expansion(self):
        got = ad.masked_bce_mean([[0.9, 0.1]], [[1.0, 1.0]], [[1.0, 0.0]]).item()
        assert got == ad.bce([[0.9]], [[1.0]]).item()

    def test_masked_positions_are_ignored_bit_exactly(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 0.95, size=(4, 6))
        y = rng.integers(0, 2, size=(4, 6)).astype(float)
        mask = rng.integers(0, 2, size=(4, 6)).astype(float)
        base = ad.masked_bce_mean(p, y, mask).item()
        p2, y2 = p.copy(), y.copy()
        p2[mask == 0] = rng.uniform(0.001, 0.999, size=int((mask == 0).sum()))
        y2[mask == 0] = 1.0 - y2[mask == 0]
        again = ad.masked_bce_mean(p2, y2, mask).item()
        assert base == again

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ad.masked_bce_mean([[0.5]], [[1.0, 0.0]], [[1.0, 1.0]])


class TestBackward:
    def test_quadratic_form(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, -2.0, 3.0]], "x")
        out = ad.row_sum(ad.multiply(x, x))  # x x^T
        grads = ad.backward(tape, out)
        np.testing.assert_allclose(grads["x"], 2.0 * x.value, atol=1e-15)

    def test_constant_output_gives_zero_store(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0]], "x")
        out = tape.constant([[5.0]])
        grads = ad.backward(tape, out)
        np.testing.assert_array_equal(grads["x"], np.zeros_like(x.value))

    def test_non_scalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0]], "x")
        with pytest.raises(ContractError):
            ad.backward(tape, ad.scale(x, 2.0))

    def test_fanout_accumulates(self):
        tape = ad.Tape()
        x = tape.parameter([[3.0]], "x")
        out = ad.add(ad.multiply(x, x), ad.scale(x, 4.0))  # x^2 + 4x
        grads = ad.backward(tape, out)
        assert grads["x"][0, 0] == pytest.approx(2 * 3.0 + 4.0, abs=1e-14)


class TestTape:
    def test_two_forward_passes_bit_identical(self):
        def build():
            tape = ad.Tape()
            w = tape.parameter(np.linspace(-1, 1, 6).reshape(2, 3), "w")
            x = tape.constant([[0.3, -0.7]])
            return ad.mean_all(ad.sigmoid(ad.matmul(x, w))).value

        a, b = build(), build()
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.parameter([[1.0]], "a")
        b = t2.parameter([[2.0]], "b")
        with pytest.raises(ContractError):
            ad.add(a, b)


class TestKinks:
    """A tape notes how far each relu/abs argument is from its kink."""

    def test_relu_counts_exact_zeros(self):
        tape = ad.Tape()
        ad.relu(tape.parameter([[0.0, -3.0, 2.0]], "x"))
        assert tape.kink_margin() == 0.0
        tape = ad.Tape()
        ad.relu(tape.parameter([[0.5, -0.25, 2.0]], "x"))
        assert tape.kink_margin() == 0.25

    def test_absolute_and_pair_abs_diff_skip_exact_zeros(self):
        tape = ad.Tape()
        ad.absolute(tape.parameter([[0.0, -0.125, 2.0]], "x"))
        assert tape.kink_margin() == 0.125
        tape = ad.Tape()
        a = tape.parameter([[1.0, 4.0], [1.0, 3.5]], "a")
        ad.pair_abs_diff(a, [0, 1], [1, 1])  # |a0 - a1| = (0, 0.5); |a1 - a1| = 0
        assert tape.kink_margin() == 0.5
        tape = ad.Tape()
        ad.absolute(tape.parameter([[0.0, 0.0]], "x"))
        assert tape.kink_margin() == math.inf

    def test_margin_is_the_nearest_over_records(self):
        tape = ad.Tape()
        x = tape.parameter([[0.75, -1.5]], "x")
        ad.absolute(ad.relu(ad.add(x, [[0.0, 1.4375]])))  # relu sees -0.0625; abs sees 0
        assert tape.kink_margin() == 0.0625

    def test_untaped_calls_and_other_primitives_note_nothing(self):
        tape = ad.Tape()
        ad.relu(tape.constant([[0.0]]))
        ad.absolute(tape.constant([[1e-9]]))
        ad.pair_abs_diff(np.array([[0.0], [1e-9]]), [0], [1])
        ad.sigmoid(tape.parameter([[0.0]], "x"))
        assert tape.kinks == [] and tape.kink_margin() == math.inf


def worst_error(loss, params, step=1e-5):
    return max(float(e.max()) for e in ad.finite_diff_errors(loss, params, step).values())


class TestFiniteDiffCheck:
    def test_linear_function_is_near_exact(self):
        c = np.array([[2.0, -3.0, 0.5]])

        def loss(tape, params):
            return ad.mean_all(ad.multiply(params["x"], tape.constant(c)))

        err = worst_error(loss, {"x": np.array([[0.3, 1.2, -0.7]])})
        assert err < 1e-9

    def test_product_xy(self):
        def loss(tape, params):
            return ad.multiply(params["x"], params["y"])

        tape = ad.Tape()
        tensors = {
            "x": tape.parameter([[2.0]], "x"),
            "y": tape.parameter([[3.0]], "y"),
        }
        grads = ad.backward(tape, loss(tape, tensors))
        assert grads["x"][0, 0] == 3.0 and grads["y"][0, 0] == 2.0
        err = worst_error(loss, {"x": [[2.0]], "y": [[3.0]]})
        assert err < 1e-9

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ContractError):
            ad.finite_diff_errors(lambda t, p: p["x"], {"x": [[1.0]]}, step=0.0)

    def test_nonfinite_probe_reported(self):
        def loss(tape, params):
            # log of a negative probe value explodes
            x = params["x"].value
            if x[0, 0] <= 0:
                raise FloatingPointError
            return ad.scale(params["x"], math.log(x[0, 0]))

        with pytest.raises((NumericError, FloatingPointError)):
            ad.finite_diff_errors(loss, {"x": [[1e-6]]}, step=1e-5)


def random_composition_loss(seed):
    """A randomized composition touching every differentiable primitive."""
    rng = np.random.default_rng(seed)
    n, d, m = 3, 4, 3
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=(n, m)).astype(float)
    mask = rng.integers(0, 2, size=(n, m)).astype(float)
    idx = rng.integers(0, n, size=5)

    def loss(tape, params):
        h = ad.relu(ad.add_row(ad.matmul(tape.constant(x), params["w"]), params["b"]))
        g = ad.gather_rows(h, idx)
        probs = ad.sigmoid(ad.subtract(g, ad.scale(ad.absolute(g), 0.5)))
        soft = ad.row_softmax(ad.slice_cols(ad.matmul(probs, params["v"]), 0, m))
        mixed = ad.multiply(soft, ad.sigmoid(ad.matmul(probs, params["v"])))
        part1 = ad.mean_all(ad.bce(ad.row_softmax(mixed), np.zeros((5, m))))
        part2 = ad.masked_bce_mean(
            ad.sigmoid(ad.matmul(tape.constant(x), params["w"])), y, mask
        )
        sq = ad.sqrt_entries(ad.add(ad.multiply(g, g), tape.constant(np.full((5, m), 0.1))))
        part3 = ad.mean_all(ad.row_sum(sq))
        return ad.add(ad.add(part1, part2), part3)

    params = {
        "w": rng.normal(scale=0.8, size=(d, m)),
        "b": rng.normal(scale=0.3, size=(1, m)),
        "v": rng.normal(scale=0.8, size=(m, m)),
    }
    return loss, params


def test_backward_matches_finite_differences_over_many_seeds():
    worst = 0.0
    for seed in range(100):
        loss, params = random_composition_loss(seed)
        worst = max(worst, worst_error(loss, params))
    assert worst < 1e-4
