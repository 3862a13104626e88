import tracemalloc

import numpy as np
import pytest

from pan import autodiff as ad
from pan import data
from pan import encoders as enc
from pan.errors import BundleFormatError, ContractError, DimensionError
from pan.rng import generator


def adjacency(g):
    """Dense 0/1 adjacency of a graph."""
    a = np.zeros((g.n, g.n))
    a[g.pairs[:, 0], g.pairs[:, 1]] = 1.0
    a[g.pairs[:, 1], g.pairs[:, 0]] = 1.0
    return a


def normalize_adjacency(g):
    """Dense D^{-1/2} (A + I) D^{-1/2}, the n x n reference for ``Propagation``.

    Computed from an outer product of the inverse square-root degrees so the
    result is bit-exactly symmetric; an edgeless graph maps to the identity.
    """
    a = adjacency(g) + np.eye(g.n)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.outer(inv_sqrt, inv_sqrt) * a


def worst_error(loss, params, step=1e-5):
    return max(float(e.max()) for e in ad.finite_diff_errors(loss, params, step).values())


class TestSimilarityGraph:
    def test_rejects_self_edges(self):
        with pytest.raises(ContractError):
            enc.SimilarityGraph(3, [(1, 1)])

    def test_symmetric_storage(self):
        g = enc.SimilarityGraph(4, [(2, 0), (0, 2), (3, 1)])
        assert g.num_edges == 2
        assert g.has_edges(0, 2) and g.has_edges(2, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            enc.SimilarityGraph(3, [(0, 3)])

    def test_first_bad_edge_decides_the_error(self):
        with pytest.raises(ContractError, match=r"self-edge \(2, 2\)"):
            enc.SimilarityGraph(3, [(0, 1), (2, 2), (0, 5)])
        with pytest.raises(IndexError, match=r"edge \(0, 5\) out of range for 3 nodes"):
            enc.SimilarityGraph(3, [(0, 1), (0, 5), (2, 2)])
        with pytest.raises(IndexError, match=r"edge \(-1, 2\)"):
            enc.SimilarityGraph(3, [(-1, 2)])

    def test_edges_sorted_and_deduplicated(self):
        raw = [(3, 1), (0, 2), (1, 3), (2, 0), (4, 0), (1, 2)]
        g = enc.SimilarityGraph(5, raw)
        assert g.edges == sorted({(min(i, j), max(i, j)) for i, j in raw})
        assert g.edges == [(0, 2), (0, 4), (1, 2), (1, 3)]
        assert g.num_edges == 4
        np.testing.assert_array_equal(g.pairs, np.array(g.edges))
        assert g.pairs.dtype == np.int64 and not g.pairs.flags.writeable

    def test_keys_match_an_np_unique_reference(self):
        rng = np.random.default_rng(5)
        n = 60
        raw = rng.integers(0, n, size=(400, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        messy = np.concatenate([raw, raw[::-1, ::-1], raw[:50]])  # reversed and repeated
        messy = messy[rng.permutation(len(messy))]
        lo, hi = messy.min(axis=1), messy.max(axis=1)
        keys = np.unique(lo * n + hi)
        g = enc.SimilarityGraph(n, messy)
        np.testing.assert_array_equal(g.pairs, np.stack([keys // n, keys % n], axis=1))
        assert g.pairs.dtype == np.int64

    def test_has_edge_and_equality(self):
        g = enc.SimilarityGraph(5, np.array([[4, 0], [1, 3]]))
        assert g.has_edges(np.array([0, 4, 3]), np.array([4, 0, 1])).all()
        assert not g.has_edges(0, 1) and not g.has_edges(2, 2)
        assert g == enc.SimilarityGraph(5, {(0, 4), (3, 1), (1, 3)})
        assert g != enc.SimilarityGraph(6, [(0, 4), (1, 3)])
        assert g != enc.SimilarityGraph(5, [(0, 4)])

    @staticmethod
    def _searchsorted_has_edges(g, i, j):
        """Membership by binary search over the sorted edge keys: the lookup
        the bit table replaced, as a reference."""
        sorted_keys = g.pairs[:, 0] * g.n + g.pairs[:, 1]
        keys = np.minimum(i, j) * g.n + np.maximum(i, j)
        pos = np.searchsorted(sorted_keys, keys)
        found = np.zeros(np.shape(keys), dtype=bool)
        inside = pos < len(sorted_keys)
        found[inside] = sorted_keys[pos[inside]] == keys[inside]
        return found

    @pytest.mark.parametrize("kind", ["random", "edgeless", "single-node", "complete"])
    def test_has_edges_matches_a_searchsorted_reference(self, kind):
        rng = np.random.default_rng(21)
        g = {
            "random": lambda: _random_graph(rng, 37, 30, 120),  # 37 * 37 keys: not whole bytes
            "edgeless": lambda: enc.SimilarityGraph(5),
            "single-node": lambda: enc.SimilarityGraph(1),
            "complete": lambda: enc.SimilarityGraph(6, enc.within_pairs(np.arange(6))),
        }[kind]()
        # every ordered pair, self pairs included, in both argument orders
        i, j = (a.ravel() for a in np.meshgrid(np.arange(g.n), np.arange(g.n)))
        want = self._searchsorted_has_edges(g, i, j)
        assert g.has_edges(i, j).dtype == bool
        np.testing.assert_array_equal(g.has_edges(i, j), want)
        np.testing.assert_array_equal(g.has_edges(j, i), want)
        # scalar queries, as Python and numpy integers
        for a, b in zip(i[::7], j[::7]):
            expected = bool(self._searchsorted_has_edges(g, np.array([a]), np.array([b]))[0])
            assert bool(g.has_edges(int(a), int(b))) == expected
            assert bool(g.has_edges(b, a)) == expected
        if kind == "complete":
            assert want.sum() == g.n * (g.n - 1)
        elif kind != "random":
            assert not want.any()

    @pytest.mark.parametrize("order", ["ascending", "permuted"])
    def test_subgraph_equals_the_constructor_path(self, order):
        rng = np.random.default_rng(22)
        g = _random_graph(rng, 50, 45, 300)
        for size in (1, 2, 17, 50):
            indices = rng.choice(50, size=size, replace=False)
            if order == "ascending":
                indices = np.sort(indices)
            position = {int(v): k for k, v in enumerate(indices)}
            want = enc.SimilarityGraph(size, [
                (position[i], position[j]) for i, j in g.edges if i in position and j in position
            ])
            got = g.subgraph(indices)
            assert got == want
            np.testing.assert_array_equal(got.pairs, want.pairs)
            assert got.pairs.dtype == np.int64 and not got.pairs.flags.writeable
            assert not got._keys.flags.writeable
            i, j = (a.ravel() for a in np.meshgrid(np.arange(size), np.arange(size)))
            np.testing.assert_array_equal(got.has_edges(i, j), want.has_edges(i, j))

    def test_empty_inputs(self):
        for edges in ((), [], np.zeros((0, 2), dtype=np.int64), iter([])):
            g = enc.SimilarityGraph(4, edges)
            assert g.num_edges == 0 and g.edges == [] and g.pairs.shape == (0, 2)

    def test_adjacency_is_symmetric_zero_one(self):
        g = enc.SimilarityGraph(4, [(0, 1), (2, 3)])
        a = adjacency(g)
        expected = np.zeros((4, 4))
        for i, j in g.edges:
            expected[i, j] = expected[j, i] = 1.0
        np.testing.assert_array_equal(a, expected)


def _random_graph(rng, n, n_connected, n_edges):
    """Random edges among the first ``n_connected`` nodes; the rest isolated."""
    edges = set()
    n_edges = min(n_edges, n_connected * (n_connected - 1) // 2)
    while len(edges) < n_edges:
        i, j = rng.integers(0, n_connected, size=2)
        if i != j:
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    return enc.SimilarityGraph(n, edges)


class TestPropagation:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            connected = int(rng.integers(2, n + 1))
            g = _random_graph(rng, n, connected, int(rng.integers(1, connected * 2)))
            h = rng.normal(size=(n, int(rng.integers(1, 6))))
            got = g.propagation()(h)
            assert got.shape == h.shape and got.flags.c_contiguous
            assert np.abs(got - normalize_adjacency(g) @ h).max() <= 1e-15, trial

    def test_training_graph_works_one_column_at_a_time(self):
        # the train split of an n = 2000 compat bundle with edge dropout, as a
        # GCN epoch propagates it: about 120,000 stored entries
        bundle, _ = data.generate(
            data.SyntheticSpec(n_items=2000, d=16, m_attributes=6, noise_sd=0.2,
                               attr_density=0.8), seed=1,
        )
        g = enc.drop_edges(bundle.graph.subgraph(bundle.splits["train"]), 0.15, 5)
        op = g.propagation()
        assert op.cols.size > 100_000
        h = np.random.default_rng(14).normal(size=(g.n, 16))
        tracemalloc.start()
        try:
            got = op(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (16, entries) gather of every column at once would take 15 MB
        assert peak < 4_000_000
        # the same segment sums as that whole-matrix form, bit for bit
        entries = h.T.take(op.cols, axis=1)
        entries *= op.weights
        want = np.add.reduceat(entries, op.starts, axis=1).T
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))

    def test_isolated_node_keeps_its_row(self):
        g = enc.SimilarityGraph(4, [(0, 1), (1, 2)])
        h = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(g.propagation()(h)[3], h[3])

    def test_edgeless_graph_is_exact_identity(self):
        h = np.random.default_rng(11).normal(size=(5, 3))
        h[0, 0] = -0.0
        out = enc.SimilarityGraph(5).propagation()(h)
        assert np.array_equal(out.view(np.uint64), h.view(np.uint64))
        assert out is not h

    def test_operator_is_symmetric(self):
        rng = np.random.default_rng(12)
        g = _random_graph(rng, 25, 20, 40)
        op = g.propagation()
        x, y = rng.normal(size=(25, 3)), rng.normal(size=(25, 3))
        assert np.sum(op(x) * y) == pytest.approx(np.sum(x * op(y)), abs=1e-12)

    def test_cached_per_graph(self):
        g = enc.SimilarityGraph(3, [(0, 1)])
        assert g.propagation() is g.propagation()

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            enc.SimilarityGraph(3, [(0, 1)]).propagation()(np.ones((4, 2)))

    def test_vjp_passes_finite_difference_check(self):
        rng = np.random.default_rng(13)
        g = _random_graph(rng, 9, 7, 10)
        op = g.propagation()
        c = rng.normal(size=(9, 2))

        def loss(tape, params):
            y = ad.self_adjoint(op, params["x"])
            return ad.mean_all(ad.multiply(ad.sigmoid(y), tape.constant(c)))

        assert worst_error(loss, {"x": rng.normal(size=(9, 2))}) < 1e-6

    def test_vjp_applies_the_operator(self):
        g = enc.SimilarityGraph(4, [(0, 1), (1, 3)])
        op = g.propagation()
        tape = ad.Tape()
        x = tape.parameter(np.ones((4, 2)), "x")
        ad.self_adjoint(op, x)
        upstream = np.arange(8.0).reshape(4, 2)
        (piece,) = tape.records[-1][2](upstream)
        np.testing.assert_array_equal(piece, op(upstream))


class TestNormalizeAdjacency:
    def test_empty_graph_is_identity(self):
        g = enc.SimilarityGraph(3)
        np.testing.assert_array_equal(normalize_adjacency(g), np.eye(3))

    def test_single_edge_two_nodes(self):
        g = enc.SimilarityGraph(2, [(0, 1)])
        np.testing.assert_allclose(normalize_adjacency(g), np.full((2, 2), 0.5), atol=1e-15)

    def test_path_graph_matches_per_entry_formula(self):
        g = enc.SimilarityGraph(3, [(0, 1), (1, 2)])
        a_hat = normalize_adjacency(g)
        a = adjacency(g) + np.eye(3)
        deg = a.sum(axis=1)
        for i in range(3):
            for j in range(3):
                expected = a[i, j] / np.sqrt(deg[i] * deg[j])
                assert a_hat[i, j] == pytest.approx(expected, abs=1e-15)

    def test_bit_exact_symmetry(self):
        rng = np.random.default_rng(0)
        n = 12
        edges = set()
        while len(edges) < 20:
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        a_hat = normalize_adjacency(enc.SimilarityGraph(n, edges))
        assert np.array_equal(a_hat.view(np.uint64), a_hat.T.copy().view(np.uint64))


class TestDropEdges:
    def test_p_zero_is_noop(self):
        g = enc.SimilarityGraph(5, [(0, 1), (1, 2), (3, 4)])
        assert enc.drop_edges(g, 0.0, seed=1) == g

    def test_deterministic(self):
        g = enc.SimilarityGraph(30, [(i, j) for i in range(30) for j in range(i + 1, 30)])
        a = enc.drop_edges(g, 0.4, seed=9)
        b = enc.drop_edges(g, 0.4, seed=9)
        assert a == b

    def test_retention_rate(self):
        n = 150
        g = enc.SimilarityGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert g.num_edges > 10_000
        kept = enc.drop_edges(g, 0.15, seed=3).num_edges
        frac = kept / g.num_edges
        sigma = np.sqrt(0.15 * 0.85 / g.num_edges)
        assert abs(frac - 0.85) < 3 * sigma

    def test_keeps_the_edges_of_a_list_based_drop(self):
        def list_drop(g, p, seed):
            edges = g.edges
            keep = generator(seed, "edge-dropout").random(len(edges)) >= p
            return [e for e, k in zip(edges, keep) if k]

        rng = np.random.default_rng(14)
        g = _random_graph(rng, 80, 70, 600)
        for p in (0.0, 0.15, 0.5, 0.9):
            for seed in range(5):
                assert enc.drop_edges(g, p, seed).edges == list_drop(g, p, seed)

    def test_rejects_p_one(self):
        with pytest.raises(ContractError):
            enc.drop_edges(enc.SimilarityGraph(2, [(0, 1)]), 1.0, seed=0)


def untaped(spec, x, w, g=None, masks=None):
    """encode_on_tape on plain arrays: the evaluation forward."""
    propagation = g.propagation() if g is not None else None
    return enc.encode_on_tape(spec, x, w, propagation, masks).value


class TestEncode:
    def test_identity_returns_input(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        spec = enc.EncoderSpec(kind="identity")
        np.testing.assert_array_equal(untaped(spec, x, {}), x)

    def test_gcn_empty_graph_one_linear_layer_is_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 4))
        spec = enc.EncoderSpec(kind="gcn", num_layers=1, hidden_dim=3, activation="linear")
        w = enc.init_encoder_weights(spec, 4, seed=4)
        out = untaped(spec, x, w, enc.SimilarityGraph(5))
        np.testing.assert_allclose(out, x @ w["enc_w0"], atol=1e-14)

    def test_gcn_path_graph_hand_computed(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = enc.SimilarityGraph(3, [(0, 1), (1, 2)])
        spec = enc.EncoderSpec(kind="gcn", num_layers=1, hidden_dim=2, activation="linear")
        w = {"enc_w0": np.array([[2.0, 0.0], [0.0, 3.0]])}
        out = untaped(spec, x, w, g)
        expected = (normalize_adjacency(g) @ x) @ w["enc_w0"]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_gcn_zero_weights_give_zero_output(self):
        spec = enc.EncoderSpec(kind="gcn", num_layers=3, hidden_dim=4)
        w = {"enc_w0": np.zeros((5, 4)), "enc_w1": np.zeros((4, 4)), "enc_w2": np.zeros((4, 4))}
        out = untaped(spec, np.ones((6, 5)), w, enc.SimilarityGraph(6))
        np.testing.assert_array_equal(out, np.zeros((6, 4)))

    def test_mlp_applies_hidden_activation_only(self):
        spec = enc.EncoderSpec(kind="mlp", layer_dims=(3, 2), activation="relu")
        w = {
            "enc_w0": np.array([[1.0, -1.0, 0.5], [0.0, 1.0, 1.0]]), "enc_w1": np.full((3, 2), 0.5),
            "enc_b0": np.zeros((1, 3)), "enc_b1": np.array([[-0.25, 0.25]]),
        }
        x = np.array([[1.0, -2.0]])
        hidden = np.maximum(x @ w["enc_w0"] + w["enc_b0"], 0.0)
        expected = hidden @ w["enc_w1"] + w["enc_b1"]
        out = untaped(spec, x, w)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("spec,dims", [
        (enc.EncoderSpec(kind="identity"), ()),
        (enc.EncoderSpec(kind="mlp", layer_dims=(24, 16)), (24, 16)),
        (enc.EncoderSpec(kind="gcn", num_layers=3, hidden_dim=5, layer_dropout_p=0.5),
         (5, 5, 5)),
    ], ids=["identity", "mlp", "gcn"])
    def test_dims_are_the_one_layer_count(self, spec, dims):
        assert spec.dims == dims
        w = enc.init_encoder_weights(spec, 7, seed=1)
        assert {k: v.shape[1] for k, v in w.items() if k.startswith("enc_w")} == {
            f"enc_w{k}": width for k, width in enumerate(dims)}
        masks = enc.dropout_masks_for_epoch(spec, 4, seed=2)
        assert masks is None or [m.shape for m in masks] == [(4, width) for width in dims]
        # a surplus layer in params is not read: the spec says how deep the encoder is
        g = enc.SimilarityGraph(4, [(0, 1)])
        x = np.random.default_rng(3).normal(size=(4, 7))
        surplus = w | {f"enc_w{len(dims)}": np.ones((dims[-1] if dims else 7, 2))}
        assert untaped(spec, x, surplus, g).tobytes() == untaped(spec, x, w, g).tobytes()

    @pytest.mark.parametrize("fields,name", [
        ({"kind": "mlp", "layer_dims": (4, 0)}, "layer_dims"),
        ({"kind": "mlp", "layer_dims": (-2,)}, "layer_dims"),
        ({"kind": "gcn", "hidden_dim": 0}, "hidden_dim"),
        ({"kind": "gcn", "hidden_dim": -3}, "hidden_dim"),
        ({"kind": "gcn", "num_layers": 0}, "num_layers"),
        ({"kind": "gcn", "layer_dropout_p": float("nan")}, "layer_dropout_p"),
        ({"kind": "gcn", "edge_dropout_p": 1.0}, "edge_dropout_p"),
        ({"kind": "conv"}, "kind"),
    ], ids=["mlp-zero-width", "mlp-negative-width", "gcn-zero-width", "gcn-negative-width",
            "gcn-no-layers", "dropout-nan", "edge-dropout-one", "unknown-kind"])
    def test_spec_rejects_out_of_range_fields(self, fields, name):
        with pytest.raises(ContractError, match=f"^{name} must be"):
            enc.EncoderSpec(**fields)

    def test_gcn_requires_graph(self):
        spec = enc.EncoderSpec(kind="gcn", num_layers=1, hidden_dim=2)
        w = enc.init_encoder_weights(spec, 3, seed=0)
        with pytest.raises(ContractError):
            untaped(spec, np.ones((2, 3)), w)

    def test_eval_mode_ignores_seed(self):
        # evaluation passes no dropout masks: the output is that of the same
        # weights with dropout off, whatever seed training drew its masks from
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4))
        spec = enc.EncoderSpec(kind="gcn", num_layers=2, hidden_dim=3, layer_dropout_p=0.5)
        w = enc.init_encoder_weights(spec, 4, seed=5)
        g = enc.SimilarityGraph(6, [(0, 1), (2, 3)])
        plain = enc.EncoderSpec(kind="gcn", num_layers=2, hidden_dim=3)
        evaluated = untaped(spec, x, w, g)
        np.testing.assert_array_equal(evaluated, untaped(plain, x, w, g))
        for seed in (1, 999):
            masks = enc.dropout_masks_for_epoch(spec, 6, seed)
            assert not np.array_equal(untaped(spec, x, w, g, masks), evaluated)

    def test_inverted_dropout_expectation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        # linear activation so the dropout expectation is exact layer by layer
        spec = enc.EncoderSpec(
            kind="gcn", num_layers=2, hidden_dim=3, activation="linear", layer_dropout_p=0.4
        )
        w = enc.init_encoder_weights(spec, 3, seed=6)
        g = enc.SimilarityGraph(4, [(0, 1), (1, 2), (2, 3)])
        reference = untaped(spec, x, w, g)
        draws = 12_000
        acc = np.zeros_like(reference)
        sq = np.zeros_like(reference)
        for k in range(draws):
            sample = untaped(spec, x, w, g, enc.dropout_masks_for_epoch(spec, 4, seed=k))
            acc += sample
            sq += sample**2
        mean = acc / draws
        se = np.sqrt((sq / draws - mean**2) / draws)
        assert np.all(np.abs(mean - reference) <= 3 * se + 1e-12)

    def test_taped_encode_matches_plain(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        g = enc.SimilarityGraph(6, [(0, 1), (1, 2), (4, 5)])
        for spec in (
            enc.EncoderSpec(kind="identity"),
            enc.EncoderSpec(kind="mlp", layer_dims=(5, 3)),
            enc.EncoderSpec(kind="mlp", layer_dims=(5, 3), activation="linear"),
            enc.EncoderSpec(kind="gcn", num_layers=2, hidden_dim=3),
            enc.EncoderSpec(kind="gcn", num_layers=2, hidden_dim=3, layer_dropout_p=0.5),
        ):
            w = enc.init_encoder_weights(spec, 4, seed=7)
            masks = enc.dropout_masks_for_epoch(spec, 6, seed=8)
            graph = g if spec.kind == "gcn" else None
            plain = untaped(spec, x, w, graph, masks)
            tape = ad.Tape()
            params = {k: tape.parameter(v, k) for k, v in w.items()}
            propagation = g.propagation() if spec.kind == "gcn" else None
            taped = enc.encode_on_tape(spec, tape.constant(x), params, propagation, masks)
            assert plain.tobytes() == taped.value.tobytes()


class TestFeatureFiles:
    def test_binary_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        # float32-representable values survive the widen/narrow cycle exactly
        feats = rng.normal(size=(7, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "features.bin"
        data.write_feature_file(path, feats)
        loaded = data.read_feature_file(path)
        assert np.array_equal(loaded.view(np.uint64), feats.view(np.uint64))

    def test_truncated_file_names_byte_counts(self, tmp_path):
        path = tmp_path / "features.bin"
        data.write_feature_file(path, np.ones((4, 2)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(BundleFormatError) as err:
            data.read_feature_file(path)
        assert str(len(blob)) in str(err.value)
        assert str(len(blob) - 5) in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(BundleFormatError):
            data.read_feature_file(path)


def test_gradients_flow_through_both_encoders():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    g = enc.SimilarityGraph(5, [(0, 1), (2, 3), (3, 4)])
    for spec in (
        enc.EncoderSpec(kind="mlp", layer_dims=(4, 2)),
        enc.EncoderSpec(kind="gcn", num_layers=2, hidden_dim=3),
    ):
        w = enc.init_encoder_weights(spec, 3, seed=9)
        propagation = g.propagation()

        def loss(tape, params):
            h = enc.encode_on_tape(spec, tape.constant(x), params, propagation)
            return ad.mean_all(ad.multiply(h, h))

        assert worst_error(loss, w) < 1e-4
