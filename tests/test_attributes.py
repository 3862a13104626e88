import hashlib
import itertools
import json

import numpy as np
import pytest

from pan import attributes as attrs
from pan import data
from pan.encoders import SimilarityGraph
from pan.errors import BundleFormatError, DimensionError

TRUTH_TABLES = {
    "and": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "or": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "xor": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    "xnor": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1},
}


class TestCombinePair:
    def test_truth_tables_under_all_mask_combinations(self):
        for fa, table in TRUTH_TABLES.items():
            for (a, b), expected in table.items():
                for m_i, m_j in itertools.product((0, 1), repeat=2):
                    out = attrs.combine_pair([a], [m_i], [b], [m_j], fa)
                    assert out.labels[0] == expected
                    assert out.mask[0] == (m_i and m_j)

    def test_and_concat_xor_layout(self):
        out = attrs.combine_pair([1, 0], [1, 1], [0, 0], [1, 0], "and_xor")
        np.testing.assert_array_equal(out.labels, [0, 0, 1, 0])  # AND block then XOR block
        np.testing.assert_array_equal(out.mask, [1, 0, 1, 0])

    def test_zero_inputs(self):
        values = {"and": 0, "or": 0, "xor": 0, "xnor": 1}
        for fa, expected in values.items():
            assert attrs.combine_pair([0], [1], [0], [1], fa).labels[0] == expected

    def test_commutative_in_image_arguments(self):
        rng = np.random.default_rng(0)
        for fa in attrs.FA_CHOICES:
            a = rng.integers(0, 2, size=6)
            b = rng.integers(0, 2, size=6)
            ma = rng.integers(0, 2, size=6)
            mb = rng.integers(0, 2, size=6)
            x = attrs.combine_pair(a, ma, b, mb, fa)
            y = attrs.combine_pair(b, mb, a, ma, fa)
            np.testing.assert_array_equal(x.labels, y.labels)
            np.testing.assert_array_equal(x.mask, y.mask)

    def test_xor_complements_xnor_and_or_decomposes(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, size=50)
        b = rng.integers(0, 2, size=50)
        ones = np.ones(50)
        xor = attrs.combine_pair(a, ones, b, ones, "xor").labels
        xnor = attrs.combine_pair(a, ones, b, ones, "xnor").labels
        and_ = attrs.combine_pair(a, ones, b, ones, "and").labels
        or_ = attrs.combine_pair(a, ones, b, ones, "or").labels
        np.testing.assert_array_equal(xor, 1 - xnor)
        np.testing.assert_array_equal(or_, and_ + xor)

    def test_mask_depends_only_on_masks(self):
        out1 = attrs.combine_pair([1], [1], [1], [0], "or")
        out2 = attrs.combine_pair([0], [1], [0], [0], "or")
        assert out1.mask[0] == out2.mask[0] == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            attrs.combine_pair([1, 0], [1, 1], [1], [1], "and")


class TestRandomizeLabels:
    def make_table(self, seed=0):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2, size=(60, 170)).astype(float)
        mask = rng.integers(0, 2, size=(60, 170)).astype(float)
        return attrs.AttributeTable(values, mask)

    def test_deterministic(self):
        t = self.make_table()
        a = attrs.randomize_labels(t, seed=5)
        b = attrs.randomize_labels(t, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_mask_preserved(self):
        t = self.make_table()
        out = attrs.randomize_labels(t, seed=5)
        np.testing.assert_array_equal(out.mask, t.mask)

    def test_fraction_of_ones_near_half(self):
        t = self.make_table()
        out = attrs.randomize_labels(t, seed=6)
        labelled = out.values[t.mask == 1.0]
        assert labelled.size > 1e4 / 2
        frac = labelled.mean()
        sigma = 0.5 / np.sqrt(labelled.size)
        assert abs(frac - 0.5) < 3 * sigma


def attribute_bundle(directory, table=None, text=None):
    """The bundle loaded back from ``directory`` after saving a featureless
    bundle around ``table``, or around a table of ``text``'s shape whose
    attributes.csv is then replaced by ``text`` (with the manifest hash
    updated)."""
    if table is None:
        lines = text.splitlines()
        shape = (len(lines) - 1, lines[0].count(","))
        table = attrs.AttributeTable(np.zeros(shape), np.ones(shape))
    bundle = data.DatasetBundle(np.zeros((table.n, 1)), SimilarityGraph(table.n),
                                {"train": np.arange(table.n)}, table)
    data.save_bundle(directory, bundle)
    if text is not None:
        path = directory / "attributes.csv"
        path.write_text(text)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["files"]["attributes.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (directory / "manifest.json").write_text(json.dumps(manifest))
    return data.load_bundle(directory)


class TestCsv:
    def test_round_trip_with_unknowns(self, tmp_path):
        values = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        mask = np.array([[1, 0], [1, 1], [0, 1]], dtype=float)
        table = attrs.AttributeTable(values, mask)
        loaded = attribute_bundle(tmp_path, table).attributes
        text = (tmp_path / "attributes.csv").read_text()
        assert "?" in text
        np.testing.assert_array_equal(loaded.mask, mask)
        np.testing.assert_array_equal(loaded.values * loaded.mask, values * mask)

    def test_question_marks_zero_mask_exactly(self, tmp_path):
        text = "item_id,attr_0,attr_1\n0,1,?\n1,?,0\n"
        table = attribute_bundle(tmp_path, text=text).attributes
        np.testing.assert_array_equal(table.mask, [[1, 0], [0, 1]])

    def test_bad_cell_reports_location(self, tmp_path):
        with pytest.raises(BundleFormatError) as err:
            attribute_bundle(tmp_path, text="item_id,attr_0\n0,2\n")
        assert ":2:" in str(err.value)


class TestPairLabelMatrix:
    def test_matches_combine_pair_rows(self):
        rng = np.random.default_rng(2)
        table = attrs.AttributeTable(
            rng.integers(0, 2, size=(8, 5)).astype(float),
            rng.integers(0, 2, size=(8, 5)).astype(float),
        )
        idx_i = rng.integers(0, 8, size=12)
        idx_j = rng.integers(0, 8, size=12)
        for fa in attrs.FA_CHOICES:
            labels, mask = attrs.pair_label_matrix(table, idx_i, idx_j, fa)
            for row, (i, j) in enumerate(zip(idx_i, idx_j)):
                ref = attrs.combine_pair(
                    table.values[i], table.mask[i], table.values[j], table.mask[j], fa
                )
                np.testing.assert_array_equal(labels[row], ref.labels)
                np.testing.assert_array_equal(mask[row], ref.mask)
