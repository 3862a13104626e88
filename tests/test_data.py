import hashlib
import json

import numpy as np
import pytest

from pan import data
from pan.encoders import SimilarityGraph, within_pairs
from pan.errors import BundleFormatError, ContractError, GenerationError


def small_compat_spec(**kw):
    base = dict(
        n_items=120, d=12, m_attributes=4, manifestation_count=2,
        noise_sd=0.05, attr_density=0.6,
    )
    base.update(kw)
    return data.SyntheticSpec(**base)


def rewrite_bundle_file(directory, name, blob: bytes):
    """Write ``blob`` to a bundle file and list its new hash in the manifest."""
    path = directory / name
    path.write_bytes(blob)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest))


class TestPresenceBayesOracle:
    def test_hand_built_buckets(self):
        # items 0,1 share presence row (1,); items 2,3 share row (0,)
        values = np.array([[1], [1], [0], [0]], dtype=float)
        # pairs: (0,1) pos; (0,2) neg; (0,3) neg; (1,2) neg; (1,3) pos; (2,3) neg
        graph = SimilarityGraph(4, [(0, 1), (1, 3)])
        got = data.presence_bayes_accuracy(values, graph, [0, 1, 2, 3])
        # bucket ((1,),(1,)): 1 pos, 0 neg -> take pos
        # bucket ((0,),(1,)): 1 pos, 3 neg -> neg share 3/4 beats pos share 1/2
        # bucket ((0,),(0,)): 0 pos, 1 neg -> take neg
        # bayes = 0.5 * (1/2 + 3/4 + 1/4) = 0.75
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_single_class_split_rejected(self):
        values = np.zeros((3, 1))
        with pytest.raises(GenerationError):
            data.presence_bayes_accuracy(values, SimilarityGraph(3), [0, 1, 2])
        with pytest.raises(GenerationError):
            data.presence_bayes_accuracy(values, SimilarityGraph(3), [1])

    @staticmethod
    def list_oracle(values, graph, indices):
        """The pair-by-pair loop the array version replaced."""
        indices = [int(i) for i in indices]
        linked = set(graph.edges)
        buckets: dict = {}
        n_pos = n_neg = 0
        for a_pos, a in enumerate(indices):
            row_a = tuple(values[a].astype(int).tolist())
            for b in indices[a_pos + 1 :]:
                row_b = tuple(values[b].astype(int).tolist())
                key = (row_a, row_b) if row_a <= row_b else (row_b, row_a)
                pos = (min(a, b), max(a, b)) in linked
                buckets.setdefault(key, [0, 0])[0 if pos else 1] += 1
                n_pos, n_neg = n_pos + pos, n_neg + (not pos)
        acc = 0.0
        for pos, neg in buckets.values():
            acc += max(pos / n_pos, neg / n_neg)
        return 0.5 * acc

    @pytest.mark.parametrize("n, m, density, edge_p", [
        (50, 2, 0.5, 0.3),     # few distinct rows: many duplicates per bucket
        (60, 5, 0.7, 0.1),
        (40, 70, 0.5, 0.4),    # more attributes than bits in an int64
        (420, 3, 0.5, 0.2),    # a split of 86,736 pairs
    ])
    def test_matches_pair_loop_bitwise(self, n, m, density, edge_p):
        rng = np.random.default_rng(n + m)
        values = (rng.random((n, m)) < density).astype(float)
        a, b = np.triu_indices(n, 1)
        linked = rng.random(len(a)) < edge_p
        graph = SimilarityGraph(n, np.stack([a[linked], b[linked]], axis=1))
        indices = rng.permutation(n)[: n - 3]  # unsorted, not every item
        got = data.presence_bayes_accuracy(values, graph, indices)
        assert got.hex() == self.list_oracle(values, graph, indices).hex()

    @pytest.mark.parametrize("rows, edges", [
        # (0, 1) is configuration (1,)'s pair with itself and the scan's first pair
        ([[1], [1], [0], [1], [0]], [(0, 1), (1, 3), (2, 4)]),
        # (1, 1) and (0, 0) each have one member, so no pair with themselves
        ([[1, 1], [0, 1], [1, 0], [0, 1], [0, 0], [1, 0]], [(0, 1), (1, 3), (2, 5), (0, 4)]),
        # every configuration's first pair is with itself
        ([[0], [0], [1], [1], [1]], [(0, 1), (2, 3), (0, 2)]),
    ], ids=["self-first", "one-member", "all-self-first"])
    def test_first_pair_order_matches_pair_loop(self, rows, edges):
        values = np.array(rows, dtype=float)
        graph = SimilarityGraph(len(rows), edges)
        got = data.presence_bayes_accuracy(values, graph, np.arange(len(rows)))
        assert got.hex() == self.list_oracle(values, graph, np.arange(len(rows))).hex()

    @pytest.mark.parametrize("block", [7, 100, 1000])
    def test_blocks_and_chunks_match_pair_loop(self, monkeypatch, block):
        # blocks of configuration pairs and chunks of edges that split unevenly;
        # 32 configurations of about 6 members, so most first pairs of a configuration
        # with itself come after its first pairs with others, and a wrong order
        # moves the bits
        monkeypatch.setattr(data, "_BLOCK", block)
        rng = np.random.default_rng(block)
        values = (rng.random((220, 5)) < 0.5).astype(float)
        a, b = np.triu_indices(220, 1)
        linked = rng.random(len(a)) < 0.3
        graph = SimilarityGraph(220, np.stack([a[linked], b[linked]], axis=1))
        indices = rng.permutation(220)[:201]
        got = data.presence_bayes_accuracy(values, graph, indices)
        assert got.hex() == self.list_oracle(values, graph, indices).hex()

    def test_repeated_index_rejected(self):
        values = np.array([[1], [0], [1]], dtype=float)
        with pytest.raises(ContractError, match="index 2 appears twice"):
            data.presence_bayes_accuracy(values, SimilarityGraph(3, [(0, 2)]), [0, 2, 1, 2])


def row_edges(partners):
    """(E, 2) edges (i, j) from the partners j of each row i, in row order."""
    rows = np.repeat(np.arange(len(partners)), [len(p) for p in partners])
    return np.stack([rows, np.concatenate([np.zeros(0, np.int64), *partners])], axis=1)


def compat_row_links(present, manifest):
    """The compatibility rule, one item against all later items at a time."""
    partners = []
    for i in range(len(present) - 1):
        shared = present[i] & present[i + 1 :]
        agree = (manifest[i] == manifest[i + 1 :]) | ~shared
        partners.append(i + 1 + np.flatnonzero(shared.any(axis=1) & agree.all(axis=1)))
    return row_edges(partners)


def hamming_row_links(values, threshold):
    """The Hamming rule, one item against all later items at a time."""
    return row_edges([
        i + 1 + np.flatnonzero(np.abs(values[i] - values[i + 1 :]).sum(axis=1) <= threshold)
        for i in range(len(values) - 1)
    ])


class Captured(Exception):
    pass


def generated_links(monkeypatch, spec, seed):
    """The types and edges of a generator's ``_type_links`` call; the generator
    stops there, so a rule that links every pair needs no unlinked one."""
    type_links = data._type_links

    def spy(types, linked):
        raise Captured(types, type_links(types, linked))

    monkeypatch.setattr(data, "_type_links", spy)
    with pytest.raises(Captured) as caught:
        data.generate(spec, seed)
    return caught.value.args


class TestTypeLinks:
    @pytest.mark.parametrize("n, m, v, density, block", [
        (300, 40, 2, 0.12, 1 << 18),  # 3^40 types: a base-3 integer key overflows int64
        (400, 2, 2, 0.5, 1 << 18),    # at most 9 types, so many items share one
        (101, 4, 3, 0.6, 1000),       # blocks of 9 rows: 101 is no multiple of 9
        (60, 5, 2, 0.7, 1),           # one row per block
    ])
    def test_compat_rule_matches_row_loop(self, monkeypatch, n, m, v, density, block):
        monkeypatch.setattr(data, "_BLOCK", block)
        spec = small_compat_spec(n_items=n, d=m * v, m_attributes=m, manifestation_count=v,
                                 attr_density=density)
        types, got = generated_links(monkeypatch, spec, seed=n)
        present = types[:, :m].astype(bool)
        manifest = types[:, m:].reshape(n, m, v).argmax(axis=2)  # read where present
        want = compat_row_links(present, manifest)
        assert 0 < len(want) < n * (n - 1) // 2
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("threshold", [0, 1, 2, 7])
    @pytest.mark.parametrize("block", [1 << 18, 500])
    def test_hamming_rule_matches_row_loop(self, monkeypatch, threshold, block):
        monkeypatch.setattr(data, "_BLOCK", block)
        spec = data.SyntheticSpec(n_items=150, d=8, m_attributes=7, attr_density=0.5,
                                  task_kind="linear_separable", hamming_threshold=threshold)
        values, got = generated_links(monkeypatch, spec, seed=threshold)
        want = hamming_row_links(values, threshold)
        assert (len(want) == 150 * 149 // 2) == (threshold == 7)  # m = 7 links every pair
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_two_items(self, n):
        got = data._type_links(np.ones((n, 3)), lambda a, b: np.ones((len(a), len(b)), bool))
        assert got.shape == (n - 1, 2) and got.dtype == np.int64


class TestCompatibilityManifestation:
    def test_deterministic_under_seed(self):
        a, _ = data.generate(small_compat_spec(), seed=11)
        b, _ = data.generate(small_compat_spec(), seed=11)
        assert np.array_equal(a.features.view(np.uint64), b.features.view(np.uint64))
        assert a.graph == b.graph
        for k in a.splits:
            np.testing.assert_array_equal(a.splits[k], b.splits[k])

    def test_single_manifestation_makes_presence_sufficient(self):
        spec = small_compat_spec(manifestation_count=1, noise_sd=0.0)
        _, report = data.generate(spec, seed=4)
        for rate in report["presence_bayes_accuracy"].values():
            assert rate == pytest.approx(1.0, abs=1e-12)

    def test_two_manifestations_lose_information(self):
        _, report = data.generate(small_compat_spec(), seed=5)
        assert report["presence_bayes_accuracy"]["test"] < 1.0

    def test_infeasible_direction_budget_rejected(self):
        with pytest.raises(ContractError):
            data.generate(small_compat_spec(m_attributes=8, manifestation_count=2, d=12), seed=0)

    def test_link_rule_holds_on_generated_graph(self):
        bundle, _ = data.generate(small_compat_spec(noise_sd=0.0), seed=6)
        values = bundle.attributes.values.astype(bool)
        split_of = {}
        for name, idx in bundle.splits.items():
            for i in idx.tolist():
                split_of[i] = name
        feats = bundle.features
        spec = small_compat_spec(noise_sd=0.0)
        for i, j in list(bundle.graph.edges)[:200]:
            shared = values[i] & values[j]
            assert shared.any()
            # same split by construction
            assert split_of[i] == split_of[j]
            # matching manifestations on shared attributes: identical feature
            # contribution there, so the noise-free difference is orthogonal
            # to the shared attribute subspace; cheap proxy: no edge crosses
            # a presence-identical-but-feature-distant pair
            if np.array_equal(values[i], values[j]) and shared.all():
                assert np.allclose(feats[i], feats[j], atol=1e-6)

    def test_sets_are_mutually_linked_and_within_split(self):
        bundle, _ = data.generate(small_compat_spec(), seed=7)
        linked = set(bundle.graph.edges)
        split_of = {}
        for name, idx in bundle.splits.items():
            for i in idx.tolist():
                split_of[i] = name
        for split, sets in bundle.sets.items():
            for members in sets:
                assert 2 <= len(members) <= 5
                for k, a in enumerate(members):
                    assert split_of[a] == split
                    for b in members[k + 1 :]:
                        assert (min(a, b), max(a, b)) in linked

    def test_set_sampler_matches_pair_loop(self):
        def list_sets(graph, indices, rng, count):
            pool = set(int(i) for i in indices)
            linked = set(graph.edges)
            local_edges = [e for e in graph.edges if e[0] in pool and e[1] in pool]
            sets, attempts = [], 0
            while local_edges and len(sets) < count and attempts < 20 * count:
                attempts += 1
                members = list(local_edges[rng.integers(0, len(local_edges))])
                target = int(rng.integers(2, 6))
                while len(members) < target:
                    candidates = [c for c in pool if c not in members
                                  and all((min(c, m), max(c, m)) in linked for m in members)]
                    if not candidates:
                        break
                    members.append(int(candidates[rng.integers(0, len(candidates))]))
                sets.append(sorted(members))
            return sets

        rng = np.random.default_rng(8)
        # a set of few large indices iterates out of numeric order
        for n, edge_p, size in ((30, 0.0, 20), (40, 0.5, 26), (90, 0.2, 60), (70, 0.9, 46),
                                (400, 0.8, 40)):
            a, b = np.triu_indices(n, 1)
            linked = rng.random(len(a)) < edge_p
            graph = SimilarityGraph(n, np.stack([a[linked], b[linked]], axis=1))
            indices = rng.permutation(n)[:size]
            got = data._sample_positive_sets(graph, indices, np.random.default_rng(n), 25)
            want = list_sets(graph, indices, np.random.default_rng(n), 25)
            assert got == want


class TestFewShotClusters:
    def make_bundle(self, noise=0.05, sep=10.0):
        spec = data.SyntheticSpec(
            n_items=240, d=24, m_attributes=5, noise_sd=noise,
            task_kind="fewshot_clusters", n_classes=12, cluster_separation=sep,
        )
        return data.generate(spec, seed=8)

    def test_zero_noise_collapses_classes(self):
        bundle, _ = self.make_bundle(noise=0.0)
        labels = bundle.categories
        for k in np.unique(labels):
            rows = bundle.features[labels == k]
            assert np.allclose(rows, rows[0], atol=1e-7)

    def test_exclusive_attribute_pairs_never_co_occur(self):
        bundle, _ = self.make_bundle()
        values = bundle.attributes.values
        for t in range(values.shape[1] // 2):
            assert np.all(values[:, 2 * t] + values[:, 2 * t + 1] == 1.0)

    def test_nearest_centroid_oracle_with_wide_separation(self):
        spec = data.SyntheticSpec(
            n_items=400, d=24, m_attributes=5, noise_sd=0.05,
            task_kind="fewshot_clusters", n_classes=20, cluster_separation=10.0,
        )
        bundle, _ = data.generate(spec, seed=8)
        correct = total = 0
        # 5-way episodes from novel classes, nearest centroid of 5 supports
        episodes = data.build_episodes(bundle, 5, 5, 4, 40, seed=3, split="novel")
        for ep in episodes:
            centroids = np.stack(
                [bundle.features[list(cls)].mean(axis=0) for cls in ep.support]
            )
            for q, true_class in ep.query:
                d = ((centroids - bundle.features[q]) ** 2).sum(axis=1)
                correct += int(np.argmin(d)) == true_class
                total += 1
        assert correct / total >= 0.99

    def test_links_are_same_class_cliques(self):
        bundle, _ = self.make_bundle()
        labels = bundle.categories
        for i, j in list(bundle.graph.edges)[:300]:
            assert labels[i] == labels[j]


class TestLinearSeparable:
    def test_presence_oracle_is_perfect(self):
        spec = data.SyntheticSpec(
            n_items=100, d=8, m_attributes=4, noise_sd=0.02,
            task_kind="linear_separable", hamming_threshold=1,
        )
        _, report = data.generate(spec, seed=9)
        for rate in report["presence_bayes_accuracy"].values():
            assert rate == pytest.approx(1.0, abs=1e-12)


class TestBuildFitbQuestions:
    def setup_method(self):
        self.categories = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 1])
        self.pool = list(range(10))

    def test_answer_not_among_distractors_and_categories_match(self):
        sets = [[0, 4], [1, 5], [2, 6]]
        questions = data.build_fitb_questions(sets, 3, self.categories, seed=1, pool=self.pool)
        for q, outfit in zip(questions, sets):
            answer = q.candidates[q.answer_index]
            assert answer in outfit
            others = [c for k, c in enumerate(q.candidates) if k != q.answer_index]
            assert answer not in others
            for c in q.candidates:
                assert self.categories[c] == self.categories[answer]
            assert set(q.question_items) == set(outfit) - {answer}

    def test_single_choice_question(self):
        questions = data.build_fitb_questions([[0, 4]], 1, self.categories, seed=2, pool=self.pool)
        assert len(questions[0].candidates) == 1

    def test_insufficient_distractors_names_category(self):
        categories = np.array([0, 0, 2, 2, 2, 2, 2, 2, 2, 2])
        with pytest.raises(GenerationError) as err:
            data.build_fitb_questions([[0, 1]], 4, categories, seed=3, pool=list(range(10)))
        assert "category-0" in str(err.value)

    def test_deterministic(self):
        sets = [[0, 4, 8], [1, 5, 9]]
        a = data.build_fitb_questions(sets, 4, self.categories, seed=5, pool=self.pool)
        b = data.build_fitb_questions(sets, 4, self.categories, seed=5, pool=self.pool)
        assert a == b

    def test_ten_choice_questions(self):
        categories = np.zeros(30, dtype=int)
        questions = data.build_fitb_questions(
            [[0, 1, 2]], 10, categories, seed=6, pool=list(range(30))
        )
        assert len(questions[0].candidates) == 10


class TestResampleNegativeSets:
    def test_replacement_counts_and_categories(self):
        rng = np.random.default_rng(10)
        categories = rng.integers(0, 3, size=40)
        sets = [[0, 1, 2, 3], [4, 5], [6, 7, 8]]
        out = data.resample_negative_sets(sets, categories, seed=4, pool=list(range(40)))
        for orig, neg in zip(sets, out):
            changed = sum(1 for a, b in zip(orig, neg) if a != b)
            assert 1 <= changed <= len(orig)
            for a, b in zip(orig, neg):
                assert categories[a] == categories[b]

    def test_deterministic(self):
        categories = np.zeros(20, dtype=int)
        sets = [[0, 1, 2]]
        a = data.resample_negative_sets(sets, categories, seed=5, pool=list(range(20)))
        b = data.resample_negative_sets(sets, categories, seed=5, pool=list(range(20)))
        assert a == b


class TestBuildEpisodes:
    def make_bundle(self):
        spec = data.SyntheticSpec(
            n_items=300, d=16, m_attributes=4, task_kind="fewshot_clusters",
            n_classes=10, noise_sd=0.05,
        )
        bundle, _ = data.generate(spec, seed=12)
        return bundle

    def test_shapes_and_disjointness(self):
        bundle = self.make_bundle()
        episodes = data.build_episodes(bundle, 3, 5, 16, 10, seed=1, split="novel")
        assert len(episodes) == 10
        for ep in episodes:
            assert ep.n_way == 3
            assert all(len(cls) == 5 for cls in ep.support)
            assert len(ep.query) == 3 * 16
            support_items = {i for cls in ep.support for i in cls}
            assert not support_items & {q for q, _ in ep.query}

    def test_deterministic(self):
        bundle = self.make_bundle()
        a = data.build_episodes(bundle, 3, 5, 4, 6, seed=2, split="novel")
        b = data.build_episodes(bundle, 3, 5, 4, 6, seed=2, split="novel")
        assert a == b

    def test_insufficient_items_rejected(self):
        bundle = self.make_bundle()
        with pytest.raises(GenerationError):
            data.build_episodes(bundle, 3, 25, 16, 5, seed=3, split="novel")

    def test_paper_protocol_shape(self):
        spec = data.SyntheticSpec(
            n_items=600, d=24, m_attributes=4, task_kind="fewshot_clusters",
            n_classes=24, noise_sd=0.05,
        )
        bundle, _ = data.generate(spec, seed=13)
        episodes = data.build_episodes(bundle, 5, 5, 16, 600, seed=4, split="novel")
        assert len(episodes) == 600
        assert all(len(ep.query) == 80 for ep in episodes)


class TestBundleIO:
    def test_round_trip(self, tmp_path):
        bundle, _ = data.generate(small_compat_spec(), seed=14)
        data.save_bundle(tmp_path, bundle)
        loaded = data.load_bundle(tmp_path)
        assert np.array_equal(
            loaded.features.view(np.uint64), bundle.features.view(np.uint64)
        )
        assert loaded.graph == bundle.graph
        for k in bundle.splits:
            np.testing.assert_array_equal(loaded.splits[k], bundle.splits[k])
        np.testing.assert_array_equal(loaded.attributes.values, bundle.attributes.values)
        np.testing.assert_array_equal(loaded.categories, bundle.categories)
        assert loaded.sets == bundle.sets
        assert loaded.task == bundle.task

    def test_hash_mismatch_detected(self, tmp_path):
        bundle, _ = data.generate(small_compat_spec(), seed=15)
        data.save_bundle(tmp_path, bundle)
        (tmp_path / "edges.csv").write_text("i,j\n0,1\n")
        with pytest.raises(BundleFormatError) as err:
            data.load_bundle(tmp_path)
        assert "hash" in str(err.value)

    @pytest.mark.parametrize("name,row,line", [
        ("edges.csv", b"0,x", 5),
        ("edges.csv", b"0,1,2", 5),
        ("edges.csv", b"0,99999999999999999999", 5),
        ("edges.csv", b"0,-1", 5),
        ("edges.csv", b"\n0,-1", 6),  # the parser skips the empty line 5
        ("attributes.csv", b"4,0,2,1,?", 5),
        ("attributes.csv", b"4,0,\xff,1,?", 5),
        ("categories.csv", b"4,1.5", 5),
        ("categories.csv", b"4,1", 5),
        ("attributes.csv", b"4,0,1,1,?", 5),
        ("attributes.csv", b"3.0,0,1,1,?", 5),
    ], ids=["edge-not-integer", "edge-three-cells", "edge-beyond-int64", "edge-negative",
            "edge-negative-after-empty-line", "attribute-cell-2", "attribute-not-utf8",
            "category-not-integer", "category-wrong-item-id", "attribute-wrong-item-id",
            "attribute-item-id-not-integer"])
    def test_bad_table_row_names_file_and_line(self, tmp_path, name, row, line):
        bundle, _ = data.generate(small_compat_spec(), seed=16)
        data.save_bundle(tmp_path, bundle)
        lines = (tmp_path / name).read_bytes().splitlines()
        lines[4] = row
        rewrite_bundle_file(tmp_path, name, b"\n".join(lines) + b"\n")
        with pytest.raises(BundleFormatError) as err:
            data.load_bundle(tmp_path)
        assert f"{tmp_path / name}:{line}: " in str(err.value)

    def test_categories_need_their_header_and_item_order(self, tmp_path):
        bundle, _ = data.generate(small_compat_spec(), seed=16)
        data.save_bundle(tmp_path, bundle)
        path = tmp_path / "categories.csv"
        lines = path.read_bytes().splitlines()
        rewrite_bundle_file(tmp_path, "categories.csv", b"\n".join([b"foo,bar", *lines[1:]]))
        with pytest.raises(BundleFormatError, match="bad header"):
            data.load_bundle(tmp_path)
        lines[1], lines[2] = lines[2], lines[1]  # rows 0 and 1 swapped
        rewrite_bundle_file(tmp_path, "categories.csv", b"\n".join(lines))
        with pytest.raises(BundleFormatError) as err:
            data.load_bundle(tmp_path)
        assert f"{path}:2: " in str(err.value)

    def test_listed_confidence_file_is_hash_checked_not_parsed(self, tmp_path):
        bundle, _ = data.generate(small_compat_spec(), seed=17)
        data.save_bundle(tmp_path, bundle)
        assert "confidence.csv" not in (tmp_path / "manifest.json").read_text()
        rewrite_bundle_file(tmp_path, "confidence.csv", b"not,a\ntable\n")
        np.testing.assert_array_equal(data.load_bundle(tmp_path).attributes.values,
                                      bundle.attributes.values)
        (tmp_path / "confidence.csv").write_text("changed\n")
        with pytest.raises(BundleFormatError, match="hash"):
            data.load_bundle(tmp_path)

    def test_manifest_m_is_null_exactly_without_attributes(self, tmp_path):
        bundle, _ = data.generate(small_compat_spec(), seed=18)
        bundle.attributes = None
        data.save_bundle(tmp_path, bundle)
        assert data.load_bundle(tmp_path).attributes is None
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["m"] is None
        path.write_text(json.dumps({**manifest, "m": 4}))
        with pytest.raises(BundleFormatError, match="m is 4, but attributes.csv is absent"):
            data.load_bundle(tmp_path)

    def test_cross_split_edge_rejected(self):
        feats = np.zeros((4, 2))
        graph = SimilarityGraph(4, [(0, 3)])
        with pytest.raises(ContractError) as err:
            data.DatasetBundle(
                feats, graph, {"train": np.array([0, 1]), "test": np.array([2, 3])}
            )
        assert "(0, 3)" in str(err.value)

    def test_overlapping_splits_rejected(self):
        feats = np.zeros((3, 2))
        with pytest.raises(ContractError, match="index 1 appears in splits 'train' and 'val'"):
            data.DatasetBundle(
                feats, SimilarityGraph(3), {"train": np.array([0, 1]), "val": np.array([1, 2])}
            )
        with pytest.raises(ContractError, match="index 2 appears in splits 'val' and 'val'"):
            data.DatasetBundle(feats, SimilarityGraph(3), {"train": [0], "val": [2, 1, 2]})

    def test_edge_to_an_item_in_no_split_rejected(self):
        with pytest.raises(ContractError, match=r"edge \(1, 3\) crosses splits 'train' and None"):
            data.DatasetBundle(np.zeros((4, 2)), SimilarityGraph(4, [(0, 1), (1, 3)]),
                               {"train": [0, 1], "test": [2]})

    def test_split_index_out_of_range_rejected(self):
        for bad in (4, -1):
            with pytest.raises(ContractError, match=f"split 'test' index {bad} out of range"):
                data.DatasetBundle(np.zeros((4, 2)), SimilarityGraph(4),
                                   {"train": [0, 1], "test": [2, bad, 1]})


class TestSubset:
    def test_a_split_renumbered_in_split_order(self):
        bundle, _ = data.generate(small_compat_spec(), seed=19)
        for split, idx in bundle.splits.items():
            sub = bundle.subset(split)
            assert sub.n == len(idx) and list(sub.splits) == [split]
            np.testing.assert_array_equal(sub.splits[split], np.arange(len(idx)))
            assert sub.features.tobytes() == bundle.features[idx].tobytes()
            np.testing.assert_array_equal(sub.attributes.values, bundle.attributes.values[idx])
            np.testing.assert_array_equal(sub.attributes.mask, bundle.attributes.mask[idx])
            np.testing.assert_array_equal(sub.categories, bundle.categories[idx])
            assert sub.graph == bundle.graph.subgraph(idx)
            # every link of the split, and only those, in the new numbering
            assert sub.graph.num_edges == sum(
                int(bundle.graph.has_edges(i, j)) for i, j in within_pairs(idx))
            assert sub.sets is None and sub.task == bundle.task

    def test_optional_fields_stay_absent(self):
        bundle = data.DatasetBundle(np.arange(8.0).reshape(4, 2), SimilarityGraph(4, [(1, 3)]),
                                    {"train": [3, 1], "test": [0, 2]})
        sub = bundle.subset("train")
        assert sub.attributes is None and sub.categories is None and sub.task is None
        # split order, not id order: item 3 is row 0
        np.testing.assert_array_equal(sub.features, [[6.0, 7.0], [2.0, 3.0]])
        assert sub.graph.pairs.tolist() == [[0, 1]]
