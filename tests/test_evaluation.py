import itertools
import math

import numpy as np
import pytest

from pan import evaluation as ev
from pan.attributes import AttributeTable
from pan.errors import ContractError, NumericError


class ScoreTableModel:
    """Stub scorer with forced symmetric pair scores."""

    def __init__(self, scores: dict, default=0.0):
        self.scores = {(min(i, j), max(i, j)): s for (i, j), s in scores.items()}
        self.default = default

    def pair_scores(self, pairs, features, graph_context=None):
        return np.array(
            [self.scores.get((min(i, j), max(i, j)), self.default) for i, j in pairs]
        )


class ConstantModel:
    def __init__(self, value=0.5):
        self.value = value

    def pair_scores(self, pairs, features, graph_context=None):
        return np.full(len(list(pairs)), self.value)


class ConditionStubModel:
    """Stub exposing fixed condition scores and relevance weights per pair."""

    def __init__(self, rho_row, omega_row):
        self.rho_row = np.asarray(rho_row, dtype=float)
        self.omega_row = np.asarray(omega_row, dtype=float)
        from pan.csm import CsmConfig

        self.csm_config = CsmConfig(m=len(self.rho_row))

    def pair_conditions(self, pairs, features, graph_context=None):
        n = len(list(pairs))
        return np.tile(self.rho_row, (n, 1)), np.tile(self.omega_row, (n, 1))


FEATS = np.zeros((40, 3))


def fitb_oracle(model, questions, features):
    correct = 0
    for q in questions:
        best_score, best_idx = -np.inf, 0
        for idx, cand in enumerate(q.candidates):
            score = sum(
                float(model.pair_scores([(qi, cand)], features)[0])
                for qi in q.question_items
            )
            if score > best_score:
                best_score, best_idx = score, idx
        correct += best_idx == q.answer_index
    return correct / len(questions)


class TestFitb:
    def test_single_candidate_always_chosen(self):
        q = ev.FitbQuestion((0, 1), (2,), 0)
        report = ev.fitb_accuracy(ConstantModel(), [q], FEATS)
        assert report.value == 1.0

    def test_two_question_toy_matches_oracle(self):
        scores = {(0, 3): 0.9, (1, 3): 0.8, (0, 4): 0.1, (1, 4): 0.3,
                  (5, 6): 0.2, (5, 7): 0.9}
        model = ScoreTableModel(scores, default=0.05)
        questions = [
            ev.FitbQuestion((0, 1), (3, 4), 0),
            ev.FitbQuestion((5,), (6, 7), 0),  # forced wrong: 7 outscores 6
        ]
        report = ev.fitb_accuracy(model, questions, FEATS)
        assert report.value == fitb_oracle(model, questions, FEATS) == 0.5

    def test_randomized_instances_match_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n_q = int(rng.integers(1, 5))
            n_c = int(rng.integers(1, 6))
            items = rng.choice(30, size=n_q + n_c, replace=False)
            q_items, cands = items[:n_q], items[n_q:]
            scores = {
                (int(a), int(b)): float(np.round(rng.random(), 2))
                for a in q_items
                for b in cands
            }
            model = ScoreTableModel(scores)
            q = ev.FitbQuestion(tuple(q_items), tuple(cands), int(rng.integers(0, n_c)))
            assert ev.fitb_accuracy(model, [q], FEATS).value == fitb_oracle(model, [q], FEATS)

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        items = rng.choice(30, size=6, replace=False)
        scores = {
            (int(a), int(b)): float(rng.random()) for a, b in itertools.combinations(items, 2)
        }
        q = ev.FitbQuestion(tuple(items[:3]), tuple(items[3:]), 1)
        base = ev.fitb_accuracy(ScoreTableModel(scores), [q], FEATS).value
        scaled = {k: 7.5 * v for k, v in scores.items()}
        assert ev.fitb_accuracy(ScoreTableModel(scaled), [q], FEATS).value == base

    def test_ties_prefer_lowest_candidate_index(self):
        q = ev.FitbQuestion((0,), (1, 2), 0)
        assert ev.fitb_accuracy(ConstantModel(), [q], FEATS).value == 1.0
        q2 = ev.FitbQuestion((0,), (1, 2), 1)
        assert ev.fitb_accuracy(ConstantModel(), [q2], FEATS).value == 0.0

    def test_empty_questions_rejected(self):
        with pytest.raises(ContractError):
            ev.fitb_accuracy(ConstantModel(), [], FEATS)


def auc_oracle(pos, neg):
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestCompatibilityAuc:
    def test_perfect_separation(self):
        model = ScoreTableModel({(0, 1): 1.0, (2, 3): 0.0})
        report = ev.compatibility_auc(model, [[0, 1]], [[2, 3]], FEATS)
        assert report.value == 1.0

    def test_all_ties_give_half(self):
        report = ev.compatibility_auc(ConstantModel(), [[0, 1], [2, 3]], [[4, 5], [6, 7]], FEATS)
        assert report.value == 0.5

    def test_hand_sets_match_brute_force(self):
        rng = np.random.default_rng(2)
        pos = rng.random(5)
        neg = rng.random(5)
        assert ev.mann_whitney_auc(pos, neg) == pytest.approx(auc_oracle(pos, neg), abs=1e-12)

    def test_randomized_with_ties_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pos = rng.integers(0, 4, size=rng.integers(1, 8)) / 4.0
            neg = rng.integers(0, 4, size=rng.integers(1, 8)) / 4.0
            assert ev.mann_whitney_auc(pos, neg) == pytest.approx(
                auc_oracle(pos, neg), abs=1e-12
            )

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        pos, neg = rng.random(6), rng.random(7)
        a = ev.mann_whitney_auc(pos, neg)
        b = ev.mann_whitney_auc(np.exp(3 * pos), np.exp(3 * neg))
        assert a == pytest.approx(b, abs=1e-12)

    def test_set_score_is_mean_over_pairs(self):
        model = ScoreTableModel({(0, 1): 0.2, (0, 2): 0.4, (1, 2): 0.9})
        assert ev.set_score(model, [0, 1, 2], FEATS) == pytest.approx(0.5, abs=1e-12)

    def test_singleton_set_rejected(self):
        with pytest.raises(ContractError):
            ev.set_score(ConstantModel(), [3], FEATS)


class TestFewShot:
    def make_episode(self):
        return ev.Episode(
            support=((0, 1), (2, 3), (4, 5)),
            query=((6, 0), (7, 1), (8, 2), (9, 0)),
        )

    def test_forced_scores_pick_the_right_class(self):
        ep = ev.Episode(support=((0,), (1,), (2,)), query=((3, 1),))
        model = ScoreTableModel({(3, 1): 1.0}, default=0.0)
        assert ev.episode_accuracy(model, ep, FEATS) == 1.0

    def test_constant_scores_tie_break_to_class_zero(self):
        ep = self.make_episode()
        acc = ev.episode_accuracy(ConstantModel(), ep, FEATS)
        base_rate = sum(1 for _, c in ep.query if c == 0) / len(ep.query)
        assert acc == base_rate == 0.5

    def test_chance_level_with_random_stub(self):
        rng = np.random.default_rng(5)

        class RandomModel:
            def pair_scores(self, pairs, features, graph_context=None):
                return rng.random(len(list(pairs)))

        episodes = []
        pool = np.arange(40)
        for _ in range(300):
            picks = rng.choice(pool, size=5 * 3 + 5, replace=False)
            support = tuple(tuple(picks[c * 3 : (c + 1) * 3]) for c in range(5))
            query = tuple((int(picks[15 + c]), c) for c in range(5))
            episodes.append(ev.Episode(support, query))
        report = ev.few_shot_accuracy(RandomModel(), episodes, FEATS)
        sigma = math.sqrt(0.2 * 0.8 / (300 * 5))
        assert abs(report.value - 0.2) < 3 * sigma
        assert report.interval is not None and report.count == 300

    @pytest.mark.parametrize("sizes", [(5, 5, 5, 5, 5), (9, 9, 9), (1, 3, 9)],
                             ids=["5x5", "3x9", "1-3-9"])
    def test_unequal_classes_match_a_mean_reference(self, sizes):
        # a 9-wide block adds with numpy's pairwise partial sums, a narrower
        # one left to right; equal widths are summed as one view's rows
        rng = np.random.default_rng(41)
        n_s = sum(sizes)
        n = n_s + 27
        table = rng.random((n, n)) * 10.0 ** rng.uniform(-6, 0, size=(n, n))
        table = np.minimum(table, table.T)
        ends = np.cumsum(sizes).tolist()
        support = tuple(tuple(range(e - k, e)) for k, e in zip(sizes, ends))
        queries = np.arange(n_s, n)
        truth = rng.integers(0, len(sizes), size=queries.size)
        ep = ev.Episode(support, tuple(zip(queries.tolist(), truth.tolist())))
        per_query = table[np.ix_(queries, np.arange(n_s))]
        reference = np.stack(
            [per_query[:, e - k : e].mean(axis=1) for k, e in zip(sizes, ends)], axis=1
        )
        got = ev._class_means(per_query, list(sizes))
        assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))
        want = np.count_nonzero(reference.argmax(axis=1) == truth) / queries.size
        assert ev.episode_accuracy(TablePairModel(table), ep, FEATS) == want

    def test_disjointness_enforced(self):
        with pytest.raises(ContractError):
            ev.Episode(support=((0, 1), (1, 2)), query=((3, 0),))
        with pytest.raises(ContractError):
            ev.Episode(support=((0,), (1,)), query=((0, 1),))


def recall_oracle(qf, gf, ql, gl, k):
    hits = 0
    for qi in range(len(qf)):
        dists = [(np.linalg.norm(qf[qi] - gf[gi]), gi) for gi in range(len(gf))]
        dists.sort(key=lambda t: (t[0], t[1]))
        top = [gi for _, gi in dists[:k]]
        hits += any(gl[gi] == ql[qi] for gi in top)
    return hits / len(qf)


class TestRecallAtK:
    def test_exact_duplicate_is_found(self):
        gallery = np.array([[5.0, 5.0], [1.0, 2.0], [9.0, 9.0]])
        query = np.array([[1.0, 2.0]])
        report = ev.recall_at_k(query, gallery, [7], [0, 7, 1], 1)
        assert report.value == 1.0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(6)
        qf = rng.normal(size=(10, 4))
        gf = rng.normal(size=(25, 4))
        ql = rng.integers(0, 5, size=10)
        gl = rng.integers(0, 5, size=25)
        for k in (1, 3, 7):
            got = ev.recall_at_k(qf, gf, ql, gl, k).value
            assert got == recall_oracle(qf, gf, ql, gl, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        qf = rng.normal(size=(12, 3))
        gf = rng.normal(size=(20, 3))
        ql = rng.integers(0, 4, size=12)
        gl = rng.integers(0, 4, size=20)
        values = [ev.recall_at_k(qf, gf, ql, gl, k).value for k in range(1, 21)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_k_beyond_gallery_rejected(self):
        with pytest.raises(ContractError):
            ev.recall_at_k(np.ones((1, 2)), np.ones((3, 2)), [0], [0, 1, 2], 4)

    def test_model_mode_uses_pair_scores(self):
        model = ScoreTableModel({(0, 1): 0.9, (0, 2): 0.1}, default=0.0)
        report = ev.recall_at_k(np.zeros((1, 2)), np.zeros((2, 2)), [3], [3, 9], 1, model=model)
        assert report.value == 1.0

    def test_rank_rule_matches_a_stable_sort_on_tied_scores(self):
        # scores take three values (two of them 0.0 and -0.0), so most ranks
        # are decided by the lower-index tie break; query 0's label is in no
        # gallery item
        rng = np.random.default_rng(23)
        n_q, n_g = 9, 14
        values = np.array([0.5, 0.0, -0.0])
        table = values[rng.integers(0, 3, size=(n_q + n_g, n_q + n_g))]
        ql = rng.integers(0, 3, size=n_q)
        ql[0] = 7
        gl = rng.integers(0, 3, size=n_g)
        for k in range(1, n_g + 1):
            model = TablePairModel(table)
            got = ev.recall_at_k(np.zeros((n_q, 2)), np.zeros((n_g, 2)), ql, gl, k, model=model)
            assert len(model.calls) == 1
            scores = table[:n_q, n_q:]
            top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            want = np.count_nonzero((gl[top] == ql[:, None]).any(axis=1)) / n_q
            assert _bits(got.value) == _bits(want)

    def test_signed_zero_and_duplicate_ties_keep_the_lower_index(self):
        # gallery item 0 scores +0.0 and item 1 scores -0.0: a stable sort
        # counts them equal and puts the lower index first
        table = np.zeros((3, 3))
        table[0, 2] = -0.0
        for labels, want in (([5, 9], 1.0), ([9, 5], 0.0)):
            got = ev.recall_at_k(np.zeros((1, 2)), np.zeros((2, 2)), [5], labels, 1,
                                 model=TablePairModel(table))
            assert got.value == want
        # exact duplicates 0 and 2 both score -sqrt(0) = -0.0 by distance
        gallery = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert ev.recall_at_k(np.zeros((1, 2)), gallery, [4], [1, 2, 4], 1).value == 0.0
        assert ev.recall_at_k(np.zeros((1, 2)), gallery, [4], [4, 2, 1], 1).value == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_raises(self, bad):
        table = np.zeros((3, 3))
        table[0, 2] = bad
        with pytest.raises(NumericError):
            ev.recall_at_k(np.zeros((1, 2)), np.zeros((2, 2)), [5], [5, 9], 1,
                           model=TablePairModel(table))


def ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(labels)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert ev.average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_matches_oracle_on_randomized_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            scores = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            assert ev.average_precision(scores, labels) == pytest.approx(
                ap_oracle(scores.tolist(), labels.tolist()), abs=1e-12
            )

    def test_one_iff_positives_outrank_negatives(self):
        assert ev.average_precision([0.6, 0.5, 0.4], [1, 0, 1]) < 1.0
        assert ev.average_precision([0.6, 0.5, 0.4], [1, 1, 0]) == 1.0


class TestAttributeMap:
    class RhoModel:
        def __init__(self, rho_fn, m):
            self.m = m
            self.rho_fn = rho_fn

        def pair_conditions(self, pairs, features, graph_context=None):
            rho = np.array([self.rho_fn(i, j) for i, j in pairs])
            return rho, np.full((len(rho), self.m), 1.0 / self.m)

    def test_perfect_scores_give_ap_one(self):
        values = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=float)
        table = AttributeTable(values, np.ones_like(values))
        pairs = list(itertools.combinations(range(4), 2))
        model = self.RhoModel(
            lambda i, j: np.maximum(values[i], values[j]), m=2
        )  # rho equals the OR label
        report = ev.attribute_map(model, pairs, table, "or", FEATS[:4])
        assert report.value == 1.0

    def test_all_positive_attribute_is_excluded_and_flagged(self):
        values = np.array([[1, 1], [1, 0], [1, 0]], dtype=float)
        table = AttributeTable(values, np.ones_like(values))
        pairs = [(0, 1), (0, 2), (1, 2)]
        model = self.RhoModel(lambda i, j: np.array([0.5, 0.5]), m=2)
        report = ev.attribute_map(model, pairs, table, "or", FEATS[:3])
        # attribute 0 is OR-positive on every pair: skipped
        assert report.detail["skipped_attributes"] == [0]
        assert math.isnan(report.detail["per_attribute_ap"][0])

    def test_random_scores_land_near_base_rate(self):
        rng = np.random.default_rng(9)
        n = 150
        values = rng.integers(0, 2, size=(n, 3)).astype(float)
        table = AttributeTable(values, np.ones_like(values))
        pairs = list(itertools.combinations(range(n), 2))[:10_000]

        class RandomRho:
            def pair_conditions(self, pairs, features, graph_context=None):
                return rng.random((len(pairs), 3)), np.full((len(pairs), 3), 1 / 3)

        report = ev.attribute_map(RandomRho(), pairs, table, "or", np.zeros((n, 2)))
        idx = np.array(pairs)
        labels = np.maximum(values[idx[:, 0]], values[idx[:, 1]])
        base = labels.mean(axis=1).mean()
        sigma = 3.0 / math.sqrt(len(pairs))  # loose bound per attribute, averaged
        assert abs(report.value - base) < 3 * sigma


class TestRankReport:
    def test_single_run_fixed_relevance(self):
        model = ConditionStubModel([0.5, 0.5], [0.9, 0.1])
        rows = ev.attribute_rank_report([model], [(0, 1), (1, 2)], FEATS)
        assert rows[0]["mean_rank_relevance"] == 1.0
        assert rows[1]["mean_rank_relevance"] == 2.0
        assert rows[0]["sd_rank_relevance"] == 0.0

    def test_two_identical_runs_have_zero_sd(self):
        model = ConditionStubModel([0.2, 0.8, 0.5], [0.3, 0.3, 0.4])
        rows = ev.attribute_rank_report([model, model], [(0, 1)], FEATS)
        for row in rows:
            assert row["sd_rank_relevance"] == 0.0
            assert row["sd_rank_contribution"] == 0.0

    def test_three_stub_runs_match_hand_statistics(self):
        runs = [
            ConditionStubModel([1.0, 1.0], [0.9, 0.1]),   # ranks (1, 2)
            ConditionStubModel([1.0, 1.0], [0.2, 0.8]),   # ranks (2, 1)
            ConditionStubModel([1.0, 1.0], [0.6, 0.4]),   # ranks (1, 2)
        ]
        rows = ev.attribute_rank_report(runs, [(0, 1)], FEATS)
        means = np.array([1, 2, 2, 1, 1, 2]).reshape(3, 2)
        np.testing.assert_allclose(
            [rows[0]["mean_rank_relevance"], rows[1]["mean_rank_relevance"]],
            means.mean(axis=0),
        )
        np.testing.assert_allclose(
            [rows[0]["sd_rank_relevance"], rows[1]["sd_rank_relevance"]],
            means.std(axis=0),
        )

    def test_condition_count_mismatch_rejected(self):
        a = ConditionStubModel([0.5, 0.5], [0.5, 0.5])
        b = ConditionStubModel([0.5, 0.5, 0.5], [0.3, 0.3, 0.4])
        with pytest.raises(ContractError):
            ev.attribute_rank_report([a, b], [(0, 1)], FEATS)

    def test_tie_rank_prefers_lower_index(self):
        model = ConditionStubModel([0.5, 0.5], [0.5, 0.5])
        rows = ev.attribute_rank_report([model], [(0, 1)], FEATS)
        assert rows[0]["mean_rank_relevance"] == 1.0
        assert rows[1]["mean_rank_relevance"] == 2.0


class TestBalancedPairAccuracy:
    def test_hand_check(self):
        from pan.encoders import SimilarityGraph

        graph = SimilarityGraph(4, [(0, 1), (2, 3)])
        model = ScoreTableModel({(0, 1): 0.9, (2, 3): 0.2}, default=0.4)
        report = ev.balanced_pair_accuracy(model, FEATS[:4], graph, [0, 1, 2, 3])
        # positives: 0.9 right, 0.2 wrong -> tpr 0.5; negatives all 0.4 -> tnr 1.0
        assert report.value == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# index-array metrics against list-based copies of the loops they replaced
# ---------------------------------------------------------------------------

class TablePairModel:
    """Scores read from a fixed n x n table; accepts tuple lists and arrays,
    and records the pairs of every call."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def pair_scores(self, pairs, features, graph_context=None):
        idx = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs),
                         dtype=np.int64).reshape(-1, 2)
        self.calls.append(idx)
        return self.table[idx[:, 0], idx[:, 1]]


def same_results_and_calls(model, new, old):
    """Run both; they must return the same bits and score the same pairs in
    the same calls, in the same order."""
    model.calls = []
    got = new()
    new_calls, model.calls = model.calls, []
    want = old()
    assert len(new_calls) == len(model.calls)
    for a, b in zip(new_calls, model.calls):
        assert np.array_equal(a, b)
    return got, want


def _tied_table(rng, n, decimals=1):
    table = np.round(rng.random((n, n)), decimals)
    return np.minimum(table, table.T)


def _bits(x) -> str:
    return float(x).hex()


def list_episode_accuracy(model, episode, features):
    pairs = [(q, s) for q, _ in episode.query for c in episode.support for s in c]
    scores = ev.score_pairs(model, pairs, features)
    shots = [len(c) for c in episode.support]
    per_query = scores.reshape(len(episode.query), sum(shots))
    correct = 0
    for row, (_, true_class) in zip(per_query, episode.query):
        offset, class_scores = 0, []
        for k in shots:
            class_scores.append(row[offset : offset + k].mean())
            offset += k
        if int(np.argmax(class_scores)) == true_class:
            correct += 1
    return correct / len(episode.query)


def list_recall_at_k(qf, gf, ql, gl, k, model=None):
    n_q, n_g = len(qf), len(gf)
    if model is not None:
        pairs = [(qi, n_q + gj) for qi in range(n_q) for gj in range(n_g)]
        scores = ev.score_pairs(model, pairs, np.concatenate([qf, gf])).reshape(n_q, n_g)
    else:
        scores = -np.sqrt(((qf[:, None, :] - gf[None, :, :]) ** 2).sum(axis=2))
    hits = 0
    for qi in range(n_q):
        top = np.argsort(-scores[qi], kind="stable")[:k]
        if np.any(gl[top] == ql[qi]):
            hits += 1
    return hits / n_q


def list_average_precision(scores, labels):
    ranked = np.asarray(labels, dtype=float)[np.argsort(-np.asarray(scores), kind="stable")]
    hits, total = 0, 0.0
    for rank, rel in enumerate(ranked, start=1):
        if rel == 1.0:
            hits += 1
            total += hits / rank
    return float(total / ranked.sum())


def list_mann_whitney_auc(pos, neg):
    pos, neg = np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)
    merged = np.concatenate([pos, neg])
    order = np.argsort(merged, kind="stable")
    ranks = np.empty(merged.size)
    sorted_vals = merged[order]
    start = 0
    while start < merged.size:
        stop = start
        while stop + 1 < merged.size and sorted_vals[stop + 1] == sorted_vals[start]:
            stop += 1
        ranks[order[start : stop + 1]] = 0.5 * (start + stop) + 1.0
        start = stop + 1
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def list_balanced_pair_accuracy(model, features, graph, indices, threshold=0.5):
    pos_pairs, neg_pairs = [], []
    idx = np.asarray(indices, dtype=np.int64).tolist()
    linked = set(graph.edges)
    for a_pos, a in enumerate(idx):
        for b in idx[a_pos + 1 :]:
            (pos_pairs if (min(a, b), max(a, b)) in linked else neg_pairs).append((a, b))
    tpr = float((ev.score_pairs(model, pos_pairs, features) >= threshold).mean())
    tnr = float((ev.score_pairs(model, neg_pairs, features) < threshold).mean())
    return 0.5 * (tpr + tnr), len(pos_pairs) + len(neg_pairs), tpr, tnr


def list_sampled_split_pairs(bundle, split, seed, cap):
    from pan.rng import generator

    idx = np.asarray(bundle.splits[split], dtype=np.int64)
    pairs = [(int(a), int(b)) for p, a in enumerate(idx) for b in idx[p + 1 :]]
    if len(pairs) > cap:
        rng = generator(seed, "eval-pairs", split)
        keep = rng.choice(len(pairs), size=cap, replace=False)
        pairs = [pairs[int(k)] for k in np.sort(keep)]
    return np.asarray(pairs, dtype=np.int64)


class TestIndexArraysMatchListLoops:
    def test_fewshot_with_unequal_shots_and_ties(self):
        rng = np.random.default_rng(10)
        for decimals in (1, 2, 15):
            model = TablePairModel(_tied_table(rng, 60, decimals))
            episodes = []
            for _ in range(80):
                way = int(rng.integers(1, 6))
                shots = rng.integers(1, 12, size=way)
                n_query = int(rng.integers(1, 9))
                picks = rng.permutation(60)[: int(shots.sum()) + n_query].tolist()
                support, offset = [], 0
                for k in shots.tolist():
                    support.append(tuple(picks[offset : offset + k]))
                    offset += k
                query = tuple((q, int(rng.integers(0, way))) for q in picks[offset:])
                episodes.append(ev.Episode(tuple(support), query))
            for ep in episodes:
                got, want = same_results_and_calls(
                    model, lambda: ev.episode_accuracy(model, ep, FEATS),
                    lambda: list_episode_accuracy(model, ep, FEATS),
                )
                assert _bits(got) == _bits(want)
            report = ev.few_shot_accuracy(model, episodes, FEATS)
            accs = np.array([list_episode_accuracy(model, ep, FEATS) for ep in episodes])
            assert _bits(report.value) == _bits(accs.mean())

    def test_fewshot_class_means_round_like_the_row_loop(self):
        # every class holds the same scores in another order, so the class
        # means differ only by rounding and the winner depends on how each
        # mean adds its shots
        rng = np.random.default_rng(17)
        for shots in (3, 5, 8, 9, 13):
            episodes, table = [], np.zeros((8 * shots, 8 * shots))
            for trial in range(40):
                table[:] = 0.0
                values = rng.random(shots)
                support = []
                for c in range(4):
                    items = tuple(range(4 + c * shots, 4 + (c + 1) * shots))
                    table[0, list(items)] = rng.permutation(values)
                    support.append(items)
                ep = ev.Episode(tuple(support), ((0, trial % 4),))
                model = TablePairModel(table.copy())
                episodes.append(
                    (ev.episode_accuracy(model, ep, FEATS), list_episode_accuracy(model, ep, FEATS))
                )
            assert [g for g, _ in episodes] == [w for _, w in episodes]

    def test_fewshot_all_tied_picks_class_zero(self):
        ep = ev.Episode(((0, 1, 2), (3,), (4, 5)), ((6, 1), (7, 0), (8, 2)))
        assert ev.episode_accuracy(ConstantModel(), ep, FEATS) == 1 / 3

    def test_recall_with_ties_and_k_above_one(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n_q, n_g = int(rng.integers(1, 12)), int(rng.integers(1, 15))
            qf = rng.integers(0, 3, size=(n_q, 2)).astype(float)  # distance ties
            gf = rng.integers(0, 3, size=(n_g, 2)).astype(float)
            ql, gl = rng.integers(0, 4, size=n_q), rng.integers(0, 4, size=n_g)
            model = TablePairModel(_tied_table(rng, n_q + n_g))
            for k in range(1, n_g + 1):
                got = ev.recall_at_k(qf, gf, ql, gl, k).value
                assert _bits(got) == _bits(list_recall_at_k(qf, gf, ql, gl, k))
                got, want = same_results_and_calls(
                    model, lambda: ev.recall_at_k(qf, gf, ql, gl, k, model=model).value,
                    lambda: list_recall_at_k(qf, gf, ql, gl, k, model=model),
                )
                assert _bits(got) == _bits(want)

    def test_average_precision_and_auc_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), 1)
            labels = (rng.random(n) < 0.4).astype(float)
            labels[int(rng.integers(0, n))] = 1.0
            assert _bits(ev.average_precision(scores, labels)) == _bits(
                list_average_precision(scores, labels)
            )
            pos, neg = scores[: n // 2 or 1], np.append(scores[n // 2 :], [0.0, -0.0])
            assert _bits(ev.mann_whitney_auc(pos, neg)) == _bits(
                list_mann_whitney_auc(pos, neg)
            )

    def test_balanced_pair_accuracy_with_unsorted_indices(self):
        from pan.encoders import SimilarityGraph

        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 40
            a, b = np.triu_indices(n, 1)
            linked = rng.random(len(a)) < 0.3
            graph = SimilarityGraph(n, np.stack([a[linked], b[linked]], axis=1))
            indices = rng.permutation(n)[: int(rng.integers(8, n))]
            model = TablePairModel(_tied_table(rng, n))
            report, (value, count, tpr, tnr) = same_results_and_calls(
                model, lambda: ev.balanced_pair_accuracy(model, FEATS, graph, indices),
                lambda: list_balanced_pair_accuracy(model, FEATS, graph, indices),
            )
            assert _bits(report.value) == _bits(value)
            assert report.count == count
            assert report.detail == {"true_positive_rate": tpr, "true_negative_rate": tnr}

    def test_sampled_split_pairs_above_and_below_cap(self):
        from types import SimpleNamespace

        rng = np.random.default_rng(14)
        bundle = SimpleNamespace(splits={"test": rng.permutation(90)[:70]})
        n_pairs = 70 * 69 // 2
        for cap in (10, n_pairs - 1, n_pairs, n_pairs + 5):
            got = ev._sampled_split_pairs(bundle, "test", 5, cap)
            want = list_sampled_split_pairs(bundle, "test", 5, cap)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_fitb_and_set_auc_match_tuple_lists(self):
        rng = np.random.default_rng(15)
        model = TablePairModel(np.round(rng.random((40, 40)), 1))  # not symmetric
        for _ in range(40):
            items = rng.permutation(40)[: int(rng.integers(3, 12))]
            n_q = int(rng.integers(1, len(items) - 1))
            q = ev.FitbQuestion(tuple(items[:n_q]), tuple(items[n_q:]), 0)
            model.calls = []
            got = ev.fitb_accuracy(model, [q], FEATS).value
            (call,) = model.calls
            assert call.tolist() == [[a, b] for b in q.candidates for a in q.question_items]
            assert got == fitb_oracle(model, [q], FEATS)
            pairs = list(itertools.combinations(items.tolist(), 2))
            got, want = same_results_and_calls(
                model, lambda: ev.set_score(model, items, FEATS),
                lambda: ev.score_pairs(model, pairs, FEATS).mean(),
            )
            assert _bits(got) == _bits(want)

    def test_ndarray_and_list_pairs_give_the_same_scores(self):
        from pan import training as tr
        from pan.attributes import AttributeTable
        from pan.csm import CsmConfig
        from pan.encoders import EncoderSpec

        rng = np.random.default_rng(16)
        feats = rng.normal(size=(30, 6))
        model = tr.init_model(EncoderSpec(kind="mlp", layer_dims=(8, 5)), CsmConfig(m=3), 6, 2)
        arr = rng.integers(0, 30, size=(200, 2))
        as_list = [tuple(row) for row in arr.tolist()]
        assert model.pair_scores(arr, feats).tobytes() == model.pair_scores(as_list, feats).tobytes()
        for got, want in zip(model.pair_conditions(arr, feats),
                             model.pair_conditions(as_list, feats)):
            assert got.tobytes() == want.tobytes()
        values = (rng.random((30, 3)) < 0.5).astype(float)
        table = AttributeTable(values, np.ones_like(values))
        from_arr = ev.attribute_map(model, arr, table, "or", feats)
        from_list = ev.attribute_map(model, as_list, table, "or", feats)
        assert from_arr.to_dict() == from_list.to_dict()
