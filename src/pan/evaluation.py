"""End-task metrics: pair scoring, fill-in-the-blank, set compatibility AUC,
episodic few-shot accuracy, retrieval recall@k, attribute mAP, and the
attribute rank report; and the task runner (``check_task``, ``run_task``)
that turns models, a bundle, a split and a seed into one of them.

All metrics are read-only over immutable models and features. Ties break
toward the lowest index everywhere. Pairs are built as (N, 2) int64 index
arrays, scored in one ``score_pairs`` call per episode, question, set or split.
Models are anything exposing ``pair_scores(pairs, features, graph_context=None)
-> array``; condition-level metrics additionally need ``pair_conditions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import data as data_mod
from .attributes import AttributeTable, pair_label_matrix
from .autodiff import row_sum_values
from .data import Episode, FitbQuestion
from .encoders import SimilarityGraph, pair_array, within_pairs
from .errors import ContractError, DimensionError, NumericError, check_range
from .rng import derive_seed, generator

INTERVAL_Z = 1.96


def half_width_95(values) -> float:
    """The half-width of the normal 95% interval of the mean of ``values``:
    INTERVAL_Z * std(ddof=1) / sqrt(n), for at least two values."""
    return float(INTERVAL_Z * np.std(values, ddof=1) / math.sqrt(len(values)))


@dataclass
class MetricReport:
    name: str
    value: float
    interval: tuple[float, float] | None = None
    count: int = 0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"metric": self.name, "value": self.value, "count": self.count}
        if self.interval is not None:
            out["interval_low"], out["interval_high"] = self.interval
        if self.detail:
            out["detail"] = self.detail
        return out


def score_pairs(model, pairs, features, graph_context: SimilarityGraph | None = None) -> np.ndarray:
    """Similarity scores for explicit pairs; thin dispatch to the model."""
    return np.asarray(model.pair_scores(pairs, features, graph_context), dtype=np.float64)


def product_pairs(a, b) -> np.ndarray:
    """Every pair (a[k], b[l]), k-major: (a[0], b[0]), (a[0], b[1]), ..."""
    out = np.empty((len(a), len(b), 2), dtype=np.int64)
    out[:, :, 0] = np.asarray(a)[:, None]
    out[:, :, 1] = b
    return out.reshape(-1, 2)


# ---------------------------------------------------------------------------
# fill in the blank
# ---------------------------------------------------------------------------

def fitb_accuracy(model, questions: list[FitbQuestion], features) -> MetricReport:
    """Candidate score is the sum of its pair scores with every question item;
    the argmax candidate (lowest index on ties) answers the question.

    With a graph encoder, edges among the question items provide the context.
    """
    if not questions:
        raise ContractError("need at least one question")
    n_items = np.asarray(features).shape[0]
    correct = 0
    for q in questions:
        context = SimilarityGraph(n_items, within_pairs(q.question_items))
        if q.question_items:
            # (question item, candidate), candidate-major
            pairs = product_pairs(q.candidates, q.question_items)[:, ::-1]
            scores = score_pairs(model, pairs, features, context)
            per_candidate = scores.reshape(len(q.candidates), len(q.question_items)).sum(axis=1)
        else:
            per_candidate = np.zeros(len(q.candidates))
        correct += int(np.argmax(per_candidate)) == q.answer_index
    return MetricReport("fitb_accuracy", correct / len(questions), None, len(questions))


# ---------------------------------------------------------------------------
# set compatibility
# ---------------------------------------------------------------------------

def set_score(model, items, features) -> float:
    """Mean pair score over all unordered item pairs of one set."""
    items = list(items)
    if len(items) < 2:
        raise ContractError(f"a set needs at least two items, got {len(items)}")
    return float(score_pairs(model, within_pairs(items), features).mean())


def mann_whitney_auc(pos_scores, neg_scores) -> float:
    """Rank-based AUC with ties counted half; equals the pairwise count."""
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ContractError("AUC needs at least one score on each side")
    merged = np.concatenate([pos, neg])
    order = np.argsort(merged, kind="stable")
    sorted_vals = merged[order]
    # runs of equal sorted values (NaN equals nothing, so each NaN is its own run)
    starts = np.flatnonzero(np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1]]))
    stops = np.append(starts[1:], merged.size) - 1
    ranks = np.empty(merged.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + stops) + 1.0, stops - starts + 1)  # average rank
    rank_sum = ranks[: pos.size].sum()
    u = rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def compatibility_auc(model, positive_sets, negative_sets, features) -> MetricReport:
    pos = np.array([set_score(model, s, features) for s in positive_sets])
    neg = np.array([set_score(model, s, features) for s in negative_sets])
    value = mann_whitney_auc(pos, neg)
    return MetricReport("compatibility_auc", value, None, len(pos) + len(neg))


# ---------------------------------------------------------------------------
# few-shot episodes
# ---------------------------------------------------------------------------

def episode_accuracy(model, episode: Episode, features) -> float:
    """Per query: class score is the mean edge probability to that class's
    supports; argmax class wins, lowest class index on ties."""
    sizes = [len(c) for c in episode.support]
    n_q, n_s = len(episode.query), sum(sizes)
    # (item, class) of every query, interleaved
    query = np.fromiter(chain.from_iterable(episode.query), np.int64, 2 * n_q)
    supports = np.fromiter(chain.from_iterable(episode.support), np.int64, n_s)
    per_query = score_pairs(model, product_pairs(query[0::2], supports), features)
    class_scores = _class_means(per_query.reshape(n_q, n_s), sizes)
    return int(np.count_nonzero(class_scores.argmax(axis=1) == query[1::2])) / n_q


def _class_means(per_query: np.ndarray, sizes: list[int]) -> np.ndarray:
    """(queries, classes): each row's mean over each class's column block,
    the blocks of ``sizes`` columns laid side by side in ``per_query``."""
    # autodiff.row_sum_values adds each row of a row-major block in np.mean's
    # order (np.add.reduceat does not); the mean is that sum over the block's
    # width. build_episodes gives every class k_shot supports, so the blocks
    # are the rows of a (queries * classes, width) view, summed in one call.
    n_q, n_c = per_query.shape[0], len(sizes)
    if len(set(sizes)) == 1:
        width = sizes[0]
        return (row_sum_values(per_query.reshape(-1, width)) / width).reshape(n_q, n_c)
    ends = np.cumsum(sizes)
    return np.concatenate(
        [row_sum_values(per_query[:, e - k : e]) / k for k, e in zip(sizes, ends)], axis=1
    )


def few_shot_accuracy(model, episodes: list[Episode], features) -> MetricReport:
    if not episodes:
        raise ContractError("need at least one episode")
    accs = np.array([episode_accuracy(model, ep, features) for ep in episodes])
    value = float(accs.mean())
    interval = None
    if len(accs) > 1:
        half = half_width_95(accs)
        interval = (value - half, value + half)
    return MetricReport("fewshot_accuracy", value, interval, len(episodes))


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def recall_at_k(
    query_features,
    gallery_features,
    query_labels,
    gallery_labels,
    k: int,
    model=None,
) -> MetricReport:
    """Fraction of queries with a same-label gallery item in the top k.

    Ranking is by model pair score when a model is given, else by negative
    Euclidean distance; ties prefer the lower gallery index. A query hits iff
    its best same-label item (highest score, lowest index on ties) has rank
    below k, where its rank counts the higher scores and the equal scores at
    lower gallery indices: the position a stable descending sort gives it.
    """
    query_features = np.asarray(query_features, dtype=np.float64)
    gallery_features = np.asarray(gallery_features, dtype=np.float64)
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    n_q, n_g = query_features.shape[0], gallery_features.shape[0]
    _check_recall_k(k, n_g)
    if model is not None:
        stacked = np.concatenate([query_features, gallery_features])
        pairs = product_pairs(np.arange(n_q), n_q + np.arange(n_g))
        scores = score_pairs(model, pairs, stacked).reshape(n_q, n_g)
    else:
        d2 = ((query_features[:, None, :] - gallery_features[None, :, :]) ** 2).sum(axis=2)
        scores = -np.sqrt(d2)
    if not np.isfinite(scores).all():
        raise NumericError("recall@k needs finite scores")
    same = gallery_labels == query_labels[:, None]
    # -inf ranks every other label below any finite same-label score
    best = np.where(same, scores, -np.inf).argmax(axis=1)  # first of the ties
    top = scores[np.arange(n_q), best][:, None]
    ahead = (scores > top) | ((scores == top) & (np.arange(n_g) < best[:, None]))
    hit = same.any(axis=1) & (np.count_nonzero(ahead, axis=1) < k)
    return MetricReport(f"recall_at_{k}", int(np.count_nonzero(hit)) / n_q, None, n_q)


def _check_recall_k(k: int, n_gallery: int) -> None:
    if n_gallery == 0:
        raise ContractError("gallery is empty")
    check_range("k", k, 1, n_gallery + 1)


# ---------------------------------------------------------------------------
# attribute mAP and rank report
# ---------------------------------------------------------------------------

def average_precision(scores, labels) -> float:
    """AP with ranking ties broken toward the lower index."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    positives = ranked.sum()
    if positives == 0:
        raise ContractError("average precision is undefined without positives")
    relevant = ranked == 1.0
    precision = np.cumsum(relevant)[relevant] / (np.flatnonzero(relevant) + 1)
    # cumsum adds left to right, as a running total would
    total = precision.cumsum()[-1] if precision.size else 0.0
    return float(total / positives)


def attribute_map(model, pairs, attribute_table: AttributeTable, fa: str, features) -> MetricReport:
    """Mean AP of condition scores against pairwise attribute labels.

    Attributes lacking both a positive and a negative labelled pair are
    excluded from the mean and flagged in the detail payload.
    """
    idx = pair_array(pairs)
    rho, _ = model.pair_conditions(idx, features)
    labels, mask = pair_label_matrix(attribute_table, idx[:, 0], idx[:, 1], fa)
    n_attr = labels.shape[1]
    if rho.shape[1] < n_attr:
        raise ContractError(
            f"model has {rho.shape[1]} conditions but labels need {n_attr}"
        )
    two_sided = _two_sided_attributes(labels, mask)
    per_attr: list[float] = []
    for a in range(n_attr):
        keep = mask[:, a] == 1.0
        per_attr.append(average_precision(rho[keep, a], labels[keep, a])
                        if two_sided[a] else float("nan"))
    value = float(np.mean([v for v, ok in zip(per_attr, two_sided) if ok]))
    skipped = np.flatnonzero(~two_sided).tolist()
    return MetricReport(
        "attribute_map", value, None, len(idx),
        detail={"per_attribute_ap": per_attr, "skipped_attributes": skipped},
    )


def _two_sided_attributes(labels: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per attribute column, whether the labelled pairs hold both a positive
    and a negative; ContractError if no column does."""
    labelled = mask == 1.0
    out = (labelled & (labels == 1.0)).any(axis=0) & (labelled & (labels == 0.0)).any(axis=0)
    if not out.any():
        raise ContractError("no attribute had both positive and negative labelled pairs")
    return out


def _rank_matrix(scores: np.ndarray) -> np.ndarray:
    """Per row, rank 1 for the highest score; ties go to the lower index."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(scores.shape[0])[:, None]
    ranks[rows, order] = np.arange(1, scores.shape[1] + 1)[None, :]
    return ranks.astype(np.float64)


def attribute_rank_report(runs, pairs, features) -> list[dict]:
    """Mean and spread of per-attribute ranks across training runs.

    Ranks are computed per pair both by relevance weight and by contribution
    (condition score times relevance), averaged over pairs within each run,
    then summarized across runs.
    """
    if not runs:
        raise ContractError("need at least one run")
    m = runs[0].csm_config.m
    for run in runs:
        if run.csm_config.m != m:
            raise ContractError(
                f"runs disagree on condition count: {run.csm_config.m} != {m}"
            )
    idx = pair_array(pairs)
    by_relevance = []
    by_contribution = []
    for run in runs:
        rho, omega = run.pair_conditions(idx, features)
        by_relevance.append(_rank_matrix(omega).mean(axis=0))
        by_contribution.append(_rank_matrix(rho * omega).mean(axis=0))
    rel = np.stack(by_relevance)
    con = np.stack(by_contribution)
    rows = []
    for a in range(m):
        rows.append(
            {
                "attribute": a,
                "mean_rank_relevance": float(rel[:, a].mean()),
                "sd_rank_relevance": float(rel[:, a].std()),
                "mean_rank_contribution": float(con[:, a].mean()),
                "sd_rank_contribution": float(con[:, a].std()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# balanced pair accuracy over a whole split
# ---------------------------------------------------------------------------

def balanced_pair_accuracy(
    model, features, graph: SimilarityGraph, indices, threshold: float = 0.5
) -> MetricReport:
    """Class-balanced accuracy over every within-split pair.

    Positives and negatives are weighted equally as classes (half each), so
    the number equals the mean of true-positive and true-negative rates and
    carries no sampling noise.
    """
    pairs = within_pairs(indices)
    linked = graph.has_edges(pairs[:, 0], pairs[:, 1])
    pos_pairs, neg_pairs = pairs[linked], pairs[~linked]
    if not len(pos_pairs) or not len(neg_pairs):
        raise ContractError("split needs both linked and unlinked pairs")
    pos_scores = score_pairs(model, pos_pairs, features)
    neg_scores = score_pairs(model, neg_pairs, features)
    tpr = float((pos_scores >= threshold).mean())
    tnr = float((neg_scores < threshold).mean())
    value = 0.5 * (tpr + tnr)
    return MetricReport(
        "balanced_pair_accuracy", value, None, len(pos_pairs) + len(neg_pairs),
        detail={"true_positive_rate": tpr, "true_negative_rate": tnr},
    )


# ---------------------------------------------------------------------------
# the task runner of `pan eval` and `pan sweep`
# ---------------------------------------------------------------------------

TASKS = ("pair-acc", "fitb", "auc", "fewshot", "recall", "attr-map", "rank-report")


def _split_name(bundle, name: str | None) -> str:
    """``name``, or for None the bundle's test (else novel) split, once the
    bundle is known to have it."""
    if name is None:
        name = next((s for s in ("test", "novel") if s in bundle.splits), "test")
    if name not in bundle.splits:
        raise ContractError(f"bundle has no split {name!r}")
    return name


def _sampled_split_pairs(bundle, split: str, seed: int, cap: int) -> np.ndarray:
    pairs = within_pairs(bundle.splits[split])
    if len(pairs) > cap:
        rng = generator(seed, "eval-pairs", split)
        pairs = pairs[np.sort(rng.choice(len(pairs), size=cap, replace=False))]
    return pairs


def _recall_rows(bundle, query_split: str, gallery_split: str):
    """The query and gallery items of recall: the two splits' rows, or for
    retrieval within one split its disjoint even and odd halves."""
    q_idx, g_idx = bundle.splits[query_split], bundle.splits[gallery_split]
    if query_split == gallery_split:
        q_idx, g_idx = q_idx[0::2], q_idx[1::2]
    return q_idx, g_idx


def check_task(task: str, bundle, n_models: int, split: str | None, seed: int,
               **options) -> str:
    """The split ``task`` reads (recall: ``options["query_split"]``; None: the
    test split, novel first for fewshot), once every split name, bundle field
    and model count it needs is known to be good; for fewshot, that enough
    classes are large enough for an episode; for recall, that k fits the
    gallery; and for attr-map, that the pairs ``seed`` samples label some
    attribute both ways. It draws no episode, question or negative set."""
    if n_models > 1 and task != "rank-report":
        raise ContractError(f"task {task} takes one checkpoint, got {n_models}")
    if task == "recall":
        split = _split_name(bundle, options["query_split"])
        gallery = _split_name(bundle, options["gallery_split"])
        _check_recall_k(options["k"], len(_recall_rows(bundle, split, gallery)[1]))
    elif task == "fewshot":
        split = _split_name(bundle, split or ("novel" if "novel" in bundle.splits else "test"))
    else:
        split = _split_name(bundle, split)
        if task in ("fitb", "auc") and not (bundle.sets or {}).get(split):
            raise ContractError(f"bundle has no item sets for split {split!r}")
    if task in ("fitb", "auc", "fewshot", "recall") and bundle.categories is None:
        raise ContractError(f"{task} needs item categories")
    if task == "attr-map":
        if bundle.attributes is None:
            raise ContractError("attr-map needs a bundle with attributes")
        pairs = _sampled_split_pairs(bundle, split, seed, options["max_pairs"])
        _two_sided_attributes(*pair_label_matrix(bundle.attributes, pairs[:, 0], pairs[:, 1],
                                                 options["fa"]))
    if task == "fewshot":  # the episodes' draw is left to run_task
        data_mod.episode_classes(bundle, split, options["way"],
                                 options["shot"] + options["query"])
    return split


def run_task(task: str, models, bundle, split: str, seed: int,
             **options) -> tuple[MetricReport, dict]:
    """``task``'s report on ``split`` of ``bundle`` (as ``check_task`` gives
    it), and the CSV tables it adds as {file name: (header, rows)}. ``models``
    are (checkpoint name, model) pairs; ``options`` holds the task's flags. Its
    questions, negative sets, episodes and sampled pairs come from ``seed``."""
    for name, model in models:
        if model.input_dim != bundle.d:
            raise DimensionError(f"checkpoint expects {model.input_dim}-dimensional features, "
                                 f"bundle has {bundle.d}")
        if task in ("attr-map", "rank-report") and not hasattr(model, "pair_conditions"):
            raise ContractError(f"{name}: task {task} needs a PAN checkpoint, "
                                f"not a {type(model).__name__} baseline")
    model = models[0][1]
    features, cats, idx = bundle.features, bundle.categories, bundle.splits[split]
    if task == "pair-acc":
        return balanced_pair_accuracy(model, features, bundle.graph, idx), {}
    if task == "fitb":
        questions = data_mod.build_fitb_questions(
            bundle.sets[split], options["choices"], cats, derive_seed(seed, "fitb"), pool=idx)
        return fitb_accuracy(model, questions, features), {}
    if task == "auc":
        positives = [s for s in bundle.sets[split] if len(s) >= 2]
        negatives = data_mod.resample_negative_sets(
            positives, cats, derive_seed(seed, "neg-sets"), pool=idx)
        return compatibility_auc(model, positives, negatives, features), {}
    if task == "fewshot":
        episodes = data_mod.build_episodes(
            bundle, options["way"], options["shot"], options["query"], options["episodes"],
            derive_seed(seed, "episodes"), split=split)
        return few_shot_accuracy(model, episodes, features), {}
    if task == "recall":
        q_idx, g_idx = _recall_rows(bundle, split, options["gallery_split"])
        return recall_at_k(features[q_idx], features[g_idx], cats[q_idx], cats[g_idx],
                           options["k"], model=model), {}
    pairs = _sampled_split_pairs(bundle, split, seed, options["max_pairs"])
    if task == "attr-map":
        report = attribute_map(model, pairs, bundle.attributes, options["fa"], features)
        # JSON has no NaN: a skipped attribute is null in metrics.json, empty in the CSV
        aps = [None if np.isnan(ap) else ap for ap in report.detail["per_attribute_ap"]]
        report.detail["per_attribute_ap"] = aps
        return report, {"per_attribute_ap.csv": (("attribute", "ap"), list(enumerate(aps)))}
    # rank-report
    rows = attribute_rank_report([m for _, m in models], pairs, features)
    report = MetricReport(
        "rank_report_runs", float(len(models)), None, len(rows),
        detail={"best_mean_rank_relevance": min(r["mean_rank_relevance"] for r in rows)},
    )
    return report, {"rank_report.csv": (tuple(rows[0]), [list(r.values()) for r in rows])}
