"""A plain-numpy MLP + CSM scorer and brute-force task metrics.

Nothing here imports `pan`. Weights come from the checkpoint JSON (hex
floats), the sigmoid is written through tanh and the products through einsum,
so the reference shares no arithmetic code with the program.

Every metric function returns ``(low, high)``: the range the metric can take
when each decision whose reference scores lie within ``TIE`` of each other may
go either way. A program value is accepted when it lies in that range.
"""

from __future__ import annotations

import numpy as np

TIE = 1e-9     # scores closer than this are a near-tie
SLACK = 1e-10  # summation-order noise allowed on a metric value


def _matrix(obj: dict) -> np.ndarray:
    values = [float.fromhex(v) for v in obj["values"]]
    return np.array(values, dtype=np.float64).reshape(obj["rows"], obj["cols"])


class Reference:
    """MLP encoder + CSM head read from a checkpoint dictionary."""

    def __init__(self, checkpoint: dict):
        enc = checkpoint["encoder"]
        if enc["kind"] != "mlp" or enc["activation"] != "relu":
            raise ValueError(f"reference covers relu MLP encoders, not {enc['kind']}")
        self.layers = [
            (_matrix(w), _matrix(b)) for w, b in zip(enc["weights"], enc["biases"])
        ]
        head = checkpoint["csm"]
        if not head["relevance_enabled"]:
            raise ValueError("reference covers relevance-weighted CSM heads")
        self.w1, self.b1 = _matrix(head["w1"]), _matrix(head["b1"])
        self.w2, self.b2 = _matrix(head["w2"]), _matrix(head["b2"])

    def embed(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        for k, (w, b) in enumerate(self.layers):
            h = np.einsum("...i,ij->...j", h, w) + b[0]
            if k < len(self.layers) - 1:
                h = np.maximum(h, 0.0)
        return h

    def conditions(self, h_i: np.ndarray, h_j: np.ndarray):
        """(rho, omega) for embeddings broadcast against each other."""
        diff = np.abs(h_i - h_j)
        rho = 0.5 * (1.0 + np.tanh(0.5 * (np.einsum("...i,ij->...j", diff, self.w1) + self.b1[0])))
        z = np.einsum("...i,ij->...j", diff, self.w2) + self.b2[0]
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return rho, e / e.sum(axis=-1, keepdims=True)

    def scores(self, h_i: np.ndarray, h_j: np.ndarray) -> np.ndarray:
        rho, omega = self.conditions(h_i, h_j)
        return (rho * omega).sum(axis=-1)

    def pair_scores(self, features: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        h = self.embed(features)
        return self.scores(h[pairs[:, 0]], h[pairs[:, 1]])


def within(value: float, bounds: tuple[float, float]) -> bool:
    low, high = bounds
    return low - SLACK <= value <= high + SLACK


def _argmax_outcomes(scores: np.ndarray, truth: np.ndarray):
    """Per row: (surely right, possibly right) for an argmax decision."""
    top = scores.max(axis=1, keepdims=True)
    near = scores >= top - TIE
    rows = np.arange(len(truth))
    possible = near[rows, truth]
    sure = possible & (near.sum(axis=1) == 1)
    return sure, possible


def fewshot_bounds(ref: Reference, features, episodes) -> tuple[float, float]:
    """Mean episode accuracy; class score is the mean score to its supports."""
    h = ref.embed(features)
    low = high = 0.0
    for ep in episodes:
        query = np.array([q for q, _ in ep.query])
        truth = np.array([c for _, c in ep.query])
        support = np.array([s for cls in ep.support for s in cls])
        scores = ref.scores(h[query][:, None, :], h[support][None, :, :])
        bounds = np.cumsum([0] + [len(cls) for cls in ep.support])
        per_class = np.stack(
            [scores[:, a:b].mean(axis=1) for a, b in zip(bounds[:-1], bounds[1:])], axis=1
        )
        sure, possible = _argmax_outcomes(per_class, truth)
        low += sure.mean()
        high += possible.mean()
    return low / len(episodes), high / len(episodes)


def pair_accuracy_bounds(ref: Reference, features, linked, indices) -> tuple[float, float]:
    """Class-balanced accuracy at threshold 0.5 over every pair of ``indices``;
    ``linked`` is a dense boolean adjacency matrix."""
    idx = np.asarray(indices, dtype=np.int64)
    a, b = np.triu_indices(len(idx), 1)
    i, j = idx[a], idx[b]
    s = ref.pair_scores(features, np.stack([i, j], axis=1))
    pos = linked[i, j]
    near = np.abs(s - 0.5) <= TIE
    tp, tp_amb = ((s >= 0.5) & ~near & pos).sum(), (near & pos).sum()
    tn, tn_amb = ((s < 0.5) & ~near & ~pos).sum(), (near & ~pos).sum()
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (
        0.5 * (tp / n_pos + tn / n_neg),
        0.5 * ((tp + tp_amb) / n_pos + (tn + tn_amb) / n_neg),
    )


def fitb_bounds(ref: Reference, features, questions) -> tuple[float, float]:
    """A candidate's score is the sum of its scores with every question item."""
    h = ref.embed(features)
    sure = possible = 0
    for q in questions:
        items = np.array(q.question_items)
        cands = np.array(q.candidates)
        per_cand = ref.scores(h[cands][:, None, :], h[items][None, :, :]).sum(axis=1)
        s, p = _argmax_outcomes(per_cand[None, :], np.array([q.answer_index]))
        sure += int(s[0])
        possible += int(p[0])
    return sure / len(questions), possible / len(questions)


def _set_score(h: np.ndarray, ref: Reference, items) -> float:
    items = list(items)
    a, b = np.triu_indices(len(items), 1)
    idx = np.array(items)
    return float(ref.scores(h[idx[a]], h[idx[b]]).mean())


def auc_bounds(ref: Reference, features, positives, negatives) -> tuple[float, float]:
    """Pairwise-count AUC of mean set scores; near-ties may count 0 to 1."""
    h = ref.embed(features)
    pos = np.array([_set_score(h, ref, s) for s in positives])
    neg = np.array([_set_score(h, ref, s) for s in negatives])
    diff = pos[:, None] - neg[None, :]
    wins = (diff > TIE).sum()
    ties = (np.abs(diff) <= TIE).sum()
    total = diff.size
    return wins / total, (wins + ties) / total


def _ap_bounds(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    cluster = np.concatenate([[0], np.cumsum(np.diff(s) < -TIE)])
    ranks = np.arange(1, len(y) + 1)

    def ap(ranked):
        return float((ranked * np.cumsum(ranked) / ranks).sum() / ranked.sum())

    return ap(y[np.lexsort((y, cluster))]), ap(y[np.lexsort((-y, cluster))])


def attribute_map_bounds(ref: Reference, features, pairs, values, mask) -> tuple[float, float]:
    """Mean AP of condition scores against OR-combined pair labels."""
    h = ref.embed(features)
    i, j = pairs[:, 0], pairs[:, 1]
    rho, _ = ref.conditions(h[i], h[j])
    labels = np.maximum(values[i], values[j])
    labelled = (mask[i] * mask[j]) == 1.0
    lows, highs = [], []
    for a in range(labels.shape[1]):
        keep = labelled[:, a]
        y = labels[keep, a]
        if keep.sum() == 0 or y.sum() == 0 or y.sum() == keep.sum():
            continue
        low, high = _ap_bounds(rho[keep, a], y)
        lows.append(low)
        highs.append(high)
    return float(np.mean(lows)), float(np.mean(highs))


def recall_at_1_bounds(ref: Reference, query, gallery, query_labels, gallery_labels):
    """Share of queries whose top-scored gallery item has the query's label."""
    hq, hg = ref.embed(query), ref.embed(gallery)
    sure = possible = 0
    for start in range(0, len(hq), 64):
        block = ref.scores(hq[start : start + 64, None, :], hg[None, :, :])
        near = block >= block.max(axis=1, keepdims=True) - TIE
        match = gallery_labels[None, :] == query_labels[start : start + 64, None]
        sure += int((near <= match).all(axis=1).sum())
        possible += int((near & match).any(axis=1).sum())
    return sure / len(hq), possible / len(hq)


def off_by_one(value: float, bounds: tuple[float, float], count: int) -> float:
    """A value just outside ``bounds``: the negative control for ``within``."""
    step = (bounds[1] - bounds[0]) + max(1.0 / count, 1e-6)
    return value + step if value + step <= 1.0 else value - step
