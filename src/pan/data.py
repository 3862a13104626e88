"""Dataset bundles, synthetic generators with exact oracles, question and
episode builders, and the reader and writer of every bundle file: the binary
``features.bin``, the CSV tables (one writer, one reader), and the JSON files.

The compatibility generator realizes the information-loss scenario: every
positive attribute carries a hidden manifestation realized as a distinct
feature-space direction, two items link iff they share at least one attribute
and every shared attribute agrees in manifestation. Binary presence alone
cannot resolve manifestations, and the generator reports the exact best
accuracy any presence-only classifier can reach, by enumeration.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attributes import AttributeTable
from .autodiff import as_matrix
from .encoders import SimilarityGraph, within_pairs
from .errors import BundleFormatError, ContractError, GenerationError, check_choice, check_range
from .rng import generator

TASK_KINDS = ("compatibility_manifestation", "fewshot_clusters", "linear_separable")
BUNDLE_FORMAT = "pan-bundle-v1"


@dataclass(frozen=True)
class SyntheticSpec:
    n_items: int
    d: int
    m_attributes: int
    noise_sd: float = 0.05
    task_kind: str = "compatibility_manifestation"
    manifestation_count: int = 2
    attr_density: float = 0.5
    n_classes: int = 20
    cluster_separation: float = 10.0
    hamming_threshold: int = 1

    def __post_init__(self):
        check_choice("task_kind", self.task_kind, TASK_KINDS)
        for name in ("n_items", "d", "m_attributes", "manifestation_count"):
            check_range(name, getattr(self, name), 1)
        check_range("noise_sd", self.noise_sd, 0)
        check_range("cluster_separation", self.cluster_separation, 0, above=True)
        check_range("hamming_threshold", self.hamming_threshold, 0)
        check_range("attr_density", self.attr_density, 0, 1, above=True)
        # each kind's limits: one feature direction per attribute (and per
        # manifestation), one center per class, and three class-split groups
        m, v, d = self.m_attributes, self.manifestation_count, self.d
        if self.task_kind == "compatibility_manifestation":
            check_range("m_attributes * manifestation_count", m * v, 1, d + 1)
        elif self.task_kind == "linear_separable":
            check_range("m_attributes", m, 1, d + 1)
        fewshot = self.task_kind == "fewshot_clusters"
        check_range("n_classes", self.n_classes, 3 if fewshot else 1,
                    d + 1 if fewshot else np.inf)
        if fewshot and self.n_items < self.n_classes:
            raise ContractError(f"n_items must be >= n_classes for fewshot clusters, got "
                                f"{self.n_items} < {self.n_classes}")


@dataclass
class DatasetBundle:
    features: np.ndarray
    graph: SimilarityGraph
    splits: dict[str, np.ndarray]
    attributes: AttributeTable | None = None
    categories: np.ndarray | None = None
    sets: dict[str, list[list[int]]] | None = None
    task: str | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        n = self.features.shape[0]
        if self.graph.n != n:
            raise ContractError(f"graph has {self.graph.n} nodes, features have {n}")
        for name, idx in self.splits.items():
            self.splits[name] = np.asarray(idx, dtype=np.int64)
        split_of = _split_of(n, self.splits)
        crosses = split_of[self.graph.pairs[:, 0]] != split_of[self.graph.pairs[:, 1]]
        if crosses.any():
            i, j = self.graph.pairs[np.argmax(crosses)].tolist()
            names = [*self.splits, None]  # split_of -1 (no split) reads None
            raise ContractError(f"edge ({i}, {j}) crosses splits "
                                f"{names[split_of[i]]!r} and {names[split_of[j]]!r}")
        if self.attributes is not None and self.attributes.n != n:
            raise ContractError(
                f"attribute table has {self.attributes.n} rows, features have {n}"
            )
        if self.categories is not None:
            self.categories = np.asarray(self.categories, dtype=np.int64)
            if self.categories.shape != (n,):
                raise ContractError(f"categories have shape {self.categories.shape}, "
                                    f"features have {n} rows")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, split: str) -> "DatasetBundle":
        """The items of ``split``, renumbered 0..k-1 in split order, with their
        features, attributes and categories and the links among them. Its one
        split is ``split`` over all k items, and it has no sets."""
        idx = self.splits[split]
        table = self.attributes
        return DatasetBundle(
            self.features[idx], self.graph.subgraph(idx), {split: np.arange(len(idx))},
            None if table is None else AttributeTable(table.values[idx], table.mask[idx]),
            None if self.categories is None else self.categories[idx], task=self.task,
        )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_BLOCK = 1 << 18  # entries per block of pairs or chunk of edges in the quadratic passes


def presence_bayes_accuracy(
    values: np.ndarray, graph: SimilarityGraph, indices
) -> float:
    """Exact ceiling for any classifier seeing only binary presence vectors.

    Over the pairs of distinct ``indices``, linked and unlinked weighing
    equally, the best decision for each unordered pair (a, b) of presence
    configurations takes the heavier side: 0.5 * sum of max(pos / n_pos,
    neg / n_neg). With c_a items of configuration a, (a, b) holds c_a * c_b
    pairs (c_a * (c_a - 1) / 2 if a = b), pos of them linked (a ``bincount``
    over chunks of edges). Terms add in the order of each (a, b)'s first pair
    in the row-major scan of positions: (min(f_a, f_b), max(f_a, f_b)), or
    (f_a, the second position of a) if a = b, f_a being a's first position.
    """
    indices = np.asarray(indices, dtype=np.int64).ravel()
    n = len(indices)
    position = np.full(graph.n, -1, dtype=np.int64)
    position[indices] = np.arange(n)
    if (repeated := position[indices] != np.arange(n)).any():
        raise ContractError(f"index {indices[np.argmax(repeated)]} appears twice in indices")
    rows = np.asarray(values)[indices].astype(int)
    _, first, code, count = np.unique(rows, axis=0, return_index=True, return_inverse=True,
                                      return_counts=True)
    order = np.argsort(first)  # configurations renumbered in order of first position
    code, first, count = np.argsort(order)[code.ravel()], first[order], count[order]
    second = np.argsort(code, kind="stable")[np.minimum(np.cumsum(count) - count + 1, n - 1)]

    k, acc = len(count), np.zeros(1)
    keys = [np.zeros(0, dtype=np.int64)]  # configurations lower * k + upper of linked pairs
    for start in range(0, graph.num_edges, _BLOCK):
        i, j = position.take(graph.pairs[start : start + _BLOCK].T)
        i, j = code.take(i[(i >= 0) & (j >= 0)]), code.take(j[(i >= 0) & (j >= 0)])
        keys.append(np.minimum(i, j) * k + np.maximum(i, j))
    keys = np.concatenate(keys)
    n_pos, n_neg = len(keys), n * (n - 1) // 2 - len(keys)
    if n_pos == 0 or n_neg == 0:
        raise GenerationError("split lacks linked or unlinked pairs")
    step = max(1, _BLOCK // k)
    for lo in range(0, k, step):  # a block of about _BLOCK configuration pairs (a, b)
        a, b = np.arange(lo, min(lo + step, k))[:, None], np.arange(k)
        here = keys[(keys >= lo * k) & (keys < (lo + step) * k)] - lo * k
        pairs = np.where(a == b, count[a] * (count[a] - 1) // 2, count[a] * count)
        kept = (b >= a) & (pairs > 0)
        scan = np.argsort((a * n + np.where(a == b, second[a], first))[kept])
        pos = np.bincount(here, minlength=pairs.size)[kept.ravel()][scan]
        share = np.maximum(pos / n_pos, (pairs[kept][scan] - pos) / n_neg)
        # accumulate adds one term at a time, where sum would add pairwise
        acc = np.add.accumulate(np.concatenate([acc, share]))[-1:]
    return 0.5 * float(acc[0])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _orthonormal_columns(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, k)))
    return q * np.sign(np.diag(r))[None, :]


def _round_to_f32(x: np.ndarray) -> np.ndarray:
    # generated features survive the float32 feature-file round trip exactly
    return x.astype(np.float32).astype(np.float64)


def _assign_splits(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    order = rng.permutation(n)
    n_train = int(round(0.6 * n))
    n_val = int(round(0.2 * n))
    return {
        "train": np.sort(order[:n_train]),
        "val": np.sort(order[n_train : n_train + n_val]),
        "test": np.sort(order[n_train + n_val :]),
    }


def _type_links(types: np.ndarray, linked) -> np.ndarray:
    """(E, 2) edges (i, j), i < j, in row-major order, between items whose
    ``types`` rows are ``linked``. ``linked(rows, kinds)`` relates a block of
    about ``_BLOCK / n`` rows to the distinct rows, found by ``np.unique(axis=0)``
    (no integer key to overflow), and is read out at the later items' kinds."""
    kinds, code = np.unique(types, axis=0, return_inverse=True)
    n, code = len(types), code.ravel()
    step = max(1, _BLOCK // n)
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, n - 1, step):
        # row r is item lo + r, column c item lo + 1 + c: a later item iff c >= r
        later = linked(types[lo : lo + step], kinds)[:, code[lo + 1 :]]
        later[np.tril_indices(len(later), -1)] = False
        i, j = np.divmod(np.flatnonzero(later), later.shape[1])
        blocks.append(np.stack([lo + i, lo + 1 + j], axis=1))
    return np.concatenate(blocks)


def _split_of(n: int, splits: dict[str, np.ndarray]) -> np.ndarray:
    """Each item's split as its position in ``splits``, -1 for an item in none;
    the first index, in split order, out of range or seen before raises."""
    names = list(splits)
    ids = np.concatenate([np.zeros(0, np.int64), *splits.values()])
    owner = np.repeat(np.arange(len(names)), [len(v) for v in splits.values()])
    bad = np.ones(len(ids), dtype=bool)
    bad[np.unique(ids, return_index=True)[1]] = False  # first sight of each id
    bad |= (ids < 0) | (ids >= n)
    if bad.any():
        at = int(np.argmax(bad))
        i, name = int(ids[at]), names[owner[at]]
        if not 0 <= i < n:
            raise ContractError(f"split {name!r} index {i} out of range")
        first = names[owner[np.argmax(ids == i)]]
        raise ContractError(f"index {i} appears in splits {first!r} and {name!r}")
    split_of = np.full(n, -1)
    split_of[ids] = owner
    return split_of


def _split_and_link(spec: SyntheticSpec, values: np.ndarray, edges: np.ndarray,
                    rng: np.random.Generator):
    """The shared tail of the attribute generators: 60/20/20 splits of the
    items, the graph of the ``edges`` within a split, and the report of each
    split's presence-only ceiling over ``values``."""
    n = len(values)
    splits = _assign_splits(n, rng)
    split_of = _split_of(n, splits)
    graph = SimilarityGraph(n, edges[split_of[edges[:, 0]] == split_of[edges[:, 1]]])
    report = {"task": spec.task_kind, "n_items": n, "edge_count": graph.num_edges,
              "presence_bayes_accuracy": {name: presence_bayes_accuracy(values, graph, idx)
                                          for name, idx in splits.items()}}
    return splits, graph, report


def _sample_positive_sets(
    graph: SimilarityGraph, indices, rng: np.random.Generator, count: int
) -> list[list[int]]:
    """Mutually-linked item sets of size 2..5, grown greedily from a random edge."""
    # candidates are drawn in the iteration order of the set of indices
    pool = np.fromiter(set(int(i) for i in indices), dtype=np.int64)
    if not len(pool):
        return []
    ordered = np.sort(pool)
    local_edges = ordered[graph.subgraph(ordered).pairs]
    if not len(local_edges):
        return []
    sets: list[list[int]] = []
    attempts = 0
    while len(sets) < count and attempts < 20 * count:
        attempts += 1
        members = local_edges[rng.integers(0, len(local_edges))].tolist()
        target = int(rng.integers(2, 6))
        linked = graph.has_edges(pool, members[0]) & graph.has_edges(pool, members[1])
        while len(members) < target:
            candidates = pool[linked]  # linked to every member, so not a member
            if not candidates.size:
                break
            members.append(int(candidates[rng.integers(0, len(candidates))]))
            linked &= graph.has_edges(pool, members[-1])
        sets.append(sorted(members))
    return sets


def gen_compatibility_manifestation(
    spec: SyntheticSpec, seed: int
) -> tuple[DatasetBundle, dict]:
    """Items with binary attributes whose positive entries carry a hidden
    manifestation; pairs link iff some attribute is shared and all shared
    attributes agree in manifestation."""
    m, v, d, n = spec.m_attributes, spec.manifestation_count, spec.d, spec.n_items
    rng = generator(seed, "gen-compat")
    values = (rng.random((n, m)) < spec.attr_density).astype(np.float64)
    manifest = rng.integers(0, v, size=(n, m))
    directions = _orthonormal_columns(rng, d, m * v)
    feats = np.zeros((n, d))
    for k in range(m):
        cols = directions[:, k * v + manifest[:, k]]  # d x n
        feats += values[:, k : k + 1] * cols.T
    feats += spec.noise_sd * rng.normal(size=(n, d))
    feats = _round_to_f32(feats)

    def compatible(a, b):  # type rows: presence, then (attribute, manifestation) cells
        shared, agree = a[:, :m] @ b[:, :m].T, a[:, m:] @ b[:, m:].T
        return (shared > 0) & (agree == shared)

    cells = (manifest[:, :, None] == np.arange(v)) & (values[:, :, None] > 0)
    edges = _type_links(np.hstack([values, cells.reshape(n, m * v)]), compatible)

    splits, graph, report = _split_and_link(spec, values, edges, rng)
    categories = rng.integers(0, 4, size=n)  # drawn after the splits
    table = AttributeTable(values, np.ones_like(values))
    sets = {
        name: _sample_positive_sets(graph, idx, generator(seed, "sets", name), max(8, len(idx) // 5))
        for name, idx in splits.items()
    }
    bundle = DatasetBundle(
        feats, graph, splits, table, categories, sets, task=spec.task_kind
    )
    return bundle, report | {"total_edges_before_split_filter": len(edges)}


def gen_fewshot_clusters(spec: SyntheticSpec, seed: int) -> tuple[DatasetBundle, dict]:
    """Gaussian class clusters with per-class attribute signatures; links join
    same-class items. Some attribute pairs are mutually exclusive by design."""
    c, d, m = spec.n_classes, spec.d, spec.m_attributes
    rng = generator(seed, "gen-fewshot")
    scale = spec.cluster_separation * spec.noise_sd * np.sqrt(d)
    if scale == 0.0:
        scale = 1.0  # zero noise: any positive separation keeps classes distinct
    centers = _orthonormal_columns(rng, d, c).T * scale

    per_class = spec.n_items // c
    counts = [per_class + (1 if k < spec.n_items % c else 0) for k in range(c)]
    labels = np.concatenate([np.full(cnt, k, dtype=np.int64) for k, cnt in enumerate(counts)])
    n = len(labels)
    feats = centers[labels] + spec.noise_sd * rng.normal(size=(n, d))
    feats = _round_to_f32(feats)

    signatures = np.zeros((c, m))
    for k in range(c):
        for t in range(m // 2):  # exclusive pair (2t, 2t+1): exactly one is on
            signatures[k, 2 * t + int(rng.integers(0, 2))] = 1.0
        for a in range(2 * (m // 2), m):
            signatures[k, a] = float(rng.integers(0, 2))
    table = AttributeTable(signatures[labels], np.ones((n, m)))

    class_order = rng.permutation(c)
    n_base = min(c - 2, round(0.5 * c))  # at least one val and one novel class
    n_val = (c - n_base) // 2
    groups = {
        "base": class_order[:n_base],
        "val": class_order[n_base : n_base + n_val],
        "novel": class_order[n_base + n_val :],
    }
    splits = {
        name: np.sort(np.concatenate([np.nonzero(labels == k)[0] for k in classes]))
        for name, classes in groups.items()
    }
    edges = np.concatenate([within_pairs(np.flatnonzero(labels == k)) for k in range(c)])
    bundle = DatasetBundle(
        feats, SimilarityGraph(n, edges), splits, table, labels, None, task=spec.task_kind
    )
    report = {
        "task": spec.task_kind,
        "n_items": n,
        "n_classes": c,
        "classes_per_split": {k: len(val) for k, val in groups.items()},
        "center_separation": float(scale * np.sqrt(2.0)),
    }
    return bundle, report


def gen_linear_separable(spec: SyntheticSpec, seed: int) -> tuple[DatasetBundle, dict]:
    """Attributes embedded linearly in features; pairs link iff their attribute
    vectors differ in at most hamming_threshold positions."""
    n, d, m = spec.n_items, spec.d, spec.m_attributes
    rng = generator(seed, "gen-linear")
    values = (rng.random((n, m)) < spec.attr_density).astype(np.float64)
    basis = _orthonormal_columns(rng, d, m)
    feats = _round_to_f32(values @ basis.T + spec.noise_sd * rng.normal(size=(n, d)))
    # |a - b| summed over 0/1 rows is |a| + |b| - 2 a.b
    edges = _type_links(values, lambda a, b: a.sum(axis=1)[:, None] + b.sum(axis=1)
                        - 2 * (a @ b.T) <= spec.hamming_threshold)
    splits, graph, report = _split_and_link(spec, values, edges, rng)
    table = AttributeTable(values, np.ones_like(values))
    bundle = DatasetBundle(
        feats, graph, splits, table, np.zeros(n, dtype=np.int64), None, task=spec.task_kind
    )
    return bundle, report


def generate(spec: SyntheticSpec, seed: int) -> tuple[DatasetBundle, dict]:
    if spec.task_kind == "compatibility_manifestation":
        return gen_compatibility_manifestation(spec, seed)
    if spec.task_kind == "fewshot_clusters":
        return gen_fewshot_clusters(spec, seed)
    return gen_linear_separable(spec, seed)


# ---------------------------------------------------------------------------
# questions, negative sets, episodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitbQuestion:
    question_items: tuple[int, ...]
    candidates: tuple[int, ...]
    answer_index: int

    def __post_init__(self):
        object.__setattr__(self, "question_items", tuple(int(i) for i in self.question_items))
        object.__setattr__(self, "candidates", tuple(int(i) for i in self.candidates))
        if not self.candidates:
            raise ContractError("a question needs at least one candidate")
        if not 0 <= self.answer_index < len(self.candidates):
            raise ContractError(
                f"answer index {self.answer_index} invalid for {len(self.candidates)} candidates"
            )
        if set(self.question_items) & set(self.candidates):
            raise ContractError("question items and candidates must be disjoint")


@dataclass(frozen=True)
class Episode:
    support: tuple[tuple[int, ...], ...]      # per-class support indices
    query: tuple[tuple[int, int], ...]        # (item index, class position)

    def __post_init__(self):
        flat = [i for cls in self.support for i in cls]
        if len(set(flat)) != len(flat):
            raise ContractError("support sets overlap across classes")
        q_items = [q for q, _ in self.query]
        if set(q_items) & set(flat):
            raise ContractError("queries must be disjoint from supports")

    @property
    def n_way(self) -> int:
        return len(self.support)


def build_fitb_questions(
    outfit_sets, num_choices: int, categories, seed: int, pool
) -> list[FitbQuestion]:
    """One question per set: drop one item as the answer, add same-category
    distractors drawn from the pool."""
    check_range("num_choices", num_choices, 1)
    categories = np.asarray(categories, dtype=np.int64)
    rng = generator(seed, "fitb-questions")
    pool = [int(p) for p in pool]
    questions = []
    for outfit in outfit_sets:
        outfit = [int(i) for i in outfit]
        if len(outfit) < 2:
            continue
        answer = outfit[int(rng.integers(0, len(outfit)))]
        question_items = tuple(i for i in outfit if i != answer)
        cat = categories[answer]
        eligible = [p for p in pool if categories[p] == cat and p not in outfit]
        if len(eligible) < num_choices - 1:
            raise GenerationError(
                f"not enough category-{cat} distractors: need {num_choices - 1}, "
                f"have {len(eligible)}"
            )
        picks = rng.choice(len(eligible), size=num_choices - 1, replace=False)
        candidates = [answer] + [eligible[int(p)] for p in picks]
        order = rng.permutation(num_choices)
        shuffled = [candidates[int(k)] for k in order]
        questions.append(
            FitbQuestion(question_items, tuple(shuffled), shuffled.index(answer))
        )
    return questions


def resample_negative_sets(positive_sets, categories, seed: int, pool) -> list[list[int]]:
    """Corrupt each positive set by swapping >= 1 items for same-category ones."""
    categories = np.asarray(categories, dtype=np.int64)
    rng = generator(seed, "negative-sets")
    pool = [int(p) for p in pool]
    out = []
    for outfit in positive_sets:
        outfit = [int(i) for i in outfit]
        replace_count = int(rng.integers(1, len(outfit) + 1))
        positions = rng.choice(len(outfit), size=replace_count, replace=False)
        corrupted = list(outfit)
        for pos in positions.tolist():
            cat = categories[outfit[pos]]
            eligible = [p for p in pool if categories[p] == cat and p not in corrupted]
            if not eligible:
                raise GenerationError(f"no category-{cat} replacement available")
            corrupted[pos] = eligible[int(rng.integers(0, len(eligible)))]
        out.append(corrupted)
    return out


def episode_classes(bundle: DatasetBundle, split: str, n_way: int, size: int) -> list:
    """The items of each class with at least ``size`` items in ``split``, in
    class-label order; fewer than ``n_way`` such classes raises GenerationError."""
    idx = np.asarray(bundle.splits[split], dtype=np.int64)
    labels = bundle.categories[idx]
    eligible = [items for k in np.unique(labels) if len(items := idx[labels == k]) >= size]
    if len(eligible) < n_way:
        raise GenerationError(
            f"need {n_way} classes with >= {size} items in {split!r}, have {len(eligible)}"
        )
    return eligible


def build_episodes(
    bundle: DatasetBundle,
    n_way: int,
    k_shot: int,
    n_query: int,
    count: int,
    seed: int,
    split: str = "novel",
) -> list[Episode]:
    """Uniformly sampled N-way K-shot tasks with disjoint supports and queries."""
    for name, value in (("n_way", n_way), ("k_shot", k_shot), ("n_query", n_query),
                        ("count", count)):
        check_range(name, value, 1)
    if bundle.categories is None:
        raise ContractError("episode construction needs per-item class labels")
    if split not in bundle.splits:
        raise ContractError(f"bundle has no split {split!r}")
    eligible = episode_classes(bundle, split, n_way, k_shot + n_query)
    rng = generator(seed, "episodes")
    episodes = []
    for _ in range(count):
        chosen = rng.choice(len(eligible), size=n_way, replace=False)
        support, query = [], []
        for position, class_pos in enumerate(chosen.tolist()):
            items = eligible[class_pos]
            draw = rng.choice(len(items), size=k_shot + n_query, replace=False)
            picked = items[draw]
            support.append(tuple(int(i) for i in picked[:k_shot]))
            query.extend((int(i), position) for i in picked[k_shot:])
        episodes.append(Episode(tuple(support), tuple(query)))
    return episodes


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


FEATURE_MAGIC = b"PANF"
ATTRIBUTE_CELLS = np.array(["0", "1", "?"])  # value 0, value 1, unlabelled


def write_feature_file(path, features: np.ndarray) -> None:
    """Little-endian binary: magic ``PANF``, u32 item count, u32 feature
    dimension, then the n*d values as float32."""
    features = as_matrix(features)
    header = FEATURE_MAGIC + struct.pack("<II", *features.shape)
    Path(path).write_bytes(header + features.astype("<f4").tobytes())


def read_feature_file(path) -> np.ndarray:
    """The values of a feature file, widened to float64."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise BundleFormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(blob) < 12:
        raise BundleFormatError(f"{path}: header truncated at {len(blob)} bytes")
    n, d = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * n * d
    if len(blob) != expected:
        raise BundleFormatError(
            f"{path}: expected {expected} bytes for {n}x{d} features, got {len(blob)}"
        )
    return np.frombuffer(blob, dtype="<f4", offset=12).astype(np.float64).reshape(n, d)


def _write_table(path: Path, header: list[str], rows: np.ndarray) -> None:
    """A header and the cells of (N, len(header)) ``rows`` as CSV, with the
    \r\n row ends that the csv module writes; ``_read_table`` reads it back."""
    line = ",".join(["{}"] * len(header)) + "\r\n"
    path.write_text((line * (len(rows) + 1)).format(*header, *rows.ravel().tolist()),
                    newline="")


def _read_table(path: Path, dtype, valid) -> tuple[list[str], np.ndarray]:
    """The header of a CSV table, and its rows as an (N, len(header)) ``dtype``
    array. A row of another width, or a cell that is no ``dtype`` or that
    ``valid(cells, rows, columns)`` rejects (elementwise, 0-based row and
    column numbers), raises BundleFormatError naming file:line.

    numpy's C parser reads the rows; its row numbers skip empty lines and
    disagree between its messages, so the text is scanned for the line only
    once the parse or the check has failed.
    """
    with path.open(errors="replace") as fh:  # a byte that is not UTF-8 is a bad cell
        header = fh.readline().rstrip("\n").split(",")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a table without rows
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=2)
            rows = rows.reshape(-1, len(header)) if rows.size == 0 else rows
            if rows.shape[1] == len(header) and np.all(
                    valid(rows, np.arange(len(rows))[:, None], np.arange(len(header)))):
                return header, rows
        except (ValueError, OverflowError):
            pass
    row = -1
    for lineno, line in enumerate(path.read_text(errors="replace").splitlines()[1:], start=2):
        if not line:  # numpy skips empty lines
            continue
        row += 1
        cells = line.split(",")
        if len(cells) != len(header):
            raise BundleFormatError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        for col, cell in enumerate(cells):
            try:
                ok = valid(np.array(cell).astype(dtype), row, col)
            except (ValueError, OverflowError):
                ok = False
            if not ok:
                raise BundleFormatError(
                    f"{path}:{lineno}: column {col + 1} has invalid cell {cell!r}")
    raise BundleFormatError(f"{path}: not a CSV table of {len(header)} columns")


def save_bundle(directory, bundle: DatasetBundle) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_feature_file(directory / "features.bin", bundle.features)
    _write_table(directory / "edges.csv", ["i", "j"], bundle.graph.pairs)
    (directory / "splits.json").write_text(
        json.dumps({k: v.tolist() for k, v in bundle.splits.items()}, sort_keys=True) + "\n"
    )
    files = ["features.bin", "edges.csv", "splits.json"]
    if bundle.attributes is not None:
        table = bundle.attributes
        cells = ATTRIBUTE_CELLS[np.where(table.mask == 0.0, 2, table.values.astype(np.int64))]
        _write_table(directory / "attributes.csv",
                     ["item_id", *(f"attr_{k}" for k in range(table.m))],
                     np.column_stack([np.arange(table.n).astype(str), cells]))
        files.append("attributes.csv")
    if bundle.categories is not None:
        _write_table(directory / "categories.csv", ["item_id", "category"],
                     np.stack([np.arange(bundle.n), bundle.categories], axis=1))
        files.append("categories.csv")
    if bundle.sets is not None:
        (directory / "sets.json").write_text(json.dumps(bundle.sets, sort_keys=True) + "\n")
        files.append("sets.json")
    manifest = {
        "format": BUNDLE_FORMAT,
        "n": bundle.n,
        "d": bundle.d,
        "m": None if bundle.attributes is None else bundle.attributes.m,
        "task": bundle.task,
        "files": {name: _sha256(directory / name) for name in files},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _int_lists(value, depth: int) -> bool:
    """Whether ``value`` is a list of integers nested ``depth`` lists deep."""
    if depth == 0:
        return type(value) is int
    return isinstance(value, list) and all(_int_lists(v, depth - 1) for v in value)


def _read_json(path: Path, valid):
    """The JSON value in ``path``; a file that is not JSON, or whose value
    ``valid`` rejects, raises BundleFormatError naming it."""
    try:
        value = json.loads(path.read_text())
    except ValueError as exc:
        raise BundleFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not valid(value):
        raise BundleFormatError(f"{path}: a key is missing or holds a wrong type")
    return value


def load_bundle(directory) -> DatasetBundle:
    """The bundle in ``directory``, after every file the manifest lists has
    matched its hash; a listed file that no field reads (``confidence.csv`` of
    older bundles) is only hash-checked."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise BundleFormatError(f"{manifest_path} does not exist")
    manifest = _read_json(manifest_path, lambda m: isinstance(m, dict)
                          and isinstance(m.get("files"), dict)
                          and type(m.get("n")) is int and type(m.get("d")) is int)
    if manifest.get("format") != BUNDLE_FORMAT:
        raise BundleFormatError(f"unknown bundle format {manifest.get('format')!r}")
    if manifest.get("task") not in (None, *TASK_KINDS):
        raise BundleFormatError(f"{manifest_path}: unknown task {manifest['task']!r}, "
                                f"expected null or one of {', '.join(TASK_KINDS)}")
    for name, digest in manifest["files"].items():
        path = directory / name
        if not path.exists():
            raise BundleFormatError(f"{path} listed in manifest but missing")
        actual = _sha256(path)
        if actual != digest:
            raise BundleFormatError(f"{path}: hash {actual} != manifest {digest}")

    features = read_feature_file(directory / "features.bin")
    n = features.shape[0]
    if n != manifest["n"] or features.shape[1] != manifest["d"]:
        raise BundleFormatError(
            f"feature file is {features.shape}, manifest says "
            f"({manifest['n']}, {manifest['d']})"
        )
    edges_path = directory / "edges.csv"
    # edges: two item indices in [0, n)
    header, edges = _read_table(edges_path, np.int64, lambda v, row, col: (v >= 0) & (v < n))
    if header != ["i", "j"]:
        raise BundleFormatError(f"{edges_path}: bad header {header}")
    splits = _read_json(directory / "splits.json", lambda v: isinstance(v, dict) and all(
        _int_lists(s, 1) for s in v.values()))
    splits = {k: np.array(v, dtype=np.int64) for k, v in splits.items()}
    attributes = None
    if (attributes_path := directory / "attributes.csv").exists():
        # attributes: row r's item id r, then 0, 1 or ? (unlabelled) per attribute
        header, cells = _read_table(attributes_path, str, lambda v, row, col: np.where(
            col == 0, v == np.asarray(row).astype(str), np.isin(v, ATTRIBUTE_CELLS)))
        if header[0] != "item_id":
            raise BundleFormatError(f"{attributes_path}: expected header starting with item_id")
        cells = cells[:, 1:]
        attributes = AttributeTable((cells == "1").astype(np.float64),
                                    (cells != "?").astype(np.float64))
    width = None if attributes is None else attributes.m
    if type(manifest.get("m")) is not type(width) or manifest.get("m") != width:
        raise BundleFormatError(
            f"{manifest_path}: m is {manifest.get('m')!r}, but attributes.csv "
            + ("is absent" if width is None else f"has {width} attribute columns"))
    categories = None
    if (categories_path := directory / "categories.csv").exists():
        # categories: row r's item id r and an integer category
        header, rows = _read_table(categories_path, np.int64,
                                   lambda v, row, col: (col != 0) | (v == row))
        if header != ["item_id", "category"]:
            raise BundleFormatError(f"{categories_path}: bad header {header}")
        categories = rows[:, 1]
    sets = None
    if (directory / "sets.json").exists():
        sets = _read_json(directory / "sets.json", lambda v: isinstance(v, dict) and all(
            _int_lists(s, 2) for s in v.values()))
    try:
        return DatasetBundle(
            features, SimilarityGraph(n, edges), splits, attributes, categories,
            sets, task=manifest.get("task"),
        )
    except ContractError as exc:
        raise BundleFormatError(f"{directory}: {exc}") from exc
