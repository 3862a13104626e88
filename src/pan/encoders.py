"""Similarity graphs, and the feature heads over precomputed features:
identity, MLP, and a graph convolutional encoder with symmetric adjacency
normalization, inverted layer dropout, and per-epoch edge dropout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, check_choice, check_range
from .rng import generator


def pair_array(pairs) -> np.ndarray:
    """Index pairs as an int64 array, (0, 2) when empty; an (N, 2) ndarray is
    used as it is."""
    arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    return arr.reshape(-1, 2) if arr.size == 0 else arr


def within_pairs(items) -> np.ndarray:
    """Every unordered pair (items[a], items[b]) with a < b, in that order."""
    items = np.asarray(items, dtype=np.int64)
    r = np.arange(len(items))
    return items[np.argwhere(r[:, None] < r)]  # row-major, like np.triu_indices


_BITS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))  # bit k of a byte


class SimilarityGraph:
    """Undirected graph over n nodes; edges are unordered index pairs, no self-edges.

    Edges live in ``pairs``, one read-only (E, 2) int64 array with i < j in each
    row, sorted and free of duplicates; it is the only edge representation. The
    GCN ``propagation`` operator and the bit table that ``has_edges`` reads are
    built from it on first use and cached.
    """

    __slots__ = ("n", "pairs", "_keys", "_propagation", "_edge_bits")

    def __init__(self, n: int, edges=()):
        n = int(check_range("n", n, 1))
        arr = pair_array(edges)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ContractError(f"edges must be index pairs, got shape {arr.shape}")
        i, j = arr[:, 0], arr[:, 1]
        bad = (i == j) | (i < 0) | (i >= n) | (j < 0) | (j >= n)
        if bad.any():
            first = int(np.argmax(bad))
            a, b = int(i[first]), int(j[first])
            if a == b:
                raise ContractError(f"self-edge ({a}, {a}) is not allowed")
            raise IndexError(f"edge ({a}, {b}) out of range for {n} nodes")
        # np.unique's result without its hash path: keys unlike their left neighbour
        keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
        self._set(n, keys[np.diff(keys, prepend=-1) != 0])

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "SimilarityGraph":
        """A graph from sorted, unique, in-range keys i*n + j with i < j."""
        g = cls.__new__(cls)
        g._set(n, keys)
        return g

    def _set(self, n: int, keys: np.ndarray) -> None:
        self.n = n
        self._keys = keys
        self.pairs = np.stack([keys // n, keys % n], axis=1)
        self._keys.flags.writeable = False
        self.pairs.flags.writeable = False
        self._propagation = None
        self._edge_bits = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        """``pairs`` as a list of tuples, built on each call."""
        return list(zip(self.pairs[:, 0].tolist(), self.pairs[:, 1].tolist()))

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    def has_edges(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether i and j are linked, elementwise over node indices in [0, n),
        arrays or scalars.

        Reads bit k of a table of n*n bits for the key k = i*n + j (i <= j),
        eight keys per byte in ``np.packbits(..., bitorder="little")`` order.
        The table is built on the first call and cached: n*n/8 bytes, 500 KB
        at n = 2000.
        """
        if self._edge_bits is None:
            table = np.zeros((self.n * self.n + 7) // 8, dtype=np.uint8)
            np.bitwise_or.at(table, self._keys >> 3, _BITS.take(self._keys & 7))
            self._edge_bits = table
        keys = np.minimum(i, j) * self.n + np.maximum(i, j)
        return (self._edge_bits.take(keys >> 3) & _BITS.take(keys & 7)) != 0

    def subgraph(self, indices: np.ndarray) -> "SimilarityGraph":
        """The edges among ``indices``, renumbered to positions in ``indices``;
        for ascending ``indices`` the edges keep their order."""
        indices = np.asarray(indices, dtype=np.int64)
        m = len(indices)
        position = np.full(self.n, -1, dtype=np.int64)
        position[indices] = np.arange(m)
        i, j = position.take(self.pairs[:, 0]), position.take(self.pairs[:, 1])
        inside = (i >= 0) & (j >= 0)
        i, j = i[inside], j[inside]
        if m and (np.diff(indices) > 0).all():
            # an ascending renumbering keeps i < j and the edges' sorted order
            return SimilarityGraph._from_keys(m, i * m + j)
        return SimilarityGraph(m, np.stack([i, j], axis=1))

    def propagation(self) -> "Propagation":
        """The GCN operator D^{-1/2} (A + I) D^{-1/2} of this graph, cached."""
        if self._propagation is None:
            self._propagation = Propagation(self)
        return self._propagation

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimilarityGraph)
            and self.n == other.n
            and np.array_equal(self._keys, other._keys)
        )

    def __repr__(self) -> str:
        return f"SimilarityGraph(n={self.n}, edges={self.num_edges})"


class Propagation:
    """The symmetric renormalized adjacency D^{-1/2} (A + I) D^{-1/2} as a
    sparse operator: A + I in CSR order (rows ascending, columns ascending
    within a row) with one weight d_i^{-1/2} d_j^{-1/2} per stored entry.

    Applying it costs O((E + n) d) time and O(E + n) working memory: each
    output column is a segment sum of weighted gathered entries, one segment
    per row of A + I, built one column at a time. The entries are
    exactly those of the dense matrix that the tests build as a reference; only
    the order of the sums differs from a dense product. Entry (i, j) and entry
    (j, i) carry the same weight bit for bit, so the operator is its own
    adjoint. An edgeless graph applies the identity.
    """

    __slots__ = ("n", "cols", "weights", "starts")

    def __init__(self, g: SimilarityGraph):
        n = g.n
        self.n = n
        if g.num_edges == 0:
            self.cols = self.weights = self.starts = None
            return
        i, j = g.pairs[:, 0], g.pairs[:, 1]
        loops = np.arange(n, dtype=np.int64)
        keys = np.sort(np.concatenate([i * n + j, j * n + i, loops * (n + 1)]))
        rows, self.cols = keys // n, keys % n
        degree = np.bincount(rows, minlength=n)
        inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
        self.weights = inv_sqrt[rows] * inv_sqrt[self.cols]
        # every row holds its self-loop, so no segment is empty
        self.starts = np.concatenate([[0], np.cumsum(degree)[:-1]])

    def __call__(self, h: np.ndarray) -> np.ndarray:
        if h.shape[0] != self.n:
            raise DimensionError(f"operator has {self.n} nodes but values have {h.shape[0]} rows")
        if self.cols is None:
            return h.copy()
        out = np.empty(h.shape)
        for out_col, column in zip(out.T, h.T):
            # one column at a time: the gathered entries are O(E), not O(E d)
            entries = column.take(self.cols)
            entries *= self.weights
            np.add.reduceat(entries, self.starts, out=out_col)
        return out


def drop_edges(g: SimilarityGraph, p: float, seed: int) -> SimilarityGraph:
    """Remove each edge independently with probability p; deterministic in seed."""
    check_range("p", p, 0, 1)
    rng = generator(seed, "edge-dropout")
    keep = rng.random(g.num_edges) >= p
    return SimilarityGraph._from_keys(g.n, g._keys[keep])


# ---------------------------------------------------------------------------
# encoder specifications and parameters
# ---------------------------------------------------------------------------

ENCODER_KINDS = ("identity", "mlp", "gcn")
ACTIVATIONS = ("relu", "linear")


@dataclass(frozen=True)
class EncoderSpec:
    kind: str = "identity"                  # one of ENCODER_KINDS
    layer_dims: tuple[int, ...] = ()        # mlp output dims, last is the embedding
    activation: str = "relu"                # one of ACTIVATIONS: gcn layers, mlp hidden layers
    num_layers: int = 2                     # gcn
    hidden_dim: int = 16                    # gcn, output dim of every layer
    layer_dropout_p: float = 0.0
    edge_dropout_p: float = 0.0

    def __post_init__(self):
        check_choice("kind", self.kind, ENCODER_KINDS)
        check_choice("activation", self.activation, ACTIVATIONS)
        if self.kind == "mlp" and not self.layer_dims:
            raise ContractError("mlp encoder needs at least one layer dim")
        if self.kind == "gcn":
            check_range("num_layers", self.num_layers, 1)
        for width in self.dims:
            check_range("hidden_dim" if self.kind == "gcn" else "layer_dims", width, 1)
        check_range("layer_dropout_p", self.layer_dropout_p, 0, 1)
        check_range("edge_dropout_p", self.edge_dropout_p, 0, 1)

    @property
    def dims(self) -> tuple[int, ...]:
        """Each layer's output width, () for identity: the one layer count."""
        if self.kind == "mlp":
            return tuple(self.layer_dims)
        if self.kind == "gcn":
            return (self.hidden_dim,) * self.num_layers
        return ()


def init_encoder_weights(spec: EncoderSpec, d_in: int, seed: int) -> dict[str, np.ndarray]:
    """enc_w{k} per layer, uniform(+-1/sqrt(fan_in)), and zero enc_b{k} for an
    MLP; the identity encoder has no parameters."""
    rng = generator(seed, "encoder-init")
    params = {}
    fan_in = d_in
    for idx, dim in enumerate(spec.dims):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"enc_w{idx}"] = rng.uniform(-bound, bound, size=(fan_in, dim))
        if spec.kind == "mlp":
            params[f"enc_b{idx}"] = np.zeros((1, dim))
        fan_in = dim
    return params


def dropout_masks_for_epoch(
    spec: EncoderSpec, shape_rows: int, seed: int
) -> list[np.ndarray] | None:
    """Pre-scaled inverted-dropout masks, one per GCN layer, or None."""
    if spec.kind != "gcn" or spec.layer_dropout_p <= 0.0:
        return None
    keep = 1.0 - spec.layer_dropout_p
    return [(generator(seed, "layer-dropout", idx).random((shape_rows, dim)) < keep) / keep
            for idx, dim in enumerate(spec.dims)]


def encode_on_tape(
    spec: EncoderSpec,
    x,
    params: dict,
    propagation: Propagation | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> ad.Tensor:
    """The encoder's only forward, over the full feature matrix ``x``: one
    layer per entry of ``spec.dims``, none for identity.

    ``params`` maps enc_w{k} (and enc_b{k} for an MLP) to tensors or arrays.
    On taped parameters the operations are recorded for training; on untaped
    ones this is the evaluation forward. A GCN needs the ``propagation``
    operator of its graph (``SimilarityGraph.propagation()``). ``dropout_masks``
    (see ``dropout_masks_for_epoch``) multiply each layer's output; without
    them no dropout is applied.
    """
    x = x if isinstance(x, ad.Tensor) else ad.Tensor(ad.as_matrix(x))
    gcn = spec.kind == "gcn"
    if gcn and propagation is None:
        raise ContractError("gcn encoder requires a graph propagation operator")
    h, last = x, len(spec.dims) - 1
    for idx in range(len(spec.dims)):
        if gcn:
            h = ad.matmul(ad.self_adjoint(propagation, h), params[f"enc_w{idx}"])
        else:
            h = ad.add_row(ad.matmul(h, params[f"enc_w{idx}"]), params[f"enc_b{idx}"])
        if spec.activation == "relu" and (gcn or idx < last):
            h = ad.relu(h)
        if dropout_masks is not None:
            h = ad.multiply(h, dropout_masks[idx])
    return h
