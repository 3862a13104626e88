"""Per-image binary attributes with missing-label masks, and pairwise label building.

``pan.data`` reads and writes a table as ``attributes.csv``, whose cells are 0,
1 or ``?`` (unlabelled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .rng import generator

FA_CHOICES = ("and", "or", "xor", "xnor", "and_xor")


@dataclass
class AttributeTable:
    values: np.ndarray            # N x M in {0, 1}
    mask: np.ndarray              # N x M in {0, 1}; 0 means unlabelled

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"attribute values must be 2-D, got {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise DimensionError(
                f"mask shape {self.mask.shape} does not match values {self.values.shape}"
            )
        if not np.all(np.isin(self.values, (0.0, 1.0))):
            raise ContractError("attribute values must be 0 or 1")
        if not np.all(np.isin(self.mask, (0.0, 1.0))):
            raise ContractError("attribute mask entries must be 0 or 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass
class PairAttributeLabel:
    labels: np.ndarray  # length M, or 2M for the and_xor concatenation
    mask: np.ndarray    # same length; 1 only where both operands were labelled


def _combine_values(a_i: np.ndarray, a_j: np.ndarray, fa: str) -> np.ndarray:
    if fa == "and":
        return a_i * a_j
    if fa == "or":
        return np.maximum(a_i, a_j)
    if fa == "xor":
        return np.abs(a_i - a_j)
    if fa == "xnor":
        return 1.0 - np.abs(a_i - a_j)
    if fa == "and_xor":
        return np.concatenate([a_i * a_j, np.abs(a_i - a_j)], axis=-1)
    raise ContractError(f"unknown attribute combination {fa!r}; choose from {FA_CHOICES}")


def combine_pair(a_i, mask_i, a_j, mask_j, fa: str) -> PairAttributeLabel:
    """Combine two per-image attribute vectors into one pairwise target.

    The output mask is the AND of the operand masks: a combined label is only
    defined when both images were labelled for that attribute. The and_xor
    variant emits the AND block first, then the XOR block, mask duplicated.
    """
    a_i = np.asarray(a_i, dtype=np.float64).ravel()
    a_j = np.asarray(a_j, dtype=np.float64).ravel()
    mask_i = np.asarray(mask_i, dtype=np.float64).ravel()
    mask_j = np.asarray(mask_j, dtype=np.float64).ravel()
    if not (a_i.shape == a_j.shape == mask_i.shape == mask_j.shape):
        raise DimensionError(
            f"attribute vectors disagree in length: {a_i.shape}, {a_j.shape}, "
            f"{mask_i.shape}, {mask_j.shape}"
        )
    labels = _combine_values(a_i, a_j, fa)
    mask = mask_i * mask_j
    if fa == "and_xor":
        mask = np.concatenate([mask, mask])
    return PairAttributeLabel(labels=labels, mask=mask)


def pair_label_matrix(
    table: AttributeTable, idx_i, idx_j, fa: str
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised combine_pair over index arrays; rows align with the pairs."""
    idx_i = np.asarray(idx_i, dtype=np.int64)
    idx_j = np.asarray(idx_j, dtype=np.int64)
    # take: the rows of fancy indexing, gathered several times faster
    values, mask = table.values, table.mask
    labels = _combine_values(values.take(idx_i, axis=0), values.take(idx_j, axis=0), fa)
    mask = mask.take(idx_i, axis=0) * mask.take(idx_j, axis=0)
    if fa == "and_xor":
        mask = np.concatenate([mask, mask], axis=1)
    return labels, mask


def label_dimension(m: int, fa: str) -> int:
    return 2 * m if fa == "and_xor" else m


def randomize_labels(table: AttributeTable, seed: int) -> AttributeTable:
    """Replace labelled values by fair coin flips; the mask is untouched."""
    rng = generator(seed, "randomize-labels")
    flips = rng.integers(0, 2, size=table.values.shape).astype(np.float64)
    values = np.where(table.mask == 1.0, flips, table.values)
    return AttributeTable(values, table.mask.copy())

