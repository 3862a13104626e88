"""Concept-conditioned similarity: condition scores, relevance weights, final score.

For a pair of feature vectors the module forms the joint representation
``|h_i - h_j|`` and produces M condition scores ``rho`` (sigmoid), M relevance
weights ``omega`` (softmax over the same joint representation), and the final
similarity ``p = rho . omega`` — or ``sum(rho) * (1/M)`` when relevance
weighting is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, check_choice, check_range
from .rng import generator

SUPERVISION_MODES = ("unsupervised", "supervised", "hybrid")


@dataclass(frozen=True)
class CsmConfig:
    m: int
    supervision: str = "unsupervised"
    m_sup: int = 0
    m_unsup: int = 0
    relevance_enabled: bool = True

    def __post_init__(self):
        check_range("m", self.m, 1)
        check_choice("supervision", self.supervision, SUPERVISION_MODES)
        if self.supervision == "hybrid":
            check_range("m_sup", self.m_sup, 1)
            check_range("m_unsup", self.m_unsup, 1)
            if self.m != self.m_sup + self.m_unsup:
                raise ContractError(
                    f"hybrid condition count {self.m} != {self.m_sup} + {self.m_unsup}"
                )

    @property
    def supervised_count(self) -> int:
        """Length of the rho prefix that receives attribute supervision."""
        if self.supervision == "supervised":
            return self.m
        if self.supervision == "hybrid":
            return self.m_sup
        return 0


@dataclass
class CsmOutput:
    rho: np.ndarray    # (M,)
    omega: np.ndarray  # (M,)
    p: float


def init_params(d: int, m: int, seed: int) -> dict[str, np.ndarray]:
    """csm_w1/csm_b1 produce condition scores, csm_w2/csm_b2 relevance logits:
    d x M weights uniform in [-1/sqrt(d), 1/sqrt(d)], 1 x M biases zero.

    With zero biases an untrained model scores identical inputs at exactly 0.5.
    """
    check_range("d", d, 1)
    check_range("m", m, 1)
    rng = generator(seed, "csm-init")
    bound = 1.0 / np.sqrt(d)
    w1 = rng.uniform(-bound, bound, size=(d, m))
    w2 = rng.uniform(-bound, bound, size=(d, m))
    return {"csm_w1": w1, "csm_b1": np.zeros((1, m)), "csm_w2": w2, "csm_b2": np.zeros((1, m))}


def csm_forward(h_i, h_j, params: dict, config: CsmConfig) -> CsmOutput:
    """Score one pair. Symmetric in its two feature arguments bit-for-bit."""
    d, m = params["csm_w1"].shape
    if config.m != m:
        raise ContractError(f"config m={config.m} does not match parameters m={m}")
    h_i = ad.as_matrix(h_i)
    h_j = ad.as_matrix(h_j)
    if h_i.shape != (1, d) or h_j.shape != (1, d):
        raise DimensionError(
            f"feature vectors must have length d={d}, got {h_i.shape} and {h_j.shape}"
        )
    diff = ad.pair_abs_diff(np.concatenate([h_i, h_j]), [0], [1])
    rho, omega, p = csm_on_tape(diff, params, config)
    return CsmOutput(rho=rho.value[0], omega=omega.value[0], p=p.item())


def csm_on_tape(
    diff: ad.Tensor, params: dict, config: CsmConfig
) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """(rho: NxM, omega: NxM, p: Nx1) for a batch of joint representations.

    ``diff`` is |h_i - h_j| per row (``autodiff.pair_abs_diff``); ``params``
    maps csm_w1, csm_b1, csm_w2, csm_b2 to tensors or arrays. This is the
    module's only forward: recorded when its operands are on a tape (training),
    plain values when they are not (validation and evaluation).
    """
    rho = ad.sigmoid(ad.add_row(ad.matmul(diff, params["csm_w1"]), params["csm_b1"]))
    omega = ad.row_softmax(ad.add_row(ad.matmul(diff, params["csm_w2"]), params["csm_b2"]))
    if config.relevance_enabled:
        p = ad.row_sum(ad.multiply(rho, omega))
    else:
        p = ad.scale(ad.row_sum(rho), 1.0 / config.m)
    return rho, omega, p

