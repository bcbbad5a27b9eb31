"""Hybrid segmentation objective: focal + soft dice, with auxiliary heads.

Each objective is one recorded op. Per head, one kernel computes the
softmax, one-hot and label gather once for both terms and gives the
gradient of their weighted sum as one expression; its analytic form
branches where p_y -> 1 or gamma -> 0 degenerate instead of putting
pow/log on that path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, record
from .model import CsdnOutput


@dataclass(frozen=True)
class LossConfig:
    focal_gamma: float = 2.0
    focal_alpha: tuple[float, ...] | None = None  # None = uniform 1.0
    dice_eps: float = 1e-5
    aux_weight: float = 0.4

    def __post_init__(self):
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be >= 0")
        if self.dice_eps <= 0:
            raise ValueError("dice_eps must be > 0")
        if self.focal_alpha is not None and any(a <= 0 for a in self.focal_alpha):
            raise ValueError("focal_alpha entries must be > 0")

    def alpha_vector(self, num_classes: int) -> np.ndarray:
        if self.focal_alpha is None:
            return np.ones(num_classes)
        if len(self.focal_alpha) != num_classes:
            raise ValueError(f"focal_alpha has {len(self.focal_alpha)} entries "
                             f"for {num_classes} classes")
        return np.asarray(self.focal_alpha, dtype=np.float64)


def _check_labels(labels: np.ndarray, logits: Tensor) -> np.ndarray:
    labels = np.asarray(labels)
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ValueError(f"labels shape {labels.shape} != {(n, h, w)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be an integer index map")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label values must lie in [0, {k})")
    return labels


def _head(logits: Tensor, labels: np.ndarray, cfg: LossConfig):
    """(focal, dice, grad) of one head, where ``grad(wf, wd)`` is the logit
    gradient of wf*focal + wd*dice."""
    labels = _check_labels(labels, logits)
    n, k, h, w = logits.shape
    npix = n * h * w
    gamma, eps = float(cfg.focal_gamma), float(cfg.dice_eps)

    onehot = labels[:, None] == np.arange(k).reshape(1, k, 1, 1)
    p = logits.data - logits.data.max(axis=1, keepdims=True)
    lsm_y = (p * onehot).sum(axis=1, keepdims=True)  # shifted z_y, for now
    np.exp(p, out=p)
    sumexp = p.sum(axis=1, keepdims=True)
    p /= sumexp
    lsm_y -= np.log(sumexp)
    a_y = cfg.alpha_vector(k).astype(p.dtype)[labels[:, None]]
    focal_w = 1.0 if gamma == 0.0 else (-np.expm1(lsm_y)) ** gamma
    focal = float((-a_y * focal_w * lsm_y).sum() / npix)

    inter = (p * onehot).sum(axis=(0, 2, 3))
    gsum = onehot.sum(axis=(0, 2, 3), dtype=p.dtype)
    denom = p.sum(axis=(0, 2, 3)) + gsum + eps
    present = gsum > 0
    kept = int(present.sum())  # a numpy int would promote f32 grads to f64
    dice = float(1.0 - ((2.0 * inter + eps) / denom)[present].mean())

    def grad(wf: float, wd: float) -> np.ndarray:
        # c (p - onehot) + p (q - s) with q_j = a_j - b_j [j = y], s = sum_j q_j p_j
        u = np.exp(lsm_y)
        if gamma == 0.0:
            bracket = 1.0
        else:
            om_u = -np.expm1(lsm_y)  # 1 - p_y without cancellation near 1
            with np.errstate(divide="ignore", invalid="ignore"):
                bracket = om_u ** gamma - gamma * u * lsm_y * om_u ** (gamma - 1.0)
            bracket = np.where(om_u <= 0.0, 0.0, bracket)
        c = (wf / npix) * a_y * bracket
        qs = np.where(present, (wd / kept) / denom ** 2, 0.0)
        a = ((2.0 * inter + eps) * qs).reshape(1, k, 1, 1)
        b_y = (2.0 * denom * qs)[labels[:, None]]
        s = (p * a).sum(axis=1, keepdims=True) - b_y * u
        np.multiply(p, c - s + a, out=p)  # over p: a graph runs backward once
        return np.subtract(p, onehot * (c + b_y * u), out=p)

    return focal, dice, grad


def _objective(heads: list[Tensor], weights: list[tuple[float, float]],
               labels: np.ndarray, cfg: LossConfig, op: str) -> Tensor:
    """sum over heads of wf*focal + wd*dice, with one (wf, wd) per head, as
    one recorded op."""
    terms = [_head(z, labels, cfg) for z in heads]
    value = sum(wf * f + wd * d for (wf, wd), (f, d, _) in zip(weights, terms))
    out = Tensor.scalar(value, dtype=heads[0].dtype)

    def bwd(g):
        s = float(g.reshape(()))
        return tuple(grad(s * wf, s * wd)
                     for (wf, wd), (_, _, grad) in zip(weights, terms))

    return record(out, heads, bwd, op)


def focal_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """Mean per-pixel -alpha_y (1-p_y)^gamma log p_y over softmax p."""
    return _objective([logits], [(1.0, 0.0)], labels, cfg, "focal_loss")


def dice_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """1 - mean soft dice over classes present in the ground truth.

    Per class, dice = (2 sum(p g) + eps)/(sum p + sum g + eps) with sums
    over batch and space; classes with no ground-truth pixels are skipped
    so the mean never divides by a vacuous denominator.
    """
    return _objective([logits], [(0.0, 1.0)], labels, cfg, "dice_loss")


def hybrid_loss(out: CsdnOutput, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """focal + dice on the main head, plus aux_weight times the same on
    each auxiliary head (absent in eval mode)."""
    a = float(cfg.aux_weight)
    weights = [(1.0, 1.0)] + [(a, a)] * len(out.aux_logits)
    return _objective([out.main_logits, *out.aux_logits], weights, labels,
                      cfg, "hybrid_loss")
