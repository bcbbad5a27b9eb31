"""Hybrid segmentation objective: focal + soft dice, with auxiliary heads.

Each objective is one recorded op. What depends on the labels alone (the
checks, the one-hot planes and class counts) is computed once per step for
all heads. Per head, one kernel runs the softmax, both terms and the
gradient of their weighted sum one image at a time, so its temporaries
stay in cache; the Dice sums still cover the whole batch. The analytic
gradient branches where p_y -> 1 or gamma -> 0 degenerate instead of
putting pow/log on that path. At batch 8, 128x128, five float32 heads
take about 22 ms forward plus backward, against about 40 ms for one
whole-batch pass per head (2-core Xeon, 1 BLAS thread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, record
from .model import CsdnOutput

DICE_EPS = 1e-5  # smoothing in each Dice ratio's numerator and denominator


@dataclass(frozen=True)
class LossConfig:
    focal_gamma: float = 2.0
    aux_weight: float = 0.4

    def __post_init__(self):
        for key in ("focal_gamma", "aux_weight"):
            value = getattr(self, key)
            if not (value >= 0 and math.isfinite(value)):  # NaN fails too
                raise ValueError(f"{key} must be finite and >= 0")


class _Labels:
    """Everything the objective needs from the labels alone, computed once
    per step for all heads: the one-hot planes, (n, k, h*w) in the heads'
    dtype, the class counts over the batch and which classes are
    present."""

    def __init__(self, labels: np.ndarray, heads: list[Tensor]):
        labels = np.asarray(labels)
        n, k = heads[0].shape[:2]
        for z in heads:
            zn, zk, h, w = z.shape
            if labels.shape != (zn, h, w):
                raise ValueError(f"labels shape {labels.shape} != {(zn, h, w)}")
            if zk != k:
                raise ValueError(f"head has {zk} classes, main head {k}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be an integer index map")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"label values must lie in [0, {k})")
        y = labels.reshape(n, 1, -1)
        self.npix = y.size
        self.onehot = (y == np.arange(k)[:, None]).astype(heads[0].dtype)
        self.gsum = np.bincount(y.ravel(), minlength=k).astype(np.float64)
        self.present = self.gsum > 0
        # a numpy int would promote f32 grads to f64
        self.kept = int(self.present.sum())


def _head(logits: Tensor, lab: _Labels, gamma: float):
    """(focal, dice, grad) of one head, where ``grad(wf, wd)`` is the logit
    gradient of wf*focal + wd*dice. Both passes run one image at a time;
    the Dice sums cover the batch, so the backward starts from the sums the
    forward collected over every image."""
    n, k, h, w = logits.shape
    z = logits.data.reshape(n, k, h * w)
    # the softmax, then the gradient over it: a graph runs backward once
    p = np.empty_like(z)
    lsm_y = np.empty((n, h * w), z.dtype)  # log p_y
    zmax = np.empty(h * w, z.dtype)
    focal, inter, psum = 0.0, np.zeros(k), np.zeros(k)
    for i in range(n):
        pi, ly, g = p[i], lsm_y[i], lab.onehot[i]
        np.max(z[i], axis=0, out=zmax)
        np.subtract(z[i], zmax, out=pi)
        np.einsum("jm,jm->m", g, pi, out=ly)  # shifted z_y
        np.exp(pi, out=pi)
        sumexp = pi.sum(axis=0)
        pi /= sumexp
        ly -= np.log(sumexp, out=sumexp)
        if gamma == 0.0:
            focal -= float(ly.sum())
        else:
            fw = np.expm1(ly)
            np.negative(fw, out=fw)
            fw **= gamma
            focal -= float(np.dot(fw, ly))
        inter += np.einsum("jm,jm->j", g, pi)
        psum += pi.sum(axis=1)
    focal /= lab.npix
    denom = psum + lab.gsum + DICE_EPS
    dice = float(1.0 - ((2.0 * inter + DICE_EPS) / denom)[lab.present].mean())

    def grad(wf: float, wd: float) -> np.ndarray:
        # c (p - onehot) + p (q - s) with q_j = a_j - b_j [j = y] and
        # s = sum_j q_j p_j, taken per class plane j as
        # p_j (t + a_j) - [j = y] (c + b_y p_y),
        # t = c - sum_j a_j p_j + b_y p_y
        qs = np.where(lab.present, (wd / lab.kept) / denom ** 2, 0.0)
        a = ((2.0 * inter + DICE_EPS) * qs).astype(p.dtype)
        b = (2.0 * denom * qs).astype(p.dtype)
        cf = wf / lab.npix
        tmp = np.empty_like(zmax)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                pi, ly, g = p[i], lsm_y[i], lab.onehot[i]
                u = np.exp(ly)
                if gamma == 0.0:
                    c = cf
                else:
                    om_u = -np.expm1(ly)  # 1 - p_y without cancellation near 1
                    c = om_u ** (gamma - 1.0)
                    c *= om_u - gamma * u * ly
                    np.copyto(c, 0.0, where=om_u <= 0.0)
                    c *= cf
                by_u = b @ g
                by_u *= u
                t = c - a @ pi
                t += by_u
                by_u += c
                for j in range(k):
                    pi[j] *= np.add(t, a[j], out=tmp)
                    pi[j] -= np.multiply(g[j], by_u, out=tmp)
        return p.reshape(logits.shape)

    return focal, dice, grad


def _objective(heads: list[Tensor], weights: list[tuple[float, float]],
               labels: np.ndarray, cfg: LossConfig, op: str) -> Tensor:
    """sum over heads of wf*focal + wd*dice, with one (wf, wd) per head, as
    one recorded op."""
    lab = _Labels(labels, heads)
    terms = [_head(z, lab, float(cfg.focal_gamma)) for z in heads]
    value = sum(wf * f + wd * d for (wf, wd), (f, d, _) in zip(weights, terms))
    out = Tensor.scalar(value, dtype=heads[0].dtype)

    def bwd(g):
        s = float(g.reshape(()))
        return tuple(grad(s * wf, s * wd)
                     for (wf, wd), (_, _, grad) in zip(weights, terms))

    return record(out, heads, bwd, op)


def focal_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """Mean per-pixel -(1-p_y)^gamma log p_y over softmax p."""
    return _objective([logits], [(1.0, 0.0)], labels, cfg, "focal_loss")


def dice_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """1 - mean soft dice over classes present in the ground truth.

    Per class, dice = (2 sum(p g) + eps)/(sum p + sum g + eps) with
    eps = DICE_EPS and sums over batch and space; classes with no
    ground-truth pixels are skipped so the mean never divides by a vacuous
    denominator.
    """
    return _objective([logits], [(0.0, 1.0)], labels, cfg, "dice_loss")


def hybrid_loss(out: CsdnOutput, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """focal + dice on the main head, plus aux_weight times the same on
    each auxiliary head (absent in eval mode)."""
    a = float(cfg.aux_weight)
    weights = [(1.0, 1.0)] + [(a, a)] * len(out.aux_logits)
    return _objective([out.main_logits, *out.aux_logits], weights, labels,
                      cfg, "hybrid_loss")
