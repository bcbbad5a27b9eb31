"""Focal and soft-dice objectives against brute-force per-pixel oracles
built on scipy's softmax."""

import numpy as np
import pytest
from scipy.special import log_softmax, softmax

from csdn import losses
from csdn.autodiff import Tensor, backward
from csdn.losses import LossConfig, dice_loss, focal_loss, hybrid_loss
from csdn.model import CsdnOutput


def logits_(rng, n=2, k=3, h=5, w=4):
    return Tensor(rng.normal(scale=2.0, size=(n, k, h, w)))


def labels_(rng, n=2, k=3, h=5, w=4):
    return rng.integers(0, k, size=(n, h, w))


def focal_oracle(z, y, gamma):
    # literal per-pixel loop over the definition
    n, k, h, w = z.shape
    total = 0.0
    for i in range(n):
        for r in range(h):
            for c in range(w):
                p = softmax(z[i, :, r, c])
                py = p[y[i, r, c]]
                total += -(1.0 - py) ** gamma * np.log(py)
    return total / (n * h * w)


def dice_oracle(z, y, eps):
    n, k, h, w = z.shape
    p = softmax(z, axis=1)
    scores = []
    for c in range(k):
        g = (y == c).astype(float)
        if g.sum() == 0:
            continue
        inter = (p[:, c] * g).sum()
        scores.append((2.0 * inter + eps) / (p[:, c].sum() + g.sum() + eps))
    return 1.0 - float(np.mean(scores))


def test_focal_matches_oracle():
    cfg = LossConfig(focal_gamma=2.0)
    for seed in range(6):
        rng = np.random.Generator(np.random.PCG64(seed))
        z, y = logits_(rng), labels_(rng)
        got = focal_loss(z, y, cfg).item()
        want = focal_oracle(z.data, y, 2.0)
        assert got == pytest.approx(want, abs=1e-10)


def test_focal_gamma_variants():
    for gamma in (0.0, 0.5, 1.0, 3.0):
        rng = np.random.Generator(np.random.PCG64(17))
        z, y = logits_(rng), labels_(rng)
        got = focal_loss(z, y, LossConfig(focal_gamma=gamma)).item()
        want = focal_oracle(z.data, y, gamma)
        assert got == pytest.approx(want, abs=1e-10), gamma


def test_focal_gamma_zero_is_cross_entropy():
    cfg = LossConfig(focal_gamma=0.0)
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed + 30))
        z, y = logits_(rng), labels_(rng)
        lsm = log_softmax(z.data, axis=1)
        ce = -np.take_along_axis(lsm, y[:, None], axis=1).mean()
        assert focal_loss(z, y, cfg).item() == pytest.approx(ce, abs=1e-7)


def test_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(40))
    z, y = logits_(rng), labels_(rng)
    cfg = LossConfig()
    f0 = focal_loss(z, y, cfg).item()
    d0 = dice_loss(z, y, cfg).item()
    for c in (100.0, -37.5):
        zs = Tensor(z.data + c)
        assert focal_loss(zs, y, cfg).item() == pytest.approx(f0, abs=1e-6)
        assert dice_loss(zs, y, cfg).item() == pytest.approx(d0, abs=1e-6)


def test_dice_matches_oracle():
    cfg = LossConfig()
    for seed in range(6):
        rng = np.random.Generator(np.random.PCG64(seed + 50))
        z, y = logits_(rng), labels_(rng)
        got = dice_loss(z, y, cfg).item()
        assert got == pytest.approx(dice_oracle(z.data, y, 1e-5), abs=1e-12)


def test_dice_skips_absent_classes():
    rng = np.random.Generator(np.random.PCG64(60))
    z = logits_(rng)
    y = labels_(rng) % 2  # class 2 never appears
    got = dice_loss(z, y, LossConfig()).item()
    assert got == pytest.approx(dice_oracle(z.data, y, 1e-5), abs=1e-12)
    # shoveling probability onto the absent class must still hurt the
    # present-class scores (its mass comes out of their numerators)
    z2 = Tensor(z.data.copy())
    z2.data[:, 2] += 3.0
    assert dice_loss(z2, y, LossConfig()).item() > got


def test_perfect_prediction_is_near_zero():
    rng = np.random.Generator(np.random.PCG64(70))
    y = labels_(rng, n=1, h=8, w=8)
    z = np.zeros((1, 3, 8, 8))
    np.put_along_axis(z, y[:, None], 25.0, axis=1)
    out = CsdnOutput(main_logits=Tensor(z))
    assert hybrid_loss(out, y, LossConfig()).item() < 1e-4


def test_hybrid_weights_aux_heads():
    cfg = LossConfig(aux_weight=0.4)
    rng = np.random.Generator(np.random.PCG64(80))
    main, a1, a2 = logits_(rng), logits_(rng), logits_(rng)
    y = labels_(rng)

    def term(z):
        return focal_loss(z, y, cfg).item() + dice_loss(z, y, cfg).item()

    got = hybrid_loss(CsdnOutput(main_logits=main, aux_logits=[a1, a2]),
                      y, cfg).item()
    want = term(main) + 0.4 * (term(a1) + term(a2))
    assert got == pytest.approx(want, rel=1e-6)
    bare = hybrid_loss(CsdnOutput(main_logits=main), y, cfg).item()
    assert bare == pytest.approx(term(main), rel=1e-6)


def test_hybrid_is_one_op_and_keeps_float32(monkeypatch):
    # the whole objective over five heads is one recorded node, and float32
    # heads get float32 gradients (a numpy integer in the Dice denominator
    # would promote them to float64)
    recorded = []
    record = losses.record
    monkeypatch.setattr(losses, "record",
                        lambda out, inputs, bwd, op: recorded.append(op)
                        or record(out, inputs, bwd, op))
    rng = np.random.Generator(np.random.PCG64(85))
    heads = [Tensor(logits_(rng).data.astype(np.float32), requires_grad=True)
             for _ in range(5)]
    y = labels_(rng)
    loss = hybrid_loss(CsdnOutput(heads[0], heads[1:]), y, LossConfig())
    assert recorded == ["hybrid_loss"]
    backward(loss)
    assert loss.dtype == np.float32
    assert [h.grad.dtype for h in heads] == [np.float32] * 5
    focal_loss(heads[0], y, LossConfig())
    dice_loss(heads[0], y, LossConfig())
    assert recorded == ["hybrid_loss", "focal_loss", "dice_loss"]


# -- the per-batch kernel the per-image one replaced, kept as its oracle -----


def _ref_check_labels(labels, logits):
    labels = np.asarray(labels)
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ValueError(f"labels shape {labels.shape} != {(n, h, w)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be an integer index map")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label values must lie in [0, {k})")
    return labels


def _ref_head(logits, labels, cfg):
    labels = _ref_check_labels(labels, logits)
    n, k, h, w = logits.shape
    npix = n * h * w
    gamma, eps = float(cfg.focal_gamma), losses.DICE_EPS

    onehot = labels[:, None] == np.arange(k).reshape(1, k, 1, 1)
    p = logits.data - logits.data.max(axis=1, keepdims=True)
    lsm_y = (p * onehot).sum(axis=1, keepdims=True)
    np.exp(p, out=p)
    sumexp = p.sum(axis=1, keepdims=True)
    p /= sumexp
    lsm_y -= np.log(sumexp)
    focal_w = 1.0 if gamma == 0.0 else (-np.expm1(lsm_y)) ** gamma
    focal = float((-focal_w * lsm_y).sum() / npix)

    inter = (p * onehot).sum(axis=(0, 2, 3))
    gsum = onehot.sum(axis=(0, 2, 3), dtype=p.dtype)
    denom = p.sum(axis=(0, 2, 3)) + gsum + eps
    present = gsum > 0
    kept = int(present.sum())
    dice = float(1.0 - ((2.0 * inter + eps) / denom)[present].mean())

    def grad(wf, wd):
        u = np.exp(lsm_y)
        if gamma == 0.0:
            bracket = 1.0
        else:
            om_u = -np.expm1(lsm_y)
            with np.errstate(divide="ignore", invalid="ignore"):
                bracket = om_u ** gamma - gamma * u * lsm_y * om_u ** (gamma - 1.0)
            bracket = np.where(om_u <= 0.0, 0.0, bracket)
        c = (wf / npix) * bracket
        qs = np.where(present, (wd / kept) / denom ** 2, 0.0)
        a = ((2.0 * inter + eps) * qs).reshape(1, k, 1, 1)
        b_y = (2.0 * denom * qs)[labels[:, None]]
        s = (p * a).sum(axis=1, keepdims=True) - b_y * u
        np.multiply(p, c - s + a, out=p)
        return np.subtract(p, onehot * (c + b_y * u), out=p)

    return focal, dice, grad


def _ref_objective(heads, weights, labels, cfg):
    """(value, head gradients) of sum over heads of wf*focal + wd*dice."""
    terms = [_ref_head(z, labels, cfg) for z in heads]
    value = sum(wf * f + wd * d for (wf, wd), (f, d, _) in zip(weights, terms))
    return value, [grad(wf, wd) for (wf, wd), (_, _, grad) in zip(weights, terms)]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_hybrid_matches_per_batch_kernel(dtype, tol):
    # value and all five head gradients against the per-batch kernel, with
    # class 2 absent from the labels and one saturated pixel (p_y == 1, the
    # om_u <= 0 branch) in every head
    for n in (1, 3, 8):
        for gamma in (0.0, 0.5, 2.0, 3.0):
            cfg = LossConfig(focal_gamma=gamma, aux_weight=0.4)
            rng = np.random.Generator(np.random.PCG64(n * 100 + int(gamma * 10)))
            z = rng.normal(scale=3.0, size=(5, n, 3, 6, 5))
            y = rng.integers(0, 2, size=(n, 6, 5))
            z[:, 0, :, 0, 0] = (60.0, -60.0, -60.0)
            y[0, 0, 0] = 0
            heads = [Tensor(zi.astype(dtype), requires_grad=True) for zi in z]
            want, want_grads = _ref_objective(
                [Tensor(zi.astype(dtype)) for zi in z],
                [(1.0, 1.0)] + [(0.4, 0.4)] * 4, y, cfg)
            loss = hybrid_loss(CsdnOutput(heads[0], heads[1:]), y, cfg)
            backward(loss)
            case = (n, gamma)
            assert abs(loss.item() - want) <= tol * abs(want), case
            for h, g in zip(heads, want_grads):
                assert h.grad.dtype == dtype
                assert np.abs(h.grad - g).max() <= tol * np.abs(g).max(), case


def test_label_validation():
    z = Tensor.zeros((1, 3, 4, 4), dtype=np.float64)
    cfg = LossConfig()
    with pytest.raises(ValueError, match="labels shape"):
        focal_loss(z, np.zeros((1, 5, 4), dtype=np.int64), cfg)
    with pytest.raises(ValueError, match="integer"):
        focal_loss(z, np.zeros((1, 4, 4)), cfg)
    with pytest.raises(ValueError, match="label values"):
        dice_loss(z, np.full((1, 4, 4), 3, dtype=np.int64), cfg)
    # every head is checked, not only the main one
    small = Tensor.zeros((1, 3, 2, 2), dtype=np.float64)
    with pytest.raises(ValueError, match="labels shape"):
        hybrid_loss(CsdnOutput(z, [z, small]), np.zeros((1, 4, 4), dtype=np.int64), cfg)
    two = Tensor.zeros((1, 2, 4, 4), dtype=np.float64)
    with pytest.raises(ValueError, match="2 classes"):
        hybrid_loss(CsdnOutput(z, [two]), np.zeros((1, 4, 4), dtype=np.int64), cfg)


def test_config_validation():
    for key in ("focal_gamma", "aux_weight"):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                LossConfig(**{key: bad})
    LossConfig(focal_gamma=0.0, aux_weight=0.0)
