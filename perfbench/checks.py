"""Correctness oracles for the benchmark's outputs.

Each check compares the program's output with a value computed apart
from it (scipy correlation, a float64 forward, a central difference,
counting and all-pairs distances) or with a property the method must
have, and raises ``CheckFailed`` with what differed. The checks run
outside the timed phase. Tolerances are fixed here, before any run, from
the dtype involved; the margins they leave are in the README.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage, signal

# float32 logits against themselves in another batch layout, and against a
# float64 forward, relative to the largest logit magnitude.
BATCH_REL_TOL = 1e-4
FLOAT64_REL_TOL = 2e-4
# float32 conv output against a float64 scipy correlation, relative to the
# largest output magnitude.
CONV_REL_TOL = 1e-4
# central difference of the float64 loss against the analytic directional
# derivative, relative to the derivative's typical size.
DIRECTIONAL_REL_TOL = 1e-5
DIRECTIONAL_STEP = 1e-5


class CheckFailed(AssertionError):
    pass


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.abs(want).max())
    return float(np.abs(np.asarray(got, np.float64) - want).max()) / max(scale, 1e-30)


# -- inference ----------------------------------------------------------------


def check_labels(label: np.ndarray, shape: tuple[int, int]):
    if label.shape != shape or label.dtype != np.uint8:
        raise CheckFailed(f"label map {label.shape} {label.dtype}, want {shape} uint8")
    if int(label.max()) > 2:
        raise CheckFailed(f"label value {int(label.max())} outside {{0,1,2}}")


def check_logits(logits: np.ndarray, shape: tuple[int, ...]):
    if logits.shape != shape:
        raise CheckFailed(f"logits shape {logits.shape}, want {shape}")
    if not np.isfinite(logits).all():
        raise CheckFailed("non-finite logits")


def check_batch_independence(batch_logits: np.ndarray, single_logits: list[np.ndarray]):
    """An eval-mode forward of a stacked batch equals the per-frame forwards."""
    for i, single in enumerate(single_logits):
        err = _rel_err(batch_logits[i], single[0].astype(np.float64))
        if not err <= BATCH_REL_TOL:
            raise CheckFailed(f"batch member {i} differs from its single-frame "
                              f"forward: rel err {err:.3e} > {BATCH_REL_TOL:.0e}")


def check_float64_agreement(logits32: np.ndarray, logits64: np.ndarray):
    err = _rel_err(logits32, logits64)
    if not err <= FLOAT64_REL_TOL:
        raise CheckFailed(f"float32 logits differ from the float64 forward: "
                          f"rel err {err:.3e} > {FLOAT64_REL_TOL:.0e}")


def reference_conv(x: np.ndarray, weight: np.ndarray, bias, stride, padding,
                   groups: int) -> np.ndarray:
    """float64 cross-correlation by scipy: dense as one 3-d valid
    correlation per output channel (the sum over input channels), depthwise
    as one 2-d correlation per channel."""
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    w = weight.astype(np.float64)
    out = []
    for img in xp:
        if groups == 1:
            chans = [signal.correlate(img, w[o], mode="valid", method="fft")[0]
                     for o in range(w.shape[0])]
        else:
            chans = [signal.correlate(img[o], w[o, 0], mode="valid", method="direct")
                     for o in range(w.shape[0])]
        out.append(np.stack(chans)[:, ::sh, ::sw])
    out = np.stack(out)
    if bias is not None:
        out = out + bias.astype(np.float64)
    return out


def check_conv(x, weight, bias, stride, padding, groups, out: np.ndarray):
    want = reference_conv(x, weight, bias, stride, padding, groups)
    if out.shape != want.shape:
        raise CheckFailed(f"conv2d output {out.shape}, scipy gives {want.shape}")
    err = _rel_err(out, want)
    if not err <= CONV_REL_TOL:
        kind = "depthwise" if groups > 1 else f"dense {weight.shape[2]}x{weight.shape[3]}"
        raise CheckFailed(f"{kind} conv2d (stride {stride[0]}) differs from "
                          f"scipy.signal.correlate: rel err {err:.3e}")


# -- training -----------------------------------------------------------------


def check_losses(loss_values: list[float]):
    vals = np.asarray(loss_values, dtype=np.float64)
    if not np.isfinite(vals).all():
        raise CheckFailed("non-finite training loss")
    if not vals[-1] < vals[0]:
        raise CheckFailed(f"loss did not fall: first {vals[0]:.6f}, last {vals[-1]:.6f}")


def check_directional_derivative(loss_at, grads: dict[str, np.ndarray],
                                 direction: dict[str, np.ndarray]):
    """``loss_at(t)`` is the float64 loss at parameters + t * direction.
    A finite difference must match sum(grad * direction). The scale is the
    larger of |dot| and |grad|/sqrt(#params), the size a unit random
    direction's dot product has, so a direction that happens to be nearly
    orthogonal to the gradient cannot make the test vacuous or flaky.

    The central difference at ``DIRECTIONAL_STEP`` comes first. A PReLU
    zero or a max-pool tie inside the stencil makes the loss piecewise
    smooth there, and a central quotient across it averages two slopes, so
    on failure the check also tries a ten times smaller central step and
    the second-order one-sided quotients on either side, one of which
    stays clear of the kink. A wrong gradient misses all of them."""
    dot = sum(float(np.vdot(grads[n], d)) for n, d in direction.items())
    gnorm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    n_params = sum(d.size for d in direction.values())
    tol = DIRECTIONAL_REL_TOL * max(abs(dot), gnorm / np.sqrt(n_params))
    h = DIRECTIONAL_STEP
    fd = (loss_at(h) - loss_at(-h)) / (2.0 * h)
    if abs(fd - dot) <= tol:
        return fd, dot
    h /= 10.0
    f0, f1, f2 = loss_at(0.0), loss_at(h), loss_at(2.0 * h)
    b1, b2 = loss_at(-h), loss_at(-2.0 * h)
    for est in ((f1 - b1) / (2.0 * h), (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h),
                (3.0 * f0 - 4.0 * b1 + b2) / (2.0 * h)):
        if abs(est - dot) <= tol:
            return est, dot
    raise CheckFailed(f"directional derivative: central difference {fd:.10e} "
                      f"vs analytic {dot:.10e}")


# -- evaluation ---------------------------------------------------------------

_CROSS = ndimage.generate_binary_structure(2, 1)


def boundary(mask: np.ndarray) -> np.ndarray:
    """Mask pixels that erosion by the 4-neighbour cross removes, with the
    outside of the image counting as background."""
    mask = np.asarray(mask, dtype=bool)
    return np.argwhere(mask & ~ndimage.binary_erosion(mask, _CROSS, border_value=0))


def _nearest(src: np.ndarray, dst: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Distance from each src point to its nearest dst point, all pairs."""
    out = np.empty(len(src))
    dst = dst.astype(np.int64)
    for i in range(0, len(src), chunk):
        d = src[i:i + chunk, None, :].astype(np.int64) - dst[None, :, :]
        out[i:i + chunk] = np.sqrt((d * d).sum(axis=2).min(axis=1))
    return out


def brute_force_hd95_px(a: np.ndarray, b: np.ndarray) -> float:
    """95th percentile of the pooled directed boundary distances, linear
    interpolation between order statistics."""
    pa, pb = boundary(a), boundary(b)
    d = np.sort(np.concatenate([_nearest(pa, pb), _nearest(pb, pa)]))
    pos = 0.95 * (len(d) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(d) - 1)
    return float(d[lo] + (d[hi] - d[lo]) * (pos - lo))


def region_scores(pred: np.ndarray, truth: np.ndarray, spacing_mm: float) -> dict:
    """region -> (dsc, iou, hd95 mm or None) by counting and brute force."""
    out = {}
    for region, lo in (("lumen", 2), ("eem", 1)):
        a, b = pred >= lo, truth >= lo
        na, nb, inter = int(a.sum()), int(b.sum()), int((a & b).sum())
        union = na + nb - inter
        dsc = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
        iou = 1.0 if union == 0 else inter / union
        hd = brute_force_hd95_px(a, b) * spacing_mm if na and nb else None
        out[region] = (dsc, iou, hd)
    return out


def check_eval_report(report, preds: list[np.ndarray], samples):
    """Every row and every mean of an evaluate() report equals the value
    recomputed from the predicted maps (same summation order, so exact)."""
    sums = {r: [0.0, 0.0, 0.0, 0] for r in ("lumen", "eem")}
    excluded = 0
    rows = iter(report.rows)
    for pred, s in zip(preds, samples):
        scores = region_scores(pred, s.label, s.spacing_mm)
        excluded += any(hd is None for _, _, hd in scores.values())
        for region, (dsc, iou, hd) in scores.items():
            sid, rname, m = next(rows)
            got = (sid, rname, m.dsc, m.iou, m.hd95_mm)
            if got != (s.id, region, dsc, iou, hd):
                raise CheckFailed(f"{s.id} {region}: evaluate gives "
                                  f"dsc={m.dsc!r} iou={m.iou!r} hd95={m.hd95_mm!r}, "
                                  f"recomputed {dsc!r} {iou!r} {hd!r}")
            acc = sums[region]
            acc[0] += dsc
            acc[1] += iou
            if hd is not None:
                acc[2] += hd
                acc[3] += 1
    n = len(samples)
    want = {"n_samples": n, "hd95_excluded": excluded}
    for region, (dsc, iou, hd, hd_n) in sums.items():
        want[f"{region}_dsc"] = dsc / n
        want[f"{region}_iou"] = iou / n
        want[f"{region}_hd95_mm"] = hd / hd_n if hd_n else float("nan")
    for key, value in want.items():
        got = getattr(report, key)
        if not (got == value or (np.isnan(value) and np.isnan(got))):
            raise CheckFailed(f"report {key} = {got!r}, recomputed {value!r}")


def check_self_score(sample_metrics, samples):
    """A truth map scored against itself: DSC and IoU 1, HD95 0."""
    for s in samples:
        for region, m in sample_metrics(s.label, s.label, s.spacing_mm).items():
            if (m.dsc, m.iou, m.hd95_mm) != (1.0, 1.0, 0.0):
                raise CheckFailed(f"{s.id} {region} against itself: dsc={m.dsc} "
                                  f"iou={m.iou} hd95={m.hd95_mm}")


def check_readback(loaded, generated):
    """Frames read back from PGM are k/255 for integers k within half a
    level of 255 times the generated value; labels are unchanged. The
    2**-15 slack is the float32 rounding of a product below 256, which can
    tip a value lying within it of a half level onto the other side."""
    for got, want in zip(loaded, generated, strict=True):
        k = np.rint(got.frames.astype(np.float64) * 255.0)
        if not np.array_equal(got.frames, k.astype(np.float32) / np.float32(255.0)):
            raise CheckFailed(f"{got.id}: frames read back are not multiples of 1/255")
        off = np.abs(k - want.frames.astype(np.float64) * 255.0).max()
        if not off <= 0.5 + 2.0 ** -15:
            raise CheckFailed(f"{got.id}: frames read back are {off:.4f} levels "
                              "from the generated frames")
        if not np.array_equal(got.label, want.label):
            raise CheckFailed(f"{got.id}: label read back differs")
