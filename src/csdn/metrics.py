"""Region metrics (DSC, IoU, HD95) and the throughput benchmark.

HD95 follows one fixed convention end to end: boundary pixels are mask
pixels with at least one 4-neighbor outside the mask (image border counts
as outside), distances are center-to-center Euclidean in pixel units,
both directed distance sets are pooled, and the percentile interpolates
linearly between order statistics. The percentile is computed here rather
than through a library call so an independent brute-force implementation
can reproduce the value bit for bit.

Nearest boundary distances come from one matrix of squared distances,
d2 = |p|^2 - 2 p.q + |q|^2, made by a GEMM of [y, x, 1, |p|^2] against
[-2y', -2x', |q|^2, 1] one band of rows at a time; each band gives its
rows' minima and lowers a running column minimum, so both directed sets
come from one pass. Both sets are pooled, so the pair's order is free:
the smaller boundary gives the rows and the larger one lies along each
band, where the row minima run over contiguous memory and a band holds
few rows (a predicted boundary can be several times the true contour).
On masks of side s every product and partial sum is an integer of
magnitude at most 8 (s-1)^2: below 2^24 up to s = F32_SIDE, where the
GEMM runs in float32, and below 2^53 on any larger mask, where it runs in
float64. Either way d2 is exact and its square root is the value an
all-pairs brute force gives, for every pair of masks.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .model import IN_FRAMES, fold_scope

GEMM_BAND_BYTES = 1 << 19  # bytes of the distance matrix filled at a time
F32_SIDE = 1449            # largest mask side with 8 (s-1)^2 < 2^24


def region_masks(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lumen, outer-region) boolean masks from a {0,1,2} index map; the
    outer region is wall plus lumen."""
    label = np.asarray(label)
    if label.ndim != 2:
        raise ValueError(f"label must be 2-d, got shape {label.shape}")
    if label.min() < 0 or label.max() > 2:
        raise ValueError("label values must lie in {0, 1, 2}")
    return label == 2, label >= 1


def _check_pair(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    return a, b


def dsc(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _check_pair(a, b)
    sa, sb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if sa == 0 and sb == 0:
        return 1.0
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / (sa + sb)


def iou(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _check_pair(a, b)
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(a & b)) / union


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """(k, 2) integer coordinates, in row-major order, of the mask pixels
    with an exposed 4-neighbor."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {mask.shape}")
    interior = np.zeros_like(mask)  # the border row and column stay exposed
    interior[1:-1, 1:-1] = (mask[:-2, 1:-1] & mask[2:, 1:-1]
                            & mask[1:-1, :-2] & mask[1:-1, 2:])
    flat = np.flatnonzero(mask & ~interior)
    return np.stack(np.divmod(flat, mask.shape[1]), axis=1)


def percentile_95(values: np.ndarray) -> float:
    """95th percentile with linear interpolation between order statistics."""
    d = np.sort(np.asarray(values, dtype=np.float64))
    if d.size == 0:
        raise ValueError("percentile of an empty set")
    pos = 0.95 * (d.size - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    return float(d[lo] + (d[hi] - d[lo]) * (pos - lo))


def _nearest_sq_gemm(pa: np.ndarray, pb: np.ndarray, dtype):
    """Squared distance from each point of pa to its nearest in pb, and from
    each point of pb to its nearest in pa, as float64, from d2 = |p|^2 -
    2 p.q + |q|^2 in ``dtype``, filled one band of about GEMM_BAND_BYTES
    at a time."""
    lhs = np.column_stack([pa, np.ones(len(pa)), (pa * pa).sum(axis=1)])
    rhs = np.vstack([-2.0 * pb.T, (pb * pb).sum(axis=1), np.ones(len(pb))])
    lhs, rhs = lhs.astype(dtype), rhs.astype(dtype)
    rows = max(1, GEMM_BAND_BYTES // (len(pb) * lhs.itemsize))
    band = np.empty((min(rows, len(pa)), len(pb)), dtype=dtype)
    d2_ab = np.empty(len(pa), dtype=dtype)
    d2_ba = np.full(len(pb), np.inf, dtype=dtype)
    for i in range(0, len(pa), rows):
        part = lhs[i:i + rows]
        d2 = np.matmul(part, rhs, out=band[:len(part)])
        d2.min(axis=1, out=d2_ab[i:i + rows])
        np.minimum(d2_ba, d2.min(axis=0), out=d2_ba)
    return d2_ab.astype(np.float64), d2_ba.astype(np.float64)


def hd95(a: np.ndarray, b: np.ndarray, spacing_mm: float) -> float:
    """95th-percentile symmetric boundary distance in millimeters."""
    a, b = _check_pair(a, b)
    if not a.any() or not b.any():
        raise ValueError("hd95 is undefined for an empty mask")
    # pooled, so the order is free: the smaller set gives the band's rows
    pa, pb = sorted((boundary_pixels(a).astype(np.float64),
                     boundary_pixels(b).astype(np.float64)), key=len)
    dtype = np.float32 if max(a.shape) <= F32_SIDE else np.float64
    d_ab, d_ba = map(np.sqrt, _nearest_sq_gemm(pa, pb, dtype))
    return percentile_95(np.concatenate([d_ab, d_ba])) * spacing_mm


@dataclass
class RegionMetrics:
    dsc: float
    iou: float
    hd95_mm: float | None  # None when the prediction has no pixels


@dataclass
class MetricsReport:
    lumen_dsc: float = 0.0
    lumen_iou: float = 0.0
    lumen_hd95_mm: float = float("nan")
    eem_dsc: float = 0.0
    eem_iou: float = 0.0
    eem_hd95_mm: float = float("nan")
    n_samples: int = 0
    hd95_excluded: int = 0   # samples skipped in hd95 means (empty prediction)
    rows: list = field(default_factory=list)  # (sample_id, region, metrics)

    def summary(self) -> str:
        lines = [
            "region   dsc     iou     hd95_mm",
            f"lumen    {self.lumen_dsc:.4f}  {self.lumen_iou:.4f}  "
            f"{self.lumen_hd95_mm:.4f}",
            f"eem      {self.eem_dsc:.4f}  {self.eem_iou:.4f}  "
            f"{self.eem_hd95_mm:.4f}",
            f"samples  {self.n_samples}",
        ]
        if self.hd95_excluded:
            lines.append(f"warning: {self.hd95_excluded} empty-prediction "
                         "sample(s) excluded from hd95 means")
        return "\n".join(lines)


def sample_metrics(pred_label: np.ndarray, true_label: np.ndarray,
                   spacing_mm: float) -> dict[str, RegionMetrics]:
    out = {}
    for region, pm, tm in zip(("lumen", "eem"), region_masks(pred_label),
                              region_masks(true_label)):
        h = None
        if pm.any() and tm.any():
            h = hd95(pm, tm, spacing_mm)
        out[region] = RegionMetrics(dsc=dsc(pm, tm), iou=iou(pm, tm), hd95_mm=h)
    return out


def label_map(logits: np.ndarray) -> np.ndarray:
    """``logits.argmax(axis=0)`` of finite (C, H, W) logits as uint8, by a
    running max over the class planes; a tie keeps the first class. Each
    class makes one comparison with the running max, and the pixels it
    wins are set to it by uint8 bit operations in that comparison's own
    buffer, so a class adds no other temporary; a masked ``copyto`` runs
    several times slower on a scattered mask."""
    best = logits[0]
    label = np.zeros(best.shape, dtype=np.uint8)
    for k in range(1, len(logits)):
        won = (logits[k] > best).view(np.uint8)  # 1 where k wins
        np.negative(won, out=won)  # 0xff where k wins, else 0
        label |= won               # 0xff where k wins
        won &= ~np.uint8(k)        # 0xff ^ k where k wins
        label ^= won               # k where k wins, else unchanged
        if k + 1 < len(logits):
            best = np.maximum(best, logits[k])
    return label


@contextlib.contextmanager
def eval_mode(model):
    """Run the body with ``model`` in eval mode and no graph recorded. A
    model in training mode is switched once and switched back on the way
    out; one already in eval mode is left alone."""
    was_training = model.training
    if was_training:
        model.eval()
    try:
        with no_grad():
            yield
    finally:
        if was_training:
            model.train()


def predict_label(model, frames: np.ndarray) -> np.ndarray:
    """Argmax class map of an eval-mode forward on one (3, H, W) stack."""
    with eval_mode(model):
        out = model(Tensor(frames[None].astype(model.dtype, copy=False)))
    return label_map(out.main_logits.data[0])


def _mean(values: list[float]) -> float:
    """Plain left-to-right sum over the count (``sum`` compensates from
    Python 3.12 on); NaN for an empty list."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values) if values else float("nan")


def evaluate(model, samples) -> MetricsReport:
    """Mean per-sample metrics over a split, inside one ``fold_scope`` so
    each batch-norm fold is made once per ``evaluate``. Samples whose
    prediction is empty for a region keep their dsc/iou and are dropped
    from that region's hd95 mean, counted in the report."""
    rows = []
    with eval_mode(model), fold_scope():
        for s in samples:
            ms = sample_metrics(predict_label(model, s.frames), s.label,
                                s.spacing_mm)
            rows += [(s.id, region, m) for region, m in ms.items()]
    if not rows:
        raise ValueError("evaluate needs a nonempty split")
    means = {}
    for region in ("lumen", "eem"):
        ms = [m for _, r, m in rows if r == region]  # one per sample
        means[f"{region}_dsc"] = _mean([m.dsc for m in ms])
        means[f"{region}_iou"] = _mean([m.iou for m in ms])
        means[f"{region}_hd95_mm"] = _mean(
            [m.hd95_mm for m in ms if m.hd95_mm is not None])
    excluded = {sid for sid, _, m in rows if m.hd95_mm is None}
    return MetricsReport(**means, n_samples=len(ms),
                         hd95_excluded=len(excluded), rows=rows)


def write_report_csv(path: str, rep: MetricsReport):
    with open(path, "w") as fh:
        fh.write("sample_id,region,dsc,iou,hd95_mm\n")
        for sid, region, m in rep.rows:
            hd = "" if m.hd95_mm is None else f"{m.hd95_mm:.6f}"
            fh.write(f"{sid},{region},{m.dsc:.6f},{m.iou:.6f},{hd}\n")


def fps_benchmark(model, input_hw: tuple[int, int], batch: int = 1,
                  warmup_iters: int = 2, timed_iters: int = 20) -> dict:
    """Eval-mode forward throughput on seed-0 uniform frames, inside one
    ``fold_scope``; wall-clock, single process. The model leaves in the
    mode it came in."""
    if warmup_iters < 1 or timed_iters < 10:
        raise ValueError("need warmup >= 1 and timed iterations >= 10")
    rng = np.random.Generator(np.random.PCG64(0))
    x = Tensor(rng.uniform(0.0, 1.0, size=(batch, IN_FRAMES, *input_hw))
               .astype(model.dtype))
    with eval_mode(model), fold_scope():
        for _ in range(warmup_iters):
            model(x)
        lat = []
        start = time.perf_counter()
        for _ in range(timed_iters):
            t0 = time.perf_counter()
            model(x)
            lat.append((time.perf_counter() - t0) * 1000.0)
        elapsed = time.perf_counter() - start
    lat = np.sort(np.array(lat))
    return {"fps": batch * timed_iters / elapsed,
            "p50_ms": float(np.median(lat)), "p95_ms": percentile_95(lat),
            "batch": batch, "input_hw": tuple(input_hw),
            "iters": timed_iters}
