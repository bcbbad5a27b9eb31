"""Overlap and boundary-distance metrics against an all-pairs brute-force
implementation, plus report assembly and the throughput probe."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from csdn.autodiff import Tensor, no_grad
from csdn import metrics, model
from csdn.layers import BatchNorm2d
from csdn.metrics import (MetricsReport, boundary_pixels, dsc, evaluate,
                          fps_benchmark, hd95, iou, label_map, percentile_95,
                          predict_label, region_masks, sample_metrics,
                          write_report_csv)
from csdn.model import CSDN, CsdnOutput, NetworkConfig, SegHead
from csdn.phantom import generate_phantom


# -- brute-force oracle -------------------------------------------------------


def brute_boundary(mask):
    h, w = mask.shape
    pts = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or not mask[ny, nx]:
                    pts.append((y, x))
                    break
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


def brute_hd95(a, b, spacing):
    pa, pb = brute_boundary(a), brute_boundary(b)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    pooled = np.concatenate([np.sqrt(d2.min(axis=1)),
                             np.sqrt(d2.min(axis=0))])
    d = np.sort(pooled)
    pos = 0.95 * (d.size - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return float(d[lo] + (d[hi] - d[lo]) * (pos - lo)) * spacing


def random_mask(rng, h, w, p=0.3):
    while True:
        m = rng.random(size=(h, w)) < p
        if m.any():
            return m


def disc(h, w, cy, cx, r):
    yy, xx = np.mgrid[:h, :w]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


# -- dsc / iou ----------------------------------------------------------------


def test_dsc_iou_hand_counts():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0:2, 0:3] = True          # 6 pixels
    b[1:3, 1:4] = True          # 6 pixels, overlap = {(1,1),(1,2)} = 2
    assert dsc(a, b) == 2.0 * 2 / 12
    assert iou(a, b) == 2 / 10
    assert dsc(a, a) == 1.0 and iou(a, a) == 1.0


def test_dsc_iou_empty_and_mismatch():
    e = np.zeros((3, 3), dtype=bool)
    assert dsc(e, e) == 1.0
    assert iou(e, e) == 1.0
    assert dsc(e, ~e) == 0.0
    with pytest.raises(ValueError, match="shapes differ"):
        dsc(e, np.zeros((3, 4), dtype=bool))


def test_dsc_iou_identity():
    # dsc = 2 iou / (1 + iou) for any mask pair
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = random_mask(rng, 12, 12)
        b = random_mask(rng, 12, 12)
        assert dsc(a, b) == pytest.approx(2 * iou(a, b) / (1 + iou(a, b)),
                                          abs=1e-9)


# -- boundaries and percentile ------------------------------------------------


def test_boundary_pixels_ring():
    m = np.zeros((5, 5), dtype=bool)
    m[1:4, 1:4] = True
    got = {tuple(p) for p in boundary_pixels(m)}
    want = {(y, x) for y in range(1, 4) for x in range(1, 4)} - {(2, 2)}
    assert got == want


def test_boundary_pixels_border_counts_as_outside():
    full = np.ones((4, 5), dtype=bool)
    got = {tuple(p) for p in boundary_pixels(full)}
    want = {(y, x) for y in range(4) for x in range(5)
            if y in (0, 3) or x in (0, 4)}
    assert got == want
    single = np.zeros((3, 3), dtype=bool)
    single[1, 1] = True
    assert [tuple(p) for p in boundary_pixels(single)] == [(1, 1)]


def test_boundary_pixels_match_brute_force_in_order():
    rng = np.random.Generator(np.random.PCG64(7))
    shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (7, 2), (3, 3)]
    shapes += [tuple(int(v) for v in rng.integers(1, 24, size=2))
               for _ in range(23)]
    for i, (h, w) in enumerate(shapes):
        mask = rng.random(size=(h, w)) < (0.2, 0.5, 0.9)[i % 3]
        got = boundary_pixels(mask)
        assert got.shape == (len(got), 2)
        # row-major order, like the scan of the brute force
        assert np.array_equal(got, brute_boundary(mask)), (h, w)
    assert boundary_pixels(np.zeros((4, 4), dtype=bool)).shape == (0, 2)
    with pytest.raises(ValueError, match="2-d"):
        boundary_pixels(np.ones((2, 3, 3), dtype=bool))


def test_percentile_95_hand_cases():
    assert percentile_95(np.arange(101.0)) == 95.0
    assert percentile_95(np.array([0.0, 1.0])) == pytest.approx(0.95)
    assert percentile_95(np.array([7.0])) == 7.0
    with pytest.raises(ValueError, match="empty"):
        percentile_95(np.array([]))


def test_percentile_95_matches_numpy():
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.normal(size=int(rng.integers(1, 50)))
        assert percentile_95(v) == pytest.approx(np.percentile(v, 95),
                                                 abs=1e-12)


# -- hd95 ---------------------------------------------------------------------


def test_hd95_hand_cases():
    a = np.zeros((8, 8), dtype=bool)
    b = np.zeros((8, 8), dtype=bool)
    a[0, 0] = True
    b[3, 4] = True              # 3-4-5 triangle
    assert hd95(a, b, 0.02) == pytest.approx(5.0 * 0.02)
    assert hd95(a, a, 0.02) == 0.0

    c = np.zeros((4, 4), dtype=bool)
    d = np.zeros((4, 4), dtype=bool)
    c[0, 0] = c[0, 1] = True
    d[0, 0] = True
    # pooled sorted distances [0, 0, 1]; pos 1.9 -> 0.9
    assert hd95(c, d, 1.0) == pytest.approx(0.9)


def test_hd95_empty_mask_raises():
    a = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValueError, match="empty mask"):
        hd95(a, np.zeros((4, 4), dtype=bool), 0.02)


def hd95_cases():
    """(a, b) mask pairs: random masks up to 20x20, a disc contour against
    noise up to 64x64, and single-row, single-column and 1x1 masks."""
    for seed in range(60):
        rng = np.random.Generator(np.random.PCG64(seed))
        h = int(rng.integers(2, 20))
        w = int(rng.integers(2, 20))
        yield random_mask(rng, h, w), random_mask(rng, h, w)
    for seed, n in enumerate((9, 24, 40, 64)):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        yield disc(n, n, n / 2, n / 2 - 1, n / 3), random_mask(rng, n, n, 0.1)
    rng = np.random.Generator(np.random.PCG64(200))
    for h, w in ((1, 13), (11, 1), (1, 1), (1, 2), (2, 1)):
        yield random_mask(rng, h, w, 0.5), random_mask(rng, h, w, 0.5)


@pytest.mark.parametrize("f32_side, band", [
    pytest.param(metrics.F32_SIDE, metrics.GEMM_BAND_BYTES, id="gemm"),
    pytest.param(metrics.F32_SIDE, 1, id="gemm-one-row-bands"),
    pytest.param(0, metrics.GEMM_BAND_BYTES, id="float64"),
])
def test_hd95_matches_brute_force_exactly(monkeypatch, f32_side, band):
    monkeypatch.setattr(metrics, "F32_SIDE", f32_side)
    monkeypatch.setattr(metrics, "GEMM_BAND_BYTES", band)
    for i, (a, b) in enumerate(hd95_cases()):
        got = hd95(a, b, 0.02)
        want = brute_hd95(a, b, 0.02)
        assert got == want, (i, a.shape)
        assert hd95(b, a, 0.02) == got  # pooling makes it symmetric


def test_hd95_float32_gemm_is_exact_up_to_its_side_bound(monkeypatch):
    # single pixels in the corners give the largest d2 (corner to corner)
    # and the largest partial sums (far corner against far corner); one
    # pixel past the bound, the GEMM runs in float64
    dtypes = []
    gemm = metrics._nearest_sq_gemm

    def spy(pa, pb, dtype):
        dtypes.append(dtype)
        return gemm(pa, pb, dtype)

    monkeypatch.setattr(metrics, "_nearest_sq_gemm", spy)
    for side in (metrics.F32_SIDE, metrics.F32_SIDE + 1):
        e = side - 1
        pa = np.array([(0, 0), (0, 1), (e, e)], dtype=np.float64)
        pb = np.array([(0, e), (e - 1, e), (e, 0), (e, e)], dtype=np.float64)
        masks = []
        for pts in (pa, pb):
            m = np.zeros((side, side), dtype=bool)
            m[tuple(pts.T.astype(int))] = True
            masks.append(m)
        d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        want = percentile_95(np.concatenate(
            [np.sqrt(d2.min(axis=1)), np.sqrt(d2.min(axis=0))])) * 0.02
        assert hd95(*masks, 0.02) == want
    assert dtypes == [np.float32, np.float64]


def test_hd95_gives_the_gemm_the_smaller_set_as_rows(monkeypatch):
    shapes = []
    gemm = metrics._nearest_sq_gemm

    def spy(pa, pb, dtype):
        shapes.append((len(pa), len(pb)))
        return gemm(pa, pb, dtype)

    monkeypatch.setattr(metrics, "_nearest_sq_gemm", spy)
    small, large = disc(64, 64, 30, 33, 6), disc(64, 64, 32, 30, 20)
    n_small, n_large = len(boundary_pixels(small)), len(boundary_pixels(large))
    assert n_small < n_large
    assert hd95(small, large, 0.02) == brute_hd95(small, large, 0.02)
    assert hd95(large, small, 0.02) == brute_hd95(large, small, 0.02)
    assert shapes == [(n_small, n_large)] * 2


# hd95 of two saved masks, printed as a hex float
_HD95_CHILD = """import sys
import numpy as np
from csdn.metrics import hd95
print(hd95(np.load(sys.argv[1]), np.load(sys.argv[2]), 1.0).hex())
"""


def test_hd95_is_exact_on_the_noisy_lumen_that_crashed_kd_trees(tmp_path):
    # a random-init desk net's lumen (4,422 boundary points) against a
    # disc (564): 2.5e6 pairs, above the 2^21 where hd95 once switched to
    # cKDTree, whose build segfaulted on these points under the DAZ that
    # importing csdn sets; a child process runs hd95, so a crash fails
    # the test instead of ending pytest
    net = CSDN(NetworkConfig.desk(), seed=21)
    lumen = region_masks(predict_label(
        net, generate_phantom(21004, 256).frames))[0]
    ring = disc(256, 256, 128, 128, 100)
    assert (len(boundary_pixels(lumen)), len(boundary_pixels(ring))) \
        == (4422, 564)
    paths = [str(tmp_path / "lumen.npy"), str(tmp_path / "disc.npy")]
    np.save(paths[0], lumen)
    np.save(paths[1], ring)
    src = os.path.dirname(os.path.dirname(metrics.__file__))
    proc = subprocess.run([sys.executable, "-c", _HD95_CHILD, *paths],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert float.fromhex(proc.stdout) == brute_hd95(lumen, ring, 1.0)


# -- label decomposition ------------------------------------------------------


def test_region_masks():
    label = np.array([[0, 1], [2, 1]])
    lum, outer = region_masks(label)
    assert np.array_equal(lum, [[False, False], [True, False]])
    assert np.array_equal(outer, [[False, True], [True, True]])
    with pytest.raises(ValueError, match="2-d"):
        region_masks(np.zeros((2, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="values"):
        region_masks(np.array([[3]]))


def test_sample_metrics_empty_prediction():
    pred = np.zeros((8, 8), dtype=np.uint8)      # predicts background only
    true = np.zeros((8, 8), dtype=np.uint8)
    true[2:6, 2:6] = 1
    true[3:5, 3:5] = 2
    ms = sample_metrics(pred, true, 0.02)
    assert ms["lumen"].hd95_mm is None
    assert ms["eem"].hd95_mm is None
    assert ms["lumen"].dsc == 0.0 and ms["eem"].iou == 0.0


# -- model-facing helpers -----------------------------------------------------


class ConstModel:
    """Forward stub: fixed winning class everywhere; logs each mode switch."""

    def __init__(self, class_id):
        self.class_id = class_id
        self.training = True
        self.dtype = np.float32
        self.switches = []

    def train(self, flag=True):
        self.switches.append("train" if flag else "eval")
        self.training = flag
        return self

    def eval(self):
        return self.train(False)

    def __call__(self, x):
        n, _, h, w = x.shape
        z = np.zeros((n, 3, h, w), dtype=np.float32)
        z[:, self.class_id] = 5.0
        return CsdnOutput(main_logits=Tensor(z))


def test_predict_label_argmax_and_flag_restore():
    model = ConstModel(2)
    frames = np.zeros((3, 32, 32), dtype=np.float32)
    out = predict_label(model, frames)
    assert out.dtype == np.uint8
    assert np.all(out == 2)
    assert model.training  # entered training, restored after the eval pass
    assert model.switches == ["eval", "train"]
    model.eval()
    model.switches.clear()
    predict_label(model, frames)
    assert not model.training and model.switches == []


def test_evaluate_switches_mode_once_and_restores_it():
    samples = [generate_phantom(s, 64, sample_id=f"m{s}") for s in range(3)]
    model = ConstModel(2)
    evaluate(model, samples)
    assert model.training and model.switches == ["eval", "train"]

    class FailsOnSecond(ConstModel):
        calls = 0

        def __call__(self, x):
            assert not self.training
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("forward failed")
            return super().__call__(x)

    model = FailsOnSecond(2)
    with pytest.raises(RuntimeError, match="forward failed"):
        evaluate(model, samples)
    assert model.training and model.switches == ["eval", "train"]


def test_predict_and_evaluate_leave_the_frames_alone():
    # predict_label hands the net the caller's frames, not a copy, so no op
    # of an eval forward may write into its input
    class Spy(ConstModel):
        def __call__(self, x):
            self.input = x.data
            return super().__call__(x)

    spy = Spy(1)
    frames = generate_phantom(30, 64, sample_id="f").frames
    predict_label(spy, frames)
    assert np.shares_memory(spy.input, frames)
    net = CSDN(NetworkConfig.micro(), seed=0)
    samples = [generate_phantom(s + 30, 64, sample_id=f"f{s}")
               for s in range(2)]
    kept = [s.frames.copy() for s in samples]
    predict_label(net, samples[0].frames)
    evaluate(net, samples)
    for s, k in zip(samples, kept):
        assert s.frames.dtype == net.dtype
        assert s.frames.tobytes() == k.tobytes()


def in_order_report(model, samples):
    """(means, n_samples, hd95_excluded) from a loop that adds each
    sample's metrics in split order, as ``repr`` so NaN compares equal."""
    sums = {r: {"dsc": 0.0, "iou": 0.0, "hd": 0.0, "hd_n": 0}
            for r in ("lumen", "eem")}
    excluded = set()
    for s in samples:
        ms = sample_metrics(predict_label(model, s.frames), s.label,
                            s.spacing_mm)
        for region, m in ms.items():
            sums[region]["dsc"] += m.dsc
            sums[region]["iou"] += m.iou
            if m.hd95_mm is None:
                excluded.add(s.id)
            else:
                sums[region]["hd"] += m.hd95_mm
                sums[region]["hd_n"] += 1
    means = [v for r in ("lumen", "eem") for v in (
        sums[r]["dsc"] / len(samples), sums[r]["iou"] / len(samples),
        sums[r]["hd"] / sums[r]["hd_n"] if sums[r]["hd_n"] else math.nan)]
    return repr((means, len(samples), len(excluded)))


def report_key(rep):
    return repr(([rep.lumen_dsc, rep.lumen_iou, rep.lumen_hd95_mm,
                  rep.eem_dsc, rep.eem_iou, rep.eem_hd95_mm],
                 rep.n_samples, rep.hd95_excluded))


def test_evaluate_folds_each_block_once_and_clears_the_memo(monkeypatch):
    net = CSDN(NetworkConfig.micro(), seed=0)
    samples = [generate_phantom(s + 40, 64, sample_id=f"b{s}")
               for s in range(3)]
    folded, memos = [], []
    eval_affine = BatchNorm2d.eval_affine

    def spy(self):
        folded.append(self)
        memos.append(model._folds)
        return eval_affine(self)

    monkeypatch.setattr(BatchNorm2d, "eval_affine", spy)
    predict_label(net, samples[0].frames)
    per_forward = folded[:]
    # every conv+BN block that eval runs, once; the aux heads never run
    blocks = [n for n, _ in net.named_buffers()
              if n.endswith(".bn.running_mean") and not n.startswith("aux")]
    assert len(per_forward) == len(set(per_forward)) == len(blocks)
    # a lone predict_label keeps no memo: each block runs once
    assert memos == [None] * len(blocks)
    folded.clear()
    rep = evaluate(net, samples)
    assert folded == per_forward  # once per evaluate, not once per sample
    assert model._folds is None

    # so does fps_benchmark, over its warm-up and timed iterations
    folded.clear()
    fps_benchmark(net, (64, 64), warmup_iters=2, timed_iters=10)
    assert folded == per_forward
    assert model._folds is None and net.training

    # outside any scope, an eval_mode forward (no graph) folds on every call
    folded.clear()
    with metrics.eval_mode(net):
        net(Tensor(samples[0].frames[None]))
        net(Tensor(samples[0].frames[None]))
    assert net.training
    assert folded == per_forward * 2

    # the report is the one a sample-by-sample loop gives, bit for bit
    rows = [(s.id, region, m) for s in samples
            for region, m in sample_metrics(predict_label(net, s.frames),
                                            s.label, s.spacing_mm).items()]
    assert repr(rep.rows) == repr(rows)
    assert report_key(rep) == in_order_report(net, samples)

    def fails(self, x, target_hw):
        raise RuntimeError("forward failed")

    folded.clear()
    monkeypatch.setattr(SegHead, "__call__", fails)
    with pytest.raises(RuntimeError, match="forward failed"):
        evaluate(net, samples)
    assert folded and model._folds is None
    assert net.training


@pytest.mark.parametrize("classes", [1, 2, 3, 5])
def test_label_map_matches_argmax_with_planted_ties(monkeypatch, classes):
    maxima = []
    maximum = np.maximum

    def counted(*args, **kwargs):
        maxima.append(1)
        return maximum(*args, **kwargs)

    monkeypatch.setattr(np, "maximum", counted)
    rng = np.random.Generator(np.random.PCG64(classes))
    logits = rng.normal(size=(classes, 12, 16)).astype(np.float32)
    pairs = [(a, b) for a in range(classes) for b in range(a + 1, classes)]
    for i, (a, b) in enumerate(pairs):
        # a and b tie for the maximum at one pixel, and below it at the next
        logits[:, i, 0] = -1.0
        logits[[a, b], i, 0] = 2.0
        logits[:, i, 1] = 0.0
        logits[[a, b], i, 1] = -1.0
    logits[:, -1, -1] = 0.5  # every class equal
    got = label_map(logits)
    assert len(maxima) == max(0, classes - 2)  # none after the last class
    assert got.dtype == np.uint8
    assert np.array_equal(got, logits.argmax(axis=0))
    for i, (a, _b) in enumerate(pairs):
        assert got[i, 0] == a
    assert got[-1, -1] == 0


class CyclingModel(ConstModel):
    """Forward stub whose winning class steps through ``classes``."""

    def __init__(self, classes):
        super().__init__(classes[0])
        self.classes, self.calls = classes, 0

    def __call__(self, x):
        self.class_id = self.classes[self.calls % len(self.classes)]
        self.calls += 1
        return super().__call__(x)


def test_evaluate_counts_empty_prediction_samples():
    samples = [generate_phantom(s, 64, sample_id=f"p{s}") for s in range(3)]
    rep = evaluate(ConstModel(0), samples)
    assert rep.n_samples == 3
    assert len(rep.rows) == 6
    assert rep.hd95_excluded == 3
    assert math.isnan(rep.lumen_hd95_mm)
    assert rep.lumen_dsc == 0.0
    assert "excluded from hd95" in rep.summary()
    assert report_key(rep) == in_order_report(ConstModel(0), samples)
    # empty lumen (class 1) and empty lumen and eem (class 0) among full ones
    samples = [generate_phantom(s, 64, sample_id=f"c{s}") for s in range(7)]
    rep = evaluate(CyclingModel([2, 0, 1, 2]), samples)
    assert rep.hd95_excluded == 4
    assert report_key(rep) == in_order_report(CyclingModel([2, 0, 1, 2]),
                                              samples)


def test_evaluate_full_prediction_hits_every_region():
    samples = [generate_phantom(s + 10, 64, sample_id=f"q{s}")
               for s in range(2)]
    rep = evaluate(ConstModel(2), samples)
    assert rep.hd95_excluded == 0
    assert rep.lumen_hd95_mm > 0.0
    assert 0.0 < rep.lumen_dsc < 1.0
    assert rep.summary().splitlines()[0] == "region   dsc     iou     hd95_mm"
    with pytest.raises(ValueError, match="nonempty"):
        evaluate(ConstModel(2), [])


def test_write_report_csv(tmp_path):
    samples = [generate_phantom(20, 64, sample_id="r0")]
    rep = evaluate(ConstModel(0), samples)
    path = str(tmp_path / "m.csv")
    write_report_csv(path, rep)
    lines = open(path).read().splitlines()
    assert lines[0] == "sample_id,region,dsc,iou,hd95_mm"
    assert len(lines) == 3
    sid, region, d, i, h = lines[1].split(",")
    assert sid == "r0" and region in ("lumen", "eem")
    assert h == ""  # empty prediction leaves the distance blank
    float(d), float(i)


# -- throughput ---------------------------------------------------------------


def test_fps_benchmark_guards_and_stats():
    net = CSDN(NetworkConfig.micro(), seed=0)
    with pytest.raises(ValueError, match="timed iterations"):
        fps_benchmark(net, (32, 32), timed_iters=5)
    with pytest.raises(ValueError, match="warmup"):
        fps_benchmark(net, (32, 32), warmup_iters=0)
    assert net.training
    res = fps_benchmark(net, (32, 32), warmup_iters=1, timed_iters=10)
    assert net.training
    assert res["fps"] > 0.0
    assert res["p95_ms"] >= res["p50_ms"] > 0.0
    assert res["iters"] == 10
    assert res["input_hw"] == (32, 32)
