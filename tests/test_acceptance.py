"""Acceptance criteria, one test per criterion. Each test records a single
"criterion N PASS/FAIL" line (replayed after the pytest summary) and then
asserts, so a red run still shows the full scoreboard.

Criterion 5 trains a mid-size network for 60 epochs and dominates the
runtime of this module (a few minutes)."""

import math
import re
import time

import numpy as np
from scipy.special import log_softmax

from conftest import record_criterion
from csdn.autodiff import Tensor, no_grad
from csdn.cli import main
from csdn.layers import conv2d, pixel_shuffle, pixel_unshuffle
from csdn.losses import LossConfig, dice_loss, focal_loss, hybrid_loss
from csdn.metrics import dsc, evaluate, hd95, iou
from csdn.model import (CSDN, CsdnOutput, GELayerS2, NetworkConfig, SegHead,
                        StemBlock, count_parameters)
from csdn.phantom import Dataset, generate_dataset
from csdn.serial import load_checkpoint, load_weights, weights_bytes
from csdn.train import TrainConfig, train


def verdict(n, ok, detail):
    line = f"criterion {n} {'PASS' if ok else 'FAIL'}  {detail}"
    record_criterion(line)
    print(line)
    return ok


def rng_(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_criterion_1_parameter_count():
    # design-point accuracy/throughput figures are bound to clinical data
    # and GPU hardware; only the parameter budget is reproducible here
    total = count_parameters(NetworkConfig())

    def cba(i, o, k, groups=1, act=True):
        return o * (i // groups) * k * k + 2 * o + (o if act else 0)

    rng = rng_(0)
    stem_hand = (cba(12, 16, 3) + cba(16, 8, 1) + cba(8, 8, 3)
                 + cba(24, 16, 3))
    e = 24 * 6
    ge_hand = (cba(24, e, 3) + 2 * cba(e, e, 3, groups=e, act=False)
               + cba(e, 48, 1, act=False)
               + cba(24, 24, 3, groups=24, act=False)
               + cba(24, 48, 1, act=False) + 48)
    head_hand = cba(80, 80, 3) + (80 * 12 + 12)
    blocks = (
        ("stem", stem_hand, StemBlock(12, 16, rng)),
        ("ge-s2", ge_hand, GELayerS2(24, 48, 6, rng)),
        ("head", head_hand, SegHead(80, 80, 3, rng)),
    )
    mismatches = [f"{name} hand={hand} module={mod.num_parameters()}"
                  for name, hand, mod in blocks
                  if hand != mod.num_parameters()]
    in_range = 1_540_000 <= total <= 1_880_000

    ok = verdict(1, in_range and not mismatches,
                 f"parameter count {total} in [1540000, 1880000] "
                 f"(target 1706000); 3 sub-block hand counts exact")
    assert ok, (total, mismatches)


def test_criterion_2_gradient_check(capsys):
    tiny = NetworkConfig.tiny()
    n = count_parameters(tiny)
    t0 = time.time()
    rc = main(["gradcheck"])  # defaults: tiny config, tol 1e-4
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    m = re.search(r"overall max_rel_err=(\S+)", out)
    worst = m.group(1) if m else "?"

    ok = verdict(2, rc == 0 and n <= 100_000 and elapsed < 600,
                 f"gradcheck on {n}-param config: worst rel err {worst} "
                 f"(tol 1e-4, f64, incl. end-to-end loss), {elapsed:.0f}s "
                 f"< 600s")
    assert ok, (rc, n, elapsed, out)


def test_criterion_3_structural_invariants():
    failures = []

    rng = rng_(0)
    for i in range(100):
        r = (2, 3, 4)[i % 3]
        c = int(rng.integers(1, 5))
        h = r * int(rng.integers(1, 5))
        w = r * int(rng.integers(1, 5))
        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        y = pixel_shuffle(pixel_unshuffle(Tensor(x), r), r)
        if y.data.dtype != x.dtype or not np.array_equal(y.data, x):
            failures.append(f"shuffle identity broke at r={r} shape={x.shape}")

    net = CSDN(NetworkConfig.tiny(), seed=0)
    net.eval()
    for size in (64, 128, 896):
        with no_grad():
            z = net.downsample(Tensor.zeros((1, 3, size, size)))
            _semantic, taps = net.deep(z)
            detail = net.shallow(z)
        side = size // 16
        want = [side]
        for _ in range(3):
            side = -(-side // 2)
            want.append(side)
        got = [t.shape[2] for t in taps]
        if got != want:
            failures.append(f"taps at {size}: {got} != {want}")
        if z.shape[2] != size // 4 or detail.shape[2] != want[1]:
            failures.append(f"branch resolutions at {size}")

    x = Tensor(rng_(1).normal(size=(1, 6, 8, 8)).astype(np.float32))
    w = Tensor(rng_(2).normal(size=(6, 1, 3, 3)).astype(np.float32))
    base = conv2d(x, w, None, 1, 1, groups=6).data
    bumped = x.data.copy()
    bumped[0, 2] += 1.0
    out = conv2d(Tensor(bumped), w, None, 1, 1, groups=6).data
    changed = [c for c in range(6)
               if not np.array_equal(base[0, c], out[0, c])]
    if changed != [2]:
        failures.append(f"depthwise crosstalk: channels {changed} changed")

    ok = verdict(3, not failures,
                 "shuffle o unshuffle bit-exact (100 tensors, r in 2/3/4); "
                 "tap resolutions hold at 64/128/896; depthwise channels "
                 "independent")
    assert ok, failures


def test_criterion_4_metric_oracles():
    # duplicated from test_metrics: independent all-pairs implementation
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

    rng = rng_(11)
    hd_exact = identity_worst = 0.0
    mismatch = None
    for _ in range(200):
        h, w = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        a = rng.random(size=(h, w)) < 0.3
        b = rng.random(size=(h, w)) < 0.3
        if not (a.any() and b.any()):
            continue
        got, want = hd95(a, b, 0.02), brute_hd95(a, b, 0.02)
        if got != want:
            mismatch = (h, w, got, want)
            break
        hd_exact += 1
        d, j = dsc(a, b), iou(a, b)
        identity_worst = max(identity_worst, abs(d - 2 * j / (1 + j)))

    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0:2, 0:3] = True
    b[1:3, 1:4] = True
    hand_ok = dsc(a, b) == 4 / 12 and iou(a, b) == 2 / 10

    ok = verdict(4, mismatch is None and hand_ok and identity_worst <= 1e-9,
                 f"hd95 == brute force on {hd_exact:.0f} random pairs "
                 f"(exact); dsc/iou hand counts exact; dsc=2iou/(1+iou) "
                 f"worst gap {identity_worst:.1e} <= 1e-9")
    assert ok, (mismatch, hand_ok, identity_worst)


def test_criterion_5_desk_scale_training(tmp_path):
    t0 = time.time()
    data = tmp_path / "ds"
    generate_dataset(str(data), 200, 50, 128, seed=0)
    ds = Dataset.open(str(data))

    cfg = TrainConfig(epochs=60, batch_size=8, lr0=1e-3, lr_step=50,
                      lr_factor=0.5, seed=0, checkpoint_every=5,
                      val_every=5, augment="mild")
    net = CSDN(NetworkConfig.desk(), seed=cfg.seed)
    out = tmp_path / "run"
    train(net, ds, cfg, LossConfig(), str(out), quiet=True)

    best = load_weights(str(out / "best.ckpt"))
    rep = evaluate(best, ds.val)
    minutes = (time.time() - t0) / 60.0

    ok = verdict(5, rep.lumen_dsc >= 0.90 and rep.eem_dsc >= 0.90
                 and rep.lumen_hd95_mm <= 0.20 and rep.eem_hd95_mm <= 0.20
                 and minutes < 45,
                 f"60-epoch run on 200/50 phantoms at 128: val DSC "
                 f"lumen {rep.lumen_dsc:.4f} / eem {rep.eem_dsc:.4f} "
                 f">= 0.90, HD95 {rep.lumen_hd95_mm:.4f} / "
                 f"{rep.eem_hd95_mm:.4f} mm <= 0.20, {minutes:.1f} min < 45")
    assert ok, rep.summary()


def test_criterion_6_loss_identities():
    failures = []
    cfg0 = LossConfig(focal_gamma=0.0)
    for seed in range(5):
        rng = rng_(seed + 60)
        z = Tensor(rng.normal(scale=2.0, size=(2, 3, 6, 5)))
        y = rng.integers(0, 3, size=(2, 6, 5))
        lsm = log_softmax(z.data, axis=1)
        ce = -np.take_along_axis(lsm, y[:, None], axis=1).mean()
        if abs(focal_loss(z, y, cfg0).item() - ce) > 1e-7:
            failures.append(f"gamma=0 vs cross-entropy at seed {seed}")

    y = rng_(70).integers(0, 3, size=(1, 8, 8))
    perfect = np.full((1, 3, 8, 8), 0.0, dtype=np.float64)
    np.put_along_axis(perfect, y[:, None], 25.0, axis=1)
    pt = Tensor(perfect)
    loss = hybrid_loss(CsdnOutput(pt, [pt] * 4), y, LossConfig()).item()
    if loss >= 1e-4:
        failures.append(f"perfect-prediction hybrid loss {loss}")

    rng = rng_(71)
    z = Tensor(rng.normal(scale=2.0, size=(2, 3, 5, 4)))
    y = rng.integers(0, 3, size=(2, 5, 4))
    cfg = LossConfig()
    f0, d0 = focal_loss(z, y, cfg).item(), dice_loss(z, y, cfg).item()
    for c in (100.0, -37.5):
        zs = Tensor(z.data + c)
        if abs(focal_loss(zs, y, cfg).item() - f0) > 1e-6 \
                or abs(dice_loss(zs, y, cfg).item() - d0) > 1e-6:
            failures.append(f"shift invariance broke at +({c})")

    ok = verdict(6, not failures,
                 "focal(gamma=0) == cross-entropy within 1e-7; perfect "
                 f"prediction drives hybrid loss to {loss:.1e} < 1e-4; "
                 "logit shifts move losses < 1e-6")
    assert ok, failures


def test_criterion_7_determinism_and_persistence(tmp_path):
    failures = []
    data = tmp_path / "ds"
    generate_dataset(str(data), 4, 1, 64, seed=0)
    ds = Dataset.open(str(data))

    # batch == split size: each epoch is exactly one optimizer step
    cfg = TrainConfig(epochs=5, batch_size=4, lr0=1e-3, seed=0,
                      val_every=100, checkpoint_every=100, augment="full")
    losses = []
    for _ in range(2):
        net = CSDN(NetworkConfig.micro(), seed=cfg.seed)
        logs = train(net, ds, cfg, LossConfig(), None, quiet=True)
        losses.append([log.loss for log in logs])
    if len(losses[0]) != 5 or losses[0] != losses[1]:
        failures.append(f"first-5-step losses differ: {losses}")

    def run(out, epochs, resume_from=None):
        c = TrainConfig(epochs=epochs, batch_size=4, lr0=1e-3, seed=0,
                        val_every=100, checkpoint_every=1, augment="mild")
        if resume_from is None:
            net = CSDN(NetworkConfig.micro(), seed=c.seed)
        else:
            from csdn.train import resume
            return resume(resume_from, ds, c, LossConfig(), str(out),
                          quiet=True)
        return train(net, ds, c, LossConfig(), str(out), quiet=True)

    straight, split = tmp_path / "straight", tmp_path / "split"
    run(straight, 2)
    run(split, 1)
    run(split, 2, resume_from=str(split / "last.ckpt"))
    net_a, opt_a, tr_a = load_checkpoint(str(straight / "last.ckpt"))
    net_b, opt_b, tr_b = load_checkpoint(str(split / "last.ckpt"))
    if weights_bytes(net_a) != weights_bytes(net_b):
        failures.append("weights diverge after resume")
    if opt_a["step"] != opt_b["step"] or any(
            not np.array_equal(opt_a[k][n], opt_b[k][n])
            for k in ("m", "v") for n in opt_a["m"]):
        failures.append("optimizer moments diverge after resume")
    if (tr_a["epoch"], tr_a["global_step"]) != \
            (tr_b["epoch"], tr_b["global_step"]):
        failures.append("trailer bookkeeping diverges after resume")

    twin = tmp_path / "ds-twin"
    generate_dataset(str(twin), 4, 1, 64, seed=0)
    for p in sorted(data.rglob("*")):
        q = twin / p.relative_to(data)
        if p.is_file() and p.read_bytes() != q.read_bytes():
            failures.append(f"dataset bytes differ at {p.name}")

    ok = verdict(7, not failures,
                 "two seeded runs: first-5-step losses identical; "
                 "save->load->step matches the straight run bit-exactly "
                 "(weights + Adam moments); dataset bytes identical per "
                 "seed")
    assert ok, failures


def test_criterion_8_benchmark_sanity(capsys):
    rc = main(["bench", "--size", "896", "--batch", "1", "--iters", "10",
               "--warmup", "2"])
    out = capsys.readouterr().out
    m = re.search(r"fps: (\S+)  p50: (\S+) ms  p95: (\S+) ms", out)
    fps = p50 = p95 = float("nan")
    if m:
        fps, p50, p95 = (float(g) for g in m.groups())

    ok = verdict(8, rc == 0 and m is not None and fps > 0 and p95 >= p50,
                 f"bench 896x896 batch 1 on the full-size network: "
                 f"{fps:.2f} fps > 0, p95 {p95:.1f} ms >= p50 {p50:.1f} ms "
                 f"(absolute throughput informational)")
    assert ok, (rc, out)
