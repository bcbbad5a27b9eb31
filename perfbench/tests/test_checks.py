"""Each oracle passes on the program's own output and rejects a planted fault."""

import numpy as np
import pytest

from csdn import metrics, phantom, serial
from csdn.autodiff import Tensor
from csdn.losses import LossConfig
from csdn.model import CSDN, NetworkConfig
from perfbench import checks, workloads

SIZE = 64


@pytest.fixture(scope="module")
def samples():
    return [phantom.generate_phantom(s, SIZE, sample_id=f"s{i}")
            for i, s in enumerate(workloads.input_seeds(3, 3))]


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "tiny.weights"
    serial.save_weights(str(path), CSDN(NetworkConfig.tiny(), seed=1))
    return str(path)


def test_label_and_logit_checks_reject_bad_outputs():
    label = np.zeros((8, 8), np.uint8)
    checks.check_labels(label, (8, 8))
    with pytest.raises(checks.CheckFailed):
        checks.check_labels(label + 3, (8, 8))
    with pytest.raises(checks.CheckFailed):
        checks.check_labels(label, (8, 9))
    logits = np.zeros((1, 3, 8, 8), np.float32)
    checks.check_logits(logits, (1, 3, 8, 8))
    logits[0, 1, 2, 2] = np.nan
    with pytest.raises(checks.CheckFailed):
        checks.check_logits(logits, (1, 3, 8, 8))


def test_conv_check_matches_scipy_and_rejects_faults(samples):
    net = CSDN(NetworkConfig.tiny(), seed=1)
    with workloads.first_conv_calls() as convs:
        workloads.forward_logits(net, samples[0].frames[None])
    kinds = {kind for kind, _ in convs}
    assert kinds == {"layers.conv2d_dense3x3", "layers.conv2d_depthwise", "layers.conv2d_1x1"}
    for x, w, b, stride, padding, groups, out in convs.values():
        checks.check_conv(x, w, b, stride, padding, groups, out)
        bad_w = w.copy()
        bad_w[0, 0, 0, 0] += 0.5 * np.abs(w).max()
        with pytest.raises(checks.CheckFailed):
            checks.check_conv(x, bad_w, b, stride, padding, groups, out)
        with pytest.raises(checks.CheckFailed):
            checks.check_conv(x, w, b, stride, padding, groups, np.roll(out, 1, axis=3))


def test_float64_check_rejects_perturbed_conv_weight(tiny_weights, samples):
    x = samples[0].frames[None]
    net32 = serial.load_weights(tiny_weights)
    l64 = workloads.forward_logits(workloads.to_float64(serial.load_weights(tiny_weights)), x)
    checks.check_float64_agreement(workloads.forward_logits(net32, x), l64)
    w = net32.shallow.blocks[0].down.conv.weight.data
    w[0, 0, 1, 1] += 0.2 * np.abs(w).max()
    with pytest.raises(checks.CheckFailed):
        checks.check_float64_agreement(workloads.forward_logits(net32, x), l64)


def test_batch_check_rejects_batch_statistics(samples):
    net = CSDN(NetworkConfig.tiny(), seed=1)
    f = [s.frames[None] for s in samples[:2]]
    singles = [workloads.forward_logits(net, fi) for fi in f]
    batch = np.concatenate(f)
    checks.check_batch_independence(workloads.forward_logits(net, batch), singles)
    net.train()  # batch norm now normalizes with the batch's statistics
    leaky = net(Tensor(batch)).main_logits.data
    with pytest.raises(checks.CheckFailed):
        checks.check_batch_independence(leaky, singles)


def test_loss_check():
    checks.check_losses([3.0, 2.5, 2.0])
    for bad in ([3.0, 3.5], [3.0, np.nan, 2.0]):
        with pytest.raises(checks.CheckFailed):
            checks.check_losses(bad)


def test_directional_derivative_rejects_scaled_gradient(samples):
    net = CSDN(NetworkConfig.micro(), seed=2, dtype=np.float64)
    frames, labels = next(phantom.batches(samples, 3, 0))
    loss_at, grads, direction = workloads.directional_probe(
        net, Tensor(frames.astype(np.float64)), labels, LossConfig(), seed=5)
    checks.check_directional_derivative(loss_at, grads, direction)
    scaled = {n: g * 1.001 for n, g in grads.items()}
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_derivative(loss_at, scaled, direction)


def test_hd95_oracle_equals_program(samples):
    for s in samples:
        a = s.label >= 1
        b = np.roll(a, 3, axis=0)
        assert checks.brute_force_hd95_px(a, b) == metrics.hd95(a, b, 1.0)


def test_eval_report_check_rejects_shifted_prediction(samples):
    net = CSDN(NetworkConfig.tiny(), seed=1)
    report = metrics.evaluate(net, samples)
    preds = [metrics.predict_label(net, s.frames) for s in samples]
    assert all(len(np.unique(p)) > 1 for p in preds)
    checks.check_eval_report(report, preds, samples)
    shifted = [np.roll(p, 1, axis=1) for p in preds]
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_report(report, shifted, samples)


def test_self_score_check_rejects_faulty_percentile(samples, monkeypatch):
    checks.check_self_score(metrics.sample_metrics, samples)
    monkeypatch.setattr(metrics, "percentile_95",
                        lambda d: float(np.percentile(d, 95)) + 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_self_score(metrics.sample_metrics, samples)


def test_readback_check_rejects_changed_frame(samples, tmp_path):
    phantom.save_dataset(str(tmp_path), [], samples, phantom.DEFAULT_SPACING_MM, SIZE)
    loaded = phantom.Dataset.open(str(tmp_path)).val
    checks.check_readback(loaded, samples)
    loaded[1].frames[2, 10, 20] += np.float32(1.0 / 255.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_readback(loaded, samples)
