"""The traced run computes bit-identical outputs, its self times partition
each operation, and the wrappers come off again."""

import numpy as np

from csdn import autodiff, layers, losses, metrics, model, phantom, train
from csdn.autodiff import Tensor
from csdn.model import CSDN, NetworkConfig
from perfbench import workloads
from perfbench.tracing import OP, Tracer


def _outputs(samples):
    """Logits, a labelled prediction, one train step and an evaluate report."""
    net = CSDN(NetworkConfig.tiny(), seed=4)
    logits = workloads.forward_logits(net, samples[0].frames[None])
    label = metrics.predict_label(net, samples[1].frames)
    report = workloads._report_key(metrics.evaluate(net, samples))

    store = net.parameter_store()
    opt = train.Adam(store)
    frames, labels = next(phantom.batches(samples, 2, 7, phantom.AugmentConfig.mild()))
    loss = losses.hybrid_loss(net(Tensor(frames)), labels, losses.LossConfig())
    store.zero_grad()
    opt.step(autodiff.backward(loss, store), 1e-3)
    params = {n: p.data.copy() for n, p in store.items()}
    return logits, label, report, loss.item(), params


def test_traced_outputs_are_bit_identical():
    samples = [phantom.generate_phantom(s, 64, sample_id=f"s{i}")
               for i, s in enumerate(workloads.input_seeds(9, 3))]
    plain = _outputs(samples)
    tracer = Tracer()
    with tracer.installed():
        tracer.begin(OP)
        traced = _outputs(samples)
        tracer.end()
    assert np.array_equal(plain[0], traced[0])
    assert np.array_equal(plain[1], traced[1])
    assert plain[2] == traced[2]
    assert plain[3] == traced[3]
    for name, value in plain[4].items():
        assert np.array_equal(value, traced[4][name]), name

    for span in ("layers.conv2d_dense3x3", "layers.conv2d_bwd", "autodiff.backward",
                 "model.aux_heads", "losses.focal", "train.adam_step",
                 "phantom.augment", "phantom.batch_wait", "metrics.hd95"):
        assert tracer.calls.get(span, 0) > 0, span
    assert tracer.counters["metrics.boundary_px"] > 0
    assert abs(sum(tracer.self_s.values()) - tracer.incl[OP]) < 1e-9


def test_wrappers_are_removed_on_exit():
    before = (layers.conv2d, autodiff.record, model.resize, layers.BatchNorm2d.__call__,
              phantom.Dataset.__dict__["open"], metrics.predict_label)
    with Tracer().installed():
        assert layers.conv2d is not before[0]
    after = (layers.conv2d, autodiff.record, model.resize, layers.BatchNorm2d.__call__,
             phantom.Dataset.__dict__["open"], metrics.predict_label)
    assert all(a is b for a, b in zip(before, after))
