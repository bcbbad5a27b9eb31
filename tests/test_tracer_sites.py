"""The benchmark's tracer (perfbench/tracing.py) patches csdn functions
and methods where their callers look them up, by name: a rename in the
package must not leave one of those names dangling. The benchmark's
float64 reference net is pinned to the package's float64 build too."""

import sys
from pathlib import Path

import numpy as np

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from csdn import layers, metrics, phantom  # noqa: E402
from csdn.model import CSDN, NetworkConfig  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def test_tracer_installs_on_every_call_site_and_comes_off():
    conv2d, dataset_open = layers.conv2d, phantom.Dataset.__dict__["open"]
    with Tracer().installed():
        assert layers.conv2d is not conv2d
    assert layers.conv2d is conv2d
    assert phantom.Dataset.__dict__["open"] is dataset_open


def test_traced_evaluate_opens_the_metric_and_conv_spans():
    # the spans behind the eval workload's per-layer hd95 and conv timings
    net = CSDN(NetworkConfig.micro(), seed=0)
    sample = phantom.generate_phantom(1, 64, sample_id="s")
    tracer = Tracer()
    with tracer.installed():
        metrics.evaluate(net, [sample])
    for name in ("metrics.hd95", "layers.conv2d_dense3x3",
                 "layers.conv2d_depthwise", "layers.conv2d_1x1"):
        assert tracer.calls.get(name, 0) > 0, name
    assert tracer.counters["metrics.boundary_px"] > 0


def test_float64_net_is_the_benchmarks_widened_float32_net():
    # the benchmark's float64 reference widens a float32 net after the
    # fact; a net built in float64 must be that same net
    frames = phantom.generate_phantom(2, 64).frames[None]
    for preset in ("micro", "desk"):
        cfg = getattr(NetworkConfig, preset)()
        net = CSDN(cfg, seed=0, dtype=np.float64)
        ref = workloads.to_float64(CSDN(cfg, seed=0))
        assert net.dtype is np.float64
        for named in ("named_parameters", "named_buffers"):
            got, want = getattr(net, named)(), getattr(ref, named)()
            for (n, t), (rn, rt) in zip(got, want, strict=True):
                assert n == rn and t.dtype == np.float64, n
                assert np.array_equal(t.data, rt.data), n
        assert np.array_equal(workloads.forward_logits(net, frames),
                              workloads.forward_logits(ref, frames))
