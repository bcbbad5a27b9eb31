"""The benchmark's tracer (perfbench/tracing.py) patches csdn functions
and methods where their callers look them up, by name: a rename in the
package must not leave one of those names dangling."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from csdn import layers, metrics, phantom  # noqa: E402
from csdn.model import CSDN, NetworkConfig  # noqa: E402
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
