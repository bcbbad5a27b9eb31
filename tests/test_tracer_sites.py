"""The benchmark's tracer (perfbench/tracing.py) patches csdn functions
and methods where their callers look them up, by name: a rename in the
package must not leave one of those names dangling."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from csdn import layers, phantom  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def test_tracer_installs_on_every_call_site_and_comes_off():
    conv2d, dataset_open = layers.conv2d, phantom.Dataset.__dict__["open"]
    with Tracer().installed():
        assert layers.conv2d is not conv2d
    assert layers.conv2d is conv2d
    assert phantom.Dataset.__dict__["open"] is dataset_open
