"""The gradient-verification suite itself: the per-coordinate comparator on
functions with known kinks, the parameter probe, the op and block sweeps,
refusal of large networks, and detection of a wrong backward kernel."""

import numpy as np
import pytest

from csdn import layers
from csdn.autodiff import Tensor, reduce_sum
from csdn.gradcheck import (PARAM_LIMIT, CheckResult, check_blocks, check_ops,
                            fd_coord_check, param_fd_check, run_suite)
from csdn.model import NetworkConfig, count_parameters


# -- comparator ---------------------------------------------------------------


def test_coord_check_linear_function_is_exact():
    rel = fd_coord_check(lambda d: 3.0 * d + 1.0, 3.0, tol=1e-4)
    assert rel < 1e-9


def test_coord_check_accepts_tiny_gradients_absolutely():
    # analytic zero vs stencil noise: relative error is meaningless there
    rel = fd_coord_check(lambda d: 1.0 + 1e-9 * d, 0.0, tol=1e-4)
    assert rel == 0.0


def test_coord_check_handles_kink_at_the_point():
    # f(x) = |x| at 0 with the one-sided analytic slope 1.0: the central
    # quotient reports 0 at every h, the one-sided ladder recovers 1.0
    rel = fd_coord_check(abs, 1.0, tol=1e-4)
    assert rel < 1e-2


def test_coord_check_flags_wrong_gradient():
    rel = fd_coord_check(lambda d: 3.0 * d, 2.0, tol=1e-4)
    assert rel > 0.1


def test_coord_check_survives_kink_near_the_point():
    # max(x, 0.30001 x) has its kink 5e-5 away from the probe at 1e-4 scale
    def f(d):
        x = 5e-5 + d
        return max(x, 0.30001 * x)

    rel = fd_coord_check(f, 1.0, tol=1e-4)
    assert rel < 1e-2


# -- result formatting --------------------------------------------------------


def test_check_result_line():
    ok = CheckResult("conv2d/input", 3.2e-7, 1e-4, 128)
    assert ok.passed
    assert ok.line().startswith("PASS  conv2d/input")
    bad = CheckResult("conv2d/weight", 0.5, 1e-4, 180)
    assert not bad.passed
    assert bad.line().startswith("FAIL")
    assert "5.000e-01" in bad.line()


# -- sweeps -------------------------------------------------------------------


def test_ops_sweep_passes():
    results = check_ops(tol=1e-4, seed=0)
    assert len(results) >= 20
    for r in results:
        assert r.passed, r.line()
    names = [r.name for r in results]
    assert any("conv2d" in n for n in names)
    assert any("focal" in n for n in names)
    assert any("batchnorm" in n for n in names)
    # the batch-norm op with and without its PReLU, with batch and frozen
    # statistics, and both strides of the dense and depthwise conv paths
    for name in ("bn-prelu-train/input", "bn-prelu-train/gamma",
                 "bn-prelu-train/beta", "bn-prelu-train/alpha",
                 "batchnorm-train/input", "batchnorm-train/gamma",
                 "batchnorm-train/beta", "batchnorm-eval/input",
                 "batchnorm-eval/gamma", "batchnorm-eval/beta",
                 "batchnorm-eval/alpha", "conv2d/input", "conv2d-s1/input",
                 "conv2d-s1/weight", "depthwise/input", "depthwise-s2/input",
                 "depthwise-s2/weight"):
        assert name in names, name


def test_block_sweep_passes():
    results = check_blocks(tol=1e-4, seed=0)
    assert len(results) == 6
    for r in results:
        assert r.passed, r.line()
    # without a coordinate cap the probe visits every parameter of the store
    rng = np.random.Generator(np.random.PCG64(4))
    conv = layers.Conv2d(2, 3, kernel=3, padding=1, rng=rng).astype(np.float64)
    x = Tensor(rng.normal(size=(1, 2, 5, 5)))
    r = param_fd_check("conv", lambda: reduce_sum(conv(x)),
                       conv.parameter_store(), max_coords=None)
    assert r.passed, r.line()
    assert r.checked == conv.num_parameters() == 57


def test_suite_refuses_large_networks():
    big = NetworkConfig.reference()
    assert count_parameters(big) > PARAM_LIMIT
    with pytest.raises(ValueError, match="small network"):
        run_suite(config=big, quiet=True)


def test_suite_detects_injected_bug(monkeypatch):
    # a PReLU backward whose alpha gradient is off by one: every check that
    # runs a PReLU fails, and no check that runs none does
    real = layers._prelu_bwd

    def wrong(*args, **kw):
        gx, galpha = real(*args, **kw)
        return gx, galpha + 1.0

    monkeypatch.setattr(layers, "_prelu_bwd", wrong)
    ok, results, _elapsed = run_suite(NetworkConfig.micro(), quiet=True)
    assert not ok
    failed = {r.name for r in results if not r.passed}
    for name in ("prelu/alpha", "bn-prelu-train/alpha",
                 "batchnorm-eval/alpha", "end-to-end/train/params"):
        assert name in failed, name
    for name in failed:
        assert "conv" not in name and not name.endswith("/input"), name


def test_suite_seed_stability():
    a = check_ops(tol=1e-4, seed=0)
    b = check_ops(tol=1e-4, seed=0)
    assert [(r.name, r.max_rel_err) for r in a] == \
        [(r.name, r.max_rel_err) for r in b]
