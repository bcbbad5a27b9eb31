"""Finite-difference oracle and the verification suite built on it.

``fd_coord_check`` compares one analytic derivative with difference
quotients; ``finite_diff_check`` (an input tensor) and ``param_fd_check``
(a module's parameters) both run it through one coordinate loop and
report one ``CheckResult``. The suite has three tiers: every primitive op
against central differences on small random inputs; every composite block
with its parameters probed at sampled coordinates; and the whole network
driven through the hybrid loss, parameters and input both probed. All
checks run in float64 with the forward implementation unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import layers as L
from .autodiff import (AutodiffError, ParameterStore, Tensor, backward,
                       no_grad, reduce_sum)
from .losses import LossConfig, dice_loss, focal_loss, hybrid_loss
from .model import (CSDN, IN_FRAMES, NUM_CLASSES, ContextBlock, CsdnOutput, FusionBlock,
                    GELayerS1, GELayerS2, NetworkConfig, SegHead, StemBlock, count_parameters)

PARAM_LIMIT = 100_000
# Absolute agreement that counts as exact (see fd_coord_check).
ATOL = 1e-6


@dataclass
class CheckResult:
    """Worst gated relative error of one probe over ``checked`` coordinates."""
    name: str
    max_rel_err: float
    tol: float
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{state}  {self.name:<42s} max_rel_err={self.max_rel_err:.3e}"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _t(rng, *shape, grad=False) -> Tensor:
    return Tensor(rng.normal(size=shape), dtype=np.float64,
                  requires_grad=grad)


def fd_coord_check(eval_at: Callable[[float], float], g_analytic: float,
                   tol: float, h: float = 1e-4) -> float:
    """Gated relative error between ``g_analytic`` and a finite-difference
    slope of ``eval_at`` (scalar loss as a function of one coordinate's
    offset; the caller restores the coordinate afterwards).

    Agreement within ``ATOL`` absolutely counts as exact: the stencil cannot
    resolve slopes below its own noise floor, and a truly zero gradient (a
    direction some downstream normalizer cancels) leaves roundoff on both
    sides. A failing central difference is retried at a tenth of the step.
    If that still fails, kinks (PReLU zeros, pool-argmax switches) inside the
    stencil are assumed: the central quotient there averages branch slopes
    and estimates no derivative. The fine ladder then compares against the
    one-sided slopes at h/10 and against central differences at h/100 and
    h/1000, where truncation is gone and f64 loss noise still resolves any
    gradient above the ``2e-6`` floor. A genuine backward bug converges to a
    wrong value at every step and matches none of these, so the coarser
    ``1e-2`` acceptance on the fine ladder loses no detection power."""
    def gated(g_fd, floor=ATOL):
        diff = abs(g_analytic - g_fd)
        return 0.0 if diff <= floor else diff / (abs(g_analytic) + abs(g_fd))

    def central(step):
        return (eval_at(step) - eval_at(-step)) / (2.0 * step)

    rel = gated(central(h))
    if rel < tol:
        return rel
    rel = min(rel, gated(central(h / 10.0)))
    if rel < tol:
        return rel
    hs = h / 10.0
    f0 = eval_at(0.0)
    floor = 2e-6
    fine = min(gated((eval_at(hs) - f0) / hs, floor),
               gated((f0 - eval_at(-hs)) / hs, floor),
               gated(central(h / 100.0), floor),
               gated(central(h / 1000.0), floor))
    if fine < 1e-2:
        return fine
    return rel


def _probe(name: str, loss: Callable[[], float], tensors: list[Tensor],
           grads: list[np.ndarray], tol: float, h: float,
           max_coords: int | None, seed: int) -> CheckResult:
    """Check ``grads`` (one analytic gradient array per tensor) against
    finite differences of ``loss()``: every coordinate of each tensor, or
    ``max_coords`` of them drawn without replacement and probed in
    row-major order. Each coordinate is moved in place and restored."""
    rng = _rng(seed)
    worst, checked = 0.0, 0
    with no_grad():
        for t, g in zip(tensors, grads):
            idx = range(t.data.size)
            if max_coords is not None and len(idx) > max_coords:
                idx = sorted(rng.choice(len(idx), size=max_coords,
                                        replace=False))
            for i in idx:
                c = np.unravel_index(i, t.shape)
                orig = t.data[c]

                def eval_at(d):
                    t.data[c] = orig + d
                    return loss()

                worst = max(worst, fd_coord_check(eval_at, g[c], tol, h=h))
                t.data[c] = orig
            checked += len(idx)
    return CheckResult(name, float(worst), tol, checked)


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, tol: float,
                      h: float = 1e-4, max_coords: int | None = None,
                      seed: int = 0, name: str = "input") -> CheckResult:
    """Compare the autodiff gradient of scalar ``f`` at ``x`` with central differences.

    ``f`` must be deterministic (checked by evaluating it twice) and ``x``
    float64 so the h=1e-4 stencil is meaningful. When ``max_coords`` is set,
    a deterministic sample of coordinates is probed instead of all of them.
    Per-coordinate comparison semantics live in ``fd_coord_check``.
    """
    if x.dtype != np.float64:
        raise AutodiffError("finite_diff_check requires a float64 input tensor")

    with no_grad():
        y1 = f(x).item()
        y2 = f(x).item()
    if y1 != y2:
        raise AutodiffError("finite_diff_check: f is not deterministic "
                            f"({y1!r} != {y2!r} on identical inputs)")

    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.shape != (1, 1, 1, 1):
        raise AutodiffError("finite_diff_check: f must be scalar-valued")
    backward(out)
    g_ad = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    work = Tensor(x.data.copy())
    return _probe(name, lambda: f(work).item(), [work], [g_ad], tol, h,
                  max_coords, seed)


def param_fd_check(name: str, loss_fn: Callable[[], Tensor],
                   store: ParameterStore, tol: float = 1e-4,
                   max_coords: int | None = 4, seed: int = 0) -> CheckResult:
    """Probe every parameter tensor of a module: analytic gradients from one
    backward pass vs finite differences (step 1e-4) at sampled coordinates,
    the worst over the whole store reported under ``name``."""
    store.zero_grad()
    grads = backward(loss_fn(), store)
    names = store.names()
    return _probe(name, lambda: loss_fn().item(), [store[n] for n in names],
                  [grads[n].data for n in names], tol, 1e-4, max_coords, seed)


def check_ops(tol: float = 1e-4, seed: int = 0) -> list[CheckResult]:
    """Primitive ops, each probed through a scalar sum with central
    differences on the input (and, for parametric ops, the parameters)."""
    rng = _rng(seed)
    out: list[CheckResult] = []

    def fd(name, f, x, h=1e-4):
        out.append(finite_diff_check(f, x, tol=tol, h=h, name=name))

    w = _t(rng, 5, 4, 3, 3)
    b = _t(rng, 1, 5, 1, 1)
    x = _t(rng, 2, 4, 8, 8)
    fd("conv2d/input", lambda t: reduce_sum(L.conv2d(t, w, b, 2, 1)), x)
    fd("conv2d/weight", lambda t: reduce_sum(L.conv2d(x, t, b, 2, 1)), w)
    fd("conv2d/bias", lambda t: reduce_sum(L.conv2d(x, w, t, 2, 1)), b)
    fd("conv2d-s1/input", lambda t: reduce_sum(L.conv2d(t, w, b, 1, 1)), x)
    fd("conv2d-s1/weight", lambda t: reduce_sum(L.conv2d(x, t, b, 1, 1)), w)

    dw = _t(rng, 4, 1, 3, 3)
    fd("depthwise/input",
       lambda t: reduce_sum(L.conv2d(t, dw, None, 1, 1, groups=4)), x)
    fd("depthwise/weight",
       lambda t: reduce_sum(L.conv2d(x, t, None, 1, 1, groups=4)), dw)
    fd("depthwise-s2/input",
       lambda t: reduce_sum(L.conv2d(t, dw, None, 2, 1, groups=4)), x)
    fd("depthwise-s2/weight",
       lambda t: reduce_sum(L.conv2d(x, t, None, 2, 1, groups=4)), dw)

    gamma = Tensor(rng.uniform(0.5, 1.5, (1, 4, 1, 1)), dtype=np.float64)
    beta = _t(rng, 1, 4, 1, 1)

    stats = (rng.normal(size=(1, 4, 1, 1)), rng.uniform(0.5, 2.0, (1, 4, 1, 1)))
    alpha = Tensor(rng.uniform(0.1, 0.5, (1, 4, 1, 1)), dtype=np.float64)
    fd("prelu/input", lambda t: reduce_sum(L.prelu(t, alpha)), x)
    fd("prelu/alpha", lambda t: reduce_sum(L.prelu(x, t)), alpha)

    # batch norm with and without its PReLU, batch and frozen statistics;
    # the sigmoid readout, since a plain sum of a training-mode norm is
    # flat in its input and gamma
    for mode, args, st in (("batchnorm-train", [x, gamma, beta, None], None),
                           ("bn-prelu-train", [x, gamma, beta, alpha], None),
                           ("batchnorm-eval", [x, gamma, beta, alpha], stats)):
        for i, part in enumerate(("input", "gamma", "beta", "alpha")):
            if args[i] is None:
                continue

            def bn(t, i=i, args=args, st=st):
                probe = args[:i] + [t] + args[i + 1:]
                return reduce_sum(L.sigmoid(L.batchnorm(*probe, st)[0]))
            fd(f"{mode}/{part}", bn, args[i])

    fd("sigmoid", lambda t: reduce_sum(L.sigmoid(t)), _t(rng, 1, 2, 5, 5))
    fd("max-pool", lambda t: reduce_sum(L.pool2d("max", t, 3, 2, 1)),
       _t(rng, 1, 2, 7, 7), h=1e-5)
    fd("avg-pool", lambda t: reduce_sum(L.pool2d("avg", t, 3, 2, 1)),
       _t(rng, 1, 2, 7, 7))
    fd("global-avg-pool", lambda t: reduce_sum(L.global_avg_pool(t)),
       _t(rng, 2, 3, 5, 5))
    fd("resize-bilinear", lambda t: reduce_sum(L.resize(t, 9, 6, "bilinear")),
       _t(rng, 1, 2, 5, 5))
    fd("resize-bicubic", lambda t: reduce_sum(L.resize(t, 5, 7, "bicubic")),
       _t(rng, 1, 2, 10, 14))
    fd("pixel-shuffle",
       lambda t: reduce_sum(L.sigmoid(L.pixel_shuffle(t, 2))),
       _t(rng, 1, 8, 3, 3))
    fd("pixel-unshuffle",
       lambda t: reduce_sum(L.sigmoid(L.pixel_unshuffle(t, 2))),
       _t(rng, 1, 2, 6, 6))
    half = _t(rng, 1, 3, 4, 4)
    fd("concat",
       lambda t: reduce_sum(L.sigmoid(L.concat_channels([t, half]))),
       _t(rng, 1, 2, 4, 4))

    labels = _rng(seed + 1).integers(0, 3, size=(2, 6, 6))
    zl = _t(rng, 2, 3, 6, 6)
    for gname, gval in (("gamma2", 2.0), ("gamma0", 0.0), ("gamma05", 0.5)):
        cfgl = LossConfig(focal_gamma=gval)
        fd(f"focal-loss/{gname}", lambda t, c=cfgl: focal_loss(t, labels, c),
           zl)
    fd("dice-loss", lambda t: dice_loss(t, labels, LossConfig()), zl)
    # the probe feeds the main head and, halved, the second of two aux heads
    aux = _t(rng, 2, 3, 6, 6)
    fd("hybrid-loss/aux", lambda t: hybrid_loss(
        CsdnOutput(t, [aux, t * 0.5]), labels, LossConfig(aux_weight=0.4)), zl)
    return out


def check_blocks(tol: float = 1e-4, seed: int = 0) -> list[CheckResult]:
    """Composite blocks at minimal widths, all parameters probed."""
    rng = _rng(seed)
    results = []

    def probe(name, module, forward):
        results.append(param_fd_check(name, forward, module.parameter_store(),
                                      tol=tol, max_coords=3, seed=seed))

    crng = _rng(seed + 10)
    x8 = _t(rng, 2, 4, 8, 8)
    ge1 = GELayerS1(4, 2, crng).astype(np.float64)
    probe("ge-stride1", ge1, lambda: reduce_sum(ge1(x8)))
    ge2 = GELayerS2(4, 6, 2, crng).astype(np.float64)
    probe("ge-stride2", ge2, lambda: reduce_sum(ge2(x8)))
    stem = StemBlock(4, 4, crng).astype(np.float64)
    probe("stem-block", stem, lambda: reduce_sum(stem(x8)))
    ctx = ContextBlock(4, crng).astype(np.float64)
    probe("context-block", ctx, lambda: reduce_sum(ctx(x8)))
    fus = FusionBlock(4, crng).astype(np.float64)
    det = _t(rng, 2, 4, 8, 8)
    sem = _t(rng, 2, 4, 2, 2)
    probe("fusion-block", fus, lambda: reduce_sum(fus(det, sem)))
    head = SegHead(4, 4, 3, crng).astype(np.float64)
    probe("seg-head", head, lambda: reduce_sum(head(x8, (16, 16))))
    return results


def check_end_to_end(config: NetworkConfig, tol: float = 1e-4,
                     seed: int = 0) -> list[CheckResult]:
    """Whole network through the hybrid loss.

    Eval pass at 1x3x64x64 (the deployment path: frozen statistics, no aux
    heads), then a train pass at 2x3x32x32 covering batch-statistics
    backward and the auxiliary heads. Batch 2 in train mode keeps the
    global-pool normalization layers above their minimum element count.
    Each pass probes 2 coordinates of every parameter and 48 of the input.
    """
    results = []
    loss_cfg = LossConfig()

    for mode, batch, size in (("eval", 1, 64), ("train", 2, 32)):
        net = CSDN(config, seed=seed, dtype=np.float64)
        net.train(mode == "train")
        rng = _rng(seed + 100)
        x = Tensor(rng.uniform(0.0, 1.0, size=(batch, IN_FRAMES, size, size)),
                   dtype=np.float64)
        labels = rng.integers(0, NUM_CLASSES, size=(batch, size, size))

        def loss_of(t, n=net, lab=labels):
            return hybrid_loss(n(t), lab, loss_cfg)

        results.append(param_fd_check(f"end-to-end/{mode}/params",
                                      lambda: loss_of(x), net.parameter_store(),
                                      tol=tol, max_coords=2, seed=seed))
        results.append(finite_diff_check(loss_of, x, tol=tol,
                                         max_coords=48, seed=seed,
                                         name=f"end-to-end/{mode}/input"))
    return results


def run_suite(config: NetworkConfig | None = None, tol: float = 1e-4,
              quiet: bool = False,
              seed: int = 0) -> tuple[bool, list[CheckResult], float]:
    """Full verification sweep; returns (all passed, results, seconds)."""
    config = config if config is not None else NetworkConfig.tiny()
    n_params = count_parameters(config)
    if n_params > PARAM_LIMIT:
        raise ValueError(f"gradient check wants a small network; config has "
                         f"{n_params} parameters (limit {PARAM_LIMIT})")
    t0 = time.time()
    results = check_ops(tol=tol, seed=seed)
    results += check_blocks(tol=tol, seed=seed)
    results += check_end_to_end(config, tol=tol, seed=seed)
    elapsed = time.time() - t0
    if not quiet:
        for r in results:
            print(r.line(), flush=True)
        worst = max(r.max_rel_err for r in results)
        state = "PASS" if all(r.passed for r in results) else "FAIL"
        print(f"{state}  overall max_rel_err={worst:.3e} tol={tol:.1e} "
              f"({elapsed:.1f}s, {len(results)} checks)", flush=True)
    return all(r.passed for r in results), results, elapsed
