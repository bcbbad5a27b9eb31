"""Finite-difference verification suite.

Three tiers: every primitive op against central differences on small
random inputs; every composite block with its parameters probed at
sampled coordinates; and the whole network driven through the hybrid
loss, parameters and input both probed. All checks run in float64 with
the forward implementation unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import layers as L
from .autodiff import (ParameterStore, Tensor, backward, fd_coord_check,
                       finite_diff_check, no_grad, reduce_sum)
from .losses import LossConfig, dice_loss, focal_loss, hybrid_loss
from .model import (CSDN, IN_FRAMES, NUM_CLASSES, ContextBlock, CsdnOutput, FusionBlock,
                    GELayerS1, GELayerS2, NetworkConfig, SegHead, StemBlock, count_parameters)

PARAM_LIMIT = 100_000


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

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


def check_ops(tol: float = 1e-4, seed: int = 0) -> list[CheckResult]:
    """Primitive ops, each probed through a scalar sum with central
    differences on the input (and, for parametric ops, the parameters)."""
    rng = _rng(seed)
    out: list[CheckResult] = []

    def fd(name, f, x, h=1e-4):
        rep = finite_diff_check(f, x, tol=tol, h=h)
        out.append(CheckResult(name, rep.max_rel_err, tol))

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
                return reduce_sum(L.sigmoid(L.batchnorm(*probe, 1e-5, st)[0]))
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
    fd("resize-bicubic", lambda t: reduce_sum(L.resize(t, 11, 7, "bicubic")),
       _t(rng, 1, 2, 5, 5))
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


def param_fd_check(name: str, loss_fn, store: ParameterStore,
                   tol: float = 1e-4, max_coords: int = 4, h: float = 1e-4,
                   seed: int = 0, atol: float = 1e-6,
                   inject_bug: bool = False) -> list[CheckResult]:
    """Probe every parameter tensor of a module: analytic gradient from one
    backward pass vs finite differences at sampled coordinates, with the
    comparison semantics of ``fd_coord_check``."""
    store.zero_grad()
    grads = backward(loss_fn(), store)
    if inject_bug:
        victim = max(grads, key=lambda k: np.abs(grads[k].data).max())
        grads[victim].data += 1.0
    rng = _rng(seed)
    results = []
    with no_grad():
        for pname, p in store.items():
            g = grads[pname].data
            coords = [tuple(c) for c in np.ndindex(*p.shape)]
            if len(coords) > max_coords:
                idx = rng.choice(len(coords), size=max_coords, replace=False)
                coords = [coords[i] for i in sorted(idx)]
            worst = 0.0
            for c in coords:
                orig = p.data[c]

                def eval_at(d):
                    p.data[c] = orig + d
                    return loss_fn().item()

                rel = fd_coord_check(eval_at, g[c], tol, h=h, atol=atol)
                p.data[c] = orig
                worst = max(worst, rel)
            results.append(CheckResult(f"{name}/{pname}", worst, tol))
    return results


def _block_worst(name: str, results: list[CheckResult],
                 tol: float) -> CheckResult:
    worst = max(r.max_rel_err for r in results)
    return CheckResult(name, worst, tol)


def check_blocks(tol: float = 1e-4, seed: int = 0) -> list[CheckResult]:
    """Composite blocks at minimal widths, all parameters probed."""
    rng = _rng(seed)
    results = []

    def probe(name, module, forward):
        store = ParameterStore(module.named_parameters())
        rs = param_fd_check(name, forward, store, tol=tol, max_coords=3,
                            seed=seed)
        results.append(_block_worst(name, rs, tol))

    crng = _rng(seed + 10)
    x8 = _t(rng, 2, 4, 8, 8)
    ge1 = GELayerS1(4, 2, crng, np.float64)
    probe("ge-stride1", ge1, lambda: reduce_sum(ge1(x8)))
    ge2 = GELayerS2(4, 6, 2, crng, np.float64)
    probe("ge-stride2", ge2, lambda: reduce_sum(ge2(x8)))
    stem = StemBlock(4, 4, crng, np.float64)
    probe("stem-block", stem, lambda: reduce_sum(stem(x8)))
    ctx = ContextBlock(4, crng, np.float64)
    probe("context-block", ctx, lambda: reduce_sum(ctx(x8)))
    fus = FusionBlock(4, crng, np.float64)
    det = _t(rng, 2, 4, 8, 8)
    sem = _t(rng, 2, 4, 2, 2)
    probe("fusion-block", fus, lambda: reduce_sum(fus(det, sem)))
    head = SegHead(4, 4, 3, crng, np.float64)
    probe("seg-head", head, lambda: reduce_sum(head(x8, (16, 16))))
    return results


def check_end_to_end(config: NetworkConfig, tol: float = 1e-4,
                     seed: int = 0, max_coords: int = 2,
                     input_coords: int = 48) -> list[CheckResult]:
    """Whole network through the hybrid loss.

    Eval pass at 1x3x64x64 (the deployment path: frozen statistics, no aux
    heads), then a train pass at 2x3x32x32 covering batch-statistics
    backward and the auxiliary heads. Batch 2 in train mode keeps the
    global-pool normalization layers above their minimum element count.
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

        def loss_fn(inp=x, n=net, lab=labels):
            return hybrid_loss(n(inp), lab, loss_cfg)

        store = net.parameter_store()
        rs = param_fd_check(f"end-to-end/{mode}", loss_fn, store, tol=tol,
                            max_coords=max_coords, seed=seed)
        results.append(_block_worst(f"end-to-end/{mode}/params", rs, tol))

        def loss_of_input(t, n=net, lab=labels):
            return hybrid_loss(n(t), lab, loss_cfg)

        rep = finite_diff_check(loss_of_input, x, tol=tol,
                                max_coords=input_coords, seed=seed)
        results.append(CheckResult(f"end-to-end/{mode}/input",
                                   rep.max_rel_err, tol))
    return results


def run_suite(config: NetworkConfig | None = None, tol: float = 1e-4,
              quiet: bool = False, inject_bug: bool = False,
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
    if inject_bug:
        net = CSDN(NetworkConfig.micro(), seed=seed, dtype=np.float64)
        net.eval()
        rng = _rng(seed)
        x = Tensor(rng.uniform(0, 1, (1, 3, 32, 32)), dtype=np.float64)
        labels = rng.integers(0, 3, size=(1, 32, 32))
        rs = param_fd_check("injected-bug",
                            lambda: hybrid_loss(net(x), labels, LossConfig()),
                            net.parameter_store(), tol=tol, max_coords=1,
                            seed=seed, inject_bug=True)
        results.append(_block_worst("injected-bug", rs, tol))
    else:
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
