"""Differentiable layer kernels on the rank-4 tensor type.

Convolution runs as im2col + GEMM (depthwise as an einsum contraction),
pooling as a k*k strided-slice sweep, and resize as cached per-axis
interpolation matrices applied with broadcast matmul so the backward pass
is the transposed product. Convolution is cross-correlation; padding is
zeros (max pooling pads with -inf and average pooling counts only
in-bounds elements).
"""

from __future__ import annotations

import numpy as np

from .autodiff import AutodiffError, Module, Tensor, record

__all__ = [
    "conv2d", "batchnorm2d_infer", "prelu", "sigmoid", "pool2d",
    "global_avg_pool", "resize", "pixel_shuffle", "pixel_unshuffle",
    "concat_channels", "Conv2d", "BatchNorm2d", "PReLU",
]


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


def _out_size(n: int, k: int, s: int, p: int) -> int:
    o = (n + 2 * p - k) // s + 1
    if o < 1:
        raise ValueError(f"output size {o} < 1 for input {n}, kernel {k}, "
                         f"stride {s}, pad {p}")
    return o


def _windows(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
             oh: int, ow: int) -> np.ndarray:
    """Sliding (kh, kw) windows of a padded map, strided: (n, c, oh, ow, kh, kw)."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw][:, :, :oh, :ow]


def _grad_canvas(g: np.ndarray, kh, kw, sh, sw, ph, pw, h, w) -> np.ndarray:
    """Stride-dilate the output gradient and zero-pad it so a stride-1
    correlation with the flipped kernel yields the input gradient.

    Pad is (k-1-p) on the leading edge and (k-1-p) + r on the trailing edge,
    r being the input rows the forward stride never reached.
    """
    n, c, oh, ow = g.shape
    rh = (h + 2 * ph - kh) - (oh - 1) * sh
    rw = (w + 2 * pw - kw) - (ow - 1) * sw
    top, left = kh - 1 - ph, kw - 1 - pw
    if top < 0 or left < 0:
        raise ValueError(f"padding {ph, pw} exceeds kernel-1 {kh - 1, kw - 1}")
    dh = (oh - 1) * sh + 1
    dw = (ow - 1) * sw + 1
    canvas = np.zeros((n, c, top + dh + top + rh, left + dw + left + rw),
                      dtype=g.dtype)
    canvas[:, :, top:top + dh:sh, left:left + dw:sw] = g
    return canvas


def _conv_dense_fwd(xp, w, sh, sw, oh, ow):
    n = xp.shape[0]
    c_out, c_in, kh, kw = w.shape
    win = _windows(xp, kh, kw, sh, sw, oh, ow)
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * oh * ow, c_in * kh * kw)
    out = cols @ w.reshape(c_out, -1).T
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2), cols


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0, groups: int = 1) -> Tensor:
    """2-d cross-correlation. groups is 1 (dense) or in_channels (depthwise)."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    depthwise = groups == c
    if groups != 1 and not depthwise:
        raise ValueError(f"groups must be 1 or in_channels, got {groups} for {c} channels")
    if depthwise:
        if c_out != c or c_in_g != 1:
            raise ValueError(f"depthwise weight must be ({c},1,kh,kw), got {weight.shape}")
    elif c_in_g != c:
        raise ValueError(f"weight expects {c_in_g} input channels, input has {c}")
    if bias is not None and bias.shape != (1, c_out, 1, 1):
        raise ValueError(f"bias shape {bias.shape} != (1,{c_out},1,1)")
    oh = _out_size(h, kh, sh, ph)
    ow = _out_size(w, kw, sw, pw)

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    if depthwise:
        win = _windows(xp, kh, kw, sh, sw, oh, ow)
        out_data = np.einsum("nchwij,cij->nchw", win, weight.data[:, 0],
                             optimize=True)
        cols = None
    else:
        out_data, cols = _conv_dense_fwd(xp, weight.data, sh, sw, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data
    out = Tensor(np.ascontiguousarray(out_data))

    w_data = weight.data
    has_bias = bias is not None

    def bwd(g):
        g = np.ascontiguousarray(g)
        gb = g.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1) if has_bias else None
        if depthwise:
            win_b = _windows(xp, kh, kw, sh, sw, oh, ow)
            gw = np.einsum("nchwij,nchw->cij", win_b, g,
                           optimize=True)[:, None, :, :]
            canvas = _grad_canvas(g, kh, kw, sh, sw, ph, pw, h, w)
            cwin = _windows(canvas, kh, kw, 1, 1, h, w)
            wf = w_data[:, 0, ::-1, ::-1]
            gx = np.einsum("nchwij,cij->nchw", cwin, wf, optimize=True)
        else:
            gm = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
            gw = (gm.T @ cols).reshape(w_data.shape)
            canvas = _grad_canvas(g, kh, kw, sh, sw, ph, pw, h, w)
            wt = np.ascontiguousarray(
                w_data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            gx, _ = _conv_dense_fwd(canvas, wt, 1, 1, h, w)
        grads = [np.ascontiguousarray(gx), gw]
        if has_bias:
            grads.append(gb)
        return grads

    inputs = [x, weight] + ([bias] if has_bias else [])
    return record(out, inputs, bwd, "conv2d")


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """y = x for x >= 0, alpha_c * x below; alpha is (1, c, 1, 1)."""
    if alpha.shape != (1, x.shape[1], 1, 1):
        raise ValueError(f"alpha shape {alpha.shape} != (1,{x.shape[1]},1,1)")
    neg = x.data < 0
    out = Tensor(np.where(neg, alpha.data * x.data, x.data))
    x_data, a_data = x.data, alpha.data

    def bwd(g):
        gx = np.where(neg, a_data * g, g)
        ga = (g * x_data * neg).sum(axis=(0, 2, 3)).reshape(alpha.shape)
        return gx, ga

    return record(out, [x, alpha], bwd, "prelu")


def sigmoid(x: Tensor) -> Tensor:
    # Branch on sign so exp never overflows at large |x|.
    xd = x.data
    pos = xd >= 0
    z = np.exp(np.where(pos, -xd, xd))
    y = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    out = Tensor(y)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return record(out, [x], bwd, "sigmoid")


def pool2d(kind: str, x: Tensor, kernel=3, stride=2, padding=1) -> Tensor:
    """Window max or in-bounds-count average over (kh, kw) patches."""
    if kind not in ("max", "avg"):
        raise ValueError(f"pool kind {kind!r}")
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    oh = _out_size(h, kh, sh, ph)
    ow = _out_size(w, kw, sw, pw)
    offsets = [(di, dj) for di in range(kh) for dj in range(kw)]

    if kind == "max":
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    constant_values=-np.inf)
        best = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
        arg = np.zeros((n, c, oh, ow), dtype=np.int8)
        for idx, (di, dj) in enumerate(offsets):
            sl = xp[:, :, di:di + sh * oh:sh, dj:dj + sw * ow:sw]
            better = sl > best  # strict: ties keep the first row-major offset
            best = np.where(better, sl, best)
            arg[better] = idx
        out = Tensor(best)

        def bwd(g):
            gp = np.zeros_like(xp)
            for idx, (di, dj) in enumerate(offsets):
                gp[:, :, di:di + sh * oh:sh, dj:dj + sw * ow:sw] += \
                    np.where(arg == idx, g, 0.0)
            return (np.ascontiguousarray(gp[:, :, ph:ph + h, pw:pw + w]),)

        return record(out, [x], bwd, "max_pool2d")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ones = np.zeros((1, 1, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    ones[:, :, ph:ph + h, pw:pw + w] = 1.0
    acc = np.zeros((n, c, oh, ow), dtype=x.dtype)
    cnt = np.zeros((1, 1, oh, ow), dtype=x.dtype)
    for di, dj in offsets:
        acc += xp[:, :, di:di + sh * oh:sh, dj:dj + sw * ow:sw]
        cnt += ones[:, :, di:di + sh * oh:sh, dj:dj + sw * ow:sw]
    out = Tensor(acc / cnt)

    def bwd(g):
        gn = g / cnt
        gp = np.zeros_like(xp)
        for di, dj in offsets:
            gp[:, :, di:di + sh * oh:sh, dj:dj + sw * ow:sw] += gn
        return (np.ascontiguousarray(gp[:, :, ph:ph + h, pw:pw + w]),)

    return record(out, [x], bwd, "avg_pool2d")


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    inv = 1.0 / (h * w)

    def bwd(g):
        return (np.broadcast_to(g * inv, x.shape).astype(g.dtype, copy=True),)

    return record(out, [x], bwd, "global_avg_pool")


# -- resize -------------------------------------------------------------------

_resize_cache: dict[tuple, np.ndarray] = {}


def _cubic_weight(u: np.ndarray, a: float = -0.75) -> np.ndarray:
    au = np.abs(u)
    w = np.where(au <= 1.0,
                 (a + 2.0) * au ** 3 - (a + 3.0) * au ** 2 + 1.0,
                 np.where(au < 2.0,
                          a * au ** 3 - 5.0 * a * au ** 2 + 8.0 * a * au - 4.0 * a,
                          0.0))
    return w


def _resize_matrix(src: int, dst: int, mode: str) -> np.ndarray:
    """(dst, src) row-stochastic interpolation matrix, half-pixel convention.

    Out-of-range taps clamp to the border, folding their weight onto the
    edge sample, so rows still sum to 1.
    """
    key = (src, dst, mode)
    cached = _resize_cache.get(key)
    if cached is not None:
        return cached
    scale = src / dst
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * scale - 0.5
    mat = np.zeros((dst, src), dtype=np.float64)
    if mode == "nearest":
        idx = np.clip(np.floor(coords + 0.5).astype(np.int64), 0, src - 1)
        mat[np.arange(dst), idx] = 1.0
    elif mode == "bilinear":
        i0 = np.floor(coords).astype(np.int64)
        t = coords - i0
        for off, wgt in ((0, 1.0 - t), (1, t)):
            idx = np.clip(i0 + off, 0, src - 1)
            np.add.at(mat, (np.arange(dst), idx), wgt)
    elif mode == "bicubic":
        i0 = np.floor(coords).astype(np.int64)
        for off in (-1, 0, 1, 2):
            tap = i0 + off
            wgt = _cubic_weight(coords - tap)
            idx = np.clip(tap, 0, src - 1)
            np.add.at(mat, (np.arange(dst), idx), wgt)
    else:
        raise ValueError(f"resize mode {mode!r}")
    _resize_cache[key] = mat
    return mat


def resize(x: Tensor, out_h: int, out_w: int, mode: str = "bilinear") -> Tensor:
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize target {out_h}x{out_w} < 1")
    n, c, h, w = x.shape
    ah = _resize_matrix(h, out_h, mode).astype(x.dtype)
    aw = _resize_matrix(w, out_w, mode).astype(x.dtype)
    out = Tensor(np.matmul(np.matmul(ah, x.data), aw.T))

    def bwd(g):
        return (np.ascontiguousarray(np.matmul(np.matmul(ah.T, g), aw)),)

    return record(out, [x], bwd, "resize_" + mode)


# -- pixel shuffle ------------------------------------------------------------


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """(n, c, h, w) -> (n, c*r*r, h/r, w/r); out channel = c*r*r + i*r + j
    holds the (i, j) offset within each r x r block."""
    n, c, h, w = x.shape
    if h % r or w % r:
        raise ValueError(f"spatial {h}x{w} not divisible by r={r}")
    hb, wb = h // r, w // r
    y = x.data.reshape(n, c, hb, r, wb, r).transpose(0, 1, 3, 5, 2, 4)
    out = Tensor(np.ascontiguousarray(y.reshape(n, c * r * r, hb, wb)))

    def bwd(g):
        gr = g.reshape(n, c, r, r, hb, wb).transpose(0, 1, 4, 2, 5, 3)
        return (np.ascontiguousarray(gr.reshape(n, c, h, w)),)

    return record(out, [x], bwd, "pixel_unshuffle")


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Exact inverse of pixel_unshuffle with the same channel layout."""
    n, c, h, w = x.shape
    if c % (r * r):
        raise ValueError(f"channels {c} not divisible by r*r={r * r}")
    co = c // (r * r)
    y = x.data.reshape(n, co, r, r, h, w).transpose(0, 1, 4, 2, 5, 3)
    out = Tensor(np.ascontiguousarray(y.reshape(n, co, h * r, w * r)))

    def bwd(g):
        gr = g.reshape(n, co, h, r, w, r).transpose(0, 1, 3, 5, 2, 4)
        return (np.ascontiguousarray(gr.reshape(n, c, h, w)),)

    return record(out, [x], bwd, "pixel_shuffle")


def concat_channels(xs: list[Tensor]) -> Tensor:
    if not xs:
        raise ValueError("concat of no tensors")
    base = xs[0].shape
    for t in xs[1:]:
        if t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ValueError(f"concat spatial/batch mismatch: {base} vs {t.shape}")
    out = Tensor(np.concatenate([t.data for t in xs], axis=1))
    splits = np.cumsum([t.shape[1] for t in xs])[:-1]

    def bwd(g):
        return [np.ascontiguousarray(p) for p in np.split(g, splits, axis=1)]

    return record(out, list(xs), bwd, "concat")


# -- batch norm ---------------------------------------------------------------


def batchnorm2d_infer(x: Tensor, gamma: Tensor, beta: Tensor,
                      mean: np.ndarray, var: np.ndarray, eps: float) -> Tensor:
    """Eval-mode affine map with frozen statistics; still differentiable in
    x, gamma, beta."""
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * invstd
    out = Tensor(gamma.data * xhat + beta.data)
    g_data = gamma.data

    def bwd(g):
        gx = g * g_data * invstd
        ggamma = (g * xhat).sum(axis=(0, 2, 3)).reshape(gamma.shape)
        gbeta = g.sum(axis=(0, 2, 3)).reshape(beta.shape)
        return gx, ggamma, gbeta

    return record(out, [x, gamma, beta], bwd, "batchnorm_eval")


def _batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> tuple:
    n, c, h, w = x.shape
    m = n * h * w
    if m < 2:
        raise ValueError(f"batchnorm train mode needs n*h*w >= 2, got {m}")
    mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
    var = x.data.var(axis=(0, 2, 3), keepdims=True)  # biased
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * invstd
    out = Tensor(gamma.data * xhat + beta.data)
    g_data = gamma.data

    def bwd(g):
        sg = g.sum(axis=(0, 2, 3), keepdims=True)
        sgx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = (g_data * invstd / m) * (m * g - sg - xhat * sgx)
        return gx, sgx.reshape(gamma.shape), sg.reshape(beta.shape)

    y = record(out, [x, gamma, beta], bwd, "batchnorm_train")
    return y, mean.reshape(-1), var.reshape(-1)


# -- layer modules ------------------------------------------------------------


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel=3,
                 stride=1, padding=0, groups: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        kh, kw = _pair(kernel)
        if in_channels % groups or out_channels % groups:
            raise ValueError(f"groups {groups} must divide channels "
                             f"{in_channels}->{out_channels}")
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = groups
        fan_in = (in_channels // groups) * kh * kw
        shape = (out_channels, in_channels // groups, kh, kw)
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(he_uniform(rng, shape, fan_in, dtype),
                             requires_grad=True)
        if bias:
            self.bias = Tensor(np.zeros((1, out_channels, 1, 1), dtype=dtype),
                               requires_grad=True)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding,
                      self.groups)

    __call__ = forward


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 dtype=np.float32):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones((1, channels, 1, 1), dtype=dtype),
                            requires_grad=True)
        self.beta = Tensor(np.zeros((1, channels, 1, 1), dtype=dtype),
                           requires_grad=True)
        self.running_mean = Tensor(np.zeros((1, channels, 1, 1), dtype=dtype))
        self.running_var = Tensor(np.ones((1, channels, 1, 1), dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            y, mean, var = _batchnorm_train(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            rm = self.running_mean.data.reshape(-1)
            rv = self.running_var.data.reshape(-1)
            rm *= 1.0 - m
            rm += m * mean.astype(rm.dtype)
            rv *= 1.0 - m
            rv += m * var.astype(rv.dtype)
            return y
        if (self.running_var.data <= 0).any():
            raise AutodiffError("batchnorm running_var must stay positive")
        return batchnorm2d_infer(x, self.gamma, self.beta,
                                 self.running_mean.data,
                                 self.running_var.data, self.eps)

    __call__ = forward


class PReLU(Module):
    def __init__(self, channels: int, init: float = 0.25, dtype=np.float32):
        super().__init__()
        self.alpha = Tensor(np.full((1, channels, 1, 1), init, dtype=dtype),
                            requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return prelu(x, self.alpha)

    __call__ = forward
