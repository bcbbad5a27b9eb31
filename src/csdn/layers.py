"""Differentiable layer kernels on the rank-4 tensor type.

Every windowed op pads its input once (``_pad``; -inf for max pooling,
zeros otherwise) and reads it through one read-only (n, c, kh, kw, oh, ow)
strided view (``_windows``), ow columns per output row at every stride.
One correlation routine serves every conv forward and the stride-1 input
gradient; a strided input gradient scatters the taps back (col2im).
Average pooling is that correlation with a ones kernel over the in-bounds
counts, with col2im as its backward; max pooling reads the same view.
Dense and depthwise correlation run as one channel-major im2col (one copy
of the view per band of output rows) and one matmul whose output is
already NCHW; only a weight gradient keeps the columns, and any other conv
fills and multiplies them one cache-sized band at a time. Bilinear resize
applies cached per-axis interpolation matrices with broadcast matmul, so
the backward pass is the transposed product; bicubic resize only halves,
as the network's front end does, and runs forward as its fixed 4-tap
filter instead.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import AutodiffError, Module, Tensor, grad_enabled, record

__all__ = [
    "conv2d", "batchnorm", "prelu", "sigmoid", "pool2d", "global_avg_pool",
    "resize", "pixel_shuffle", "pixel_unshuffle", "concat_channels", "Conv2d",
    "BatchNorm2d", "PReLU",
]

# Batch norm's running-statistics weight and variance floor (Ioffe and
# Szegedy, 2015), and the initial slope of every PReLU (He et al., 2015).
BN_MOMENTUM, BN_EPS = 0.1, 1e-5
PRELU_INIT = 0.25


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


def _out_size(n: int, k: int, s: int, p: int) -> int:
    o = (n + 2 * p - k) // s + 1
    if o < 1:
        raise ValueError(f"output size {o} < 1 for input {n}, kernel {k}, "
                         f"stride {s}, pad {p}")
    return o


def _taps(xp: np.ndarray, kh, kw, sh, sw, oh, ow):
    """(i, j, view) per kernel tap: the writable (n, c, oh, ow) strided
    slice of a padded map where tap (i, j) reads."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]


def _pad(x: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    """(n, c, h, w) padded by ph rows and pw columns of ``fill`` on each
    side; x itself when there is no padding."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * ph, w + 2 * pw)
    xp = (np.zeros(shape, dtype=x.dtype) if fill == 0
          else np.full(shape, fill, dtype=x.dtype))
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _windows(xp: np.ndarray, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """Read-only (n, c, kh, kw, oh, ow) view of a padded map: [..., i, j,
    y, x] is the pixel that tap (i, j) of output pixel (y, x) reads."""
    sn, sc, sy, sx = xp.strides
    return as_strided(xp, xp.shape[:2] + (kh, kw, oh, ow),
                      (sn, sc, sy, sx, sy * sh, sx * sw), writeable=False)


# Bytes of im2col columns filled and multiplied at a time when the columns
# are not kept: half of one core's 2 MiB L2 on the Xeon it was measured on,
# so a band is still cached when its GEMM reads it.
_BAND_BYTES = 1 << 20


def _gemm_form(w: np.ndarray, n: int, c: int):
    """(matrix, batch) of a correlation with w over n images of c channels
    as a matmul over columns seen as batch + (rows, L): dense, one (c_out,
    c*kh*kw) matrix per image; depthwise, one (1, kh*kw) row per channel."""
    if w.ndim == 3:
        return w.reshape(len(w), 1, -1), (n, c)
    return w.reshape(len(w), -1), (n,)


def _im2col_gemm(win: np.ndarray, w: np.ndarray, keep: bool):
    """Correlation as one matmul (``_gemm_form``) over channel-major
    columns copied from the ``_windows`` view ``win``, filled and
    multiplied one band of output rows at a time with one copy per band.
    A band's product is already NCHW and lands in its rows of the output.
    With ``keep`` one band spans the map and its columns are returned, in
    the matmul's view, for the weight gradient; otherwise bands of about
    ``_BAND_BYTES`` and a multiple of 16 columns per image share one
    buffer and None is returned. OpenBLAS kernels tile the columns by 4 to
    16, so a band's sums are the one-band product's, bit for bit."""
    n, c, kh, kw, oh, ow = win.shape
    k = c * kh * kw
    wm, batch = _gemm_form(w, n, c)
    step = 16 // math.gcd(ow, 16)
    rows = _BAND_BYTES // (n * k * ow * win.itemsize)
    rows = oh if keep else min(oh, max(step, rows - rows % step))
    buf = np.empty(n * k * rows * ow, dtype=win.dtype)
    out = np.empty(batch + (wm.shape[-2], oh * ow),
                   dtype=np.result_type(w, win.dtype))
    for r0 in range(0, oh, rows):
        r = min(rows, oh - r0)
        cols = buf[:n * k * r * ow].reshape(n, c, kh, kw, r, ow)
        cols[...] = win[..., r0:r0 + r, :]
        cols = cols.reshape(batch + (-1, r * ow))
        np.matmul(wm, cols, out=out[..., r0 * ow:(r0 + r) * ow])
    return out.reshape(n, -1, oh, ow), cols if keep else None


def _corr(x: np.ndarray, w: np.ndarray, stride, padding, keep: bool):
    """Correlation of x with w (dense (c_out, c, kh, kw) or depthwise
    (c or 1, kh, kw)) over the ``_windows`` view of the zero-padded map,
    ow columns per output row at every stride.

    Returns (out, cols): the columns, in the matmul's view, serve the
    weight gradient; with neither ``keep`` nor a stride-1 1x1 kernel
    (whose columns are the padded map itself) they are None."""
    n, c, h, w_ = x.shape
    (sh, sw), (ph, pw) = stride, padding
    kh, kw = w.shape[-2:]
    oh, ow = _out_size(h, kh, sh, ph), _out_size(w_, kw, sw, pw)
    xp = _pad(x, ph, pw)
    if (sh, sw, kh, kw) == (1, 1, 1, 1):
        wm, batch = _gemm_form(w, n, c)
        cols = xp.reshape(batch + (-1, oh * ow))
        return np.matmul(wm, cols).reshape(n, -1, oh, ow), cols
    return _im2col_gemm(_windows(xp, kh, kw, sh, sw, oh, ow), w, keep)


def _col2im(g: np.ndarray, w: np.ndarray, hp: int, wp: int, sh: int,
            sw: int) -> np.ndarray:
    """Input gradient of a strided correlation, on the (hp, wp) padded map:
    one matmul, w^T @ g in ``_gemm_form``, gives each tap's share of g, and
    each share is added back where that tap read (col2im)."""
    n, c_out, oh, ow = g.shape
    kh, kw = w.shape[-2:]
    wm, batch = _gemm_form(w, n, c_out)  # depthwise, c is c_out
    gcols = np.matmul(np.swapaxes(wm, -1, -2),
                      g.reshape(batch + (-1, oh * ow)))
    gcols = gcols.reshape(n, -1, kh, kw, oh, ow)
    gxp = np.zeros((n, gcols.shape[1], hp, wp), dtype=g.dtype)
    for i, j, tap in _taps(gxp, kh, kw, sh, sw, oh, ow):
        tap += gcols[:, :, i, j]
    return gxp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0, groups: int = 1) -> Tensor:
    """2-d cross-correlation. groups is 1 (dense) or in_channels > 1
    (depthwise)."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    depthwise = groups > 1 and groups == c
    if groups != 1 and not depthwise:
        raise ValueError(f"groups must be 1 or in_channels, got {groups} for {c} channels")
    if depthwise:
        if c_out != c or c_in_g != 1:
            raise ValueError(f"depthwise weight must be ({c},1,kh,kw), got {weight.shape}")
    elif c_in_g != c:
        raise ValueError(f"weight expects {c_in_g} input channels, input has {c}")
    if bias is not None and bias.shape != (1, c_out, 1, 1):
        raise ValueError(f"bias shape {bias.shape} != (1,{c_out},1,1)")
    w_data = weight.data
    w_eff = w_data[:, 0] if depthwise else w_data
    inputs = [x, weight] + ([bias] if bias is not None else [])
    # the columns are kept only for a weight gradient that will be taken
    keep = grad_enabled() and any(t.requires_grad for t in inputs)
    out_data, cols = _corr(x.data, w_eff, (sh, sw), (ph, pw), keep)
    if bias is not None:
        out_data += bias.data
    out = Tensor(out_data)

    def bwd(g):
        g = np.ascontiguousarray(g)
        gx = None  # nothing reads it: x is neither recorded nor a leaf
        if x.requires_grad and (sh, sw) != (1, 1):
            gxp = _col2im(g, w_eff, h + 2 * ph, w + 2 * pw, sh, sw)
            gx = np.ascontiguousarray(gxp[:, :, ph:ph + h, pw:pw + w])
        elif x.requires_grad:
            if kh - 1 - ph < 0 or kw - 1 - pw < 0:
                raise ValueError(f"padding {ph, pw} exceeds kernel-1 "
                                 f"{kh - 1, kw - 1}")
            # correlation with the flipped kernel, padded by k-1-p
            w_flip = w_eff[..., ::-1, ::-1]
            if not depthwise:
                w_flip = np.ascontiguousarray(w_flip.transpose(1, 0, 2, 3))
            gx = _corr(g, w_flip, (1, 1), (kh - 1 - ph, kw - 1 - pw),
                       False)[0]
        gw = np.matmul(g.reshape(cols.shape[:-2] + (-1, cols.shape[-1])),
                       np.swapaxes(cols, -1, -2))
        grads = [gx, gw.sum(axis=0).reshape(w_data.shape)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1))
        return grads

    return record(out, inputs, bwd, "conv2d")


def _prelu(x: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """max(x, 0) + a * min(x, 0); ``out`` may be x itself."""
    neg = np.minimum(x, 0)
    neg *= a
    out = np.maximum(x, 0, out=out)
    out += neg
    return out


def _prelu_bwd(y: np.ndarray, a: np.ndarray, g: np.ndarray, out=None):
    """(input gradient, alpha gradient (c,)) of the PReLU at y under the
    cotangent g; ``out`` may be y itself, never g."""
    neg = y < 0
    buf = np.minimum(y, 0, out=out)
    buf *= g
    galpha = buf.sum(axis=(0, 2, 3))
    # the slope, alpha where y < 0 and 1 elsewhere, built without branches:
    # np.where on a data-dependent mask is several times slower
    np.multiply(neg, a, out=buf)
    buf += ~neg
    buf *= g
    return buf, galpha


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """y = x for x >= 0, alpha_c * x below; alpha is (1, c, 1, 1)."""
    if alpha.shape != (1, x.shape[1], 1, 1):
        raise ValueError(f"alpha shape {alpha.shape} != (1,{x.shape[1]},1,1)")
    x_data, a_data = x.data, alpha.data
    out = Tensor(_prelu(x_data, a_data))

    def bwd(g):
        gx, ga = _prelu_bwd(x_data, a_data, g)
        return gx, ga.reshape(alpha.shape)

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

    if kind == "max":
        xp = _pad(x.data, ph, pw, -np.inf)
        win = _windows(xp, kh, kw, sh, sw, oh, ow)
        best = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                np.maximum(best, win[:, :, i, j], out=best)
        out = Tensor(best)

        def bwd(g):
            # each window routes to its first row-major maximum, then closes
            gp = np.zeros_like(xp)
            open_ = np.ones(best.shape, dtype=bool)
            for i, j, gtap in _taps(gp, kh, kw, sh, sw, oh, ow):
                hit = open_ & (win[:, :, i, j] == best)
                gtap += np.where(hit, g, 0.0)
                open_ &= ~hit
            return (np.ascontiguousarray(gp[:, :, ph:ph + h, pw:pw + w]),)

        return record(out, [x], bwd, "max_pool2d")

    # a depthwise correlation with a ones kernel, over the window sums of x
    # and of an all-ones image (the in-bounds counts)
    ones = np.ones((1, kh, kw), dtype=x.dtype)
    acc, cnt = (_corr(a, ones, (sh, sw), (ph, pw), False)[0]
                for a in (x.data, np.ones((1, 1, h, w), dtype=x.dtype)))
    out = Tensor(acc / cnt)

    def bwd(g):
        gxp = _col2im(g / cnt, ones, h + 2 * ph, w + 2 * pw, sh, sw)
        return (np.ascontiguousarray(gxp[:, :, ph:ph + h, pw:pw + w]),)

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


def _resize_matrix(src: int, dst: int, mode: str) -> np.ndarray:
    """(dst, src) row-stochastic interpolation matrix, half-pixel convention.

    Bilinear taps out of range clamp to the border, folding their weight
    onto the edge sample, so rows still sum to 1. Bicubic halves (src is
    2 * dst): the matrix of ``_half_bicubic``.
    """
    key = (src, dst, mode)
    cached = _resize_cache.get(key)
    if cached is not None:
        return cached
    if mode == "bicubic":
        mat = _half_bicubic(np.eye(src), 0)
    else:
        coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
        i0 = np.floor(coords).astype(np.int64)
        t = coords - i0
        mat = np.zeros((dst, src), dtype=np.float64)
        for off, wgt in ((0, 1.0 - t), (1, t)):
            idx = np.clip(i0 + off, 0, src - 1)
            np.add.at(mat, (np.arange(dst), idx), wgt)
    _resize_cache[key] = mat
    return mat


# Keys' cubic convolution kernel (a = -0.75) at distances 1.5 and 0.5: the
# taps of a half-size resize.
_HALF_OUTER, _HALF_INNER = -0.09375, 0.59375


def _half_bicubic(x: np.ndarray, axis: int) -> np.ndarray:
    """Bicubic resize of an even axis to half its length, as its 4-tap
    filter: out[i] = 0.59375 (x[2i] + x[2i+1]) - 0.09375 (x[2i-1] + x[2i+2])
    with the edge taps clamped."""
    def at(start, stop=None, step=None):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(start, stop, step)
        return tuple(idx)

    out = np.add(x[at(0, None, 2)], x[at(1, None, 2)])
    out *= _HALF_INNER
    outer = np.empty_like(out)
    outer[at(1)] = x[at(1, -2, 2)]
    outer[at(0, 1)] = x[at(0, 1)]
    outer[at(None, -1)] += x[at(2, None, 2)]
    outer[at(-1)] += x[at(-1)]
    outer *= _HALF_OUTER
    out += outer
    return out


def resize(x: Tensor, out_h: int, out_w: int, mode: str = "bilinear") -> Tensor:
    """Separable resize. Bilinear applies per-axis interpolation matrices;
    bicubic only halves each side (the network's front end) and runs as
    its 4-tap filter. The backward is always the transposed matrix
    product, the adjoint of either forward."""
    if mode not in ("bilinear", "bicubic"):
        raise ValueError(f"resize mode {mode!r}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize target {out_h}x{out_w} < 1")
    n, c, h, w = x.shape
    if mode == "bicubic":
        if (h, w) != (2 * out_h, 2 * out_w):
            raise ValueError(f"bicubic resize only halves each side, not "
                             f"{h}x{w} to {out_h}x{out_w}")
        y = _half_bicubic(_half_bicubic(x.data, 2), 3)
    else:
        ah = _resize_matrix(h, out_h, mode).astype(x.dtype)
        aw = _resize_matrix(w, out_w, mode).astype(x.dtype)
        y = np.matmul(np.matmul(ah, x.data), aw.T)
    out = Tensor(y)

    def bwd(g):
        ah = _resize_matrix(h, out_h, mode).astype(g.dtype)
        aw = _resize_matrix(w, out_w, mode).astype(g.dtype)
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


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, alpha: Tensor | None,
              stats: tuple[np.ndarray, np.ndarray] | None = None
              ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch norm, then PReLU with slope ``alpha`` when one is given, as one
    recorded op; returns (output, mean, variance), each statistic (c,).

    With ``stats=None`` it normalises by the batch's own mean and biased
    variance (training); with ``stats=(mean, var)``, each (1, c, 1, 1), by
    those frozen values (eval). One forward body serves every case: a
    centred copy of x is scaled in place into xhat; in training its squares
    buffer, summed with ``np.var``'s float steps for the variance, then
    holds the output; the PReLU, when given, runs in place on it. The node
    keeps only xhat. The backward recomputes y = gamma * xhat + beta for
    the PReLU's slope and alpha gradient, so the activation is never
    inverted and alpha may be 0, and it never writes over the incoming
    gradient, which ``add`` hands to both of its inputs."""
    n, c, h, w = x.shape
    if alpha is not None and alpha.shape != (1, c, 1, 1):
        raise ValueError(f"alpha shape {alpha.shape} != (1,{c},1,1)")
    train = stats is None
    m = n * h * w
    if train:
        if m < 2:
            raise ValueError(f"batchnorm train mode needs n*h*w >= 2, got {m}")
        mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
    else:
        mean, var = stats
    g_data, b_data = gamma.data, beta.data
    a_data = None if alpha is None else alpha.data
    xhat = x.data - mean
    y = None
    if train:
        y = np.multiply(xhat, xhat)
        var = y.sum(axis=(0, 2, 3), keepdims=True) / m
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= invstd
    y = np.multiply(xhat, g_data, out=y)
    y += b_data
    if alpha is not None:
        _prelu(y, a_data, out=y)
    out = Tensor(y)

    def bwd(g):
        gy = g
        if alpha is not None:
            gy = np.multiply(xhat, g_data)
            gy += b_data
            gy, galpha = _prelu_bwd(gy, a_data, g, out=gy)
        sg = gy.sum(axis=(0, 2, 3), keepdims=True)
        buf = np.multiply(gy, xhat)
        sgx = buf.sum(axis=(0, 2, 3), keepdims=True)
        own = None if gy is g else gy  # only an array this op made is reused
        if train:
            np.multiply(xhat, sgx, out=buf)
            gx = np.multiply(gy, m, out=own)
            gx -= sg
            gx -= buf
            gx *= g_data * invstd / m
        else:
            gx = np.multiply(gy, g_data, out=own)
            gx *= invstd
        grads = [gx, sgx.reshape(gamma.shape), sg.reshape(beta.shape)]
        if alpha is not None:
            grads.append(galpha.reshape(alpha.shape))
        return grads

    inputs = [x, gamma, beta] + ([alpha] if alpha is not None else [])
    op = "batchnorm_train" if train else "batchnorm_eval"
    return record(out, inputs, bwd, op), mean.reshape(-1), var.reshape(-1)


# -- layer modules ------------------------------------------------------------


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel=3,
                 stride=1, padding=0, groups: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        kh, kw = _pair(kernel)
        if groups != 1 and not in_channels == out_channels == groups:
            raise ValueError(f"groups must be 1 or equal both channel counts, "
                             f"got {groups} for {in_channels}->{out_channels}")
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = groups
        fan_in = (in_channels // groups) * kh * kw
        shape = (out_channels, in_channels // groups, kh, kw)
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(he_uniform(rng, shape, fan_in),
                             requires_grad=True)
        if bias:
            self.bias = Tensor.zeros((1, out_channels, 1, 1),
                                     requires_grad=True)
        else:
            self.bias = None

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding,
                      self.groups)


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        super().__init__()
        shape = (1, channels, 1, 1)
        self.gamma = Tensor.ones(shape, requires_grad=True)
        self.beta = Tensor.zeros(shape, requires_grad=True)
        self.running_mean = Tensor.zeros(shape)
        self.running_var = Tensor.ones(shape)

    def __call__(self, x: Tensor, alpha: Tensor | None = None) -> Tensor:
        """Batch norm, then PReLU with slope ``alpha`` when one is given."""
        stats = None
        if not self.training:
            self._check_running_var()
            stats = (self.running_mean.data, self.running_var.data)
        y, mean, var = batchnorm(x, self.gamma, self.beta, alpha, stats)
        if self.training:
            self.update_running(mean, var)
        return y

    def update_running(self, mean: np.ndarray, var: np.ndarray):
        """Fold one batch's mean and biased variance into the running
        statistics with weight ``BN_MOMENTUM``."""
        m = BN_MOMENTUM
        rm = self.running_mean.data.reshape(-1)
        rv = self.running_var.data.reshape(-1)
        rm *= 1.0 - m
        rm += m * mean.astype(rm.dtype)
        rv *= 1.0 - m
        rv += m * var.astype(rv.dtype)

    def _check_running_var(self):
        if (self.running_var.data <= 0).any():
            raise AutodiffError("batchnorm running_var must stay positive")

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift), each (1, c, 1, 1): the eval-mode map is
        scale * x + shift, so a conv before it can absorb both."""
        self._check_running_var()
        scale = self.gamma.data / np.sqrt(self.running_var.data + BN_EPS)
        return scale, self.beta.data - self.running_mean.data * scale


class PReLU(Module):
    def __init__(self, channels: int):
        super().__init__()
        self.alpha = Tensor(np.full((1, channels, 1, 1), PRELU_INIT,
                                    dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return prelu(x, self.alpha)
