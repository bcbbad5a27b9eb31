"""Conv / norm / activation / resample primitives against independent
oracles: scipy correlation, naive window loops, and hand matrices."""

import math

import numpy as np
import pytest
from scipy.signal import correlate2d

from csdn import layers
from csdn.autodiff import (AutodiffError, Tensor, backward, no_grad, record,
                           reduce_sum)
from csdn.layers import (BatchNorm2d, Conv2d, PReLU, _out_size,
                         batchnorm, concat_channels, conv2d, global_avg_pool,
                         he_uniform, pixel_shuffle, pixel_unshuffle, pool2d,
                         prelu, resize, sigmoid)
from csdn.model import ConvBNAct

F64 = np.float64


def t(rng, *shape, grad=False):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


# -- convolution --------------------------------------------------------------


def conv_oracle(x, w, b, stride, padding):
    # dense cross-correlation, nested loops over scipy 2-d correlate
    n, c, h, w_ = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w_, kw, stride, padding)
    out = np.zeros((n, c_out, oh, ow))
    for i in range(n):
        for o in range(c_out):
            acc = np.zeros((h + 2 * padding - kh + 1, w_ + 2 * padding - kw + 1))
            for j in range(c):
                acc += correlate2d(xp[i, j], w[o, j], mode="valid")
            out[i, o] = acc[::stride, ::stride]
    if b is not None:
        out += b
    return out


def test_conv2d_matches_scipy():
    # seeds 8 and 9 are dense convs from one input channel (groups=1)
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(seed))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        k = int(rng.integers(1, 4))
        c = 1 if seed >= 8 else 3
        x = t(rng, 2, c, 7, 8)
        w = t(rng, 4, c, k, k)
        b = t(rng, 1, 4, 1, 1)
        got = conv2d(x, w, b, stride=stride, padding=padding)
        want = conv_oracle(x.data, w.data, b.data, stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-12)


def test_conv2d_depthwise_matches_per_channel_scipy():
    for seed in range(6):
        rng = np.random.Generator(np.random.PCG64(seed + 50))
        x = t(rng, 2, 5, 6, 6)
        w = t(rng, 5, 1, 3, 3)
        got = conv2d(x, w, None, stride=1, padding=1, groups=5)
        for j in range(5):
            xp = np.pad(x.data[:, j], ((0, 0), (1, 1), (1, 1)))
            for i in range(2):
                want = correlate2d(xp[i], w.data[j, 0], mode="valid")
                assert np.allclose(got.data[i, j], want, atol=1e-12)


def test_depthwise_channel_independence():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.normal(size=(1, 6, 8, 8))
    w = Tensor(rng.normal(size=(6, 1, 3, 3)))
    base = conv2d(Tensor(x.copy()), w, None, padding=1, groups=6).data
    bumped = x.copy()
    bumped[:, 2] += 1.0
    out = conv2d(Tensor(bumped), w, None, padding=1, groups=6).data
    changed = [j for j in range(6)
               if not np.array_equal(out[:, j], base[:, j])]
    assert changed == [2]


def test_conv2d_shape_guards():
    x = Tensor.ones((1, 4, 8, 8))
    with pytest.raises(ValueError, match="groups"):
        conv2d(x, Tensor.ones((4, 2, 3, 3)), None, groups=2)
    with pytest.raises(ValueError, match="depthwise"):
        conv2d(x, Tensor.ones((8, 1, 3, 3)), None, groups=4)
    with pytest.raises(ValueError, match="input channels"):
        conv2d(x, Tensor.ones((2, 3, 3, 3)), None)
    with pytest.raises(ValueError, match="bias"):
        conv2d(x, Tensor.ones((2, 4, 3, 3)), Tensor.ones((1, 3, 1, 1)))


def test_conv2d_input_gradient_strided():
    # dL/dx for L = sum(conv(x)) equals correlation of ones with flipped kernel;
    # checked against a brute accumulation loop
    rng = np.random.Generator(np.random.PCG64(7))
    x = t(rng, 1, 2, 6, 6, grad=True)
    w = t(rng, 3, 2, 3, 3)
    out = conv2d(x, w, None, stride=2, padding=1)
    backward(reduce_sum(out))
    want = np.zeros_like(x.data)
    _, _, oh, ow = out.shape
    for o in range(3):
        for oy in range(oh):
            for ox in range(ow):
                for ky in range(3):
                    for kx in range(3):
                        iy, ix = 2 * oy + ky - 1, 2 * ox + kx - 1
                        if 0 <= iy < 6 and 0 <= ix < 6:
                            want[0, :, iy, ix] += w.data[o, :, ky, kx]
    assert np.allclose(x.grad, want, atol=1e-12)


def direct_conv(x, w, stride, padding, depthwise):
    # float64 loop over output pixels, one window dot product each
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = w.shape[2:]
    oh = _out_size(x.shape[2], kh, stride, padding)
    ow = _out_size(x.shape[3], kw, stride, padding)
    out = np.zeros((x.shape[0], w.shape[0], oh, ow))
    for oy in range(oh):
        for ox in range(ow):
            win = xp[:, :, oy * stride:oy * stride + kh,
                     ox * stride:ox * stride + kw]
            if depthwise:
                out[:, :, oy, ox] = (win * w[:, 0]).sum(axis=(2, 3))
            else:
                out[:, :, oy, ox] = np.tensordot(win, w,
                                                 axes=([1, 2, 3], [1, 2, 3]))
    return out


@pytest.mark.parametrize("depthwise", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_fast_paths_match_direct_loop(depthwise, stride):
    rng = np.random.Generator(np.random.PCG64(60 + stride))
    for k, padding in ((3, 1), (3, 0), (1, 0)):
        x = t(rng, 2, 4, 9, 10)
        w = t(rng, 4, 1, k, k) if depthwise else t(rng, 5, 4, k, k)
        got = conv2d(x, w, None, stride=stride, padding=padding,
                     groups=4 if depthwise else 1)
        want = direct_conv(x.data, w.data, stride, padding, depthwise)
        assert got.data.dtype == F64
        assert np.allclose(got.data, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("depthwise", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_backward_is_adjoint(depthwise, stride):
    # conv is bilinear, so <g, conv(x, w)> = <gx, x> = <gw, w>
    rng = np.random.Generator(np.random.PCG64(70 + stride))
    for k, padding in ((3, 1), (1, 0)):
        x = t(rng, 2, 4, 9, 8, grad=True)
        w = t(rng, 4, 1, k, k, grad=True) if depthwise \
            else t(rng, 6, 4, k, k, grad=True)
        out = conv2d(x, w, None, stride=stride, padding=padding,
                     groups=4 if depthwise else 1)
        g = rng.normal(size=out.shape)
        backward(reduce_sum(out * Tensor(g)))
        inner = float(np.vdot(g, out.data))
        assert np.isclose(np.vdot(x.grad, x.data), inner, rtol=1e-12)
        assert np.isclose(np.vdot(w.grad, w.data), inner, rtol=1e-12)


def test_conv2d_skips_the_gradient_of_a_plain_input(monkeypatch):
    # backward drops an input gradient for an x that is neither recorded
    # nor a leaf wanting one, so conv2d forms none: no _corr, no _col2im
    rng = np.random.Generator(np.random.PCG64(75))
    for depthwise in (False, True):
        for stride in (1, 2):
            x = rng.normal(size=(2, 4, 9, 8))
            w = rng.normal(size=(4, 1, 3, 3) if depthwise else (5, 4, 3, 3))
            g = rng.normal(size=(2, len(w), _out_size(9, 3, stride, 1),
                                 _out_size(8, 3, stride, 1)))
            grads, calls = [], []
            for x_grad in (True, False):
                xt = Tensor(x, requires_grad=x_grad)
                wt = Tensor(w, requires_grad=True)
                out = conv2d(xt, wt, None, stride=stride, padding=1,
                             groups=4 if depthwise else 1)
                with monkeypatch.context() as m:
                    if not x_grad:
                        for name in ("_corr", "_col2im"):
                            m.setattr(layers, name,
                                      lambda *a, name=name: calls.append(name))
                    backward(reduce_sum(out * Tensor(g)))
                assert (xt.grad is not None) == x_grad
                grads.append(wt.grad)
            assert calls == []
            assert np.array_equal(grads[0], grads[1])


def canvas_input_grad(g, w, stride, padding, h, w_, depthwise):
    """The input gradient as a stride-1 correlation: dilate g by the stride
    onto a zero canvas padded by k-1-p (plus the rows and columns the
    stride never reached) and correlate with the flipped kernel."""
    n, c_out, oh, ow = g.shape
    kh, kw = w.shape[2:]
    top, left = kh - 1 - padding, kw - 1 - padding
    rh = (h + 2 * padding - kh) - (oh - 1) * stride
    rw = (w_ + 2 * padding - kw) - (ow - 1) * stride
    dh, dw = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    canvas = np.zeros((n, c_out, 2 * top + dh + rh, 2 * left + dw + rw))
    canvas[:, :, top:top + dh:stride, left:left + dw:stride] = g
    flip = w[:, :, ::-1, ::-1]
    c = c_out if depthwise else w.shape[1]
    out = np.zeros((n, c, h, w_))
    for i in range(kh):
        for j in range(kw):
            win = canvas[:, :, i:i + h, j:j + w_]
            if depthwise:
                out += win * flip[:, 0, i, j].reshape(1, c, 1, 1)
            else:
                out += np.einsum("nohw,oc->nchw", win, flip[:, :, i, j])
    return out


@pytest.mark.parametrize("depthwise", [False, True])
def test_col2im_input_gradient_matches_dilated_canvas(depthwise):
    rng = np.random.Generator(np.random.PCG64(80))
    for h, w_ in ((9, 8), (8, 8), (7, 9)):
        for padding in (0, 1):
            x = t(rng, 2, 4, h, w_, grad=True)
            w = t(rng, 4, 1, 3, 3) if depthwise else t(rng, 5, 4, 3, 3)
            out = conv2d(x, w, None, stride=2, padding=padding,
                         groups=4 if depthwise else 1)
            g = rng.normal(size=out.shape)
            backward(reduce_sum(out * Tensor(g)))
            want = canvas_input_grad(g, w.data, 2, padding, h, w_, depthwise)
            assert np.abs(x.grad - want).max() <= 1e-12 * np.abs(want).max()


def np_pad_columns(x, kh, kw, padding, stride):
    """(n, c, kh, kw, oh, ow) im2col columns of x: np.pad, then one strided
    tap of the padded map per kernel offset."""
    p, s = padding, stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oh = (xp.shape[2] - kh) // s + 1
    ow = (xp.shape[3] - kw) // s + 1
    cols = np.zeros(x.shape[:2] + (kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
    return cols, ow


def strided_depthwise(x, w, padding, stride=1):
    """Each channel's (1, k*k) weight row times its (k*k, oh*ow) columns,
    laid out ow wide as conv2d lays them at every stride: OpenBLAS's
    float64 gemv rounds the last few columns of a product its own way, so
    the widths must agree."""
    n, c = x.shape[:2]
    cols, ow = np_pad_columns(x, *w.shape[2:], padding, stride)
    oh = cols.shape[4]
    y = np.matmul(w.reshape(c, 1, -1), cols.reshape(n, c, -1, oh * ow))
    return y.reshape(n, c, oh, ow)


def test_flat_depthwise_is_bit_identical_to_strided_taps():
    rng = np.random.Generator(np.random.PCG64(81))
    for shape, padding in (((2, 6, 9, 7), 1), ((3, 4, 8, 8), 0),
                           ((1, 5, 16, 12), 1)):
        for dtype in (np.float32, F64):
            x = rng.normal(size=shape).astype(dtype)
            w = rng.normal(size=(shape[1], 1, 3, 3)).astype(dtype)
            for stride in (1, 2):
                got = conv2d(Tensor(x), Tensor(w), None, stride=stride,
                             padding=padding, groups=shape[1]).data
                assert got.dtype == dtype
                assert np.array_equal(
                    got, strided_depthwise(x, w, padding, stride))


def mac_depthwise(x, w, padding, stride):
    # k*k shifted multiply-accumulates: zero-init, then += tap * w per tap
    cols, _ = np_pad_columns(x, *w.shape[2:], padding, stride)
    out = np.zeros(cols.shape[:2] + cols.shape[4:], dtype=x.dtype)
    for i in range(w.shape[2]):
        for j in range(w.shape[3]):
            out += cols[:, :, i, j] * w[:, 0, i, j].reshape(1, -1, 1, 1)
    return out


def exact_and_bound(terms, axis):
    """``math.fsum`` of the float64 terms along ``axis``, and the bound
    n_terms * eps * sum |term| there on any float32 order of that sum."""
    exact = np.apply_along_axis(math.fsum, axis, terms)
    eps = np.finfo(np.float32).eps
    return exact, terms.shape[axis] * eps * np.abs(terms).sum(axis=axis)


# kind -> (weight shape, groups, paddings) on a (2, 4, 9, 8) input
CONV_KINDS = {"depthwise": ((4, 1, 3, 3), 4, (1, 0)),
              "dense3x3": ((5, 4, 3, 3), 1, (1, 0)),
              "dense1x1": ((5, 4, 1, 1), 1, (0,))}


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kind", list(CONV_KINDS))
def test_conv_float32_error_within_dot_product_bound(kind, stride):
    # against the exact sum of each output's float64 products (a float32
    # product is exact in float64), float32 sums in any order, the
    # depthwise k*k multiply-accumulate too, err by at most n_terms * eps *
    # sum |w * x|; the input and weight gradients of each kind likewise,
    # their sums running over the output channels that read an input
    # channel and the taps, and over the batch and the map
    rng = np.random.Generator(np.random.PCG64(82))
    shape, groups, paddings = CONV_KINDS[kind]
    c_out, _, kh, kw = shape
    for p in paddings:
        x = rng.normal(size=(2, 4, 9, 8)).astype(np.float32)
        w = rng.normal(size=shape).astype(np.float32)
        cols, _ = np_pad_columns(x.astype(F64), kh, kw, p, stride)
        n, c, _, _, oh, ow = cols.shape
        g = rng.normal(size=(n, c_out, oh, ow)).astype(np.float32)
        y, gx, gw = _run(lambda *ts: (conv2d(*ts, stride=stride, padding=p,
                                             groups=groups),), (x, w), g)
        w64, g64 = w.astype(F64), g.astype(F64)
        # (n, c_out, c_in, kh, kw, oh, ow) columns each output channel
        # reads: depthwise, channel c alone; dense, every channel
        cols = cols[:, :, None] if groups > 1 else cols[:, None]
        terms = cols * w64.reshape(1, *shape, 1, 1)
        checks = [(y, terms.reshape(n, c_out, -1, oh, ow), 2)]
        if kind == "depthwise":
            checks.append((mac_depthwise(x, w, p, stride), checks[0][1], 2))
        tw = cols * g64[:, :, None, None, None]
        checks.append((gw, np.moveaxis(tw, 0, 4).reshape(*shape, -1), 4))
        # each tap's share of g, at the padded pixel that tap read, over
        # the output channels that read the pixel's channel
        tx = np.zeros((n, c, 9 + 2 * p, 8 + 2 * p, c_out // groups, kh, kw))
        for i in range(kh):
            for j in range(kw):
                share = g64[:, :, None] * w64[:, :, i, j, None, None]
                tx[:, :, i:i + stride * oh:stride,
                   j:j + stride * ow:stride, :, i, j] = \
                    np.moveaxis(share, 2 if groups > 1 else 1, 4)
        checks.append((gx, tx[:, :, p:p + 9, p:p + 8].reshape(
            n, c, 9, 8, -1), 4))
        for got, t, axis in checks:
            exact, bound = exact_and_bound(t, axis)
            assert got.dtype == np.float32 and got.shape == exact.shape
            assert (np.abs(got - exact) <= bound).all(), (kind, stride, p)


# The strided conv and the two pools as they ran before every windowed op
# read one flat padded buffer: np.pad, then strided taps of the padded map,
# with the conv's columns reduced by the same matmuls as conv2d's. Kept as
# the oracle the shared machinery must match bit for bit.


def np_pad_strided_conv(x, w, b, g, stride, padding, depthwise):
    """(output, input, weight and bias gradients) of a strided conv under
    the cotangent g."""
    s, p = stride, padding
    n, c, h, w_ = x.shape
    c_out, _, kh, kw = w.shape
    cols, _ = np_pad_columns(x, kh, kw, p, s)
    oh, ow = g.shape[2:]
    if depthwise:  # a (1, k*k) weight row per channel
        wm = w.reshape(c, 1, -1)
        cols = cols.reshape(n, c, kh * kw, oh * ow)
        gm = g.reshape(n, c, 1, -1)
    else:
        wm = w.reshape(c_out, -1)
        cols = cols.reshape(n, c * kh * kw, oh * ow)
        gm = g.reshape(n, c_out, -1)
    y = np.matmul(wm, cols).reshape(n, c_out, oh, ow)
    gcols = np.matmul(np.swapaxes(wm, -1, -2), gm)
    gcols = gcols.reshape(n, c, kh, kw, oh, ow)
    gxp = np.zeros((n, c, h + 2 * p, w_ + 2 * p), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += gcols[:, :, i, j]
    gw = np.matmul(gm, np.swapaxes(cols, -1, -2))
    gw = gw.sum(axis=0).reshape(w.shape)
    y += b
    gx = gxp[:, :, p:p + h, p:p + w_]
    return y, gx, gw, g.sum(axis=(0, 2, 3)).reshape(b.shape)


def np_pad_pool(kind, x, g, k, s, p):
    """(output, input gradient) of a max or in-bounds average pool under
    the cotangent g."""
    n, c, h, w = x.shape
    oh, ow = g.shape[2:]
    offsets = [(slice(None), slice(None), slice(di, di + s * oh, s),
                slice(dj, dj + s * ow, s))
               for di in range(k) for dj in range(k)]
    if kind == "max":
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)),
                    constant_values=-np.inf)
        best = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
        for sl in offsets:
            np.maximum(best, xp[sl], out=best)
        gp = np.zeros_like(xp)
        open_ = np.ones(best.shape, dtype=bool)
        for sl in offsets:
            hit = open_ & (xp[sl] == best)
            gp[sl] += np.where(hit, g, 0.0)
            open_ &= ~hit
        return best, gp[:, :, p:p + h, p:p + w]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ones = np.zeros((1, 1, h + 2 * p, w + 2 * p), dtype=x.dtype)
    ones[:, :, p:p + h, p:p + w] = 1.0
    acc = np.zeros((n, c, oh, ow), dtype=x.dtype)
    cnt = np.zeros((1, 1, oh, ow), dtype=x.dtype)
    for sl in offsets:
        acc += xp[sl]
        cnt += ones[sl]
    gn = g / cnt
    gp = np.zeros_like(xp)
    for sl in offsets:
        gp[sl] += gn
    return acc / cnt, gp[:, :, p:p + h, p:p + w]


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_strided_conv_and_pools_match_np_pad_oracle(dtype):
    rng = np.random.Generator(np.random.PCG64(85))
    for depthwise in (False, True):
        for k, padding in ((3, 1), (3, 0), (1, 0), (5, 2)):
            x = rng.normal(size=(2, 4, 9, 10)).astype(dtype)
            shape = (4, 1, k, k) if depthwise else (5, 4, k, k)
            w = rng.normal(size=shape).astype(dtype)
            b = rng.normal(size=(1, shape[0], 1, 1)).astype(dtype)
            oh, ow = _out_size(9, k, 2, padding), _out_size(10, k, 2, padding)
            g = rng.normal(size=(2, shape[0], oh, ow)).astype(dtype)
            got = _run(lambda *ts: (conv2d(*ts, stride=2, padding=padding,
                                           groups=4 if depthwise else 1),),
                       (x, w, b), g)
            want = np_pad_strided_conv(x, w, b, g, 2, padding, depthwise)
            for u, v in zip(got, want, strict=True):
                assert u.dtype == dtype
                assert np.array_equal(u, v), (depthwise, k, padding)
    for kind in ("max", "avg"):
        for k, s, p in ((3, 2, 1), (2, 2, 0), (3, 1, 1)):
            # integer values: max-pool windows tie, inside and across windows
            x = rng.integers(-2, 3, size=(2, 3, 9, 8)).astype(dtype)
            g = rng.normal(size=(2, 3, _out_size(9, k, s, p),
                                 _out_size(8, k, s, p))).astype(dtype)
            got = _run(lambda t: (pool2d(kind, t, k, s, p),), (x,), g)
            for u, v in zip(got, np_pad_pool(kind, x, g, k, s, p),
                            strict=True):
                assert u.dtype == dtype
                assert np.array_equal(u, v), (kind, k, s, p)


# (input shape, kernel, padding) per stride, each with 17 or 18 output
# rows
BANDED = {1: [((2, 3, 17, 10), 3, 1), ((3, 2, 18, 14), 5, 2),
              ((2, 4, 19, 9), 3, 0)],
          2: [((2, 3, 33, 15), 3, 1), ((3, 2, 35, 20), 5, 2),
              ((2, 4, 36, 33), 3, 0)]}


def band_rows(monkeypatch):
    """Make every ``_windows`` view log into the returned list the row
    count of each band that ``_im2col_gemm`` copies out of it."""
    rows = []

    class Logged(np.ndarray):
        def __getitem__(self, key):
            part = super().__getitem__(key)
            if isinstance(key, tuple) and key[0] is Ellipsis:
                rows.append(part.shape[-2])
            return part

    windows = layers._windows
    monkeypatch.setattr(layers, "_windows",
                        lambda *args: windows(*args).view(Logged))
    return rows


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("stride", [1, 2])
def test_banded_im2col_matches_one_band(monkeypatch, stride, dtype):
    rng = np.random.Generator(np.random.PCG64(90 + stride))
    rows = band_rows(monkeypatch)
    partial = 0
    for depthwise in (False, True):
        for shape, k, padding in BANDED[stride]:
            c = shape[1]
            w_shape = (c, 1, k, k) if depthwise else (5, c, k, k)
            x = Tensor(rng.normal(size=shape).astype(dtype))
            w = Tensor(rng.normal(size=w_shape).astype(dtype))
            b = Tensor(rng.normal(size=(1, w_shape[0], 1, 1)).astype(dtype))
            outs = []
            for band in (1 << 40, 1, 1 << 13):
                monkeypatch.setattr(layers, "_BAND_BYTES", band)
                rows.clear()
                with no_grad():
                    out = conv2d(x, w, b, stride=stride, padding=padding,
                                 groups=c if depthwise else 1)
                outs.append(out.data)
                assert sum(rows) == outs[0].shape[2]
                if band == 1:
                    assert len(rows) > 1
                    partial += rows[-1] < rows[0]
            assert outs[0].dtype == dtype
            for out in outs[1:]:
                assert np.array_equal(out, outs[0]), (depthwise, shape)
            if dtype is F64:
                want = direct_conv(x.data, w.data, stride, padding, depthwise)
                assert np.allclose(outs[1], want + b.data, rtol=0, atol=1e-12)
    assert partial >= 4


def test_banded_stride1_input_gradient(monkeypatch):
    # the input gradient's correlation keeps no columns, so it runs in bands
    # even with grad on; the forward keeps them and runs as one band
    rng = np.random.Generator(np.random.PCG64(93))
    rows = band_rows(monkeypatch)
    for shape, k, padding in BANDED[1]:
        x = t(rng, *shape, grad=True)
        w = t(rng, 5, shape[1], k, k, grad=True)
        g = rng.normal(size=(shape[0], 5, shape[2] + 2 * padding - k + 1,
                             shape[3] + 2 * padding - k + 1))
        grads = []
        for band in (1 << 40, 1):
            monkeypatch.setattr(layers, "_BAND_BYTES", band)
            x.grad = w.grad = None
            rows.clear()
            out = conv2d(x, w, None, padding=padding)
            assert rows == [g.shape[2]]
            backward(reduce_sum(out * Tensor(g)))
            bands = rows[1:]  # the input gradient's
            assert sum(bands) == shape[2]
            assert len(bands) == 1 if band > 1 else len(bands) > 1
            grads.append((out.data, x.grad, w.grad))
        (out, gx, gw), (out1, gx1, gw1) = grads
        assert np.array_equal(out1, out) and np.array_equal(gw1, gw)
        assert np.array_equal(gx1, gx)
        want = canvas_input_grad(g, w.data, 1, padding, shape[2], shape[3],
                                 False)
        assert np.abs(gx1 - want).max() <= 1e-12 * np.abs(want).max()
        assert np.isclose(np.vdot(gx1, x.data), np.vdot(g, out), rtol=1e-12)


# -- activations --------------------------------------------------------------


def test_prelu_values_and_alpha_guard():
    rng = np.random.Generator(np.random.PCG64(1))
    x = t(rng, 2, 3, 4, 4)
    x.data[:, :, 1] = 0.0  # exact zeros take the x >= 0 branch
    alpha = np.array([0.1, 0.5, -0.2]).reshape(1, 3, 1, 1)
    for dtype in (F64, np.float32):
        xd = Tensor(x.data.astype(dtype), requires_grad=True)
        a = Tensor(alpha.astype(dtype), requires_grad=True)
        y = prelu(xd, a)
        want = np.where(xd.data < 0, a.data * xd.data, xd.data)
        assert y.data.dtype == dtype
        assert np.array_equal(y.data, want)
        backward(reduce_sum(y))
        assert np.array_equal(xd.grad.data, np.where(xd.data < 0, a.data,
                                                     np.ones_like(xd.data)))
    with pytest.raises(ValueError, match="alpha"):
        prelu(x, Tensor.ones((1, 4, 1, 1), dtype=F64))


def test_sigmoid_values_and_saturation():
    rng = np.random.Generator(np.random.PCG64(2))
    x = t(rng, 1, 2, 3, 3)
    assert np.allclose(sigmoid(x).data, 1.0 / (1.0 + np.exp(-x.data)))
    ext = Tensor(np.array([-1000.0, 1000.0, 0.0, -40.0]).reshape(1, 1, 2, 2))
    y = sigmoid(ext).data.ravel()
    assert y[0] == 0.0 and y[1] == 1.0 and y[2] == 0.5
    assert 0.0 < y[3] < 1e-15


# -- pooling ------------------------------------------------------------------


def pool_oracle(kind, x, k, s, p):
    n, c, h, w = x.shape
    oh, ow = _out_size(h, k, s, p), _out_size(w, k, s, p)
    out = np.zeros((n, c, oh, ow))
    for oy in range(oh):
        for ox in range(ow):
            ys = [y for y in range(s * oy - p, s * oy - p + k) if 0 <= y < h]
            xs = [z for z in range(s * ox - p, s * ox - p + k) if 0 <= z < w]
            win = x[:, :, ys][:, :, :, xs]
            out[:, :, oy, ox] = (win.max(axis=(2, 3)) if kind == "max"
                                 else win.mean(axis=(2, 3)))
    return out


def test_pool2d_matches_window_loop():
    for seed in range(6):
        rng = np.random.Generator(np.random.PCG64(seed + 20))
        x = t(rng, 2, 3, 9, 7)
        for kind in ("max", "avg"):
            got = pool2d(kind, x, kernel=3, stride=2, padding=1)
            want = pool_oracle(kind, x.data, 3, 2, 1)
            assert np.allclose(got.data, want, atol=1e-12), (kind, seed)


def test_pool2d_kind_guard():
    with pytest.raises(ValueError, match="pool kind"):
        pool2d("median", Tensor.ones((1, 1, 4, 4)))


def test_max_pool_gradient_routes_to_argmax():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
    out = pool2d("max", x, kernel=2, stride=2, padding=0)
    backward(reduce_sum(out))
    want = np.zeros((1, 1, 4, 4))
    want[0, 0, 1::2, 1::2] = 1.0  # bottom-right of each 2x2 block is largest
    assert np.array_equal(x.grad, want)


def test_max_pool_ties_route_to_first_offset():
    # a tied window sends its whole gradient to its first row-major maximum
    x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
    x.data[0, 0, 0, 1] = x.data[0, 0, 1, 0] = 1.0
    backward(reduce_sum(pool2d("max", x, kernel=2, stride=2, padding=0)))
    want = np.zeros((1, 1, 4, 4))
    want[0, 0, 0, 1] = want[0, 0, 0, 2] = want[0, 0, 2, 0] = want[0, 0, 2, 2] = 1.0
    assert np.array_equal(x.grad, want)
    # overlapping windows of a constant image: each routes once, to its
    # first in-bounds pixel (the padding is -inf and never ties)
    c = Tensor(np.full((1, 1, 5, 5), 2.0), requires_grad=True)
    backward(reduce_sum(pool2d("max", c, kernel=3, stride=2, padding=1)))
    want = np.zeros((1, 1, 5, 5))
    want[0, 0][np.ix_([0, 1, 3], [0, 1, 3])] = 1.0
    assert np.array_equal(c.grad, want)


def test_global_avg_pool():
    rng = np.random.Generator(np.random.PCG64(4))
    x = t(rng, 2, 3, 5, 7, grad=True)
    got = global_avg_pool(x)
    assert got.shape == (2, 3, 1, 1)
    assert np.allclose(got.data, x.data.mean(axis=(2, 3), keepdims=True))
    backward(reduce_sum(got))
    assert np.allclose(x.grad, np.full_like(x.data, 1.0 / 35.0))


# -- resize -------------------------------------------------------------------


def test_resize_identity_when_same_size():
    rng = np.random.Generator(np.random.PCG64(5))
    x = t(rng, 1, 2, 6, 6)
    assert np.allclose(resize(x, 6, 6).data, x.data, atol=1e-12)


def test_resize_bilinear_hand_case():
    # doubling [a, b] under the half-pixel convention:
    # [a, 0.75a+0.25b, 0.25a+0.75b, b]
    x = Tensor(np.array([2.0, 6.0]).reshape(1, 1, 1, 2))
    y = resize(x, 1, 4, "bilinear").data.ravel()
    assert np.allclose(y, [2.0, 3.0, 5.0, 6.0])


def test_resize_rows_are_convex_weights():
    # every output pixel of a constant image stays that constant
    c = Tensor(np.full((1, 1, 14, 10), 3.7))
    for mode, hw in (("bilinear", (26, 18)), ("bilinear", (7, 5)),
                     ("bilinear", (64, 64)), ("bicubic", (7, 5))):
        out = resize(c, hw[0], hw[1], mode)
        assert np.allclose(out.data, 3.7, atol=1e-12), (mode, hw)


def test_resize_downsample_by_two_averages_pairs():
    # half-pixel bilinear x0.5 lands exactly between sample pairs
    x = Tensor(np.arange(8.0).reshape(1, 1, 1, 8))
    y = resize(x, 1, 4, "bilinear").data.ravel()
    assert np.allclose(y, [0.5, 2.5, 4.5, 6.5])


def test_resize_guards():
    x = Tensor.ones((1, 1, 4, 4))
    with pytest.raises(ValueError, match="resize target"):
        resize(x, 0, 4)
    with pytest.raises(ValueError, match="resize mode"):
        resize(x, 4, 4, "lanczos")
    for hw in ((4, 4), (2, 3), (8, 8)):
        with pytest.raises(ValueError, match="only halves"):
            resize(x, *hw, "bicubic")


def test_resize_gradient_is_transpose():
    rng = np.random.Generator(np.random.PCG64(6))
    x = t(rng, 1, 1, 8, 8, grad=True)
    out = resize(x, 4, 4, "bicubic")
    backward(reduce_sum(out))
    # each of the 16 outputs of a row-stochastic resize hands back one unit
    assert np.allclose(x.grad.sum(), 16.0, atol=1e-9)


def keys_half_matrix(src):
    """(src/2, src) half-size resize matrix from Keys' cubic kernel with
    a = -0.75, half-pixel centres, edge taps clamped. Every tap lies at
    distance 0.5 or 1.5."""
    a, dst = -0.75, src // 2
    coords = (np.arange(dst) + 0.5) * 2.0 - 0.5
    i0 = np.floor(coords).astype(np.int64)
    mat = np.zeros((dst, src))
    for off in (-1, 0, 1, 2):
        u = np.abs(coords - (i0 + off))
        wgt = np.where(u <= 1.0, (a + 2) * u ** 3 - (a + 3) * u ** 2 + 1,
                       a * u ** 3 - 5 * a * u ** 2 + 8 * a * u - 4 * a)
        np.add.at(mat, (np.arange(dst), np.clip(i0 + off, 0, src - 1)), wgt)
    return mat


@pytest.mark.parametrize("size", [6, 64, 896])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (F64, 1e-12)])
def test_half_size_bicubic_matches_dense_matrix(size, dtype, tol):
    rng = np.random.Generator(np.random.PCG64(size))
    x = Tensor(rng.normal(size=(1, 2, size, size + 2)).astype(dtype))
    got = resize(x, size // 2, size // 2 + 1, "bicubic").data
    ah = keys_half_matrix(size)
    aw = keys_half_matrix(size + 2)
    want = ah @ x.data.astype(F64) @ aw.T
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_half_size_bicubic_backward_is_adjoint():
    # the 4-tap forward and the matrix backward are one map and its adjoint
    rng = np.random.Generator(np.random.PCG64(8))
    x = t(rng, 2, 3, 10, 12, grad=True)
    out = resize(x, 5, 6, "bicubic")
    g = rng.normal(size=out.shape)
    backward(reduce_sum(out * Tensor(g)))
    assert np.isclose(np.vdot(x.grad, x.data), np.vdot(g, out.data),
                      rtol=1e-12)


# -- pixel shuffle ------------------------------------------------------------


def test_pixel_shuffle_roundtrip_bit_exact():
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(seed + 30))
        for r in (2, 3, 4):
            x = t(rng, 2, 3, 4 * r, 3 * r)
            back = pixel_shuffle(pixel_unshuffle(x, r), r)
            assert np.array_equal(back.data, x.data)


def test_pixel_unshuffle_channel_layout():
    # paint each intra-block offset with a distinct constant; output channel
    # c*r*r + i*r + j must hold offset (i, j) of input channel c
    r = 2
    x = np.zeros((1, 2, 4, 4))
    for c in range(2):
        for i in range(r):
            for j in range(r):
                x[0, c, i::r, j::r] = 100 * c + 10 * i + j
    y = pixel_unshuffle(Tensor(x), r).data
    assert y.shape == (1, 8, 2, 2)
    for c in range(2):
        for i in range(r):
            for j in range(r):
                ch = c * r * r + i * r + j
                assert np.all(y[0, ch] == 100 * c + 10 * i + j)


def test_pixel_shuffle_guards():
    with pytest.raises(ValueError, match="not divisible"):
        pixel_unshuffle(Tensor.ones((1, 1, 5, 4)), 2)
    with pytest.raises(ValueError, match="not divisible"):
        pixel_shuffle(Tensor.ones((1, 6, 4, 4)), 2)


# -- concat -------------------------------------------------------------------


def test_concat_values_and_backward_split():
    rng = np.random.Generator(np.random.PCG64(8))
    a = t(rng, 2, 3, 4, 4, grad=True)
    b = t(rng, 2, 5, 4, 4, grad=True)
    out = concat_channels([a, b])
    assert out.shape == (2, 8, 4, 4)
    assert np.array_equal(out.data[:, :3], a.data)
    assert np.array_equal(out.data[:, 3:], b.data)
    weights = Tensor(np.arange(out.size(), dtype=F64).reshape(out.shape))
    backward(reduce_sum(out * weights))
    assert np.array_equal(a.grad, weights.data[:, :3])
    assert np.array_equal(b.grad, weights.data[:, 3:])


def test_concat_guards():
    with pytest.raises(ValueError, match="concat"):
        concat_channels([])
    with pytest.raises(ValueError, match="mismatch"):
        concat_channels([Tensor.ones((1, 2, 4, 4)), Tensor.ones((1, 2, 5, 4))])


# -- batch norm ---------------------------------------------------------------


# The two batch-norm ops and the np.where PReLU backward that ``batchnorm``
# and ``prelu`` replaced, kept verbatim as their oracle. The fused training
# op that ``batchnorm`` also replaced was pinned to their chain.


def oracle_prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """y = x for x >= 0, alpha_c * x below; alpha is (1, c, 1, 1)."""
    if alpha.shape != (1, x.shape[1], 1, 1):
        raise ValueError(f"alpha shape {alpha.shape} != (1,{x.shape[1]},1,1)")
    x_data, a_data = x.data, alpha.data
    out = Tensor(np.maximum(x_data, 0) + a_data * np.minimum(x_data, 0))

    def bwd(g):
        gx = np.where(x_data < 0, a_data * g, g)
        ga = (g * np.minimum(x_data, 0)).sum(axis=(0, 2, 3))
        return gx, ga.reshape(alpha.shape)

    return record(out, [x, alpha], bwd, "prelu")


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


def _batch_stats(x: Tensor) -> tuple[int, np.ndarray, np.ndarray]:
    n, c, h, w = x.shape
    m = n * h * w
    if m < 2:
        raise ValueError(f"batchnorm train mode needs n*h*w >= 2, got {m}")
    mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
    return m, mean, x.data - mean


def _batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> tuple:
    m, mean, centered = _batch_stats(x)
    var = x.data.var(axis=(0, 2, 3), keepdims=True)  # biased
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = centered * invstd
    out = Tensor(gamma.data * xhat + beta.data)
    g_data = gamma.data

    def bwd(g):
        sg = g.sum(axis=(0, 2, 3), keepdims=True)
        sgx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = (g_data * invstd / m) * (m * g - sg - xhat * sgx)
        return gx, sgx.reshape(gamma.shape), sg.reshape(beta.shape)

    y = record(out, [x, gamma, beta], bwd, "batchnorm_train")
    return y, mean.reshape(-1), var.reshape(-1)


def oracle_batchnorm(x, gamma, beta, alpha, eps, stats=None):
    """``batchnorm`` as the chain of replaced ops: (output, mean, var)."""
    if stats is None:
        y, mean, var = _batchnorm_train(x, gamma, beta, eps)
    else:
        mean, var = stats
        y = batchnorm2d_infer(x, gamma, beta, mean, var, eps)
        mean, var = mean.reshape(-1), var.reshape(-1)
    return (y if alpha is None else oracle_prelu(y, alpha)), mean, var


def test_batchnorm_train_normalizes():
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed + 40))
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 3, 8, 8)))
        g = Tensor.ones((1, 3, 1, 1), dtype=F64, requires_grad=True)
        b = Tensor.zeros((1, 3, 1, 1), dtype=F64, requires_grad=True)
        y, mean, var = batchnorm(x, g, b, None)
        assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(y.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
        assert np.allclose(mean, x.data.mean(axis=(0, 2, 3)))
        assert np.allclose(var, x.data.var(axis=(0, 2, 3)))  # biased


def test_batchnorm_train_needs_two_samples():
    one = Tensor.ones((1, 3, 1, 1), dtype=F64)
    for alpha in (None, one):
        with pytest.raises(ValueError, match="n\\*h\\*w >= 2"):
            batchnorm(one, one, Tensor.zeros((1, 3, 1, 1), dtype=F64), alpha)
    # frozen statistics need no batch
    y = batchnorm(one, one, one, one, (one.data, one.data))[0]
    assert y.shape == (1, 3, 1, 1)


def test_batchnorm_module_running_stats():
    rng = np.random.Generator(np.random.PCG64(9))
    bn = BatchNorm2d(3)
    x = Tensor(rng.normal(2.0, 1.5, size=(4, 3, 8, 8)).astype(np.float32))
    bn(x)
    bm = x.data.mean(axis=(0, 2, 3))
    bv = x.data.var(axis=(0, 2, 3))
    assert np.allclose(bn.running_mean.data.ravel(), 0.1 * bm, atol=1e-6)
    assert np.allclose(bn.running_var.data.ravel(), 0.9 + 0.1 * bv, atol=1e-6)

    bn.eval()
    y = bn(x)
    rm = bn.running_mean.data
    rv = bn.running_var.data
    want = (x.data - rm) / np.sqrt(rv + layers.BN_EPS)
    assert np.allclose(y.data, want, atol=1e-6)


def test_batchnorm_eval_guards_running_var():
    bn = BatchNorm2d(2)
    bn.eval()
    bn.running_var.data[0, 1] = -1.0
    with pytest.raises(AutodiffError, match="running_var"):
        bn(Tensor.ones((1, 2, 4, 4)))


def test_batchnorm_infer_matches_formula():
    rng = np.random.Generator(np.random.PCG64(10))
    x = t(rng, 2, 3, 4, 4)
    g = t(rng, 1, 3, 1, 1)
    b = t(rng, 1, 3, 1, 1)
    mean = rng.normal(size=(1, 3, 1, 1))
    var = rng.uniform(0.5, 2.0, size=(1, 3, 1, 1))
    y = batchnorm(x, g, b, None, (mean, var))[0]
    want = g.data * (x.data - mean) / np.sqrt(var + 1e-5) + b.data
    assert np.allclose(y.data, want, atol=1e-12)


def _run(op, arrays, g):
    """What ``op`` returns, its output as an array, then the gradient of
    each input under the cotangent g; a None in arrays passes through."""
    ts = [None if a is None else Tensor(a.copy(), requires_grad=True)
          for a in arrays]
    y, *rest = op(*ts)
    backward(reduce_sum(y * Tensor(g)))
    return [y.data, *rest, *(v.grad for v in ts if v is not None)]


def test_batchnorm_matches_replaced_ops():
    # bit for bit, in both float types and all four modes: the output, both
    # statistics and every gradient; then the standalone PReLU the same way
    rng = np.random.Generator(np.random.PCG64(82))
    for shape in ((4, 3, 6, 5), (2, 4, 1, 1), (1, 2, 1, 2), (8, 16, 8, 8)):
        c = shape[1]
        x = rng.normal(1.0, 2.0, size=shape)
        gamma = rng.normal(size=(1, c, 1, 1))
        gamma[0, 0] = -abs(gamma[0, 0])  # a negative scale flips the signs
        beta = rng.normal(size=(1, c, 1, 1))
        alpha = rng.uniform(0.1, 0.5, size=(1, c, 1, 1))
        alpha[0, 1] = 0.0  # a dead slope: gradient 0 below, never inverted
        frozen = (rng.normal(size=(1, c, 1, 1)),
                  rng.uniform(0.5, 2.0, size=(1, c, 1, 1)))
        g = rng.normal(size=shape)
        for dtype in (F64, np.float32):
            xd, gd, bd, ad, cot = (v.astype(dtype)
                                   for v in (x, gamma, beta, alpha, g))
            fd = tuple(v.astype(dtype) for v in frozen)
            for a, stats in ((None, None), (ad, None), (None, fd), (ad, fd)):
                case = (shape, dtype, a is None, stats is None)
                got, want = (
                    _run(op, (xd, gd, bd, a), cot)
                    for op in (lambda *ts: batchnorm(*ts, stats),
                               lambda *ts: oracle_batchnorm(*ts, 1e-5, stats)))
                assert len(got) == len(want) == 6 + (a is not None), case
                for u, v in zip(got, want):
                    assert u.dtype == v.dtype == dtype, case
                    assert np.array_equal(u, v), case
            got, want = (_run(lambda *ts: (op(*ts),), (xd, ad), cot)
                         for op in (prelu, oracle_prelu))
            for u, v in zip(got, want):
                assert u.dtype == dtype and np.array_equal(u, v), shape


def test_batchnorm_leaves_the_incoming_gradient_alone():
    # add hands one gradient array to both of its inputs
    rng = np.random.Generator(np.random.PCG64(84))
    x, g = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 4, 4))
    params = [Tensor(rng.uniform(0.5, 1.5, (1, 3, 1, 1)), requires_grad=True)
              for _ in range(3)]
    stats = (rng.normal(size=(1, 3, 1, 1)), rng.uniform(0.5, 2, (1, 3, 1, 1)))
    for alpha in (None, params[2]):
        for st in (None, stats):
            y = batchnorm(Tensor(x, requires_grad=True), params[0], params[1],
                          alpha, st)[0]
            gin = g.copy()
            y._node.backward_fn(gin)
            assert np.array_equal(gin, g)


def test_fused_bn_prelu_guards():
    one = Tensor.ones((1, 3, 1, 1), dtype=F64)
    with pytest.raises(ValueError, match="n\\*h\\*w >= 2"):
        batchnorm(one, one, one, one)
    for stats in (None, (one.data, one.data)):
        with pytest.raises(ValueError, match="alpha"):
            batchnorm(Tensor.ones((2, 3, 2, 2), dtype=F64), one, one,
                      Tensor.ones((1, 4, 1, 1), dtype=F64), stats)


def test_conv_bn_act_training_matches_unfused_modules():
    # the fused ConvBNAct forward against conv, BatchNorm2d and PReLU run
    # apart: output, every gradient and both running statistics
    rng = np.random.Generator(np.random.PCG64(83))
    x = rng.normal(size=(3, 4, 6, 6))
    g = rng.normal(size=(3, 5, 6, 6))
    mods = []
    for fused in (True, False):
        m = ConvBNAct(4, 5, rng=np.random.Generator(np.random.PCG64(1))
                      ).astype(F64)
        m.bn.gamma.data[0, 2] = -0.7
        m.act.alpha.data[0, 3] = 0.0
        xt = Tensor(x.copy(), requires_grad=True)
        y = m(xt) if fused else m.act(m.bn(m.conv(xt)))
        backward(reduce_sum(y * Tensor(g)))
        mods.append((m, xt, y))
    (fm, fx, fy), (um, ux, uy) = mods
    pairs = [(fy.data, uy.data), (fx.grad, ux.grad)]
    pairs += [(a.grad, b.grad) for (_, a), (_, b) in
              zip(fm.named_parameters(), um.named_parameters())]
    pairs += [(a.data, b.data) for (_, a), (_, b) in
              zip(fm.named_buffers(), um.named_buffers())]
    assert len(pairs) == 2 + 4 + 2
    for a, b in pairs:
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
    assert not np.array_equal(fm.bn.running_mean.data, 0.0)


# -- modules and init ---------------------------------------------------------


def test_he_uniform_bound_and_determinism():
    a = he_uniform(np.random.Generator(np.random.PCG64(11)), (64, 3, 3, 3),
                   27)
    b = he_uniform(np.random.Generator(np.random.PCG64(11)), (64, 3, 3, 3),
                   27)
    assert np.array_equal(a, b)
    bound = np.sqrt(6.0 / 27.0)
    assert np.abs(a).max() <= bound
    assert np.abs(a).max() > 0.8 * bound  # actually fills the range


def test_conv_module_parameters():
    conv = Conv2d(3, 8, kernel=3, padding=1,
                  rng=np.random.Generator(np.random.PCG64(12)))
    names = sorted(n for n, _ in conv.named_parameters())
    assert names == ["bias", "weight"]
    assert conv.weight.shape == (8, 3, 3, 3)
    assert np.all(conv.bias.data == 0.0)

    nobias = Conv2d(3, 8, bias=False)
    assert [n for n, _ in nobias.named_parameters()] == ["weight"]
    for c_in, c_out, groups in ((3, 8, 2), (4, 8, 2), (4, 8, 4)):
        with pytest.raises(ValueError, match="groups"):
            Conv2d(c_in, c_out, groups=groups)
    assert Conv2d(4, 4, groups=4).weight.shape == (4, 1, 3, 3)


def test_prelu_module_init():
    act = PReLU(5)
    assert act.alpha.shape == (1, 5, 1, 1)
    assert np.all(act.alpha.data == 0.25)
    x = Tensor(-np.ones((1, 5, 2, 2), dtype=np.float32))
    assert np.allclose(act(x).data, -0.25)
