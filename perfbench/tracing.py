"""Per-layer spans taken from outside the program.

``Tracer.installed()`` replaces the public functions of each csdn module
with wrappers that read the clock around the original call and return
its result untouched, so a traced run computes bit-identical outputs.
Spans nest: a span's self time is its duration minus the time of the
spans opened inside it, so the self times of all spans inside an
operation, plus the operation's own self time (the part no layer
covers), add up to the operation's latency.

Functions are patched where their callers look them up: ``model.py``
imports ``resize`` and friends by name, so those are patched in
``csdn.model``; ``Conv2d.forward`` calls ``csdn.layers.conv2d``;
modules are patched on their class, because ``__call__`` is looked up on
the type.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

from csdn import autodiff, layers, losses, metrics, model, phantom, serial, train

OP = "op"

# Recorded op name -> span charged with its backward closure.
BWD_SPAN = {
    "conv2d": "layers.conv2d_bwd",
    "batchnorm_eval": "layers.batchnorm_bwd",
    "batchnorm_train": "layers.batchnorm_bwd",
    "prelu": "layers.prelu_bwd",
    "resize_bicubic": "layers.resize_bwd",
    "resize_bilinear": "layers.resize_bwd",
    "resize_nearest": "layers.resize_bwd",
    "max_pool2d": "layers.pool_bwd",
    "avg_pool2d": "layers.pool_bwd",
    "global_avg_pool": "layers.pool_bwd",
    "pixel_shuffle": "layers.shuffle_bwd",
    "pixel_unshuffle": "layers.shuffle_bwd",
    "sigmoid": "layers.sigmoid_bwd",
    "concat": "layers.concat_bwd",
    "add": "layers.add_mul_bwd",
    "sub": "layers.add_mul_bwd",
    "mul": "layers.add_mul_bwd",
    "scale": "layers.add_mul_bwd",
    "sum": "layers.add_mul_bwd",
    "focal_loss": "losses.loss_bwd",
    "dice_loss": "losses.loss_bwd",
}


def conv_span(weight, groups: int) -> str:
    if groups > 1:
        return "layers.conv2d_depthwise"
    if weight.shape[2:] == (1, 1):
        return "layers.conv2d_1x1"
    return "layers.conv2d_dense3x3"


class Tracer:
    """Span stack plus per-name totals (calls, inclusive and self seconds)
    and counters. ``reset`` clears the totals at the start of the timed
    phase; ``setup_values`` keeps what set-up calls recorded (durations of
    weight loading and dataset opening, the weight file's size) across
    resets."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child seconds]
        self.setup_values: dict[str, list[float]] = {}
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    def begin(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self):
        name, start, child = self._stack.pop()
        dt = time.perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl[name] = self.incl.get(name, 0.0) + dt
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - child
        if self._stack:
            self._stack[-1][2] += dt

    def count(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return wrapper

    def setup_call(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_values.setdefault(name, []).append(
                    time.perf_counter() - t0)
        return wrapper

    # -- wrappers that need more than a span ---------------------------------

    def _record(self, fn):
        def wrapper(out, inputs, backward_fn, op):
            bwd_name = BWD_SPAN.get(op, "autodiff.other_bwd")

            def timed_bwd(g):
                self.begin(bwd_name)
                try:
                    return backward_fn(g)
                finally:
                    self.end()

            self.count("autodiff.record_calls", 1)
            self.begin("autodiff.record")
            try:
                return fn(out, inputs, timed_bwd, op)
            finally:
                self.end()
        return wrapper

    def _conv2d(self, fn):
        def wrapper(x, weight, bias=None, stride=1, padding=0, groups=1):
            self.begin(conv_span(weight, groups))
            try:
                out = fn(x, weight, bias, stride, padding, groups)
            finally:
                self.end()
            n, c_out, oh, ow = out.shape
            _, c_in_g, kh, kw = weight.shape
            self.count("layers.conv2d_flop", 2.0 * n * oh * ow * c_out * c_in_g * kh * kw)
            return out
        return wrapper

    def _resize(self, fn):
        def wrapper(x, out_h, out_w, mode="bilinear"):
            self.begin("layers.resize_" + mode)
            try:
                return fn(x, out_h, out_w, mode)
            finally:
                self.end()
        return wrapper

    def _boundary_pixels(self, fn):
        def wrapper(mask):
            out = fn(mask)
            self.count("metrics.boundary_px", len(out))
            return out
        return wrapper

    def _batches(self, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.begin("phantom.batch_wait")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                yield item
        return wrapper

    def _load_weights(self, fn):
        timed = self.setup_call(fn, "serial.load_weights")

        def wrapper(path):
            self.setup_values.setdefault("serial.weights_bytes", []).append(
                float(os.path.getsize(path)))
            return timed(path)
        return wrapper

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        span = self.span
        return [
            (autodiff, "record", self._record),
            (layers, "record", self._record),
            (losses, "record", self._record),
            (autodiff, "backward", lambda f: span(f, "autodiff.backward")),
            (layers, "conv2d", self._conv2d),
            (layers, "prelu", lambda f: span(f, "layers.prelu")),
            (layers.BatchNorm2d, "__call__", lambda f: span(f, "layers.batchnorm")),
            (model, "resize", self._resize),
            (model, "pool2d", lambda f: span(f, "layers.pool")),
            (model, "global_avg_pool", lambda f: span(f, "layers.pool")),
            (model, "pixel_shuffle", lambda f: span(f, "layers.shuffle")),
            (model, "pixel_unshuffle", lambda f: span(f, "layers.shuffle")),
            (model, "sigmoid", lambda f: span(f, "layers.sigmoid")),
            (model, "concat_channels", lambda f: span(f, "layers.concat")),
            (model, "add", lambda f: span(f, "layers.add_mul")),
            (model, "mul", lambda f: span(f, "layers.add_mul")),
            (model.CSDN, "downsample", lambda f: span(f, "model.downsample")),
            (model.ShallowNet, "__call__", lambda f: span(f, "model.shallow")),
            (model.DeepNet, "__call__", lambda f: span(f, "model.deep")),
            (model.FusionBlock, "__call__", lambda f: span(f, "model.fusion")),
            (model.SegHead, "__call__", lambda f: span(f, "model.head")),
            (model.AuxHead, "__call__", lambda f: span(f, "model.aux_heads")),
            (losses, "hybrid_loss", lambda f: span(f, "losses.hybrid_loss")),
            (losses, "focal_loss", lambda f: span(f, "losses.focal")),
            (losses, "dice_loss", lambda f: span(f, "losses.dice")),
            (train.Adam, "step", lambda f: span(f, "train.adam_step")),
            (phantom, "batches", self._batches),
            (phantom, "augment", lambda f: span(f, "phantom.augment")),
            (metrics, "predict_label", lambda f: span(f, "metrics.predict")),
            (metrics, "sample_metrics", lambda f: span(f, "metrics.sample_metrics")),
            (metrics, "hd95", lambda f: span(f, "metrics.hd95")),
            (metrics, "boundary_pixels", self._boundary_pixels),
            (serial, "load_weights", self._load_weights),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call site; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            open_fn = phantom.Dataset.__dict__["open"]
            saved.append((phantom.Dataset, "open", open_fn))
            phantom.Dataset.open = staticmethod(
                self.setup_call(open_fn.__func__, "phantom.dataset_open"))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
