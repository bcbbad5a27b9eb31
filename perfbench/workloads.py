"""The three workloads: inputs, set-up, timed rounds and correctness checks.

A run makes the inputs from its seed (in a child process where they are
large, so that their generation does not set the parent's peak memory),
sets the workload up ``SETUP_REPEATS`` times, then runs whole rounds of
the same operations until ``seconds`` have passed and at least
``MIN_OPS`` operations were timed. The checks run after the timed phase.
The network's initial weights come from ``INIT_SEED`` on every run, so
seeds vary the inputs only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from csdn import autodiff, layers, losses, metrics, model, phantom, serial, train
from csdn.autodiff import Tensor, no_grad

from . import ROOT, SRC, checks
from .tracing import OP, conv_span

INIT_SEED = 0
SETUP_REPEATS = 15
MIN_OPS = 100  # latency_p90_ms needs ten operations beyond it
WORK_DIR = ROOT / "perfbench" / "work"

# An operation that raises one of these counts as failed; the run goes on.
PROGRAM_ERRORS = (autodiff.AutodiffError, ValueError, FloatingPointError)

END_TO_END = [
    ("samples_per_s", "samples/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cpu_s_per_sample", "s", "lower"),
    ("peak_mem_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# (metric, unit, better, source, key). Sources: "self" and "incl" are a
# span's self or inclusive ms per operation, "calls" its calls per
# operation, "count" a counter per operation, "setup" the median of a
# set-up call's durations; the rest are derived in ``layer_metrics``.
_FWD = ["conv2d_dense3x3", "conv2d_depthwise", "conv2d_1x1", "batchnorm",
        "prelu", "resize_bicubic", "resize_bilinear", "pool", "shuffle",
        "sigmoid", "concat", "add_mul"]
_BWD = ["conv2d", "batchnorm", "prelu", "resize", "pool", "shuffle",
        "sigmoid", "concat", "add_mul"]
PER_LAYER = (
    [("autodiff.record_calls", "count/op", "lower", "count", "autodiff.record_calls"),
     ("autodiff.record_ms", "ms/op", "lower", "self", "autodiff.record"),
     ("autodiff.backward_ms", "ms/op", "lower", "self", "autodiff.backward")]
    + [m for k in _FWD for m in (
        (f"layers.{k}_ms", "ms/op", "lower", "self", f"layers.{k}"),
        (f"layers.{k}_calls", "count/op", "lower", "calls", f"layers.{k}"))]
    + [("layers.conv2d_gflop", "GFLOP/op", "lower", "gflop", None),
       ("layers.conv2d_gflop_per_s", "GFLOP/s", "higher", "gflop_per_s", None)]
    + [(f"layers.{k}_bwd_ms", "ms/op", "lower", "self", f"layers.{k}_bwd") for k in _BWD]
    + [(f"model.{k}_ms", "ms/op", "lower", "incl", f"model.{k}")
       for k in ("downsample", "shallow", "deep", "fusion", "head", "aux_heads")]
    + [("losses.hybrid_loss_ms", "ms/op", "lower", "incl", "losses.hybrid_loss"),
       ("losses.focal_ms", "ms/op", "lower", "self", "losses.focal"),
       ("losses.dice_ms", "ms/op", "lower", "self", "losses.dice"),
       ("losses.loss_bwd_ms", "ms/op", "lower", "self", "losses.loss_bwd"),
       ("train.adam_step_ms", "ms/op", "lower", "self", "train.adam_step"),
       ("phantom.batch_wait_ms", "ms/op", "lower", "incl", "phantom.batch_wait"),
       ("phantom.augment_ms", "ms/op", "lower", "self", "phantom.augment"),
       ("phantom.dataset_open_s", "s", "lower", "setup", "phantom.dataset_open"),
       ("metrics.predict_ms", "ms/op", "lower", "incl", "metrics.predict"),
       ("metrics.sample_metrics_ms", "ms/op", "lower", "incl", "metrics.sample_metrics"),
       ("metrics.hd95_ms", "ms/op", "lower", "incl", "metrics.hd95"),
       ("metrics.boundary_px", "count/op", "lower", "count", "metrics.boundary_px"),
       ("serial.load_weights_s", "s", "lower", "setup", "serial.load_weights"),
       ("serial.weights_mb", "MB", "lower", "weights_mb", None),
       ("trace.op_ms", "ms/op", "lower", "op_ms", None),
       ("trace.uncovered_ms", "ms/op", "lower", "self", OP),
       ("trace.samples_per_s", "samples/s", "higher", "samples_per_s", None)]
)


def input_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint64)]


_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from perfbench import workloads
args = json.loads(sys.argv[4])
print(json.dumps(getattr(workloads, sys.argv[3])(*args)))
"""


def in_child(fn, *args):
    """Run ``fn(*args)`` in a fresh interpreter and wait for it to exit.

    A plain child process, not a multiprocessing pool: a pool also starts
    a resource tracker that outlives the pool. ``args`` and the return
    value go through JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), str(ROOT), fn.__name__, json.dumps(args)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


class OpClock:
    """Wall and CPU seconds of each operation, and the operations that
    raised. With a tracer, each operation is also the root span "op"."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.failed = 0
        self._open = None

    def start(self):
        if self.tracer is not None:
            self.tracer.begin(OP)
        self._open = (time.perf_counter(), time.process_time())

    def stop(self):
        w0, c0 = self._open
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)
        self._open = None
        if self.tracer is not None:
            self.tracer.end()

    def fail_open(self):
        """Count the operation in flight as failed."""
        if self._open is not None:
            self._open = None
            self.failed += 1
            if self.tracer is not None:
                self.tracer.end()

    @contextlib.contextmanager
    def op(self):
        self.start()
        try:
            yield
        except PROGRAM_ERRORS:
            self.fail_open()
        else:
            self.stop()

    def each(self, items):
        """Yield ``items``; the work between two requests is one operation."""
        for item in items:
            self.start()
            yield item
            self.stop()


class Workload:
    name = ""
    samples_per_op = 1

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []

    def make_inputs(self):
        """Generate the inputs (not part of set-up)."""

    def release(self):
        """Drop what ``setup`` built, before the next set-up."""

    def setup(self):
        """Build or load the net, load the inputs, run one warm-up operation."""
        raise NotImplementedError

    def run_round(self, index: int, clock: OpClock):
        raise NotImplementedError

    def check(self):
        """Correctness checks after the timed phase; raise CheckFailed."""
        raise NotImplementedError

    def facts(self) -> dict:
        """Figures about the run's outputs for the results file."""
        return {}

    def note(self, problem: str):
        if len(self.problems) < 5:
            self.problems.append(problem)


# -- infer-ref-896 -------------------------------------------------------------


def _label_digest(label: np.ndarray) -> str:
    return hashlib.sha1(label.tobytes()).hexdigest()


def write_infer_inputs(workdir: str, seed: int, size: int, n: int) -> list[str]:
    net = model.CSDN(model.NetworkConfig.reference(), seed=INIT_SEED)
    serial.save_weights(os.path.join(workdir, "reference.weights"), net)
    ids = []
    for i, s in enumerate(input_seeds(seed, n)):
        sample = phantom.generate_phantom(s, size, sample_id=f"stack{i:02d}")
        phantom.save_sample(workdir, sample)
        ids.append(sample.id)
    return ids


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


@contextlib.contextmanager
def first_conv_calls():
    """Yield a dict that keeps the first conv2d call of each kind and stride
    made inside the block."""
    orig = layers.conv2d
    found = {}

    def wrapper(x, weight, bias=None, stride=1, padding=0, groups=1):
        out = orig(x, weight, bias, stride, padding, groups)
        key = (conv_span(weight, groups), _pair(stride))
        if key not in found:
            found[key] = (x.data, weight.data, None if bias is None else bias.data,
                          _pair(stride), _pair(padding), groups, out.data)
        return out

    layers.conv2d = wrapper
    try:
        yield found
    finally:
        layers.conv2d = orig


def to_float64(net):
    for _, t in list(net.named_parameters()) + list(net.named_buffers()):
        t.data = t.data.astype(np.float64)
    net.dtype = np.float64
    return net


def forward_logits(net, frames: np.ndarray) -> np.ndarray:
    """Eval-mode main-head logits of a (n, 3, H, W) batch."""
    was_training = net.training
    net.eval()
    try:
        with no_grad():
            return net(Tensor(frames.astype(net.dtype))).main_logits.data
    finally:
        net.train(was_training)


class Infer(Workload):
    """The reference net's eval forward at 896x896, batch 1, weights read
    through serial; one operation is one predict_label call."""

    name = "infer-ref-896"
    size = 896
    n_stacks = 4

    def make_inputs(self):
        self.weights = os.path.join(self.workdir, "reference.weights")
        self.ids = in_child(write_infer_inputs, str(self.workdir), self.seed,
                            self.size, self.n_stacks)
        self.digests: dict[int, str] = {}

    def release(self):
        self.net = self.frames = None

    def setup(self):
        self.net = serial.load_weights(self.weights)
        self.frames = [phantom.load_sample(str(self.workdir), sid,
                                           phantom.DEFAULT_SPACING_MM).frames
                       for sid in self.ids]
        metrics.predict_label(self.net, self.frames[0])

    def run_round(self, index, clock):
        for i, frames in enumerate(self.frames):
            label = None
            with clock.op():
                label = metrics.predict_label(self.net, frames)
            if label is not None:
                self.note_label(i, label)

    def note_label(self, i, label):
        try:
            checks.check_labels(label, (self.size, self.size))
        except checks.CheckFailed as e:
            self.note(f"stack {i}: {e}")
        digest = self.digests.setdefault(i, _label_digest(label))
        if digest != _label_digest(label):
            self.note(f"stack {i}: label map changed between rounds")

    def check(self):
        f0, f1 = self.frames[0][None], self.frames[1][None]
        with first_conv_calls() as convs:
            l0 = forward_logits(self.net, f0)
        checks.check_logits(l0, (1, 3, self.size, self.size))
        if _label_digest(l0[0].argmax(axis=0).astype(np.uint8)) != self.digests[0]:
            raise checks.CheckFailed("predict_label differs from the argmax of the logits")
        l1 = forward_logits(self.net, f1)
        checks.check_batch_independence(forward_logits(self.net, np.concatenate([f0, f1])),
                                        [l0, l1])
        net64 = to_float64(serial.load_weights(self.weights))
        checks.check_float64_agreement(l0, forward_logits(net64, f0))
        for x, w, b, stride, padding, groups, out in convs.values():
            checks.check_conv(x, w, b, stride, padding, groups, out)


# -- train-desk-128 ------------------------------------------------------------


def epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


class Train(Workload):
    """Desk-net training steps at batch 8, 128x128, augment=mild, with the
    calls csdn.train.train makes; one operation is one optimizer step."""

    name = "train-desk-128"
    size = 128
    n_train = 64
    batch = 8
    samples_per_op = batch

    def make_inputs(self):
        self.cfg = train.TrainConfig(batch_size=self.batch, lr0=1e-3, lr_step=50,
                                     augment="mild", seed=self.seed)
        self.loss_cfg = losses.LossConfig()
        self.samples = [phantom.generate_phantom(s, self.size, sample_id=f"train{i:04d}")
                        for i, s in enumerate(input_seeds(self.seed, self.n_train))]
        self.losses: list[float] = []

    def release(self):
        self.net = self.store = self.opt = None

    def batches(self, epoch: int):
        return phantom.batches(self.samples, self.cfg.batch_size,
                               epoch_seed(self.cfg.seed, epoch), self.cfg.augment_cfg())

    def step(self, batches, lr: float) -> float:
        frames, labels = next(batches)
        out = self.net(Tensor(frames.astype(self.net.dtype)))
        loss = losses.hybrid_loss(out, labels, self.loss_cfg)
        self.store.zero_grad()
        grads = autodiff.backward(loss, self.store)
        self.opt.step(grads, lr)
        return loss.item()

    def setup(self):
        self.net = model.CSDN(model.NetworkConfig.desk(), seed=INIT_SEED)
        self.store = self.net.parameter_store()
        self.opt = train.Adam(self.store, weight_decay=self.cfg.weight_decay,
                              decoupled=self.cfg.decoupled_decay)
        self.losses = [self.step(self.batches(0), self.cfg.lr0)]

    def run_round(self, index, clock):
        self.net.train()
        lr = train.lr_at_epoch(index, self.cfg)
        batches = self.batches(index)
        for _ in range(self.n_train // self.batch):
            value = None
            with clock.op():
                value = self.step(batches, lr)
            if value is not None:
                self.losses.append(value)

    def facts(self):
        return {"first_loss": self.losses[0], "last_loss": self.losses[-1]}

    def check(self):
        checks.check_losses(self.losses)
        net = model.CSDN(model.NetworkConfig.desk(), seed=INIT_SEED, dtype=np.float64)
        frames, labels = next(self.batches(0))
        checks.check_directional_derivative(*directional_probe(
            net, Tensor(frames.astype(np.float64)), labels, self.loss_cfg, self.seed))


def directional_probe(net, x, labels, loss_cfg, seed: int):
    """(loss_at, grads, direction) for check_directional_derivative: the
    hybrid loss along a seeded unit random direction over all parameters,
    and its analytic gradient at the start point."""
    store = net.parameter_store()
    loss = losses.hybrid_loss(net(x), labels, loss_cfg)
    grads = {n: g.data for n, g in autodiff.backward(loss, store).items()}
    rng = np.random.default_rng(seed)
    direction = {n: rng.standard_normal(p.data.shape) for n, p in store.items()}
    norm = np.sqrt(sum(float(np.vdot(d, d)) for d in direction.values()))
    direction = {n: d / norm for n, d in direction.items()}
    base = {n: p.data.copy() for n, p in store.items()}

    def loss_at(t):
        for n, p in store.items():
            p.data = base[n] + t * direction[n]
        try:
            with no_grad():
                return losses.hybrid_loss(net(x), labels, loss_cfg).item()
        finally:
            for n, p in store.items():
                p.data = base[n]

    return loss_at, grads, direction


# -- eval-desk-256 -------------------------------------------------------------


def eval_samples(seed: int, size: int, n: int) -> list:
    return [phantom.generate_phantom(s, size, sample_id=f"val{i:04d}")
            for i, s in enumerate(input_seeds(seed, n))]


def write_eval_inputs(root: str, seed: int, size: int, n: int):
    phantom.save_dataset(root, [], eval_samples(seed, size, n),
                         phantom.DEFAULT_SPACING_MM, size)


def _report_key(rep) -> str:
    rows = tuple((sid, region, m.dsc, m.iou, m.hd95_mm) for sid, region, m in rep.rows)
    means = (rep.lumen_dsc, rep.lumen_iou, rep.lumen_hd95_mm, rep.eem_dsc,
             rep.eem_iou, rep.eem_hd95_mm, rep.n_samples, rep.hd95_excluded)
    return repr((rows, means))


class Eval(Workload):
    """evaluate() with the random-init desk net over a 32-sample val split
    written as PGMs and read back by Dataset.open; one operation is one
    sample (predict, then DSC/IoU/HD95)."""

    name = "eval-desk-256"
    size = 256
    n_val = 32

    def make_inputs(self):
        self.root = str(self.workdir / "data")
        in_child(write_eval_inputs, self.root, self.seed, self.size, self.n_val)
        self.report = None

    def release(self):
        self.net = self.ds = None

    def setup(self):
        self.ds = phantom.Dataset.open(self.root)
        self.net = model.CSDN(model.NetworkConfig.desk(), seed=INIT_SEED)
        metrics.evaluate(self.net, self.ds.val[:1])

    def run_round(self, index, clock):
        try:
            rep = metrics.evaluate(self.net, clock.each(self.ds.val))
        except PROGRAM_ERRORS:
            clock.fail_open()
            return
        if self.report is None:
            self.report = rep
        elif _report_key(rep) != _report_key(self.report):
            self.note(f"round {index}: evaluate report differs from round 0")

    def facts(self):
        rep = self.report
        if rep is None:
            return {}
        return {"lumen_dsc": rep.lumen_dsc, "eem_dsc": rep.eem_dsc,
                "lumen_hd95_mm": rep.lumen_hd95_mm, "eem_hd95_mm": rep.eem_hd95_mm,
                "hd95_excluded": rep.hd95_excluded}

    def check(self):
        if self.report is None:
            raise checks.CheckFailed("no evaluate round completed")
        val = self.ds.val
        checks.check_readback(val, eval_samples(self.seed, self.size, self.n_val))
        checks.check_self_score(metrics.sample_metrics, val)
        preds = [metrics.predict_label(self.net, s.frames) for s in val]
        checks.check_eval_report(self.report, preds, val)


WORKLOADS = {w.name: w for w in (Infer, Train, Eval)}


# -- the run ----------------------------------------------------------------------


def layer_metrics(tracer, n_ops: int, samples_per_s: float) -> dict:
    per_op = 1000.0 / n_ops
    conv_s = sum(tracer.incl.get(f"layers.{k}", 0.0) for k in _FWD[:3])
    flop = tracer.counters.get("layers.conv2d_flop", 0.0)
    derived = {
        "gflop": flop / 1e9 / n_ops,
        "gflop_per_s": flop / 1e9 / conv_s if conv_s else 0.0,
        "weights_mb": statistics.median(tracer.setup_values.get("serial.weights_bytes", [0.0])) / 1e6,
        "op_ms": tracer.incl.get(OP, 0.0) * per_op,
        "samples_per_s": samples_per_s,
    }
    out = {}
    for name, unit, _better, source, key in PER_LAYER:
        if source == "self":
            value = tracer.self_s.get(key, 0.0) * per_op
        elif source == "incl":
            value = tracer.incl.get(key, 0.0) * per_op
        elif source == "calls":
            value = tracer.calls.get(key, 0) / n_ops
        elif source == "count":
            value = tracer.counters.get(key, 0.0) / n_ops
        elif source == "setup":
            value = statistics.median(tracer.setup_values.get(key, [0.0]))
        else:
            value = derived[source]
        out[name] = {"value": value, "unit": unit}
    return out


def span_table(tracer, n_ops: int) -> dict:
    """Every span: calls, inclusive and self ms per operation."""
    per_op = 1000.0 / n_ops
    return {name: {"calls_per_op": tracer.calls[name] / n_ops,
                   "incl_ms_per_op": tracer.incl[name] * per_op,
                   "self_ms_per_op": tracer.self_s[name] * per_op}
            for name in sorted(tracer.calls)}


def run(name: str, seed: int, seconds: float, tracer=None) -> tuple[dict, dict]:
    """One run of one workload: the result line, and details for the
    results file."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    wl = WORKLOADS[name](seed, workdir)
    try:
        t0 = time.perf_counter()
        wl.make_inputs()
        inputs_s = time.perf_counter() - t0
        setup_s = []
        for _ in range(SETUP_REPEATS):
            wl.release()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

        clock = OpClock(tracer)
        if tracer is not None:
            tracer.reset()
        rounds = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(clock.wall) + clock.failed < MIN_OPS):
            n0 = len(clock.wall)
            wl.run_round(len(rounds), clock)
            rounds.append((n0, len(clock.wall)))
        timed_s = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not clock.wall:
            raise RuntimeError(f"{name}: every operation failed")

        wall, cpu = np.asarray(clock.wall), np.asarray(clock.cpu)
        done = [(a, b) for a, b in rounds if b > a]
        n_samples = [wl.samples_per_op * (b - a) for a, b in done]
        round_rates = [n / wall[a:b].sum() for n, (a, b) in zip(n_samples, done)]
        samples_per_s = statistics.median(round_rates)
        values = {
            "samples_per_s": samples_per_s,
            "latency_p50_ms": float(np.percentile(wall, 50)) * 1000.0,
            "latency_p90_ms": float(np.percentile(wall, 90)) * 1000.0,
            "cpu_s_per_sample": statistics.median(
                cpu[a:b].sum() / n for n, (a, b) in zip(n_samples, done)),
            "peak_mem_mb": peak_mb,
            "setup_s": statistics.median(setup_s),
        }
        details = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": tracer is not None, "rounds": len(rounds),
            "ops": len(wall), "samples_per_op": wl.samples_per_op,
            "timed_s": timed_s, "setup_s_each": setup_s, "end_to_end": values,
            "round_samples_per_s": round_rates,
            "latencies_ms": [w * 1000.0 for w in clock.wall],
        }
        if tracer is None:
            out_metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
        else:
            # Taken before the checks, whose forward passes are traced too.
            out_metrics = layer_metrics(tracer, len(wall), samples_per_s)
            details["spans"] = span_table(tracer, len(wall))
            details["setup_values"] = {k: list(v) for k, v in tracer.setup_values.items()}

        t0 = time.perf_counter()
        try:
            wl.check()
        except checks.CheckFailed as e:
            wl.note(str(e))
        details["inputs_s"] = inputs_s
        details["checks_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["problems"] = wl.problems
    details["facts"] = wl.facts()
    result = {"correct": not wl.problems, "attempted": len(wall) + clock.failed,
              "failed": clock.failed, "metrics": out_metrics}
    return result, details
