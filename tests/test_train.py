"""Optimizer arithmetic, the learning-rate staircase, epoch loop logging,
checkpoint/resume equivalence, and a training step's page faults."""

import os
import subprocess
import sys

import numpy as np
import pytest

import csdn
from csdn import phantom
from csdn.autodiff import AutodiffError, ParameterStore, Tensor
from csdn.losses import LossConfig
from csdn.model import CSDN, NetworkConfig
from csdn.phantom import Dataset, augment, generate_dataset
from csdn.train import (BETA1, BETA2, EPS, LOG_HEADER, Adam, EpochLog,
                        TrainConfig, lr_at_epoch, resume, train)


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("ds"))
    generate_dataset(root, 6, 2, 64, seed=0)
    return Dataset.open(root)


def scalar_param(value, name="p"):
    t = Tensor(np.full((1, 1, 1, 1), value, dtype=np.float64),
               requires_grad=True)
    return t, ParameterStore([(name, t)])


def grads_for(store, values):
    return {n: Tensor(np.full(store[n].shape, values[n], dtype=np.float64))
            for n in store.names()}


# -- config and schedule ------------------------------------------------------


def test_train_config_guards():
    for key in ("epochs", "batch_size", "lr_step", "val_every",
                "checkpoint_every"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: bad})
    with pytest.raises(ValueError, match="lr_factor"):
        TrainConfig(lr_factor=0.0)
    nan, inf = float("nan"), float("inf")
    for key, bads in (("lr0", (nan, inf, 0.0, -1.0)),
                      ("weight_decay", (nan, inf, -1.0))):
        for bad in bads:
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: bad})
    TrainConfig(weight_decay=0.0)
    with pytest.raises(ValueError, match="augment"):
        TrainConfig(augment="heavy")


def test_lr_staircase():
    cfg = TrainConfig(lr0=1e-3, lr_step=100, lr_factor=0.5)
    assert lr_at_epoch(0, cfg) == 1e-3
    assert lr_at_epoch(99, cfg) == 1e-3
    assert lr_at_epoch(100, cfg) == 5e-4
    assert lr_at_epoch(199, cfg) == 5e-4
    assert lr_at_epoch(250, cfg) == 2.5e-4
    with pytest.raises(ValueError, match="epoch"):
        lr_at_epoch(-1, cfg)


# -- Adam ---------------------------------------------------------------------


def test_adam_first_step_is_normalized_gradient():
    # after one step the bias corrections cancel: delta = -lr g / (|g| + eps)
    p, store = scalar_param(2.0)
    opt = Adam(store, weight_decay=0.0)
    g = 0.37
    opt.step(grads_for(store, {"p": g}), lr=1e-3)
    want = 2.0 - 1e-3 * g / (abs(g) + 1e-8)
    assert p.item() == pytest.approx(want, rel=1e-12)
    assert opt.step_count == 1


def test_adam_matches_reference_implementation():
    rng = np.random.Generator(np.random.PCG64(0))
    p, store = scalar_param(0.0)
    p.data = rng.normal(size=(1, 2, 2, 1))
    opt = Adam(store, weight_decay=0.0)
    ref = p.data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 6):
        g = rng.normal(size=ref.shape)
        opt.step({"p": Tensor(g.copy())}, lr=1e-2)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.999 ** t)
        ref -= 1e-2 * mh / (np.sqrt(vh) + 1e-8)
    assert np.allclose(p.data, ref, atol=1e-14)


def test_adam_decays_only_weight_tensors():
    w = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float64),
               requires_grad=True)
    b = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float64),
               requires_grad=True)
    store = ParameterStore([("c.weight", w), ("c.bias", b)])
    opt = Adam(store, weight_decay=1e-2)
    zero = grads_for(store, {"c.weight": 0.0, "c.bias": 0.0})
    opt.step(zero, lr=1e-3)
    assert b.item() == 3.0           # zero moments, zero update
    assert w.item() < 3.0            # decay leaks through the gradient


def test_adam_decoupled_decay():
    w, store = scalar_param(2.0, name="x.weight")
    opt = Adam(store, weight_decay=1e-2, decoupled=True)
    opt.step(grads_for(store, {"x.weight": 0.0}), lr=0.1)
    # moments stay zero; the update is exactly the decay term
    assert w.item() == pytest.approx(2.0 - 0.1 * 1e-2 * 2.0, rel=1e-12)


def test_adam_error_paths():
    p, store = scalar_param(1.0)
    opt = Adam(store)
    with pytest.raises(ValueError, match="no gradient"):
        opt.step({}, lr=1e-3)
    with pytest.raises(ValueError, match="gradient shape"):
        opt.step({"p": Tensor.zeros((1, 1, 2, 2), dtype=np.float64)}, 1e-3)
    with pytest.raises(ValueError, match="missing moments"):
        opt.load_state({"step": 1, "m": {}, "v": {}})
    with pytest.raises(ValueError, match="moment shape"):
        opt.load_state({"step": 1,
                        "m": {"p": np.zeros((1, 1, 2, 2))},
                        "v": {"p": np.zeros((1, 1, 2, 2))}})
    # the second moment is checked as the first is
    one = np.zeros((1, 1, 1, 1))
    with pytest.raises(ValueError, match="missing moments"):
        opt.load_state({"step": 1, "m": {"p": one}, "v": {}})
    with pytest.raises(ValueError, match="moment shape"):
        opt.load_state({"step": 1, "m": {"p": one},
                        "v": {"p": np.zeros((1, 1, 2, 2))}})

    # a rejected step changes nothing: checked before the first update
    shape = (1, 2, 1, 1)
    a, b = (Tensor(np.full(shape, v), requires_grad=True) for v in (1.0, 2.0))
    store = ParameterStore([("a", a), ("b", b)])
    opt = Adam(store)
    opt.step(grads_for(store, {"a": 0.5, "b": -0.5}), lr=1e-2)

    def state():
        return [x.data.copy() for x in (a, b)] + [
            d[n].copy() for d in (opt.m, opt.v) for n in ("a", "b")]

    before = state()
    fine = np.full(shape, 0.25)
    for grads, lr, err, match in (
            ({"a": np.full(shape, np.nan), "b": fine}, 1e-2, AutodiffError,
             "non-finite gradient for 'a'"),
            ({"a": fine, "b": np.full(shape, -np.inf)}, 1e-2, AutodiffError,
             "non-finite gradient for 'b'"),
            ({"a": fine, "b": np.zeros((2, 1, 1, 1))}, 1e-2, ValueError,
             "gradient shape"),
            ({"a": fine, "b": fine}, np.nan, AutodiffError,
             "non-finite learning rate"),
            ({"a": fine, "b": fine}, np.inf, AutodiffError,
             "non-finite learning rate")):
        with pytest.raises(err, match=match):
            opt.step({n: Tensor(g) for n, g in grads.items()}, lr=lr)
        assert opt.step_count == 1
        assert all(np.array_equal(u, w) for u, w in zip(before, state()))


def test_adam_over_empty_store_only_counts_steps():
    opt = Adam(ParameterStore([]))
    opt.step({}, lr=1e-3)
    assert opt.step_count == 1 and opt.m == {} and opt.v == {}


class _LoopAdam(Adam):
    """The per-tensor loop the flat update replaced, kept as its oracle."""

    def step(self, grads, lr):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.store.items():
            g = grads[name].data
            wd = self.weight_decay if self.decayed(name) else 0.0
            if wd and not self.decoupled:
                g = g + wd * p.data
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if wd and self.decoupled:
                update = update + wd * p.data
            p.data -= (lr * update).astype(p.data.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("decoupled", [False, True])
def test_flat_adam_is_bit_identical_to_per_tensor_loop(dtype, decoupled):
    # five training steps of the micro net, then one step of gradients with
    # signed zeros and extreme magnitudes: parameters and both moments must
    # match the loop's bit for bit
    from csdn.autodiff import backward
    from csdn.losses import hybrid_loss
    from csdn.phantom import generate_phantom
    samples = [generate_phantom(s, 64) for s in range(2)]
    frames = np.stack([s.frames for s in samples])
    labels = np.stack([s.label for s in samples])
    nets = [CSDN(NetworkConfig.micro(), seed=3, dtype=dtype) for _ in range(2)]
    stores = [net.parameter_store() for net in nets]
    opts = [cls(store, weight_decay=1e-2, decoupled=decoupled)
            for cls, store in zip((_LoopAdam, Adam), stores)]
    rng = np.random.Generator(np.random.PCG64(5))
    for step in range(6):
        if step < 5:
            grads = [backward(hybrid_loss(net(Tensor(frames.astype(dtype))),
                                          labels.astype(np.int64), LossConfig()),
                              store) for net, store in zip(nets, stores)]
        else:
            raw = {n: rng.normal(size=p.shape) * 10.0 ** rng.integers(-20, 16, p.shape)
                   * rng.integers(-1, 2, p.shape) for n, p in stores[0].items()}
            raw = {n: np.where(g == 0, np.copysign(0.0, rng.normal(size=g.shape)), g)
                   for n, g in raw.items()}
            grads = [{n: Tensor(g.astype(dtype)) for n, g in raw.items()}] * 2
        for opt, g in zip(opts, grads):
            opt.step(g, lr=1e-3)
        for name in stores[0].names():
            pairs = [(stores[0][name].data, stores[1][name].data),
                     (opts[0].m[name], opts[1].m[name]),
                     (opts[0].v[name], opts[1].v[name])]
            for want, got in pairs:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (step, name)


# -- epoch loop ---------------------------------------------------------------


def micro_cfg(**kw):
    base = dict(epochs=2, batch_size=3, lr0=1e-3, lr_step=50, seed=0,
                augment="none", val_every=5, checkpoint_every=1)
    base.update(kw)
    return TrainConfig(**base)


def test_train_loss_decreases(small_ds):
    for seed in (0, 1, 2):
        net = CSDN(NetworkConfig.micro(), seed=seed)
        logs = train(net, small_ds, micro_cfg(epochs=3, seed=seed),
                     LossConfig(), quiet=True)
        assert len(logs) == 3
        assert logs[-1].loss < logs[0].loss, seed


def test_train_determinism(small_ds):
    runs = []
    for _ in range(2):
        net = CSDN(NetworkConfig.micro(), seed=4)
        logs = train(net, small_ds, micro_cfg(), LossConfig(), quiet=True)
        runs.append([e.loss for e in logs])
    assert runs[0] == runs[1]  # bitwise-equal epoch losses


def test_train_writes_logs_and_checkpoints(small_ds, tmp_path):
    out = str(tmp_path / "run")
    net = CSDN(NetworkConfig.micro(), seed=0)
    logs = train(net, small_ds, micro_cfg(epochs=3, val_every=2), LossConfig(),
                 out_dir=out, quiet=True)
    assert os.path.exists(os.path.join(out, "last.ckpt"))
    assert os.path.exists(os.path.join(out, "best.ckpt"))
    lines = open(os.path.join(out, "log.csv")).read().splitlines()
    assert lines[0] == LOG_HEADER
    assert len(lines) == 4
    # epoch 0 has no validation pass; epochs 1 (cadence) and 2 (last) do
    assert lines[1].split(",")[3] == ""
    assert lines[2].split(",")[3] != ""
    assert logs[0].val_dsc_lumen is None
    assert logs[1].val_dsc_lumen is not None
    assert logs[2].val_dsc_eem is not None


def test_epoch_log_csv_row():
    e = EpochLog(epoch=7, loss=1.25, lr=5e-4)
    assert e.csv_row() == "7,1.250000,0.00050000,,,,"
    e.val_dsc_lumen = 0.5
    assert e.csv_row().split(",")[3] == "0.500000"


def test_train_empty_split(tmp_path, small_ds):
    root = str(tmp_path / "noval")
    generate_dataset(root, 0, 1, 64, seed=1)
    ds = Dataset.open(root)
    with pytest.raises(ValueError, match="training split is empty"):
        train(CSDN(NetworkConfig.micro(), seed=0), ds, micro_cfg(),
              LossConfig(), quiet=True)


def test_train_single_sample_split(tmp_path):
    root = str(tmp_path / "one")
    generate_dataset(root, 1, 0, 64, seed=1)
    with pytest.raises(ValueError, match="1 sample; batch norm needs 2"):
        train(CSDN(NetworkConfig.micro(), seed=0), Dataset.open(root),
              micro_cfg(), LossConfig(), quiet=True)


def test_trailing_single_sample_is_never_built(tmp_path, monkeypatch):
    # 9 samples in batches of 8: the ninth would form a batch of one, which
    # trains nothing, so it is neither stacked nor augmented
    root = str(tmp_path / "nine")
    generate_dataset(root, 9, 0, 64, seed=2)
    calls = []

    def counted(sample, seed, cfg):
        calls.append(seed)
        return augment(sample, seed, cfg)

    monkeypatch.setattr(phantom, "augment", counted)
    logs = train(CSDN(NetworkConfig.micro(), seed=0), Dataset.open(root),
                 micro_cfg(batch_size=8, augment="full"), LossConfig(),
                 quiet=True)
    assert len(logs) == 2
    assert len(calls) == 2 * 8


def test_resume_matches_uninterrupted_run(small_ds, tmp_path):
    cfg4 = micro_cfg(epochs=4)
    straight = str(tmp_path / "straight")
    net_a = CSDN(NetworkConfig.micro(), seed=0)
    train(net_a, small_ds, cfg4, LossConfig(), out_dir=straight, quiet=True)

    split = str(tmp_path / "split")
    net_b = CSDN(NetworkConfig.micro(), seed=0)
    train(net_b, small_ds, micro_cfg(epochs=2), LossConfig(), out_dir=split,
          quiet=True)
    logs = resume(os.path.join(split, "last.ckpt"), small_ds, cfg4,
                  LossConfig(), out_dir=split, quiet=True)
    assert [e.epoch for e in logs] == [2, 3]

    from csdn.serial import load_checkpoint, weights_bytes
    net_sa, opt_a, tr_a = load_checkpoint(os.path.join(straight, "last.ckpt"))
    net_sb, opt_b, tr_b = load_checkpoint(os.path.join(split, "last.ckpt"))
    # weights, buffers, moments, and counters all bit-identical; only the
    # best-DSC bookkeeping may differ (the split run validated once more,
    # at its segment boundary)
    assert weights_bytes(net_sa) == weights_bytes(net_sb)
    assert opt_a["step"] == opt_b["step"]
    for n in opt_a["m"]:
        assert np.array_equal(opt_a["m"][n], opt_b["m"][n]), n
        assert np.array_equal(opt_a["v"][n], opt_b["v"][n]), n
    for key in ("epoch", "global_step", "master_seed"):
        assert tr_a[key] == tr_b[key]


class Crash(Exception):
    pass


def test_resume_after_a_crash_logs_as_the_straight_run(small_ds, tmp_path,
                                                        monkeypatch):
    # checkpoints at epochs 1 and 3; the crashed run stops in Adam.step's
    # 7th call, after logging epoch 2 (two steps an epoch), and its log
    # ends in a torn row
    from csdn.serial import load_checkpoint
    cfg = micro_cfg(epochs=4, checkpoint_every=2)
    straight, crashed = str(tmp_path / "straight"), str(tmp_path / "crash")
    train(CSDN(NetworkConfig.micro(), seed=0), small_ds, cfg, LossConfig(),
          out_dir=straight, quiet=True)
    step, calls = Adam.step, []

    def crashes_on_7th(self, grads, lr):
        calls.append(lr)
        if len(calls) == 7:
            raise Crash
        step(self, grads, lr)

    with monkeypatch.context() as m:
        m.setattr(Adam, "step", crashes_on_7th)
        with pytest.raises(Crash):
            train(CSDN(NetworkConfig.micro(), seed=0), small_ds, cfg,
                  LossConfig(), out_dir=crashed, quiet=True)
    log = os.path.join(crashed, "log.csv")
    with open(log) as fh:
        assert [r.split(",")[0] for r in fh.read().splitlines()[1:]] \
            == ["0", "1", "2"]
    assert load_checkpoint(os.path.join(crashed, "last.ckpt"))[2]["epoch"] \
        == 1
    with open(log, "a") as fh:
        fh.write("3,0.81")
    logs = resume(os.path.join(crashed, "last.ckpt"), small_ds, cfg,
                  LossConfig(), out_dir=crashed, quiet=True)
    assert [e.epoch for e in logs] == [2, 3]
    for name in ("log.csv", "last.ckpt"):
        with open(os.path.join(straight, name), "rb") as a, \
                open(os.path.join(crashed, name), "rb") as b:
            assert a.read() == b.read(), name
    assert sorted(os.listdir(crashed)) == ["best.ckpt", "last.ckpt",
                                           "log.csv"]


# ``python -c _KILL_AT POINT N ARGS``: run ``csdn ARGS`` and SIGKILL the
# process at the Nth call of POINT: Adam.step (mid-step), the os.replace
# that renames a written last.ckpt into place (mid-checkpoint), or
# save_checkpoint for last.ckpt (after the epoch's log row, before its
# checkpoint)
_KILL_AT = """
import os, signal, sys
from csdn import cli, train

point, nth, calls = sys.argv[1], int(sys.argv[2]), []

def kill_at_nth(fn, counts=lambda *args: True):
    def wrapper(*args, **kwargs):
        if counts(*args):
            calls.append(None)
            if len(calls) == nth:
                os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)
    return wrapper

def to_last(*args):
    return args[-1].endswith("last.ckpt")

if point == "step":
    train.Adam.step = kill_at_nth(train.Adam.step)
elif point == "replace":
    os.replace = kill_at_nth(os.replace, to_last)
else:
    train.save_checkpoint = kill_at_nth(
        train.save_checkpoint, lambda path, *args: path.endswith("last.ckpt"))
sys.exit(cli.main(sys.argv[3:]))
"""

KILL_RUN_CFG = ("preset = micro\nepochs = 6\nbatch_size = 2\n"
                "checkpoint_every = 2\nval_every = 2\naugment = mild\n")


@pytest.fixture(scope="module")
def kill_run(tmp_path_factory):
    """(args of a run that saves last.ckpt three times in six epochs of two
    steps, the straight run's directory)."""
    from csdn.cli import main
    root = tmp_path_factory.mktemp("kill")
    assert main(["gen-data", "--out", str(root / "ds"), "--n-train", "4",
                 "--n-val", "1", "--size", "64", "--seed", "0"]) == 0
    (root / "run.cfg").write_text(KILL_RUN_CFG)
    args = ["train", "--data", str(root / "ds"), "--config",
            str(root / "run.cfg"), "--quiet"]
    assert main(args + ["--out", str(root / "straight")]) == 0
    return args, str(root / "straight")


# kill point, its calls that follow the first checkpoint (12 steps, 3
# checkpoints), and the seed that draws the one killed at
@pytest.mark.parametrize("point, first, last, seed", [
    ("step", 5, 12, 0), ("replace", 2, 3, 1), ("row", 2, 3, 2)])
def test_sigkill_then_resume_gives_the_straight_run(kill_run, tmp_path,
                                                     point, first, last,
                                                     seed):
    from csdn.cli import main
    args, straight = kill_run
    nth = int(np.random.default_rng(seed).integers(first, last + 1))
    out = str(tmp_path / "killed")
    src = os.path.dirname(os.path.dirname(csdn.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_AT, point, str(nth), *args, "--out",
         out], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == -9, proc.stderr
    # only the mid-checkpoint kill leaves its temp file behind
    assert (".last.ckpt.tmp" in os.listdir(out)) == (point == "replace")
    ckpt = os.path.join(out, "last.ckpt")
    assert main(args + ["--out", out, "--resume", ckpt]) == 0
    for name in ("log.csv", "last.ckpt"):
        with open(os.path.join(straight, name), "rb") as a, \
                open(os.path.join(out, name), "rb") as b:
            assert a.read() == b.read(), (name, nth)
    assert sorted(os.listdir(out)) == sorted(os.listdir(straight))


def test_nan_parameter_never_reaches_a_checkpoint(small_ds, tmp_path,
                                                  monkeypatch):
    # a step that leaves a parameter NaN ends the epoch (one step of 6), so
    # the checkpoint is the first thing to read the weights after it
    out = str(tmp_path / "run")
    step = Adam.step

    def poisoned(self, grads, lr):
        step(self, grads, lr)
        self.store["head.point.bias"].data[0, 0] = np.nan

    monkeypatch.setattr(Adam, "step", poisoned)
    with pytest.raises(AutodiffError, match="head.point.bias: non-finite"):
        train(CSDN(NetworkConfig.micro(), seed=0), small_ds,
              micro_cfg(batch_size=6), LossConfig(), out_dir=out, quiet=True)
    assert sorted(os.listdir(out)) == ["log.csv"]


def test_resume_rejects_other_seed(small_ds, tmp_path):
    # the checkpoint's seed sets the data order, so resuming under another
    # seed would silently break bit-exact resume
    out = str(tmp_path / "run")
    train(CSDN(NetworkConfig.micro(), seed=5), small_ds,
          micro_cfg(epochs=1, seed=5), LossConfig(), out_dir=out, quiet=True)
    ckpt = os.path.join(out, "last.ckpt")
    with pytest.raises(ValueError) as info:
        resume(ckpt, small_ds, micro_cfg(epochs=2), LossConfig(),
               out_dir=out, quiet=True)
    assert ckpt in str(info.value)
    assert "seed 5" in str(info.value) and "seed 0" in str(info.value)
    logs = resume(ckpt, small_ds, micro_cfg(epochs=2, seed=5), LossConfig(),
                  out_dir=out, quiet=True)
    assert [e.epoch for e in logs] == [1]


def test_resume_without_optimizer_state_warns(small_ds, tmp_path, capsys):
    from csdn.serial import save_checkpoint
    net = CSDN(NetworkConfig.micro(), seed=0)
    p = str(tmp_path / "bare.ckpt")
    save_checkpoint(p, net, None, epoch=0, global_step=2, master_seed=0,
                    best_val_dsc=-1.0)
    logs = resume(p, small_ds, micro_cfg(), LossConfig(), quiet=True)
    assert "fresh moments" in capsys.readouterr().out
    assert [e.epoch for e in logs] == [1]


# -- heap ---------------------------------------------------------------------


_FAULT_PROBE = """
import resource
import numpy as np
from csdn.autodiff import Tensor, backward
from csdn.losses import LossConfig, hybrid_loss
from csdn.model import CSDN, NetworkConfig
from csdn.phantom import batches, generate_phantom
from csdn.train import Adam

net = CSDN(NetworkConfig.desk(), seed=0)
store = net.parameter_store()
opt = Adam(store)
samples = [generate_phantom(s, 128, sample_id=f"s{s}") for s in range(8)]
frames, labels = next(batches(samples, 8, 0, None))
x = Tensor(frames.astype(np.float32))

def step():
    loss = hybrid_loss(net(x), labels, LossConfig())
    store.zero_grad()
    opt.step(backward(loss, store), 1e-3)

faults = []
while len(faults) < 12:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    if len(faults) >= 6 and sum(faults[-3:]) <= 64:
        break
print(faults, min(sum(faults[i:i + 3]) for i in range(3, len(faults) - 2)))
"""


@pytest.mark.skipif(not csdn.STEADY_HEAP, reason="glibc mallopt unavailable")
def test_desk_steps_stop_faulting_after_warm_up():
    # With fixed malloc thresholds a step reuses the heap pages of the step
    # before it instead of mapping and faulting in fresh ones. A fresh
    # interpreter keeps the small-object arenas that earlier tests leave
    # behind out of the count. The heap reaches its final size in one or two
    # late growths of about 128 pages each, and the step they land in
    # varies with the interpreter's hash seed and BLAS thread timing (as late
    # as the tenth step), so the probe warms up for at least three steps
    # and until three steps in a row take at most 64 faults, or twelve
    # steps have run; it prints the fewest faults any three steps after the
    # first three took. Without the thresholds every step takes thousands.
    src = os.path.dirname(os.path.dirname(csdn.__file__))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.split()[-1])
    assert faults <= 64, proc.stdout
