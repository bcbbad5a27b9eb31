"""Weight-file and checkpoint codec: byte-stable round trips, trailing-data
tolerance, corruption detection."""

import hashlib
import os
import struct

import numpy as np
import pytest

from csdn.autodiff import AutodiffError, Tensor
from csdn import serial
from csdn.model import CSDN, NetworkConfig
from csdn.serial import (FormatError, load_checkpoint, load_weights,
                         save_checkpoint, save_weights, weights_bytes)
from csdn.train import Adam


def warmed_net(seed=0, dtype=np.float32):
    # one train-mode pass so BN running stats move off their init values
    net = CSDN(NetworkConfig.micro(), seed=seed, dtype=dtype)
    rng = np.random.Generator(np.random.PCG64(seed))
    net(Tensor(rng.normal(size=(2, 3, 32, 32)).astype(dtype)))
    return net


def assert_nets_equal(a, b):
    pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
    assert sorted(pa) == sorted(pb)
    for n in pa:
        assert np.array_equal(pa[n].data, pb[n].data), n
    ba, bb = dict(a.named_buffers()), dict(b.named_buffers())
    assert sorted(ba) == sorted(bb)
    for n in ba:
        assert np.array_equal(ba[n].data, bb[n].data), n


def test_weights_roundtrip(tmp_path):
    net = warmed_net()
    p = str(tmp_path / "w.bin")
    save_weights(p, net)
    back = load_weights(p)
    assert back.config == net.config
    assert_nets_equal(net, back)
    net.eval()
    back.eval()
    x = Tensor(np.random.Generator(np.random.PCG64(5))
               .normal(size=(1, 3, 32, 32)).astype(np.float32))
    assert np.array_equal(net(x).main_logits.data, back(x).main_logits.data)


def test_weights_bytes_reproducible():
    assert weights_bytes(warmed_net(3)) == weights_bytes(warmed_net(3))


def test_weights_roundtrip_float64(tmp_path):
    net = warmed_net(dtype=np.float64)
    p = str(tmp_path / "w64.bin")
    save_weights(p, net)
    back = load_weights(p)
    assert back.dtype == np.float64
    assert next(iter(dict(back.named_parameters()).values())).dtype == \
        np.float64
    assert_nets_equal(net, back)


def test_load_rejects_bad_magic(tmp_path):
    p = str(tmp_path / "junk.bin")
    with open(p, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="bad magic"):
        load_weights(p)


def test_load_rejects_bad_version(tmp_path):
    # version 1 files are rejected on purpose: there is one reader
    for version in (1, 9):
        blob = bytearray(weights_bytes(warmed_net()))
        struct.pack_into("<H", blob, 4, version)
        p = str(tmp_path / f"v{version}.bin")
        with open(p, "wb") as fh:
            fh.write(blob)
        with pytest.raises(FormatError, match=f"version {version}"):
            load_weights(p)


def test_load_rejects_truncated_records(tmp_path):
    blob = weights_bytes(warmed_net())
    p = str(tmp_path / "cut.bin")
    with open(p, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_weights(p)


def test_load_detects_missing_tensor(tmp_path, monkeypatch):
    # a well-formed file, record count and CRC included, that lacks a tensor
    net = warmed_net()
    records = list(serial._net_records(net))[:-1]
    monkeypatch.setattr(serial, "_net_records", lambda _net: iter(records))
    p = str(tmp_path / "short.bin")
    save_weights(p, net)
    with pytest.raises(FormatError, match="missing tensors"):
        load_weights(p)


def test_checkpoint_roundtrip_with_optimizer(tmp_path):
    net = warmed_net(7)
    opt = Adam(net.parameter_store())
    rng = np.random.Generator(np.random.PCG64(8))
    opt.step_count = 11
    for n in opt.m:
        opt.m[n] = rng.normal(size=opt.m[n].shape).astype(np.float32)
        opt.v[n] = rng.uniform(0, 1, size=opt.v[n].shape).astype(np.float32)
    p = str(tmp_path / "c.ckpt")
    save_checkpoint(p, net, opt, epoch=4, global_step=52, master_seed=99,
                    best_val_dsc=0.8125)
    back, state, trailer = load_checkpoint(p)
    assert_nets_equal(net, back)
    assert state["step"] == 11
    for n in opt.m:
        assert np.array_equal(state["m"][n], opt.m[n]), n
        assert np.array_equal(state["v"][n], opt.v[n]), n
    assert trailer == {"epoch": 4, "global_step": 52, "master_seed": 99,
                       "best_val_dsc": 0.8125}


def test_checkpoint_without_optimizer(tmp_path):
    net = warmed_net()
    p = str(tmp_path / "plain.ckpt")
    save_checkpoint(p, net, None, epoch=0, global_step=0, master_seed=1,
                    best_val_dsc=-1.0)
    back, state, trailer = load_checkpoint(p)
    assert state is None
    assert trailer["master_seed"] == 1
    assert_nets_equal(net, back)


def test_load_weights_ignores_checkpoint_tail(tmp_path):
    # the eval path points load_weights at checkpoints; the trailer must
    # not confuse it
    net = warmed_net(2)
    p = str(tmp_path / "t.ckpt")
    save_checkpoint(p, net, Adam(net.parameter_store()), epoch=1,
                    global_step=9, master_seed=3, best_val_dsc=0.5)
    assert_nets_equal(net, load_weights(p))


def test_checkpoint_truncated_trailer(tmp_path):
    net = warmed_net()
    p = str(tmp_path / "cut.ckpt")
    save_checkpoint(p, net, None, epoch=0, global_step=0, master_seed=0,
                    best_val_dsc=0.0)
    blob = open(p, "rb").read()
    with open(p, "wb") as fh:
        fh.write(blob[:-4])
    with pytest.raises(FormatError, match="trailer"):
        load_checkpoint(p)


# sha256 of a fresh micro net's weight file and of its checkpoint with a
# fresh Adam; a NetworkConfig field change that moves the layout without a
# VERSION bump shows here
MICRO_WEIGHTS_SHA256 = \
    "6d6029d8f4054b0fde248363429f5a5334ae2bf7f6055ee39fafb7a5c5953124"
MICRO_CKPT_SHA256 = \
    "3295de516c16783e0e4a2dad752ab2eb1450d2346b3144bcdb6d5ed945ab2f60"


# sha256 of each other preset's fresh seed-0 weight file: the parameter and
# buffer names, shapes and init order of the whole network
PRESET_WEIGHTS_SHA256 = {
    "tiny": "8144ffde8a953781cb4cc05c98a01f342cc72e22ca4c04c9e6b649362bbb0417",
    "desk": "bf7441a97d22bb6d886b1a8854c8430700a45e78747f6e8c8e707ef57a7dee86",
    "reference":
        "fd926294639522cce7e8dfe1da398f1bf72d6dc841dbe6d03fc95915cbbc25dc",
}


def save_micro_checkpoint(path):
    net = CSDN(NetworkConfig.micro(), seed=0)
    save_checkpoint(path, net, Adam(net.parameter_store()), epoch=1,
                    global_step=2, master_seed=3, best_val_dsc=0.5)
    return net


def test_format_bytes_pinned(tmp_path):
    p = tmp_path / "micro.ckpt"
    net = save_micro_checkpoint(str(p))
    assert hashlib.sha256(weights_bytes(net)).hexdigest() == \
        MICRO_WEIGHTS_SHA256
    assert hashlib.sha256(p.read_bytes()).hexdigest() == MICRO_CKPT_SHA256
    for preset, digest in PRESET_WEIGHTS_SHA256.items():
        net = CSDN(getattr(NetworkConfig, preset)(), seed=0)
        assert hashlib.sha256(weights_bytes(net)).hexdigest() == digest, \
            preset


def prefix_cuts(size, marks):
    """Every cut in the first 256 bytes (header, config block, first
    records) and within 64 bytes of each mark, plus every 397th cut."""
    cuts = set(range(0, min(size, 256))) | set(range(0, size, 397))
    for m in marks:
        cuts |= set(range(max(0, m - 64), min(size, m + 64)))
    return sorted(cuts)


def test_truncated_files_raise_format_error(tmp_path):
    full = tmp_path / "micro.ckpt"
    net = save_micro_checkpoint(str(full))
    weights = weights_bytes(net)
    ckpt = full.read_bytes()
    cut = str(tmp_path / "cut.bin")
    for blob, load, marks in ((weights, load_weights, [len(weights)]),
                              (ckpt, load_checkpoint,
                               [len(weights), len(ckpt)])):
        for n in prefix_cuts(len(blob), marks):
            with open(cut, "wb") as fh:
                fh.write(blob[:n])
            with pytest.raises(FormatError, match="truncated"):
                load(cut)


def count_builds(monkeypatch):
    """A list that gets one entry per ``CSDN`` built from now on."""
    builds = []
    orig_init = CSDN.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(CSDN, "__init__", counting_init)
    return builds


def test_cut_checkpoint_fails_before_building_a_network(tmp_path,
                                                        monkeypatch):
    full = tmp_path / "micro.ckpt"
    net = save_micro_checkpoint(str(full))
    ckpt = full.read_bytes()
    cut = tmp_path / "cut.ckpt"
    builds = count_builds(monkeypatch)
    for n in (len(weights_bytes(net)) + 5, len(ckpt) - 100, len(ckpt) - 1):
        cut.write_bytes(ckpt[:n])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(str(cut))
    assert builds == []
    load_checkpoint(str(full))
    assert builds == [1]


def test_flipped_bits_raise_format_error(tmp_path, monkeypatch):
    # every bit of the header, config block and first records, plus 400
    # seeded bits elsewhere, of a weight file and of a checkpoint
    full = tmp_path / "micro.ckpt"
    net = save_micro_checkpoint(str(full))
    bad = tmp_path / "bad.bin"
    builds = count_builds(monkeypatch)
    rng = np.random.Generator(np.random.PCG64(17))
    for blob, load in ((weights_bytes(net), load_weights),
                       (full.read_bytes(), load_checkpoint)):
        bits = np.concatenate([np.arange(128 * 8), rng.choice(
            np.arange(128 * 8, len(blob) * 8), 400, replace=False)])
        for bit in bits:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            bad.write_bytes(flipped)
            with pytest.raises(FormatError):
                load(str(bad))
    assert builds == []


class FailingFile:
    """A file opened for writing that takes ``limit`` bytes, then raises."""

    def __init__(self, fh, limit):
        self.fh, self.limit = fh, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        room = self.limit - self.fh.tell()
        if len(data) > room:
            self.fh.write(data[:room])
            raise OSError("disk full")
        return self.fh.write(data)


@pytest.mark.parametrize("save", ["weights", "checkpoint"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, save):
    path = tmp_path / "model.bin"

    def write(seed):
        net = warmed_net(seed)
        if save == "weights":
            save_weights(str(path), net)
        else:
            save_checkpoint(str(path), net, Adam(net.parameter_store()),
                            epoch=1, global_step=2, master_seed=3,
                            best_val_dsc=0.5)

    write(1)
    before = path.read_bytes()

    def failing_open(name, mode="r", *args, **kwargs):
        fh = open(name, mode, *args, **kwargs)
        return FailingFile(fh, len(before) // 2) if "w" in mode else fh

    monkeypatch.setattr(serial, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.bin"]
    monkeypatch.undo()
    write(2)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["model.bin"]


@pytest.mark.parametrize("save", ["weights", "checkpoint"])
def test_non_finite_tensor_is_refused_before_any_write(tmp_path, save):
    net = warmed_net(1)
    opt = Adam(net.parameter_store())
    path = tmp_path / "model.bin"
    cases = {"head.point.bias": net.head.point.bias.data,
             "head.conv.bn.running_var": net.head.conv.bn.running_var.data}
    if save == "checkpoint":
        cases["m:head.point.bias"] = opt.m["head.point.bias"]

    def write():
        if save == "weights":
            save_weights(str(path), net)
        else:
            save_checkpoint(str(path), net, opt, epoch=0, global_step=1,
                            master_seed=0, best_val_dsc=-1.0)

    for name, arr in cases.items():
        for value in (np.nan, np.inf):
            keep = arr.flat[0]
            arr.flat[0] = value
            with pytest.raises(AutodiffError, match=f"{name}: non-finite"):
                write()
            arr.flat[0] = keep
            assert os.listdir(tmp_path) == []
    write()
    assert os.listdir(tmp_path) == ["model.bin"]
