"""Binary weight-file and checkpoint formats, version 2.

Weight file: magic "CSDN", format version u16, the network config block,
a record count, one record per tensor (learnable parameters and
normalization running stats alike, the latter flagged non-learnable),
then a CRC32 trailer. Records are sorted by name so files are reproducible.

The config block is the ``NetworkConfig`` fields in declaration order,
little-endian: i32 for an int, three i32 for an int triple. Adding,
removing, reordering or retyping a field therefore changes the format and
needs a ``VERSION`` bump; files of any other version are rejected.

Checkpoint: the weight block, then a has-optimizer byte, the optimizer
moments in the same record encoding, a fixed-size trailer (epoch, global
step, master seed, best validation score) and the CRC32 trailer.

The CRC32 trailer is ``zlib.crc32`` of every byte before it. A file is
parsed first, every read bounds-checked so a short file raises
``FormatError("truncated ...")``, then its CRC is checked, and only then
is a network built. Both kinds of file are written to a temp file beside
the target, synced, and renamed onto it, so a crash mid-write leaves
the previous file whole. A tensor with a non-finite value is refused
before anything is written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import struct
import zlib

import numpy as np

from .autodiff import AutodiffError
from .model import CSDN, NetworkConfig

MAGIC = b"CSDN"
VERSION = 2

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}

# struct code per NetworkConfig field annotation
_FIELD_CODES = {"int": "i", "tuple[int, int, int]": "3i"}
_CONFIG = struct.Struct("<" + "".join(
    _FIELD_CODES[f.type] for f in dataclasses.fields(NetworkConfig)))


class FormatError(ValueError):
    pass


class _Reader:
    """Sequential reads from a byte buffer, each one bounds-checked."""

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.off + n > len(self.buf):
            raise FormatError(f"truncated {what}")
        self.off += n
        return self.buf[self.off - n:self.off]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _pack_config(cfg: NetworkConfig) -> bytes:
    vals = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        vals.extend(v if isinstance(v, tuple) else (v,))
    return _CONFIG.pack(*vals)


def _read_config(r: _Reader) -> dict:
    """``NetworkConfig`` keywords, built into a config after the CRC."""
    vals = iter(r.unpack(_CONFIG.format, "config block"))
    kw = {}
    for f in dataclasses.fields(NetworkConfig):
        if _FIELD_CODES[f.type] == "3i":
            kw[f.name] = tuple(itertools.islice(vals, 3))
        else:
            kw[f.name] = next(vals)
    return kw


def _pack_record(name: str, arr: np.ndarray, learnable: bool) -> bytes:
    nb = name.encode("utf-8")
    if arr.dtype not in _DTYPE_TAGS:
        raise FormatError(f"{name}: unsupported dtype {arr.dtype}")
    if not np.isfinite(arr).all():
        raise AutodiffError(f"{name}: non-finite values; nothing written")
    head = struct.pack("<H", len(nb)) + nb
    head += struct.pack("<BBB", _DTYPE_TAGS[arr.dtype], int(learnable),
                        arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return head + little.tobytes()


def _read_record(r: _Reader):
    nlen, = r.unpack("<H", "record header")
    # a damaged name decodes with U+FFFD; the CRC check rejects the file
    name = bytes(r.take(nlen, "record name")).decode("utf-8", "replace")
    tag, learnable, rank = r.unpack("<BBB", f"record header of {name!r}")
    if tag not in _TAG_DTYPES:
        raise FormatError(f"{name}: unknown dtype tag {tag}")
    dims = r.unpack(f"<{rank}I", f"shape of {name!r}")
    if rank != 4 or 0 in dims:  # every tensor is a non-empty (n, c, h, w)
        raise FormatError(f"{name}: bad shape {dims}")
    dtype = _TAG_DTYPES[tag]
    data = r.take(math.prod(dims) * dtype.itemsize,
                  f"tensor data of {name!r}")
    arr = np.frombuffer(data, dtype=dtype.newbyteorder("<")).astype(dtype)
    return name, arr.reshape(dims), bool(learnable)


def _net_records(net: CSDN):
    params = sorted(net.named_parameters())
    buffers = sorted(net.named_buffers())
    for name, t in params:
        yield name, t.data, True
    for name, t in buffers:
        yield name, t.data, False


def _weight_block(net: CSDN) -> bytes:
    parts = [MAGIC, struct.pack("<H", VERSION), _pack_config(net.config)]
    parts.append(struct.pack("<I", sum(1 for _ in _net_records(net))))
    for name, arr, learnable in _net_records(net):
        parts.append(_pack_record(name, arr, learnable))
    return b"".join(parts)


def _sealed(body: bytes) -> bytes:
    """``body`` followed by its CRC32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def weights_bytes(net: CSDN) -> bytes:
    """The bytes of a weight file for ``net``."""
    return _sealed(_weight_block(net))


def _write_atomic(path: str, data: bytes):
    """Write to a temp file beside ``path``, sync it, rename it onto
    ``path``, then sync the directory: a reader sees the old file or the
    new one, never a torn one, and after a power loss the rename cannot
    outlive the data. On any failure the temp file is removed and
    ``path`` is untouched; one left by a killed writer is overwritten and
    renamed away by the next write."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    fd = os.open(head or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_weights(path: str, net: CSDN):
    _write_atomic(path, weights_bytes(net))


def _read_records(r: _Reader):
    """Parse a weight block: (config keywords, {name: array}, parameter
    dtype)."""
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad magic; not a CSDN weight file")
    version, = r.unpack("<H", "format version")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    cfg = _read_config(r)
    n_records, = r.unpack("<I", "record count")
    records = {}
    dtype = np.dtype(np.float32)
    for _ in range(n_records):
        name, arr, learnable = _read_record(r)
        records[name] = arr
        if learnable:
            dtype = arr.dtype
    return cfg, records, dtype


def _read_checkpoint_tail(r: _Reader):
    """(opt_state | None, trailer dict) after a checkpoint's weights."""
    has_opt, = r.unpack("<B", "optimizer flag")
    opt_state = None
    if has_opt:
        step, n_pairs = r.unpack("<QI", "optimizer header")
        m, v = {}, {}
        for _ in range(n_pairs):
            m_name, m_arr, _l = _read_record(r)
            v_name, v_arr, _l = _read_record(r)
            name = m_name[2:]
            if (m_name[:2], v_name) != ("m:", "v:" + name):
                raise FormatError(f"optimizer records {m_name!r} and "
                                  f"{v_name!r} do not pair")
            m[name], v[name] = m_arr, v_arr
        opt_state = {"step": step, "m": m, "v": v}
    epoch, global_step, master_seed, best = r.unpack("<IQQd",
                                                     "checkpoint trailer")
    trailer = {"epoch": epoch, "global_step": global_step,
               "master_seed": master_seed, "best_val_dsc": best}
    return opt_state, trailer


def _read_file(path: str, checkpoint: bool):
    """Parse a whole file, then check its CRC32 trailer: (weight block,
    checkpoint tail | None). The checkpoint sections are read when
    ``checkpoint`` is set or more than the CRC follows the weight block."""
    with open(path, "rb") as fh:
        r = _Reader(memoryview(fh.read()))
    weights = _read_records(r)
    tail = None
    if checkpoint or len(r.buf) - r.off > 4:
        tail = _read_checkpoint_tail(r)
    crc, = r.unpack("<I", "CRC32 trailer")
    if r.off != len(r.buf) or crc != zlib.crc32(r.buf[:-4]):
        raise FormatError("CRC32 trailer does not match; the file is "
                          "corrupt")
    return weights, tail


def _build_net(cfg: dict, records: dict, dtype) -> CSDN:
    net = CSDN(NetworkConfig(**cfg), seed=0, dtype=dtype)
    known = dict(net.named_parameters())
    known.update(net.named_buffers())
    for name, arr in records.items():
        if name not in known:
            raise FormatError(f"unknown parameter name {name!r} in file")
        t = known[name]
        if tuple(arr.shape) != t.shape:
            raise FormatError(f"shape mismatch for {name!r}: file "
                              f"{tuple(arr.shape)} vs model {t.shape}")
        t.data = np.ascontiguousarray(arr.astype(t.dtype, copy=False))
    missing = sorted(set(known) - set(records))
    if missing:
        raise FormatError(f"weight file is missing tensors: {missing[:3]}")
    return net


def load_weights(path: str) -> CSDN:
    """The network stored in a weight file or in a checkpoint."""
    weights, _tail = _read_file(path, checkpoint=False)
    return _build_net(*weights)


def save_checkpoint(path: str, net: CSDN, opt=None, *, epoch: int,
                    global_step: int, master_seed: int,
                    best_val_dsc: float):
    parts = [_weight_block(net)]
    if opt is not None:
        names = sorted(opt.m)
        parts.append(struct.pack("<BQI", 1, opt.step_count, len(names)))
        for name in names:
            parts.append(_pack_record("m:" + name, opt.m[name], True))
            parts.append(_pack_record("v:" + name, opt.v[name], True))
    else:
        parts.append(struct.pack("<B", 0))
    parts.append(struct.pack("<IQQd", epoch, global_step, master_seed,
                             best_val_dsc))
    _write_atomic(path, _sealed(b"".join(parts)))


def load_checkpoint(path: str):
    """Returns (net, opt_state | None, trailer dict). opt_state holds
    step count plus m/v arrays keyed by parameter name. The whole file is
    parsed and its CRC checked before the network is built, so a short or
    corrupt file fails cheaply."""
    weights, (opt_state, trailer) = _read_file(path, checkpoint=True)
    return _build_net(*weights), opt_state, trailer
