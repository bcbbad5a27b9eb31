"""Synthetic three-frame vessel phantoms, augmentation, and dataset I/O.

Each phantom is a nested pair of ellipses (outer vessel boundary, inner
lumen) rendered as intensity bands under multiplicative speckle, with
optional angular shadow wedges and a central catheter disk. Ellipses are
kept as (center, quadratic form) pairs so affine transforms map them
exactly; the label is rasterized analytically from the central frame's
geometry.

On disk a dataset is a directory of binary PGM files plus a line-oriented
manifest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

LUMEN_VALUE = 0.12
WALL_VALUE = 0.55
ADVENTITIA_VALUE = 0.35
CATHETER_VALUE = 0.05
SHADOW_FACTOR = 0.15
DEFAULT_SPACING_MM = 0.02


@dataclass(frozen=True)
class Ellipse:
    """Region {p : (p-c)^T M (p-c) <= 1} in (row, col) coordinates."""
    center: np.ndarray  # (2,)
    form: np.ndarray    # (2, 2) SPD

    @staticmethod
    def from_axes(center, radii, angle) -> "Ellipse":
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        diag = np.diag([1.0 / radii[0] ** 2, 1.0 / radii[1] ** 2])
        return Ellipse(np.asarray(center, dtype=np.float64),
                       rot @ diag @ rot.T)

    def contains(self, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
        dy = yy - self.center[0]
        dx = xx - self.center[1]
        m = self.form
        q = m[0, 0] * dy * dy + (m[0, 1] + m[1, 0]) * dy * dx + m[1, 1] * dx * dx
        return q <= 1.0

    def transformed(self, a: np.ndarray, t: np.ndarray) -> "Ellipse":
        """Image of the region under p' = a p + t (exact)."""
        ai = np.linalg.inv(a)
        return Ellipse(a @ self.center + t, ai.T @ self.form @ ai)


@dataclass
class Sample:
    frames: np.ndarray          # (3, H, W) float32 in [0, 1]
    label: np.ndarray           # (H, W) uint8 in {0, 1, 2}
    spacing_mm: float
    id: str
    geometry: dict = field(default_factory=dict)  # central-frame ellipses


@dataclass
class DatasetManifest:
    root: str
    spacing_mm: float
    size: int
    train_ids: list[str]
    val_ids: list[str]


# -- generation ---------------------------------------------------------------


def _draw_geometry(rng: np.random.Generator, size: int):
    center = size / 2.0 + rng.uniform(-0.05, 0.05, size=2) * size
    eem_radii = rng.uniform(0.25, 0.42, size=2) * size
    eem_angle = rng.uniform(0.0, math.pi)
    lum_radii = rng.uniform(0.35, 0.75, size=2) * eem_radii
    lum_angle = rng.uniform(0.0, math.pi)
    eem = Ellipse.from_axes(center, eem_radii, eem_angle)
    # Offset the lumen but keep it strictly inside the outer ellipse;
    # shrink the attempted offset whenever containment fails.
    phis = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    lum = None
    cc, ss = math.cos(lum_angle), math.sin(lum_angle)
    unit = np.stack([lum_radii[0] * np.cos(phis),
                     lum_radii[1] * np.sin(phis)])  # pre-rotation boundary
    boundary = np.array([[cc, -ss], [ss, cc]]) @ unit
    for attempt in range(40):
        shrink = 0.9 ** attempt
        off = rng.uniform(-0.2, 0.2, size=2) * eem_radii * shrink
        cand = Ellipse.from_axes(center + off, lum_radii, lum_angle)
        dy = boundary[0] + cand.center[0] - eem.center[0]
        dx = boundary[1] + cand.center[1] - eem.center[1]
        m = eem.form
        q = m[0, 0] * dy * dy + (m[0, 1] + m[1, 0]) * dy * dx \
            + m[1, 1] * dx * dx
        if q.max() < 0.96:
            lum = cand
            break
    if lum is None:
        lum = Ellipse.from_axes(center, lum_radii, lum_angle)

    n_shadows = int(rng.integers(0, 3))
    shadows = [(rng.uniform(0.0, 2.0 * math.pi),
                math.radians(rng.uniform(10.0, 40.0)))
               for _ in range(n_shadows)]
    return eem, lum, shadows


def _perturb(rng: np.random.Generator, e: Ellipse, size: int) -> Ellipse:
    """Re-render geometry for an adjacent frame: <= 2% parameter drift."""
    a = np.diag(rng.uniform(0.98, 1.02, size=2))
    t = (np.eye(2) - a) @ e.center + rng.uniform(-0.02, 0.02, size=2) \
        * 0.02 * size
    return e.transformed(a, t)


def _render_frame(rng: np.random.Generator, size: int, eem: Ellipse,
                  lum: Ellipse, shadows) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    in_eem = eem.contains(yy, xx)
    in_lum = lum.contains(yy, xx)
    img = np.where(in_lum, LUMEN_VALUE,
                   np.where(in_eem, WALL_VALUE, ADVENTITIA_VALUE))
    img = img * rng.gamma(4.0, 0.25, size=(size, size))
    if shadows:
        ang = np.arctan2(yy - size / 2.0, xx - size / 2.0) % (2.0 * math.pi)
        for start, width in shadows:
            wedge = (ang - start) % (2.0 * math.pi) < width
            img = np.where(wedge, img * SHADOW_FACTOR, img)
    rr = (yy - size / 2.0) ** 2 + (xx - size / 2.0) ** 2
    img = np.where(rr <= (0.04 * size) ** 2, CATHETER_VALUE, img)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def rasterize_label(size: int, eem: Ellipse, lum: Ellipse) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    in_eem = eem.contains(yy, xx)
    in_lum = lum.contains(yy, xx) & in_eem
    return np.where(in_lum, 2, np.where(in_eem, 1, 0)).astype(np.uint8)


def generate_phantom(seed: int, size: int,
                     spacing_mm: float = DEFAULT_SPACING_MM,
                     sample_id: str | None = None) -> Sample:
    if size < 64 or size % 64:
        raise ValueError(f"phantom size must be a multiple of 64 and >= 64, "
                         f"got {size}")
    ss = np.random.SeedSequence(seed)
    geom_ss, noise_ss = ss.spawn(2)
    rng = np.random.Generator(np.random.PCG64(geom_ss))
    eem, lum, shadows = _draw_geometry(rng, size)

    frame_geoms = [(_perturb(rng, eem, size), _perturb(rng, lum, size)),
                   (eem, lum),
                   (_perturb(rng, eem, size), _perturb(rng, lum, size))]
    noise_children = noise_ss.spawn(3)
    frames = np.stack([
        _render_frame(np.random.Generator(np.random.PCG64(child)), size,
                      fe, fl, shadows)
        for (fe, fl), child in zip(frame_geoms, noise_children)])
    label = rasterize_label(size, eem, lum)
    return Sample(frames=frames, label=label, spacing_mm=spacing_mm,
                  id=sample_id if sample_id is not None else f"s{seed:08d}",
                  geometry={"eem": eem, "lumen": lum})


# -- augmentation -------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig:
    translate: float = 0.10       # fraction of image size
    rotate_deg: float = 180.0
    scale_range: tuple[float, float] = (0.9, 1.1)
    shear_deg: float = 10.0
    flip_p: float = 0.5
    swap_p: float = 0.5

    @staticmethod
    def identity() -> "AugmentConfig":
        return AugmentConfig(translate=0.0, rotate_deg=0.0,
                             scale_range=(1.0, 1.0), shear_deg=0.0,
                             flip_p=0.0, swap_p=0.0)

    @staticmethod
    def mild() -> "AugmentConfig":
        """Flips and frame swap only; geometry untouched."""
        return AugmentConfig(translate=0.0, rotate_deg=0.0,
                             scale_range=(1.0, 1.0), shear_deg=0.0)


@dataclass(frozen=True)
class AffineDraw:
    matrix: np.ndarray   # (2, 2), (row, col) basis
    offset: np.ndarray   # (2,)
    flip_lr: bool
    flip_ud: bool
    swap: bool


def draw_augment(seed: int, cfg: AugmentConfig, size: int) -> AffineDraw:
    """All randomness of one augmentation, drawn in a fixed order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    trans = rng.uniform(-cfg.translate, cfg.translate, size=2) * size
    theta = math.radians(rng.uniform(-cfg.rotate_deg, cfg.rotate_deg))
    s = rng.uniform(cfg.scale_range[0], cfg.scale_range[1])
    shear = math.tan(math.radians(rng.uniform(-cfg.shear_deg, cfg.shear_deg)))
    flip_lr = rng.uniform() < cfg.flip_p
    flip_ud = rng.uniform() < cfg.flip_p
    swap = rng.uniform() < cfg.swap_p

    c, sn = math.cos(theta), math.sin(theta)
    lin = np.array([[c, -sn], [sn, c]]) @ (s * np.eye(2)) \
        @ np.array([[1.0, shear], [0.0, 1.0]])
    pivot = np.array([(size - 1) / 2.0, (size - 1) / 2.0])
    offset = pivot - lin @ pivot + trans
    return AffineDraw(matrix=lin, offset=offset, flip_lr=flip_lr,
                      flip_ud=flip_ud, swap=swap)


def apply_affine_image(img: np.ndarray, draw: AffineDraw, order: int,
                       cval: float) -> np.ndarray:
    inv = np.linalg.inv(draw.matrix)
    return ndimage.affine_transform(img, inv, offset=-inv @ draw.offset,
                                    order=order, cval=cval, prefilter=False)


def augment(sample: Sample, seed: int, cfg: AugmentConfig) -> Sample:
    size = sample.label.shape[0]
    draw = draw_augment(seed, cfg, size)
    if np.array_equal(draw.matrix, np.eye(2)) and not draw.offset.any():
        # the identity warp (every augment=mild draw) would only copy
        frames = sample.frames.astype(np.float32)
        label = sample.label.copy()
    else:
        frames = np.stack([
            apply_affine_image(f.astype(np.float64), draw, order=1, cval=0.0)
            for f in sample.frames]).astype(np.float32)
        label = apply_affine_image(sample.label, draw, order=0, cval=0)
    if draw.flip_lr:
        frames = frames[:, :, ::-1]
        label = label[:, ::-1]
    if draw.flip_ud:
        frames = frames[:, ::-1, :]
        label = label[::-1, :]
    if draw.swap:
        frames = frames[[2, 1, 0]]
    geometry = {}
    if sample.geometry and not (draw.flip_lr or draw.flip_ud):
        geometry = {k: e.transformed(draw.matrix, draw.offset)
                    for k, e in sample.geometry.items()}
    return Sample(frames=np.ascontiguousarray(frames),
                  label=np.ascontiguousarray(label),
                  spacing_mm=sample.spacing_mm, id=sample.id,
                  geometry=geometry)


# -- PGM / dataset I/O --------------------------------------------------------


def write_pgm(path: str, arr: np.ndarray):
    if arr.dtype != np.uint8 or arr.ndim != 2:
        raise ValueError("PGM writer takes a 2-d uint8 array")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # "#" comments allowed; raw samples follow the single byte after maxval.
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    if not all(t.isdigit() for t in tokens[1:]):
        raise ValueError(f"{path}: PGM width, height and maxval must be "
                         f"decimal integers, got {b' '.join(tokens[1:])!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM size must be at least 1x1, "
                         f"got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    raw = data[i + 1:i + 1 + w * h]
    if len(raw) != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w)


def save_sample(root: str, sample: Sample):
    d = os.path.join(root, sample.id)
    os.makedirs(d, exist_ok=True)
    for k in range(3):
        q = np.clip(np.rint(sample.frames[k] * 255.0), 0, 255).astype(np.uint8)
        write_pgm(os.path.join(d, f"frame{k + 1}.pgm"), q)
    write_pgm(os.path.join(d, "label.pgm"), sample.label)


def read_sample_dir(d: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The (3, H, W) float32 frames of a sample directory, and its label,
    or None where it has no label.pgm. Frames and label must agree in size
    and label values lie in {0, 1, 2}; each error names its file."""
    frames = []
    for k in range(3):
        p = os.path.join(d, f"frame{k + 1}.pgm")
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing frame file {p}")
        frames.append(read_pgm(p))
    label_path = os.path.join(d, "label.pgm")
    label = read_pgm(label_path) if os.path.exists(label_path) else None
    h, w = frames[0].shape
    for name, arr in zip(("frame2.pgm", "frame3.pgm", "label.pgm"),
                         frames[1:] + [label]):
        if arr is not None and arr.shape != (h, w):
            raise ValueError(f"{os.path.join(d, name)}: {arr.shape[1]}x"
                             f"{arr.shape[0]}, but frame1.pgm of sample "
                             f"{os.path.basename(os.path.normpath(d))} is "
                             f"{w}x{h}")
    if label is not None and label.max() > 2:
        raise ValueError(f"{label_path}: label values must lie in {{0, 1, 2}}")
    return np.stack(frames, dtype=np.float32) / 255.0, label


def load_sample(root: str, sample_id: str, spacing_mm: float) -> Sample:
    """Read one labelled sample directory (see ``read_sample_dir``)."""
    d = os.path.join(root, sample_id)
    frames, label = read_sample_dir(d)
    if label is None:
        raise FileNotFoundError(f"missing label file "
                                f"{os.path.join(d, 'label.pgm')}")
    return Sample(frames=frames, label=label, spacing_mm=spacing_mm,
                  id=sample_id)


def save_dataset(root: str, train: list[Sample], val: list[Sample],
                 spacing_mm: float, size: int):
    os.makedirs(root, exist_ok=True)
    train_ids = [s.id for s in train]
    val_ids = [s.id for s in val]
    if set(train_ids) & set(val_ids):
        raise ValueError("train and val sample ids overlap")
    for s in train + val:
        save_sample(root, s)
    with open(os.path.join(root, "manifest.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"csdn-dataset v1 spacing={spacing_mm} size={size}\n")
        for sid in train_ids:
            fh.write(f"{sid} train\n")
        for sid in val_ids:
            fh.write(f"{sid} val\n")


def read_text_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, each decoded on its own so a bad
    byte is reported as ``path:line``."""
    with open(path, "rb") as fh:
        raw = fh.read().splitlines()
    lines = []
    for i, ln in enumerate(raw, start=1):
        try:
            lines.append(ln.decode("utf-8"))
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}:{i}: not UTF-8 text: {e.reason} at "
                             f"byte {e.start + 1} of the line") from None
    return lines


def load_manifest(root: str) -> DatasetManifest:
    path = os.path.join(root, "manifest.txt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing manifest {path}")
    lines = read_text_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "csdn-dataset" or head[1] != "v1":
        raise ValueError(f"{path}:1: bad manifest header {lines[0]!r}")
    fields = dict(tok.partition("=")[::2] for tok in head[2:])
    try:
        spacing = float(fields["spacing"])
        size = int(fields["size"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}:1: bad manifest header {lines[0]!r}: need "
                         "spacing=<mm> and size=<pixels>") from None
    if not (math.isfinite(spacing) and spacing > 0) or size < 1:
        raise ValueError(f"{path}:1: need a finite spacing > 0 and a size "
                         f">= 1, got spacing={spacing} size={size}")
    ids: dict[str, list[str]] = {"train": [], "val": []}
    first_line: dict[str, int] = {}
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{i}: expected '<id> <split>', "
                             f"got {ln!r}")
        sid, split = parts
        if split not in ids:
            raise ValueError(f"{path}:{i}: unknown split {split!r}")
        if sid in first_line:  # in either split
            raise ValueError(f"{path}:{i}: sample id {sid!r} already listed "
                             f"at line {first_line[sid]}")
        first_line[sid] = i
        ids[split].append(sid)
    return DatasetManifest(root=root, spacing_mm=spacing, size=size,
                           train_ids=ids["train"], val_ids=ids["val"])


class Dataset:
    """Manifest plus all samples held in memory, each of the manifest's
    size."""

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self.train = [self._load(sid) for sid in manifest.train_ids]
        self.val = [self._load(sid) for sid in manifest.val_ids]

    def _load(self, sample_id: str) -> Sample:
        m = self.manifest
        s = load_sample(m.root, sample_id, m.spacing_mm)
        if s.label.shape != (m.size, m.size):
            h, w = s.label.shape
            raise ValueError(
                f"{os.path.join(m.root, sample_id)}: sample {sample_id} is "
                f"{w}x{h}, but {os.path.join(m.root, 'manifest.txt')} says "
                f"size={m.size}")
        return s

    @staticmethod
    def open(root: str) -> "Dataset":
        return Dataset(load_manifest(root))


def batches(samples: list[Sample], batch_size: int, shuffle_seed: int | None,
            augment_cfg: AugmentConfig | None = None):
    """Yield (frames (n,3,H,W) float32, labels (n,H,W) int64). Shuffles when
    a seed is given; the trailing short batch is emitted. Augmentation seeds
    derive from (shuffle_seed, position) so the stream is reproducible."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(samples))
    if shuffle_seed is not None:
        np.random.Generator(np.random.PCG64(shuffle_seed)).shuffle(order)
    for start in range(0, len(samples), batch_size):
        idx = order[start:start + batch_size]
        picked = []
        for pos, i in enumerate(idx):
            s = samples[i]
            if augment_cfg is not None:
                sub = np.random.SeedSequence(
                    [0 if shuffle_seed is None else shuffle_seed,
                     start + pos]).generate_state(1)[0]
                s = augment(s, int(sub), augment_cfg)
            picked.append(s)
        yield (np.stack([s.frames for s in picked], dtype=np.float32),
               np.stack([s.label for s in picked], dtype=np.int64))


def generate_dataset(root: str, n_train: int, n_val: int, size: int,
                     seed: int, spacing_mm: float = DEFAULT_SPACING_MM):
    """Write a fresh train/val phantom tree; deterministic in seed."""
    ss = np.random.SeedSequence(seed)
    child_seeds = ss.generate_state(n_train + n_val, dtype=np.uint64)
    train = [generate_phantom(int(child_seeds[i]), size, spacing_mm,
                              sample_id=f"train{i:04d}")
             for i in range(n_train)]
    val = [generate_phantom(int(child_seeds[n_train + j]), size, spacing_mm,
                            sample_id=f"val{j:04d}")
           for j in range(n_val)]
    save_dataset(root, train, val, spacing_mm, size)
    return load_manifest(root)
