"""Synthetic vessel frames: geometry invariants, PGM codec, dataset layout,
batching and augmentation reproducibility."""

import os

import numpy as np
import pytest

from csdn.cli import main
from csdn.phantom import (DEFAULT_SPACING_MM, AugmentConfig, Dataset, Ellipse,
                          apply_affine_image, augment, batches, draw_augment,
                          generate_dataset, generate_phantom, load_manifest,
                          load_sample, rasterize_label, read_pgm, save_dataset,
                          save_sample, write_pgm)


def test_spacing_constant():
    assert DEFAULT_SPACING_MM == 0.02


# -- ellipse ------------------------------------------------------------------


def test_ellipse_circle_containment():
    e = Ellipse.from_axes((10.0, 20.0), (5.0, 5.0), 0.3)
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    inside = e.contains(yy, xx)
    dist = np.hypot(yy - 10.0, xx - 20.0)
    assert np.array_equal(inside, dist <= 5.0 + 1e-12)


def test_ellipse_translation():
    e = Ellipse.from_axes((4.0, 4.0), (2.0, 3.0), 0.0)
    moved = e.transformed(np.eye(2), np.array([1.0, -2.0]))
    assert np.allclose(moved.center, [5.0, 2.0])
    assert np.allclose(moved.form, e.form)


def test_ellipse_scaling_maps_region():
    e = Ellipse.from_axes((0.0, 0.0), (1.0, 2.0), 0.0)
    grown = e.transformed(2.0 * np.eye(2), np.zeros(2))
    # the doubled region contains the image of points just inside the
    # original boundary, and excludes points just outside it
    phis = np.linspace(0, 2 * np.pi, 64)
    by, bx = np.cos(phis) * 1.0, np.sin(phis) * 2.0
    assert np.all(grown.contains(2.0 * by * 0.999, 2.0 * bx * 0.999))
    assert not np.any(grown.contains(2.0 * by * 1.001, 2.0 * bx * 1.001))


# -- phantom generation -------------------------------------------------------


def test_phantom_deterministic_per_seed():
    a = generate_phantom(123, 64)
    b = generate_phantom(123, 64)
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.label, b.label)
    c = generate_phantom(124, 64)
    assert not np.array_equal(a.frames, c.frames)


def test_phantom_size_guard():
    for bad in (0, 32, 63, 100):
        with pytest.raises(ValueError, match="multiple of 64"):
            generate_phantom(0, bad)


def test_phantom_structure():
    for seed in range(8):
        s = generate_phantom(seed, 64)
        assert s.frames.shape == (3, 64, 64)
        assert s.frames.dtype == np.float32
        assert s.frames.min() >= 0.0 and s.frames.max() <= 1.0
        assert s.label.shape == (64, 64)
        assert set(np.unique(s.label)) <= {0, 1, 2}
        # both vessel regions actually present, and the inner one nested
        assert (s.label == 1).any() and (s.label == 2).any()
        assert rasterize_label(64, s.geometry["eem"],
                               s.geometry["lumen"]).tolist() == s.label.tolist()


def test_phantom_lumen_inside_eem():
    for seed in range(8):
        s = generate_phantom(seed + 20, 64)
        yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
        in_eem = s.geometry["eem"].contains(yy, xx)
        assert np.all(in_eem[s.label == 2])
        assert np.array_equal(s.label > 0, in_eem)


# -- PGM codec ----------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        arr = rng.integers(0, 256, size=(11, 7), dtype=np.uint8)
        p = str(tmp_path / f"x{seed}.pgm")
        write_pgm(p, arr)
        assert np.array_equal(read_pgm(p), arr)


def test_pgm_reader_handles_comments(tmp_path):
    p = str(tmp_path / "c.pgm")
    body = bytes(range(6))
    with open(p, "wb") as fh:
        fh.write(b"P5\n# a comment\n3 2\n# another\n255\n" + body)
    got = read_pgm(p)
    assert got.shape == (2, 3)
    assert got.tobytes() == body


def test_pgm_reader_rejects_bad_files(tmp_path):
    cases = [
        (b"P2\n3 2\n255\n" + b"\x00" * 6, "not a binary PGM"),
        (b"P5\n3 2\n65535\n" + b"\x00" * 6, "maxval"),
        (b"P5\n3 2\n255\n" + b"\x00" * 5, "truncated pixel"),
        (b"P5\n3 2", "truncated PGM header"),
        (b"P5 a b 255\n" + b"\x00" * 6, "decimal integers"),
        (b"P5 -1 -1 255\n" + b"\x00" * 6, "decimal integers"),
        (b"P5 0 2 255\n", "at least 1x1"),
    ]
    for i, (blob, msg) in enumerate(cases):
        p = str(tmp_path / f"bad{i}.pgm")
        with open(p, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match=msg) as err:
            read_pgm(p)
        assert str(err.value).startswith(f"{p}: "), blob


def test_pgm_writer_rejects_bad_arrays(tmp_path):
    with pytest.raises(ValueError, match="uint8"):
        write_pgm(str(tmp_path / "a.pgm"), np.zeros((4, 4), dtype=np.float32))


# -- sample and dataset I/O ---------------------------------------------------


def test_sample_roundtrip_quantizes(tmp_path):
    s = generate_phantom(7, 64, sample_id="t0")
    save_sample(str(tmp_path), s)
    back = load_sample(str(tmp_path), "t0", DEFAULT_SPACING_MM)
    want = np.clip(np.rint(s.frames * 255.0), 0, 255) / 255.0
    assert np.allclose(back.frames, want, atol=1e-7)
    assert np.array_equal(back.label, s.label)


def test_load_sample_missing_frame(tmp_path):
    s = generate_phantom(8, 64, sample_id="t1")
    save_sample(str(tmp_path), s)
    os.remove(str(tmp_path / "t1" / "frame2.pgm"))
    with pytest.raises(FileNotFoundError, match="missing frame file"):
        load_sample(str(tmp_path), "t1", DEFAULT_SPACING_MM)


def test_load_sample_rejects_bad_label(tmp_path):
    s = generate_phantom(9, 64, sample_id="t2")
    save_sample(str(tmp_path), s)
    bad = s.label.copy()
    bad[0, 0] = 9
    write_pgm(str(tmp_path / "t2" / "label.pgm"), bad)
    with pytest.raises(ValueError, match="label values"):
        load_sample(str(tmp_path), "t2", DEFAULT_SPACING_MM)


def test_load_sample_rejects_files_of_other_sizes(tmp_path, capsys):
    root = str(tmp_path / "ds")
    small = np.zeros((32, 32), dtype=np.uint8)
    for name in ("frame2.pgm", "label.pgm"):
        generate_dataset(root, 2, 0, 64, seed=4)
        path = os.path.join(root, "train0001", name)
        write_pgm(path, small)
        with pytest.raises(ValueError) as err:
            load_sample(root, "train0001", DEFAULT_SPACING_MM)
        assert str(err.value) == (f"{path}: 32x32, but frame1.pgm of sample "
                                  "train0001 is 64x64")
    # through the CLI: exit 2, one error line naming the sample
    assert main(["train", "--data", root, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_dataset_rejects_samples_of_another_size(tmp_path):
    root = str(tmp_path / "ds")
    generate_dataset(root, 1, 1, 64, seed=6)
    save_sample(root, generate_phantom(2, 128, sample_id="val0000"))
    with pytest.raises(ValueError) as err:
        Dataset.open(root)
    mpath = os.path.join(root, "manifest.txt")
    assert str(err.value) == (f"{os.path.join(root, 'val0000')}: sample "
                              f"val0000 is 128x128, but {mpath} says size=64")


def test_manifest_roundtrip(tmp_path):
    root = str(tmp_path / "ds")
    m = generate_dataset(root, 3, 2, 64, seed=5)
    assert m.train_ids == ["train0000", "train0001", "train0002"]
    assert m.val_ids == ["val0000", "val0001"]
    assert m.size == 64 and m.spacing_mm == DEFAULT_SPACING_MM
    ds = Dataset.open(root)
    assert [s.id for s in ds.train] == m.train_ids
    assert len(ds.val) == 2
    assert ds.val[0].frames.shape == (3, 64, 64)


def test_manifest_errors(tmp_path, capsys):
    with pytest.raises(FileNotFoundError, match="missing manifest"):
        load_manifest(str(tmp_path / "nope"))
    root = str(tmp_path / "bad")
    os.makedirs(root)
    mpath = os.path.join(root, "manifest.txt")
    with open(mpath, "w") as fh:
        fh.write("csdn-dataset v2 spacing=0.02 size=64\n")
    with pytest.raises(ValueError, match="bad manifest header"):
        load_manifest(root)
    with open(mpath, "w") as fh:
        fh.write("csdn-dataset v1 spacing=0.02 size=64\nx test\n")
    with pytest.raises(ValueError, match="unknown split"):
        load_manifest(root)
    # each names the file and the line
    for text, line, msg in (
            ("csdn-dataset v1 spacing0.02 size=64\n", 1, "bad manifest header"),
            ("csdn-dataset v1 size=64 spacing=x\n", 1, "bad manifest header"),
            ("csdn-dataset v1 spacing=0.02 size=6.5\n", 1,
             "bad manifest header"),
            ("csdn-dataset v1 spacing=-1 size=64\n", 1, "finite spacing > 0"),
            ("csdn-dataset v1 spacing=0 size=64\n", 1, "finite spacing > 0"),
            ("csdn-dataset v1 spacing=nan size=64\n", 1, "finite spacing > 0"),
            ("csdn-dataset v1 spacing=inf size=64\n", 1, "finite spacing > 0"),
            ("csdn-dataset v1 spacing=0.02 size=0\n", 1, "size >= 1"),
            ("csdn-dataset v1 spacing=0.02 size=64\na train\n\nb val x\n",
             4, "expected '<id> <split>'"),
            # an id in both splits is listed twice
            ("csdn-dataset v1 spacing=0.02 size=64\na train\na val\n", 3,
             "sample id 'a' already listed at line 2")):
        with open(mpath, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=msg) as err:
            load_manifest(root)
        assert str(err.value).startswith(f"{mpath}:{line}: "), text
    # the header is read by name, in either order
    with open(mpath, "w") as fh:
        fh.write("csdn-dataset v1 size=64 spacing=0.5\n")
    man = load_manifest(root)
    assert (man.spacing_mm, man.size) == (0.5, 64)
    # through the CLI: exit 2 with one error line
    with open(mpath, "w") as fh:
        fh.write("csdn-dataset v1 spacing0.02 size=64\n")
    assert main(["train", "--data", root, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mpath}:1: ") and err.count("\n") == 1


def test_manifest_that_is_not_utf8_names_its_line(tmp_path):
    root = str(tmp_path / "ds")
    generate_dataset(root, 2, 1, 64, seed=7)
    mpath = os.path.join(root, "manifest.txt")
    with open(mpath, "rb") as fh:
        text = fh.read()
    with open(mpath, "wb") as fh:
        fh.write(text.replace(b"train0001", b"train\xe3001"))
    with pytest.raises(ValueError) as err:
        load_manifest(root)
    assert str(err.value) == (f"{mpath}:3: not UTF-8 text: invalid "
                              "continuation byte at byte 6 of the line")


def test_manifest_that_lists_an_id_twice_names_both_lines(tmp_path, capsys):
    # a repeat would load the sample twice and train on it twice an epoch
    root = str(tmp_path / "ds")
    generate_dataset(root, 2, 1, 64, seed=7)
    mpath = os.path.join(root, "manifest.txt")
    with open(mpath, "a") as fh:
        fh.write("val0000 val\n")
    with pytest.raises(ValueError) as err:
        load_manifest(root)
    assert str(err.value) == (f"{mpath}:5: sample id 'val0000' already "
                              "listed at line 4")
    # through the CLI: exit 2 with one error line
    assert main(["train", "--data", root, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {mpath}:5: sample id 'val0000' already listed " \
        "at line 4\n"


def fuzzed(blob: bytes, rng: np.random.Generator, flips: int):
    """Every truncation of blob, every bit flip of its first 16 bytes, and
    ``flips`` seeded bit flips among the rest."""
    for n in range(len(blob)):
        yield blob[:n]
    head = min(16, len(blob)) * 8
    bits = np.arange(head)
    if len(blob) * 8 > head:
        rest = np.arange(head, len(blob) * 8)
        bits = np.concatenate(
            [bits, rng.choice(rest, min(flips, len(rest)), replace=False)])
    for bit in bits:
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
        yield bytes(bad)


def test_fuzzed_pgm_loads_or_names_its_file(tmp_path):
    rng = np.random.Generator(np.random.PCG64(31))
    path = str(tmp_path / "f.pgm")
    write_pgm(path, rng.integers(0, 256, size=(5, 7), dtype=np.uint8))
    with open(path, "rb") as fh:
        blob = fh.read()
    outcomes = {"loads": 0, "error": 0}
    for case in fuzzed(blob, rng, 64):
        with open(path, "wb") as fh:
            fh.write(case)
        try:
            read_pgm(path)
            outcomes["loads"] += 1
        except ValueError as e:
            assert str(e).startswith(f"{path}: "), (case, str(e))
            outcomes["error"] += 1
    assert min(outcomes.values()) > 0


def test_fuzzed_manifest_loads_or_names_its_file(tmp_path):
    rng = np.random.Generator(np.random.PCG64(32))
    root = str(tmp_path / "ds")
    generate_dataset(root, 2, 2, 64, seed=8)
    mpath = os.path.join(root, "manifest.txt")
    with open(mpath, "rb") as fh:
        blob = fh.read()
    outcomes = {"loads": 0, "error": 0}
    for case in fuzzed(blob, rng, 400):
        with open(mpath, "wb") as fh:
            fh.write(case)
        try:
            Dataset.open(root)
            outcomes["loads"] += 1
        except (ValueError, FileNotFoundError) as e:
            # the manifest, or the sample file or directory it points at
            assert str(e).startswith(f"{mpath}:") or (
                f"{root}{os.sep}" in str(e)), (case, str(e))
            outcomes["error"] += 1
    assert min(outcomes.values()) > 0


def test_save_dataset_rejects_id_overlap(tmp_path):
    s = generate_phantom(1, 64, sample_id="dup")
    with pytest.raises(ValueError, match="overlap"):
        save_dataset(str(tmp_path / "d"), [s], [s], DEFAULT_SPACING_MM, 64)


def test_generate_dataset_byte_identical_per_seed(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    generate_dataset(a, 2, 1, 64, seed=11)
    generate_dataset(b, 2, 1, 64, seed=11)
    for sid in ("train0000", "train0001", "val0000"):
        for fname in ("frame1.pgm", "frame2.pgm", "frame3.pgm", "label.pgm"):
            pa = os.path.join(a, sid, fname)
            pb = os.path.join(b, sid, fname)
            assert open(pa, "rb").read() == open(pb, "rb").read(), (sid, fname)


# -- batching -----------------------------------------------------------------


def samples_(n):
    return [generate_phantom(100 + i, 64, sample_id=f"s{i}") for i in range(n)]


def test_batches_order_and_short_tail():
    ss = samples_(5)
    got = list(batches(ss, 2, shuffle_seed=None))
    assert [f.shape[0] for f, _ in got] == [2, 2, 1]
    assert got[0][0].dtype == np.float32
    assert got[0][1].dtype == np.int64
    assert np.array_equal(got[0][0][0], ss[0].frames)
    assert np.array_equal(got[2][1][0], ss[4].label)


def test_batches_shuffle_deterministic():
    ss = samples_(6)
    a = [lab for _, labs in batches(ss, 2, shuffle_seed=3) for lab in labs]
    b = [lab for _, labs in batches(ss, 2, shuffle_seed=3) for lab in labs]
    c = [lab for _, labs in batches(ss, 2, shuffle_seed=4) for lab in labs]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_batches_augment_stream_reproducible():
    ss = samples_(4)
    cfg = AugmentConfig()
    a = list(batches(ss, 2, shuffle_seed=9, augment_cfg=cfg))
    b = list(batches(ss, 2, shuffle_seed=9, augment_cfg=cfg))
    for (fa, la), (fb, lb) in zip(a, b):
        assert np.array_equal(fa, fb)
        assert np.array_equal(la, lb)


def test_batches_guard():
    with pytest.raises(ValueError, match="batch_size"):
        next(batches(samples_(1), 0, None))


# -- augmentation -------------------------------------------------------------


def test_augment_identity_config_is_noop():
    s = generate_phantom(55, 64)
    out = augment(s, seed=9, cfg=AugmentConfig.identity())
    assert np.array_equal(out.frames, s.frames)
    assert np.array_equal(out.label, s.label)


def test_augment_flips_and_swap_match_numpy():
    cfg = AugmentConfig(translate=0.0, rotate_deg=0.0, scale_range=(1.0, 1.0),
                        shear_deg=0.0, flip_p=1.0, swap_p=1.0)
    s = generate_phantom(56, 64)
    draw = draw_augment(3, cfg, 64)
    assert draw.flip_lr and draw.flip_ud and draw.swap
    out = augment(s, seed=3, cfg=cfg)
    want = s.frames[:, ::-1, ::-1][[2, 1, 0]]
    assert np.array_equal(out.frames, want)
    assert np.array_equal(out.label, s.label[::-1, ::-1])
    assert out.geometry == {}  # ellipse bookkeeping stops at flips


def test_augment_geometry_tracks_label():
    # affine-warped label vs label rasterized from the warped ellipses:
    # disagreement confined to boundary pixels
    cfg = AugmentConfig(flip_p=0.0, swap_p=0.0)
    for seed in range(5):
        s = generate_phantom(200 + seed, 64)
        out = augment(s, seed=seed, cfg=cfg)
        assert out.geometry, "pure affine draws keep geometry"
        redrawn = rasterize_label(64, out.geometry["eem"],
                                  out.geometry["lumen"])
        mismatch = (redrawn != out.label).mean()
        assert mismatch < 0.02, (seed, mismatch)


def test_mild_augment_never_warps():
    s = generate_phantom(77, 64)
    for seed in range(6):
        out = augment(s, seed=seed, cfg=AugmentConfig.mild())
        # some flip/swap composition of the original, never interpolation
        variants = []
        for lr in (False, True):
            f = s.frames[:, :, ::-1] if lr else s.frames
            for ud in (False, True):
                g = f[:, ::-1, :] if ud else f
                for sw in (False, True):
                    variants.append(g[[2, 1, 0]] if sw else g)
        assert any(np.array_equal(out.frames, v) for v in variants)


def test_identity_warp_returns_input():
    # augment skips the warp on identity draws; run on those draws, the
    # warp it skips returns its input bit for bit
    s = generate_phantom(78, 64)
    for seed in range(40):
        draw = draw_augment(seed, AugmentConfig.mild(), 64)
        assert np.array_equal(draw.matrix, np.eye(2))
        assert not draw.offset.any()
        warped = np.stack([
            apply_affine_image(f.astype(np.float64), draw, order=1, cval=0.0)
            for f in s.frames]).astype(np.float32)
        assert np.array_equal(warped, s.frames)
        assert np.array_equal(
            apply_affine_image(s.label, draw, order=0, cval=0), s.label)
