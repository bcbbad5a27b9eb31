"""Command-line surface: config file parsing, exit codes, and the artifact
trail each subcommand leaves behind. Everything runs in-process through
main(argv) so stdout/stderr land in capsys."""

import dataclasses
import os
import shutil
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from csdn import train as train_module
from csdn.cli import (DataError, UsageError, echo_config, load_run_config,
                      main)
from csdn.losses import LossConfig
from csdn.metrics import boundary_pixels, region_masks
from csdn.model import CSDN, NetworkConfig
from csdn.phantom import read_pgm, write_pgm
from csdn.serial import save_checkpoint, save_weights
from csdn.train import Adam, TrainConfig


@pytest.fixture(scope="module")
def ds64(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds64")
    rc = main(["gen-data", "--out", str(root), "--n-train", "3",
               "--n-val", "1", "--size", "64", "--seed", "0"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def micro_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "micro.bin"
    save_weights(str(path), CSDN(NetworkConfig.micro(), seed=3))
    return path


def run_csdn(*args):
    """``python -m csdn ARGS`` in a child that imports the package from the
    source tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "csdn", *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


# -- config files -------------------------------------------------------------


def test_defaults_without_config():
    net, tr, lo = load_run_config(None)
    assert net == NetworkConfig()
    assert tr.epochs == 300 and tr.augment == "full"
    assert lo.focal_gamma == 2.0


def test_config_overlay(tmp_path):
    path = write_cfg(tmp_path, "\n".join([
        "# run settings",
        "preset = micro",
        "aux_weight = 0.2",
        "epochs = 2   # short",
        "lr0 = 0.01",
        "augment = none",
        "decoupled_decay = yes",
        "focal_gamma = 0",
    ]))
    net, tr, lo = load_run_config(path)
    assert net.stem_channels == NetworkConfig.micro().stem_channels
    assert tr.epochs == 2 and tr.lr0 == 0.01 and tr.augment == "none"
    assert tr.decoupled_decay is True
    assert lo.focal_gamma == 0.0
    assert lo.aux_weight == 0.2


def test_each_key_sets_one_config():
    fields = [f.name for cls in (NetworkConfig, TrainConfig, LossConfig)
              for f in dataclasses.fields(cls)]
    assert len(set(fields)) == len(fields)
    assert "preset" not in fields
    keys = [line.split("=")[0] for line in echo_config(*load_run_config(None))]
    assert keys == fields


def test_unknown_key_reports_file_and_line(tmp_path):
    path = write_cfg(tmp_path, "# header\nepochs = 3\ncolour = blue\n")
    with pytest.raises(UsageError, match=r"run\.cfg:3: unknown key 'colour'"):
        load_run_config(path)
    for key in ("focal_alpha", "dice_eps"):
        path = write_cfg(tmp_path, f"epochs = 3\n{key} = 1\n")
        with pytest.raises(UsageError,
                           match=rf"run\.cfg:2: unknown key '{key}'"):
            load_run_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "epochs = 3\nepochs = 4\n")
    with pytest.raises(UsageError, match=r":2: duplicate key 'epochs'"):
        load_run_config(path)


def test_bad_value_reports_key(tmp_path):
    path = write_cfg(tmp_path, "epochs = three\n")
    with pytest.raises(UsageError, match=r":1: key 'epochs'"):
        load_run_config(path)


def test_triple_needs_three_entries(tmp_path):
    path = write_cfg(tmp_path, "shallow_channels = 8,10\n")
    with pytest.raises(UsageError, match="three comma-separated"):
        load_run_config(path)


def test_choice_key_rejects_stranger(tmp_path):
    path = write_cfg(tmp_path, "augment = extreme\n")
    with pytest.raises(UsageError, match="must be one of"):
        load_run_config(path)


def test_line_without_equals(tmp_path):
    path = write_cfg(tmp_path, "epochs\n")
    with pytest.raises(UsageError, match="expected key=value"):
        load_run_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(DataError, match="no config file"):
        load_run_config(str(tmp_path / "absent.cfg"))


def test_config_that_is_not_utf8_names_its_line(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"preset = micro\nepochs = \xff3\n")
    assert main(["gradcheck", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:2: not UTF-8 text: invalid start byte at byte 10 "
        "of the line"]


def test_constraint_violations_point_at_file(tmp_path):
    path = write_cfg(tmp_path, "lr_factor = 1.5\n")
    with pytest.raises(UsageError, match="lr_factor"):
        load_run_config(path)


def test_echo_round_trips(tmp_path):
    first = write_cfg(tmp_path, "preset = tiny\nepochs = 7\n"
                                "decoupled_decay = true\n"
                                "ge_layers = 1,2,3\n")
    net1, tr1, lo1 = load_run_config(first)
    echoed = tmp_path / "echo.cfg"
    echoed.write_text("\n".join(echo_config(net1, tr1, lo1)) + "\n")
    net2, tr2, lo2 = load_run_config(str(echoed))
    assert (net1, tr1, lo1) == (net2, tr2, lo2)


def test_readme_sample_config_is_carried_whole(tmp_path):
    # the fenced block after "A sample training file:" loads, and the echo
    # carries every key it sets with the value it gives
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("A sample training file:", 1)[1]
    block = block.split("```\n", 2)[1]
    given = dict((k.strip(), v.strip()) for k, v in
                 (line.split("=", 1) for line in block.splitlines()))
    assert len(given) >= 5
    net, tr, lo = load_run_config(write_cfg(tmp_path, block))
    preset = given.pop("preset", "reference")
    assert net == (NetworkConfig() if preset == "reference"
                   else getattr(NetworkConfig, preset)())
    echoed = dict(line.split("=", 1) for line in echo_config(net, tr, lo))
    assert {k: echoed.get(k) for k in given} == given


# -- exit codes and artifacts -------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gen_data_writes_tree(ds64, capsys):
    assert (ds64 / "manifest.txt").exists()
    assert (ds64 / "train0000" / "frame1.pgm").exists()
    assert (ds64 / "val0000" / "label.pgm").exists()


def test_gen_data_size_guard(tmp_path, capsys):
    for size in ("100", "0", "-64"):
        out = tmp_path / f"x{size}"
        assert main(["gen-data", "--out", str(out), "--size", size]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: --size must be a positive multiple of 64 "
                       f"(got {size})\n")
        assert not out.exists()
    out = tmp_path / "y"
    rc = main(["gen-data", "--out", str(out), "--size", "64", "--seed", "-1"])
    assert rc == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["0", "-0.02", "nan", "inf"])
def test_gen_data_spacing_guard(tmp_path, capsys, spacing):
    out = tmp_path / "x"
    rc = main(["gen-data", "--out", str(out), "--size", "64",
               "--spacing-mm", spacing])
    assert rc == 1
    assert "spacing-mm must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_refuses_overwrite(ds64, tmp_path, capsys):
    rc = main(["gen-data", "--out", str(ds64), "--n-train", "1",
               "--n-val", "0", "--size", "64"])
    assert rc == 2
    assert "--force" in capsys.readouterr().err
    rc = main(["gen-data", "--out", str(ds64), "--n-train", "3",
               "--n-val", "1", "--size", "64", "--seed", "0", "--force"])
    assert rc == 0


@pytest.mark.parametrize("key,value", [
    ("lr0", "nan"), ("lr0", "inf"), ("lr0", "-1"), ("weight_decay", "-1"),
    ("aux_weight", "nan"), ("focal_gamma", "nan")])
def test_train_refuses_config_values_that_cannot_train(ds64, tmp_path,
                                                       capsys, key, value):
    cfg = write_cfg(tmp_path, f"preset = micro\nepochs = 1\n"
                              f"batch_size = 3\n{key} = {value}\n")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(ds64), "--out", str(out),
               "--config", cfg, "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not (out / "config.txt").exists()


@pytest.mark.parametrize("lr0", ["1e30", "1e38", "1e300"])
def test_train_huge_lr_fails_with_one_line(tmp_path, lr0):
    # the first step overflows the float32 weights and the next batch's
    # forward fails; a child process, so numpy's warnings reach its stderr
    assert main(["gen-data", "--out", str(tmp_path / "ds"), "--n-train",
                 "4", "--n-val", "1", "--size", "64"]) == 0
    cfg = write_cfg(tmp_path, f"preset = micro\nepochs = 1\nbatch_size = 2\n"
                              f"augment = none\nlr0 = {lr0}\n")
    proc = run_csdn("train", "--data", str(tmp_path / "ds"), "--out",
                    str(tmp_path / "run"), "--config", cfg, "--quiet")
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: non-finite loss at epoch 0 batch 1 "
                             f"(lr {float(lr0):g}): ")


def test_train_then_eval_and_report(ds64, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "preset = micro\nepochs = 1\nbatch_size = 3\n"
                              "augment = none\nval_every = 1\n")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(ds64), "--out", str(out),
               "--config", cfg, "--quiet"])
    assert rc == 0
    assert (out / "last.ckpt").exists()
    assert (out / "best.ckpt").exists()
    assert (out / "log.csv").exists()
    net, tr, lo = load_run_config(cfg)
    assert (out / "config.txt").read_text() == \
        "\n".join(echo_config(net, tr, lo)) + "\n"
    capsys.readouterr()

    report = tmp_path / "report.csv"
    rc = main(["eval", "--weights", str(out / "last.ckpt"), "--data",
               str(ds64), "--split", "val", "--report", str(report)])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "region   dsc     iou     hd95_mm" in out_text
    assert "samples  1" in out_text
    lines = report.read_text().splitlines()
    assert lines[0] == "sample_id,region,dsc,iou,hd95_mm"
    assert len(lines) == 3  # header + lumen/eem rows for the one sample


def test_train_skips_trailing_single_sample(tmp_path, capsys):
    # 9 samples in batches of 8: batch norm over the last sample's 1x1
    # pooled context map alone is undefined, so that batch is left out
    ds = tmp_path / "ds9"
    assert main(["gen-data", "--out", str(ds), "--n-train", "9",
                 "--n-val", "0", "--size", "64"]) == 0
    cfg = write_cfg(tmp_path, "preset = micro\nepochs = 1\nbatch_size = 8\n"
                              "augment = none\n")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(ds), "--out", str(out),
               "--config", cfg, "--quiet"])
    assert rc == 0
    assert len((out / "log.csv").read_text().splitlines()) == 2
    assert (out / "last.ckpt").exists()
    # a batch of one can never train: refused before anything is written
    cfg = write_cfg(tmp_path, "preset = micro\nbatch_size = 1\n")
    out = tmp_path / "run1"
    rc = main(["train", "--data", str(ds), "--out", str(out),
               "--config", cfg, "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}: batch_size must be >= 2"]
    assert not out.exists()


def test_train_refuses_one_sample_split_before_writing(tmp_path, capsys):
    ds = tmp_path / "ds1"
    assert main(["gen-data", "--out", str(ds), "--n-train", "1",
                 "--n-val", "0", "--size", "64"]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(["train", "--data", str(ds), "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_train_nan_gradient_exits_3(ds64, tmp_path, capsys, monkeypatch):
    real_backward = train_module.backward

    def planted(loss, store):
        grads = real_backward(loss, store)
        grads["head.point.bias"].data.flat[1] = np.nan
        return grads

    monkeypatch.setattr(train_module, "backward", planted)
    cfg = write_cfg(tmp_path, "preset = micro\nepochs = 1\nbatch_size = 3\n"
                              "augment = none\n")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(ds64), "--out", str(out),
               "--config", cfg, "--quiet"])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite gradient for 'head.point.bias'"]
    assert not (out / "last.ckpt").exists()


def test_train_resume_rejects_unpaired_moments(ds64, tmp_path, capsys):
    # one v: record renamed, the CRC made valid again: the reader must
    # refuse the pairing before Adam.load_state looks the name up
    net = CSDN(NetworkConfig.micro(), seed=0)
    path = tmp_path / "unpaired.ckpt"
    save_checkpoint(str(path), net, Adam(net.parameter_store()), epoch=0,
                    global_step=0, master_seed=0, best_val_dsc=-1.0)
    body = path.read_bytes()[:-4]
    assert body.count(b"v:head.point.bias") == 1
    body = body.replace(b"v:head.point.bias", b"v:head.point.biaz")
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    rc = main(["train", "--data", str(ds64), "--out", str(tmp_path / "o"),
               "--resume", str(path), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "pair" in err[0]


def prior_run_config(out):
    """``out/config.txt`` as an earlier run left it: (path, bytes)."""
    out.mkdir()
    path = out / "config.txt"
    path.write_bytes(b"seed=5\nepochs=7\n")
    return path, path.read_bytes()


def test_train_resume_rejects_other_seed(ds64, tmp_path, capsys):
    net = CSDN(NetworkConfig.micro(), seed=0)
    path = tmp_path / "seed5.ckpt"
    save_checkpoint(str(path), net, None, epoch=0, global_step=1,
                    master_seed=5, best_val_dsc=-1.0)
    out = tmp_path / "o"
    config, before = prior_run_config(out)
    rc = main(["train", "--data", str(ds64), "--out", str(out),
               "--resume", str(path), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: checkpoint was trained with seed 5, "
                   "config has seed 0"]
    assert not (out / "log.csv").exists()
    # the refused resume leaves the run's config record alone
    assert config.read_bytes() == before


def test_train_missing_data(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
               str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_train_manifest_not_utf8(tmp_path, capsys):
    root = tmp_path / "ds"
    assert main(["gen-data", "--out", str(root), "--n-train", "2",
                 "--n-val", "1", "--size", "64"]) == 0
    mpath = root / "manifest.txt"
    mpath.write_bytes(mpath.read_bytes().replace(b"train0001",
                                                 b"train\xe3001"))
    capsys.readouterr()
    rc = main(["train", "--data", str(root), "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mpath}:3: not UTF-8 text: ")
    assert err.count("\n") == 1


def test_train_resume_missing_checkpoint(ds64, tmp_path, capsys):
    config, before = prior_run_config(tmp_path / "o")
    rc = main(["train", "--data", str(ds64), "--out", str(tmp_path / "o"),
               "--resume", str(tmp_path / "gone.ckpt"), "--quiet"])
    assert rc == 2
    assert "no checkpoint" in capsys.readouterr().err
    assert config.read_bytes() == before


def test_eval_missing_weights(ds64, tmp_path, capsys):
    rc = main(["eval", "--weights", str(tmp_path / "w.bin"), "--data",
               str(ds64)])
    assert rc == 2
    assert "no weight file" in capsys.readouterr().err


def test_eval_empty_split(micro_weights, tmp_path, capsys):
    ds = tmp_path / "trainonly"
    assert main(["gen-data", "--out", str(ds), "--n-train", "2",
                 "--n-val", "0", "--size", "64"]) == 0
    rc = main(["eval", "--weights", str(micro_weights), "--data", str(ds),
               "--split", "val"])
    assert rc == 2
    assert "no samples" in capsys.readouterr().err


def test_infer_writes_label_and_overlay(ds64, micro_weights, tmp_path,
                                        capsys):
    out = tmp_path / "pred"
    rc = main(["infer", "--weights", str(micro_weights), "--input",
               str(ds64 / "train0000"), "--out", str(out)])
    assert rc == 0
    label = read_pgm(str(out / "label.pgm"))
    assert label.shape == (64, 64)
    assert set(np.unique(label)) <= {0, 1, 2}

    raw = (out / "overlay.ppm").read_bytes()
    header, pixels = raw.split(b"255\n", 1)
    assert header == b"P6\n64 64\n"
    rgb = np.frombuffer(pixels, dtype=np.uint8).reshape(64, 64, 3)
    painted = rgb[..., 0] != rgb[..., 1]
    colored = rgb[painted]
    # contour colors only: truth red/green, prediction orange/gold
    palette = {(255, 0, 0), (0, 255, 0), (255, 165, 0), (255, 215, 0)}
    assert len(colored) > 0
    assert {tuple(px) for px in colored} <= palette
    # exactly the pixels of the four contours are painted, and the predicted
    # lumen, drawn last, shows gold
    truth = read_pgm(str(ds64 / "train0000" / "label.pgm"))
    contours = np.zeros((64, 64), dtype=bool)
    for mask in (*region_masks(truth), *region_masks(label)):
        contours[tuple(boundary_pixels(mask).T)] = True
    assert np.array_equal(painted, contours)
    lumen_edge = tuple(boundary_pixels(region_masks(label)[0]).T)
    assert np.all(rgb[lumen_edge] == (255, 215, 0))


def test_infer_missing_frame(micro_weights, tmp_path, capsys):
    empty = tmp_path / "sample"
    empty.mkdir()
    rc = main(["infer", "--weights", str(micro_weights), "--input",
               str(empty), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing frame" in capsys.readouterr().err


def copied_sample(ds64, tmp_path):
    d = tmp_path / "sample"
    shutil.copytree(ds64 / "train0000", d)
    return d


@pytest.mark.parametrize("name,arr,msg", [
    ("frame2.pgm", np.zeros((32, 32), np.uint8),
     "32x32, but frame1.pgm of sample sample is 64x64"),
    ("label.pgm", np.full((64, 64), 7, np.uint8),
     "label values must lie in {0, 1, 2}"),
    ("label.pgm", np.zeros((64, 32), np.uint8),
     "32x64, but frame1.pgm of sample sample is 64x64")],
    ids=["small-frame2", "label-value-7", "narrow-label"])
def test_infer_checks_sample_before_writing(ds64, micro_weights, tmp_path,
                                            capsys, name, arr, msg):
    d = copied_sample(ds64, tmp_path)
    write_pgm(str(d / name), arr)
    out = tmp_path / "o"
    rc = main(["infer", "--weights", str(micro_weights), "--input", str(d),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {d / name}: {msg}"]
    assert not out.exists()


def test_infer_without_label(ds64, micro_weights, tmp_path, capsys):
    d = copied_sample(ds64, tmp_path)
    os.remove(d / "label.pgm")
    out = tmp_path / "o"
    rc = main(["infer", "--weights", str(micro_weights), "--input", str(d),
               "--out", str(out)])
    assert rc == 0
    assert read_pgm(str(out / "label.pgm")).shape == (64, 64)


def test_bench_guards(capsys):
    assert main(["bench", "--iters", "5"]) == 1
    assert "10" in capsys.readouterr().err
    for size in ("33", "0", "-32"):
        assert main(["bench", "--size", size]) == 1
        assert capsys.readouterr().err == (
            f"error: --size must be a positive multiple of 32 (got {size})\n")
    for flag in ("--batch", "--warmup"):
        assert main(["bench", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need batch >= 1 and warmup >= 1")
        assert err.count("\n") == 1


def test_bench_micro(micro_weights, capsys):
    rc = main(["bench", "--weights", str(micro_weights), "--size", "32",
               "--iters", "10", "--warmup", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fps:" in out and "params:" in out


def test_bench_truncated_weights(micro_weights, tmp_path, capsys):
    cut = tmp_path / "cut.bin"
    cut.write_bytes(micro_weights.read_bytes()[:60])
    rc = main(["bench", "--weights", str(cut), "--size", "64"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncated")


def test_gradcheck_refuses_reference(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "preset = reference\n")
    rc = main(["gradcheck", "--config", cfg])
    assert rc == 1
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_gradcheck_tol_guard(capsys, tol):
    rc = main(["gradcheck", "--tol", tol])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("error:") == 1
    assert "--tol must be finite and > 0" in cap.err


def test_gradcheck_micro(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "preset = micro\n")
    rc = main(["gradcheck", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS  overall" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("line", ["fusion_channels = 0", "ge_expansion = 0",
                                  "shallow_channels = 3,4,0",
                                  "stem_channels = -2", "batch_size = 0",
                                  "lr_step = 0", "lr_step = -1",
                                  "val_every = 0", "checkpoint_every = 0"])
def test_config_rejects_widths_below_one(tmp_path, capsys, line):
    key = line.split()[0]
    cfg = write_cfg(tmp_path, f"preset = micro\n{line}\n")
    rc = main(["gradcheck", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]


def test_gradcheck_one_channel_dense_conv(tmp_path, capsys):
    # a dense 3x3 conv from one input channel is not depthwise
    cfg = write_cfg(tmp_path, "preset = micro\nshallow_channels = 1,4,4\n")
    rc = main(["gradcheck", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS  overall" in out and "FAIL" not in out


def test_console_script_help():
    proc = run_csdn("--help")
    assert proc.returncode == 0
    for word in ("gen-data", "train", "eval", "infer", "bench", "gradcheck"):
        assert word in proc.stdout
