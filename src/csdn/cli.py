"""Command-line surface.

Subcommands: gen-data (synthetic dataset tree), train (epoch loop with
checkpoints), eval (metrics report), infer (label map + contour overlay),
bench (forward throughput), gradcheck (finite-difference verification).
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure; every error
path prints one "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .autodiff import AutodiffError
from .gradcheck import PARAM_LIMIT, run_suite
from .losses import LossConfig
from .metrics import (boundary_pixels, evaluate, fps_benchmark, predict_label,
                      region_masks, write_report_csv)
from .model import CSDN, NetworkConfig, count_parameters
from .phantom import (DEFAULT_SPACING_MM, Dataset, generate_dataset,
                      read_sample_dir, read_text_lines, write_pgm)
from .serial import FormatError, load_weights
from .train import TrainConfig, check_train_split, load_resume
from .train import train as run_training


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# -- run configuration --------------------------------------------------------

# flat key=value files; "#" starts a comment, unknown keys are rejected.
# The keys are "preset" plus the fields of the three config dataclasses.
_PRESETS = {"reference": NetworkConfig, "tiny": NetworkConfig.tiny,
            "micro": NetworkConfig.micro, "desk": NetworkConfig.desk}


def _parse_preset(val: str) -> str:
    if val not in _PRESETS:
        raise ValueError(f"must be one of {', '.join(_PRESETS)}")
    return val


def _parse_bool(val: str) -> bool:
    low = val.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: '{val}'")


def _parse_int3(val: str) -> tuple[int, int, int]:
    parts = [int(p) for p in val.split(",")]
    if len(parts) != 3:
        raise ValueError("need three comma-separated integers")
    return tuple(parts)


# value parser per field annotation (the config modules postpone
# annotations, so each is the source text of the declared type)
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[int, int, int]": _parse_int3}
_KEYS = {"preset": _parse_preset}
_KEYS.update((f.name, _PARSERS[f.type])
             for cls in (NetworkConfig, TrainConfig, LossConfig)
             for f in dataclasses.fields(cls))


def _parse_kv(lines: list[str], path: str) -> dict[str, tuple[str, int]]:
    vals: dict[str, tuple[str, int]] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{i}: expected key=value, "
                             f"got '{line}'")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise UsageError(f"{path}:{i}: empty key")
        if key in vals:
            raise UsageError(f"{path}:{i}: duplicate key '{key}'")
        vals[key] = (val, i)
    return vals


def load_run_config(path: str | None
                    ) -> tuple[NetworkConfig, TrainConfig, LossConfig]:
    """Effective (network, train, loss) configs: module defaults overlaid
    with the key=value file when one is given."""
    raw: dict[str, tuple[str, int]] = {}
    if path is not None:
        if not os.path.exists(path):
            raise DataError(f"no config file at {path}")
        try:
            lines = read_text_lines(path)
        except ValueError as e:  # not UTF-8 text
            raise UsageError(str(e)) from None
        raw = _parse_kv(lines, path)

    cooked: dict[str, object] = {}
    for key, (val, line) in raw.items():
        parse = _KEYS.get(key)
        if parse is None:
            raise UsageError(f"{path}:{line}: unknown key '{key}'")
        try:
            cooked[key] = parse(val)
        except ValueError as e:
            raise UsageError(f"{path}:{line}: key '{key}': {e}") from None

    bases = (_PRESETS[cooked.pop("preset", "reference")](), TrainConfig(),
             LossConfig())
    try:
        net_cfg, train_cfg, loss_cfg = [
            replace(base, **{f.name: cooked[f.name]
                             for f in dataclasses.fields(base)
                             if f.name in cooked})
            for base in bases]
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None
    return net_cfg, train_cfg, loss_cfg


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def echo_config(net_cfg: NetworkConfig, train_cfg: TrainConfig,
                loss_cfg: LossConfig) -> list[str]:
    """Every effective key as a key=value line."""
    return [f"{f.name}={_fmt(getattr(cfg, f.name))}"
            for cfg in (net_cfg, train_cfg, loss_cfg)
            for f in dataclasses.fields(cfg)]


# -- commands -----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.size < 1 or args.size % 64:
        raise UsageError(f"--size must be a positive multiple of 64 "
                         f"(got {args.size})")
    if not (math.isfinite(args.spacing_mm) and args.spacing_mm > 0):
        raise UsageError("spacing-mm must be finite and > 0 "
                         f"(got {args.spacing_mm})")
    if args.n_train < 1 or args.n_val < 0:
        raise UsageError("need n-train >= 1 and n-val >= 0")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0 (got {args.seed})")
    if os.path.isdir(args.out) and os.listdir(args.out) and not args.force:
        raise DataError(f"output directory {args.out} is not empty "
                        "(rerun with --force to overwrite)")
    man = generate_dataset(args.out, args.n_train, args.n_val, args.size,
                           args.seed, args.spacing_mm)
    print(f"wrote {len(man.train_ids)} train + {len(man.val_ids)} val "
          f"samples at {man.size}x{man.size} to {args.out}")
    return 0


def cmd_train(args) -> int:
    net_cfg, train_cfg, loss_cfg = load_run_config(args.config)
    ds = Dataset.open(args.data)
    check_train_split(ds)
    state = {}
    if args.resume:  # checked before <out> is touched
        if not os.path.exists(args.resume):
            raise DataError(f"no checkpoint at {args.resume}")
        net, state = load_resume(args.resume, train_cfg)
    else:
        net = CSDN(net_cfg, seed=train_cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    echo = echo_config(net_cfg, train_cfg, loss_cfg)
    with open(os.path.join(args.out, "config.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(echo) + "\n")
    if not args.quiet:
        for line in echo:
            print(line)
    run_training(net, ds, train_cfg, loss_cfg, args.out, quiet=args.quiet,
                 **state)
    return 0


def cmd_eval(args) -> int:
    if not os.path.exists(args.weights):
        raise DataError(f"no weight file at {args.weights}")
    net = load_weights(args.weights)
    ds = Dataset.open(args.data)
    samples = ds.train if args.split == "train" else ds.val
    if not samples:
        raise DataError(f"split '{args.split}' has no samples")
    rep = evaluate(net, samples)
    print(rep.summary())
    if args.report:
        write_report_csv(args.report, rep)
        print(f"wrote {args.report}")
    return 0


def _write_ppm(path: str, rgb: np.ndarray):
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.astype(np.uint8).tobytes())


def cmd_infer(args) -> int:
    if not os.path.exists(args.weights):
        raise DataError(f"no weight file at {args.weights}")
    net = load_weights(args.weights)
    frames, truth = read_sample_dir(args.input)  # checked before any write
    pred = predict_label(net, frames)

    os.makedirs(args.out, exist_ok=True)
    write_pgm(os.path.join(args.out, "label.pgm"), pred)

    base = np.clip(np.rint(frames[1] * 255.0), 0, 255).astype(np.uint8)
    rgb = np.stack([base] * 3, axis=-1)
    if truth is not None:
        lum, eem = region_masks(truth)
        rgb[tuple(boundary_pixels(eem).T)] = (255, 0, 0)  # truth outer wall: red
        rgb[tuple(boundary_pixels(lum).T)] = (0, 255, 0)  # truth lumen: green
    lum, eem = region_masks(pred)
    rgb[tuple(boundary_pixels(eem).T)] = (255, 165, 0)  # predicted outer: orange
    rgb[tuple(boundary_pixels(lum).T)] = (255, 215, 0)  # predicted lumen: gold
    _write_ppm(os.path.join(args.out, "overlay.ppm"), rgb)
    print(f"wrote {os.path.join(args.out, 'label.pgm')} and overlay.ppm")
    return 0


def cmd_bench(args) -> int:
    if args.iters < 10:
        raise UsageError(f"need at least 10 timed iterations "
                         f"(got {args.iters})")
    if args.size < 1 or args.size % 32:
        raise UsageError(f"--size must be a positive multiple of 32 "
                         f"(got {args.size})")
    if args.batch < 1 or args.warmup < 1:
        raise UsageError(f"need batch >= 1 and warmup >= 1 (got batch "
                         f"{args.batch}, warmup {args.warmup})")
    if args.weights:
        if not os.path.exists(args.weights):
            raise DataError(f"no weight file at {args.weights}")
        net = load_weights(args.weights)
    else:
        net = CSDN(NetworkConfig(), seed=0)
    res = fps_benchmark(net, (args.size, args.size), batch=args.batch,
                        warmup_iters=args.warmup, timed_iters=args.iters)
    n = net.num_parameters()
    print(f"params: {n} ({n / 1000:.0f}K)")
    print(f"input: {args.size}x{args.size} batch {args.batch}, "
          f"{args.iters} timed iterations")
    print(f"fps: {res['fps']:.2f}  p50: {res['p50_ms']:.1f} ms  "
          f"p95: {res['p95_ms']:.1f} ms")
    print("reference design point: 1706K params, 151 fps on a GTX 3090 "
          "(informational only; this process timed a CPU forward)")
    return 0


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be finite and > 0 (got {args.tol})")
    if args.config:
        net_cfg, _tc, _lc = load_run_config(args.config)
    else:
        net_cfg = NetworkConfig.tiny()
    n = count_parameters(net_cfg)
    if n > PARAM_LIMIT:
        raise UsageError(f"gradient check needs a small network: config has "
                         f"{n} parameters (limit {PARAM_LIMIT})")
    ok, _results, _elapsed = run_suite(net_cfg, tol=args.tol)
    if not ok:
        print("error: gradient check failed", file=sys.stderr)
        return 3
    return 0


# -- argument plumbing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="csdn", description="two-stream vessel segmentation "
                "on a numpy autodiff core")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset tree")
    g.add_argument("--out", required=True)
    g.add_argument("--n-train", type=int, default=200)
    g.add_argument("--n-val", type=int, default=50)
    g.add_argument("--size", type=int, default=128)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--spacing-mm", type=float, default=DEFAULT_SPACING_MM)
    g.add_argument("--force", action="store_true",
                   help="write into a non-empty directory")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run the training loop")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", help="key=value run config file")
    t.add_argument("--resume", help="continue from a checkpoint")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="metrics report on a split")
    e.add_argument("--weights", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("train", "val"), default="val")
    e.add_argument("--report", help="per-sample CSV output path")
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("infer", help="predict one sample, write overlay")
    i.add_argument("--weights", required=True)
    i.add_argument("--input", required=True, help="sample directory")
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_infer)

    b = sub.add_parser("bench", help="forward throughput")
    b.add_argument("--weights", help="weight file (default: fresh reference)")
    b.add_argument("--size", type=int, default=896)
    b.add_argument("--batch", type=int, default=1)
    b.add_argument("--iters", type=int, default=20)
    b.add_argument("--warmup", type=int, default=2)
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("gradcheck", help="finite-difference verification")
    c.add_argument("--config", help="key=value run config file")
    c.add_argument("--tol", type=float, default=1e-4)
    c.set_defaults(func=cmd_gradcheck)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every recorded op checks its output, so a float overflow fails
        # there with one error line; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AutodiffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DataError, FormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
