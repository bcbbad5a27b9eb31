"""Run the benchmark in alternating parent/change pairs over two source trees.

    python3 tools/ab_pairs.py PARENT CHANGE --workload eval-desk-256 \\
        --seed 21 --seconds 30 --pairs 10 --out ab.json

Each run is a fresh process of the command that CHANGE's BENCHMARK.json
declares (``python3 perfbench/run.py``), started in the root of its own tree
with ``--workload --seed --seconds``; its last output line is its result.
Odd pairs run the parent first and even pairs the change first, so a drift
of the host's speed lands on both sides. ``--workload`` may repeat; the
workloads run one after another.

The output is the ``workloads`` block the BENCH files share: every run,
and for each end-to-end metric each side's median, quartiles and range,
the change/parent ratio of the medians, the pairs the change won (ties
count for neither), ``worse_by`` (the change's median relative to the
parent's, positive when worse) against the metric's bound, and
``gain_shown``: the change won at least nine tenths of the pairs, the
medians differ by more than the parent's interquartile range, and the
change failed no larger share of its operations than the parent (each
side's ``failed_share``: failed over attempted, summed over its runs,
is in the block beside the summary). The machine
facts come from the details file the change's last run wrote, when there
is one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``tree``: correct, attempted, failed and each
    metric's value, from its result line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return {"correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()}}
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        raise RuntimeError(f"{tree}: no result line (exit {proc.returncode})"
                           f"\n{proc.stderr.strip()}") from None


def stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "min": float(min(values)), "max": float(max(values))}


def failed_share(runs: list[dict]) -> dict:
    """Each side's failed operations over its attempted ones."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        attempted = sum(r["attempted"] for r in mine)
        out[side] = sum(r["failed"] for r in mine) / max(1, attempted)
    return out


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    share = failed_share(runs)
    fails_more = share["change"] > share["parent"]
    by_pair: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        side = {s: stats([p[s][name] for p in pairs])
                for s in ("parent", "change")}
        par, chg = side["parent"]["median"], side["change"]["median"]
        ratio = chg / par
        wins = sum((p["change"][name] > p["parent"][name]) if higher
                   else (p["change"][name] < p["parent"][name]) for p in pairs)
        worse_by = 1.0 - ratio if higher else ratio - 1.0
        iqr = side["parent"]["q3"] - side["parent"]["q1"]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], **side,
            "ratio_change_over_parent": ratio, "change_wins_pairs": wins,
            "worse_by": worse_by, "within_bound": worse_by <= spec["bound"],
            "gain_shown": (wins >= 0.9 * len(pairs) and not fails_more
                           and abs(chg - par) > iqr and worse_by < 0),
        }
    return out


def ab_pairs(parent: Path, change: Path, workload: str, seed: int,
             seconds: float, pairs: int, log=sys.stderr) -> dict:
    bench = json.loads((change / "BENCHMARK.json").read_text())
    trees = {"parent": parent, "change": change}
    runs = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            r = run_once(trees[side], bench["command"], workload, seed,
                         seconds)
            runs.append({"pair": pair, "side": side, **r})
            print(f"{workload} pair {pair} {side}: "
                  f"{json.dumps(r['metrics'])}", file=log, flush=True)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "pairs": pairs, "runs": runs, "failed_share": failed_share(runs),
            "summary": summarize(runs, bench["end_to_end"]),
            "all_correct": all(r["correct"] for r in runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    for tree in (args.parent, args.change):
        if not (tree / "BENCHMARK.json").is_file():
            parser.error(f"no BENCHMARK.json in {tree}")
    blocks = {w: ab_pairs(args.parent.resolve(), args.change.resolve(), w,
                          args.seed, args.seconds, args.pairs)
              for w in args.workload}
    out = {"workloads": blocks}
    # the machine facts perfbench/run.py wrote beside the change's last run
    details = (args.change / "perfbench" / "results"
               / f"{args.workload[-1]}-seed{args.seed}-trace0.json")
    if details.is_file():
        out["machine"] = json.loads(details.read_text()).get("machine")
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
