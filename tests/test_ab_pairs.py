"""The alternating-pairs driver (tools/ab_pairs.py) on stub source trees
whose benchmark prints a planted result line."""

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from tools import ab_pairs  # noqa: E402

STUB = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}) as fh:
    n = len(fh.readlines())
with open({log!r}, "a") as fh:
    fh.write(" ".join([{side!r}, args["--workload"], args["--seed"],
                       args["--seconds"]]) + "\\n")
rate = 100.0 * {scale} * (1.0 + 0.01 * (n % 3))
print("stub run")
metrics = {{"samples_per_s": {{"value": rate, "unit": "samples/s"}},
           "latency_p50_ms": {{"value": 1000.0 / rate, "unit": "ms"}}}}
print(json.dumps({{"correct": True, "attempted": 10, "failed": {failed},
                  "metrics": metrics}}))
"""

BENCH = {
    "command": [sys.executable, "perfbench/run.py"],
    "end_to_end": [
        {"name": "samples_per_s", "unit": "samples/s", "better": "higher",
         "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ],
}


def stub_tree(root: Path, side: str, scale: float, log: Path,
              failed: int = 0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STUB.format(log=str(log), side=side, scale=scale, failed=failed))
    (root / "BENCHMARK.json").write_text(json.dumps(BENCH))
    return root


def test_sides_alternate_and_a_planted_slowdown_loses_its_pairs(tmp_path):
    log = tmp_path / "log"
    log.write_text("")
    fast = stub_tree(tmp_path / "fast", "fast", 1.0, log)
    slow = stub_tree(tmp_path / "slow", "slow", 0.8, log)
    out = tmp_path / "ab.json"
    assert ab_pairs.main([str(fast), str(slow), "--workload", "w1",
                          "--workload", "w2", "--seed", "7", "--seconds",
                          "0.5", "--pairs", "4", "--out", str(out)]) == 0
    order = [line.split() for line in log.read_text().splitlines()]
    alternating = ["fast", "slow", "slow", "fast"] * 2
    assert [o[0] for o in order] == alternating * 2
    assert {tuple(o[1:]) for o in order[:8]} == {("w1", "7", "0.5")}
    assert {tuple(o[1:]) for o in order[8:]} == {("w2", "7", "0.5")}

    blocks = json.loads(out.read_text())["workloads"]
    assert sorted(blocks) == ["w1", "w2"]
    block = blocks["w1"]
    assert block["pairs"] == 4 and len(block["runs"]) == 8
    assert [r["side"] for r in block["runs"]] == [
        {"fast": "parent", "slow": "change"}[s] for s in alternating]
    assert block["all_correct"]
    assert block["failed_share"] == {"parent": 0.0, "change": 0.0}
    for name in ("samples_per_s", "latency_p50_ms"):
        s = block["summary"][name]
        assert s["change_wins_pairs"] == 0, name
        assert s["worse_by"] > 0.1 and not s["within_bound"], name
        assert not s["gain_shown"], name
    assert abs(block["summary"]["samples_per_s"]["ratio_change_over_parent"]
               - 0.8) < 0.03

    # the same trees the other way round: the change wins every pair
    back = ab_pairs.ab_pairs(slow, fast, "w1", 7, 0.5, 4, log=io.StringIO())
    s = back["summary"]["samples_per_s"]
    assert s["change_wins_pairs"] == 4 and s["gain_shown"]
    assert s["within_bound"]


def test_a_faster_change_that_fails_more_operations_shows_no_gain(tmp_path):
    log = tmp_path / "log"
    log.write_text("")
    parent = stub_tree(tmp_path / "parent", "parent", 1.0, log, failed=1)
    change = stub_tree(tmp_path / "change", "change", 1.25, log, failed=2)
    block = ab_pairs.ab_pairs(parent, change, "w1", 7, 0.5, 4,
                              log=io.StringIO())
    assert block["failed_share"] == {"parent": 0.1, "change": 0.2}
    for name in ("samples_per_s", "latency_p50_ms"):
        s = block["summary"][name]
        assert s["change_wins_pairs"] == 4 and s["worse_by"] < -0.1, name
        assert not s["gain_shown"], name
    # the same speed-up at the parent's failed share shows its gain
    level = stub_tree(tmp_path / "level", "level", 1.25, log, failed=1)
    block = ab_pairs.ab_pairs(parent, level, "w1", 7, 0.5, 4,
                              log=io.StringIO())
    assert block["failed_share"] == {"parent": 0.1, "change": 0.1}
    assert block["summary"]["samples_per_s"]["gain_shown"]


def test_a_run_without_a_result_line_names_its_tree(tmp_path):
    tree = tmp_path / "broken"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("print('no result')\n")
    (tree / "BENCHMARK.json").write_text(json.dumps(BENCH))
    with pytest.raises(RuntimeError, match="no result line") as e:
        ab_pairs.run_once(tree, BENCH["command"], "w", 1, 1.0)
    assert str(tree) in str(e.value)
