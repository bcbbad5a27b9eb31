"""BENCHMARK.json names exactly the metrics the runs print, and run.py
refuses to run without the source tree; input generation leaves no
process behind."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import ROOT, workloads


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in workloads.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "eval-desk-256", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_input_child_leaves_no_process(tmp_path):
    root = tmp_path / "data"
    assert workloads.in_child(workloads.write_eval_inputs, str(root), 1, 64, 2) is None
    assert any(root.rglob("*.pgm"))
    pid = os.getpid()
    children = Path(f"/proc/{pid}/task/{pid}/children")
    if children.exists():
        assert children.read_text().split() == []
