"""The launcher's contract: refuse to run without the simulator sources."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_inputs", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "halo-fattree512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/repro" in proc.stderr


def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_layer_coverage_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0, proc.stderr
    assert "COVERAGE" not in proc.stderr
