"""Tests of the benchmark itself (not part of the project's tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_runs_one_checked_operation_per_workload():
    proc = _run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"sweep", "box", "oracle"}
    for workload, verdict in report.items():
        assert verdict["correct"], (workload, proc.stderr)
        assert verdict["attempted"] >= 1, workload
        assert verdict["failed"] == 0, (workload, proc.stderr)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "box", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
