"""Benchmark of starkspec: one workload run, or a smoke run of all three.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The program is used from the checkout's
``src`` directory.  Each run starts the measured workload process
SETUP_REPEATS times (all but the last for set-up only; the median set-up
time is reported), then checks the outputs in a separate process against the
closed-form reference (check.py).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 7
PROCESS_TIMEOUT_S = 150
WORKLOADS = ("sweep", "box", "oracle")


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(cmd: list[str], timeout: float) -> str:
    """Run ``cmd`` to completion (killing it on timeout); return its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{Path(cmd[1]).name} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    return out


def _workload_process(workload, seed, seconds, trace, out, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), *extra]
    t0 = time.monotonic()
    _run_child(cmd + ["--t0", repr(t0)], PROCESS_TIMEOUT_S)
    return json.loads(out.read_text())


def _verdict(results: dict) -> dict:
    """Counts from check.py's statuses; a named fault is failed but not incorrect."""
    path = OUT_DIR / f"{results['workload']}-{results['seed']}-{os.getpid()}.json"
    path.write_text(json.dumps(results))
    try:
        checked = json.loads(_run_child([sys.executable, str(HERE / "check.py"), str(path)],
                                        PROCESS_TIMEOUT_S))
    finally:
        path.unlink()
    ops = [u["ops"] for u in results["units"]]
    status = checked["units"]
    for problem in checked["problems"][:20]:
        print(f"check: {problem}", file=sys.stderr)
    fault_allowed = results["workload"] == "box"
    return {
        "correct": all(s == "ok" or (s == "fault" and fault_allowed) for s in status),
        "attempted": sum(ops),
        "failed": sum(n for n, s in zip(ops, status) if s != "ok"),
    }


def _median_round_rate(units, attempted: int, rounds: int, scaled: bool) -> float:
    """Operations per second of the median round.

    Every round has the same fixed mix of units; each position of the mix
    takes its median time over the run's rounds, which keeps one slow
    stretch of the machine from moving the figure.
    """
    by_pos = defaultdict(list)
    for u in units:
        by_pos[u["pos"]].append(u["raw_s"] * (u["scale"] if scaled else 1.0))
    return attempted / rounds / sum(statistics.median(t) for t in by_pos.values())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-{seed}-{os.getpid()}-result.json"
    try:
        setup_runs = [] if trace else [
            _workload_process(workload, seed, seconds, trace, out, "--setup-only")
            for _ in range(SETUP_REPEATS - 1)]
        results = _workload_process(workload, seed, seconds, trace, out)
    finally:
        if out.exists():
            out.unlink()
    setups = [r["setup_s"] for r in setup_runs + [results]]
    raw_setups = [r["setup_raw_s"] for r in setup_runs + [results]]
    verdict = _verdict(results)
    units = results["units"]
    if trace:
        for name in results["unmeasured"]:
            print(f"trace: {name} not found; its layer metrics read 0 (unmeasured)",
                  file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in results["trace"].items()}
    else:
        rate = _median_round_rate(units, verdict["attempted"], results["rounds"], True)
        metrics = {
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        raw_rate = _median_round_rate(units, verdict["attempted"], results["rounds"], False)
        print(f"{workload}: {results['rounds']} rounds, {verdict['attempted']} ops, "
              f"ops_per_s {raw_rate:.4g} raw / {rate:.4g} scaled, "
              f"set-up {statistics.median(raw_setups):.3g} s raw", file=sys.stderr)
    return {**verdict, "metrics": metrics}


def smoke() -> dict:
    """One checked operation per workload (one chunk plus crossings for sweep)."""
    OUT_DIR.mkdir(exist_ok=True)
    report = {}
    for workload in WORKLOADS:
        out = OUT_DIR / f"smoke-{workload}-{os.getpid()}.json"
        try:
            results = _workload_process(workload, 1, 0, 0, out, "--smoke")
        finally:
            if out.exists():
                out.unlink()
        report[workload] = _verdict(results)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="starkspec benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one checked operation per workload; prints one JSON line")
    args = ap.parse_args(argv)
    if not (Path("src") / "starkspec" / "__init__.py").is_file():
        print("run.py: no src/starkspec here; run it from the root of a checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        result = smoke() if args.smoke else run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
