"""The measured process of one workload run.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS pinned
to one thread.  It imports numpy and starkspec only (never scipy, never the
reference data), so its peak resident set belongs to the workload.  It sets
up, warms up with one untimed operation, then runs whole rounds of timed
units until ``--seconds`` have passed, bracketing every unit with yardstick
runs.  Program outputs, timings and (with ``--trace 1``) spans go to the
JSON file named by ``--out``; run.py has them checked in another process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import inputs
from starkspec import cli, fock, model, solver
from tracer import Tracer, kernel_fit, layer_totals
from yardstick import NOMINAL_S, yardstick_s


class Unit:
    """One timed call: ``op()`` is timed, ``record(result)`` is not.

    ``covers`` lists the round positions whose operations fail with it
    (a failed crossing detection fails the columns it was run on).
    """

    def __init__(self, op, record, ops: int, covers=()):
        self.op = op
        self.record = record
        self.ops = ops
        self.covers = list(covers)


def _column_rows(column):
    return [[float(e.energy), int(e.parity), bool(e.resolved)] for e in column]


class SweepWork:
    """spectrum_sweep chunks of gate columns, then detect_crossings per segment."""

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.segments = inputs.SEGMENTS[-1:] if smoke else inputs.SEGMENTS
        for seg in self.segments:
            model.validate_params(inputs.DELTA, seg.gamma, seg.g_max)

    def round(self, r: int) -> list[Unit]:
        units = []
        for s, chunks in inputs.sweep_round(self.seed, r, self.segments):
            seg = self.segments[s]
            tables: list = []
            first = len(units)
            for cols in chunks:
                units.append(Unit(partial(self._sweep, seg, cols),
                                  partial(self._columns, seg, tables), len(cols)))
            units.append(Unit(partial(self._crossings, seg, tables),
                              partial(self._events, seg), 0, range(first, len(units))))
        return units

    # Ops look program functions up at call time, so traced runs see the
    # wrappers installed on the modules.
    @staticmethod
    def _sweep(seg, cols):
        return solver.spectrum_sweep(
            inputs.DELTA, seg.gamma, seg.g_at(cols[0]), seg.g_at(cols[-1]), len(cols),
            seg.levels, n_terms=seg.n_terms)

    @staticmethod
    def _columns(seg, tables, table):
        tables.append(table)
        return {"kind": "columns", "gamma": seg.gamma, "levels": seg.levels,
                "g": [float(g) for g in table.g_grid],
                "columns": [_column_rows(c) for c in table.columns]}

    @staticmethod
    def _crossings(seg, tables):
        merged = solver.SpectrumTable(
            delta=inputs.DELTA, gamma=seg.gamma,
            g_grid=np.concatenate([t.g_grid for t in tables]),
            columns=[c for t in tables for c in t.columns],
            requested_count=seg.levels,
            energy_resolution=tables[0].energy_resolution,
        )
        return merged, solver.detect_crossings(merged, seg.gap_threshold)

    @staticmethod
    def _events(seg, result):
        merged, events = result
        return {"kind": "crossings", "gamma": seg.gamma,
                "g": [float(g) for g in merged.g_grid],
                "events": [[ev.kind.value, float(ev.g_at), float(ev.energy_at),
                            ev.level_indices[0][0], ev.level_indices[0][1],
                            ev.level_indices[1][0], ev.level_indices[1][1]]
                           for ev in events]}


class BoxWork:
    """`starkspec spectrum` at default flags, in-process through cli.main."""

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.csv = out_dir / f"box-{os.getpid()}.csv"

    def round(self, r: int) -> list[Unit]:
        points = inputs.box_round(self.seed, r)
        if self.smoke:
            points = points[:1]
        units = []
        for gamma, g in points:
            model.validate_params(inputs.DELTA, gamma, g)
            argv = inputs.box_argv(gamma, g, str(self.csv))
            units.append(Unit(partial(self._invoke, argv), partial(self._parse, argv), 1))
        return units

    @staticmethod
    def _invoke(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code

    def _parse(self, argv, code):
        return {"kind": "box", "argv": argv[:-2], "exit": code,
                "csv": self.csv.read_text() if code == 0 else ""}


class OracleWork:
    """diagonalize(build_hamiltonian(p, cutoff), 26) with its convergence re-run."""

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke

    def round(self, r: int) -> list[Unit]:
        calls = inputs.oracle_round(self.seed, r)
        if self.smoke:
            calls = calls[:1]
        units = []
        for gamma, g, cutoff in calls:
            params = model.validate_params(inputs.DELTA, gamma, g)
            units.append(Unit(partial(self._call, params, cutoff),
                              partial(self._spectrum, gamma, g, cutoff), 1))
        return units

    @staticmethod
    def _call(params, cutoff):
        return fock.diagonalize(fock.build_hamiltonian(params, cutoff), inputs.ORACLE_LEVELS)

    @staticmethod
    def _spectrum(gamma, g, cutoff, spectrum):
        return {"kind": "oracle", "gamma": gamma, "g": g, "cutoff": cutoff,
                "energies": [float(e) for e in spectrum.energies],
                "parities": [int(p) for p in spectrum.parities],
                "converged": int(spectrum.converged_count)}


def _timed(fn):
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # the op failed; the checker counts it
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def _measure(work, seconds: float, smoke: bool, tracer: Tracer | None):
    """Whole rounds of units; returns unit dicts and the raw timing lists."""
    units = []
    ys = [yardstick_s()]
    traced = []  # (raw traced s, yardstick before, yardstick after, top-level span s)
    start = time.monotonic()
    r = 0
    while True:
        for pos, unit in enumerate(work.round(r)):
            raw, result, error = _timed(unit.op)
            ys.append(yardstick_s())
            entry = {"ops": unit.ops, "pos": pos, "covers": unit.covers, "raw_s": raw,
                     "scale": NOMINAL_S / (0.5 * (ys[-2] + ys[-1])), "error": error}
            if error is None:
                try:
                    entry["record"] = unit.record(result)
                except Exception as exc:  # malformed output counts as a failed op
                    entry["error"] = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                index = len(units)
                first_span = len(tracer.spans)
                raw_t, _, _ = _timed(lambda: tracer.run(index, unit.op))
                ys.append(yardstick_s())
                top = sum(t1 - t0 for _, parent, t0, t1, _, _ in tracer.spans[first_span:]
                          if parent < 0)
                traced.append((raw_t, ys[-2], ys[-1], top))
            units.append(entry)
        r += 1
        if smoke or time.monotonic() - start >= seconds:
            return units, traced, r


def _trace_metrics(units, traced, tracer: Tracer) -> dict:
    """Per-operation layer figures of a traced run (yardstick-scaled s)."""
    ops = sum(u["ops"] for u in units) or 1
    scale = [NOMINAL_S / (0.5 * (yb + ya)) for _, yb, ya, _ in traced]
    layers, kernel_samples, kernel_under_search = layer_totals(tracer.spans, scale)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": []}

    def L(name):
        return layers.get(name, empty)

    kernel, search, eig = L("series.kernel"), L("solver.search"), L("eigensolver")
    zeros = sum(i[0] for i in search["info"])
    refine_calls = kernel_under_search - search["calls"]
    rows = sum(eig["info"])
    untraced = sum(u["raw_s"] * u["scale"] for u in units)
    traced_scaled = sum(raw * f for (raw, _, _, _), f in zip(traced, scale))
    traced_raw = sum(raw for raw, _, _, _ in traced)
    unaccounted = sum(raw - top for raw, _, _, top in traced)

    m = {
        "series.kernel_calls": (kernel["calls"] / ops, "count/op", "lower"),
        "series.kernel_points": (sum(i[0] for i in kernel["info"]) / ops, "count/op", "lower"),
        "series.kernel_s": (kernel["total_s"] / ops, "s/op", "lower"),
    }
    for n in (12, 24, 48):
        fixed, per_point = kernel_fit(kernel_samples, n)
        m[f"series.kernel_fixed_us.n{n}"] = (fixed, "us", "lower")
        m[f"series.kernel_ns_per_point.n{n}"] = (per_point, "ns", "lower")
    m.update({
        "series.recurse_calls": (L("series.recurse")["calls"] / ops, "count/op", "lower"),
        "series.recurse_s": (L("series.recurse")["total_s"] / ops, "s/op", "lower"),
        "solver.zero_searches": (search["calls"] / ops, "count/op", "lower"),
        "solver.zeros_found": (zeros / ops, "count/op", "higher"),
        "solver.kernel_calls_per_zero": (refine_calls / zeros if zeros else 0.0, "count", "lower"),
        "solver.search_self_s": (search["self_s"] / ops, "s/op", "lower"),
        "solver.unresolved_levels": (sum(i[1] for i in search["info"]) / ops, "count/op", "lower"),
        "solver.classify_calls": (L("solver.classify")["calls"] / ops, "count/op", "lower"),
        "solver.classify_s": (L("solver.classify")["total_s"] / ops, "s/op", "lower"),
        "solver.lift_search_calls": (L("solver.lift_search")["calls"] / ops, "count/op", "lower"),
        "solver.lift_search_s": (L("solver.lift_search")["total_s"] / ops, "s/op", "lower"),
        "solver.sweep_self_s": (L("solver.sweep")["self_s"] / ops, "s/op", "lower"),
        "solver.crossings_self_s": (L("solver.crossings")["self_s"] / ops, "s/op", "lower"),
        "fock.build_calls": (L("fock.build")["calls"] / ops, "count/op", "lower"),
        "fock.build_s": (L("fock.build")["total_s"] / ops, "s/op", "lower"),
        "fock.diagonalize_self_s": (L("fock.diagonalize")["self_s"] / ops, "s/op", "lower"),
        "eigensolver.calls": (eig["calls"] / ops, "count/op", "lower"),
        "eigensolver.rows": (rows / ops, "count/op", "lower"),
        "eigensolver.s": (eig["total_s"] / ops, "s/op", "lower"),
        "eigensolver.us_per_row": (eig["total_s"] / rows * 1e6 if rows else 0.0, "us", "lower"),
        "cli.self_s": (L("cli.main")["self_s"] / ops, "s/op", "lower"),
        "trace.wall_s_per_op": (traced_raw / ops, "s/op", "lower"),
        "trace.base_s_per_op": (untraced / ops, "s/op", "lower"),
        "trace.overhead": (traced_scaled / untraced if untraced else 0.0, "ratio", "lower"),
        "trace.unaccounted_share": (unaccounted / traced_raw if traced_raw else 0.0, "ratio", "lower"),
    })
    return m


WORKLOADS = {"sweep": SweepWork, "box": BoxWork, "oracle": OracleWork}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)

    work = WORKLOADS[args.workload](args.seed, args.smoke, out.parent)
    try:
        _timed(work.round(0)[0].op)  # untimed warm-up operation
        setup_raw = time.monotonic() - args.t0
        setup_s = setup_raw * NOMINAL_S / float(np.median([yardstick_s() for _ in range(3)]))
        result = {"workload": args.workload, "seed": args.seed,
                  "setup_raw_s": setup_raw, "setup_s": setup_s}
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            units, traced, rounds = _measure(work, args.seconds, args.smoke, tracer)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["rounds"] = rounds
            result["units"] = units
            if tracer is not None:
                result["trace"] = _trace_metrics(units, traced, tracer)
                result["unmeasured"] = tracer.unmeasured
                spans = out.parent / f"trace-{args.workload}-{args.seed}.json"
                spans.write_text(json.dumps({"unmeasured": tracer.unmeasured,
                                             "spans": tracer.spans}))
    finally:
        for path in out.parent.glob(f"box-{os.getpid()}.csv*"):
            path.unlink()
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
