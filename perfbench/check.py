"""Checks a workload's outputs against a reference computed apart from the program.

The reference builds the two parity chains of H in closed form and solves
them with scipy's ``eigh_tridiagonal`` (LAPACK), sharing no code with
starkspec.  In the chain of parity P = (-1)^n sigma_z = p, photon number n
carries spin up when (-1)^n = p; the diagonal is n(1+gamma)+Delta (up) or
n(1-gamma)-Delta (down) and the off-diagonal g*sqrt(n+1).

Run as its own process so that scipy and the reference data never enter the
process whose peak memory is reported:

    python3 perfbench/check.py RESULTS.json

prints ``{"units": [status, ...], "problems": [...]}``: one status per timed
unit, "ok", "fault" (the named truncation fault: in the box workload's fixed
invocation, a level marked resolved is more than 1e-6 from the reference) or
"fail" (anything else).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

import inputs

#: Tolerance the README of starkspec documents for series levels.
LEVEL_TOL = 1e-6
#: Oracle energies against the reference at the same cutoff.
ORACLE_TOL = 1e-9
#: Levels the oracle marks converged, against the cutoff-3000 reference.
CONVERGED_TOL = 1e-8
CONVERGED_CUTOFF = 3000
#: Cutoffs of the column reference; they must agree to REF_AGREE.
REF_CUTOFFS = (500, 700)
REF_AGREE = 1e-10


def chain(gamma: float, g: float, parity: int, cutoff: int):
    n = np.arange(cutoff + 1, dtype=float)
    up = (n % 2 == 0) if parity == 1 else (n % 2 == 1)
    d = np.where(up, n * (1.0 + gamma) + inputs.DELTA, n * (1.0 - gamma) - inputs.DELTA)
    return d, g * np.sqrt(n[1:])


def chain_levels(gamma: float, g: float, parity: int, count: int, cutoff: int) -> np.ndarray:
    d, e = chain(gamma, g, parity, cutoff)
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


@lru_cache(maxsize=4096)
def levels(gamma: float, g: float, parity: int, count: int) -> np.ndarray:
    """Lowest ``count`` exact levels of one parity, converged in the cutoff."""
    a, b = (chain_levels(gamma, g, parity, count, c) for c in REF_CUTOFFS)
    if np.max(np.abs(a - b)) > REF_AGREE:
        raise RuntimeError(f"reference not converged at gamma={gamma}, g={g}")
    return b


def merged(gamma: float, g: float, count: int, cutoff: int):
    """Lowest ``count`` levels of both chains at one cutoff, with parities."""
    both = [(e, p) for p in (1, -1)
            for e in chain_levels(gamma, g, p, min(count, cutoff + 1), cutoff)]
    both.sort(key=lambda item: (item[0], -item[1]))
    return both[:count]


def check_column(gamma: float, g: float, rows, requested: int):
    """(resolved level off the reference?, [problem, ...]) for one column."""
    problems = []
    off = False
    if len(rows) != requested:
        problems.append(f"g={g}: {len(rows)} levels, {requested} requested")
    if not rows:
        return off, problems
    top = max(e for e, _, _ in rows)
    for parity in (1, -1):
        mine = [(e, resolved) for e, p, resolved in rows if p == parity]
        ref = levels(gamma, g, parity, len(rows) + 1)
        for i, (e, resolved) in enumerate(mine):
            if resolved and abs(e - ref[i]) > LEVEL_TOL:
                off = True
                problems.append(f"g={g} parity {parity} level {i}: {e!r} "
                                f"vs reference {ref[i]!r}")
        below = int(np.sum(ref < top - LEVEL_TOL))
        if below > len(mine):
            problems.append(f"g={g} parity {parity}: {below - len(mine)} reference "
                            f"levels below the column's top level are missing")
    return off, problems


def check_columns(rec):
    problems = []
    for g, rows in zip(rec["g"], rec["columns"]):
        problems += check_column(rec["gamma"], g, rows, rec["levels"])[1]
    return problems


def check_crossings(rec):
    """Parity crossings against the reference's level order on the same grid."""
    problems = []
    g = np.array(rec["g"])
    counts: dict[int, int] = {}
    for kind, g_at, _, pa, ia, pb, ib in rec["events"]:
        if kind != "parity-crossing":
            continue
        counts[ia] = counts.get(ia, 0) + 1
        if pa == pb:
            problems.append(f"parity crossing at g={g_at} joins two levels of parity {pa}")
            continue
        j = int(np.searchsorted(g, g_at, side="right")) - 1
        if not 0 <= j < g.size - 1 and g_at != g[-1]:
            problems.append(f"parity crossing at g={g_at} lies outside the grid")
            continue
        j = min(j, g.size - 2)
        k = ia
        gaps = [levels(rec["gamma"], float(x), 1, k + 1)[k]
                - levels(rec["gamma"], float(x), -1, k + 1)[k] for x in g[j:j + 2]]
        if gaps[0] * gaps[1] > 0 and min(abs(gaps[0]), abs(gaps[1])) > 1e-9:
            problems.append(f"pair {k}: no reference swap in [{g[j]}, {g[j + 1]}] "
                            f"for the crossing at g={g_at}")
    if rec["gamma"] == 0.0:
        found = {n: counts.get(n, 0) for n in range(5)}
        if found[0] > 1 or any(found[n] != n for n in (1, 2, 3, 4)):
            problems.append(f"gamma=0 parity crossings per pair {found}, "
                            "expected pair n -> n for n=1..4")
    return problems


def parse_spectrum_csv(text: str):
    """{g: [[energy, parity, resolved], ...]} from `starkspec spectrum` CSV."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["g", "level_index", "parity", "energy", "resolved"]:
        raise ValueError(f"unexpected CSV header {header}")
    columns: dict[float, list] = {}
    seen: dict[tuple[float, int], int] = {}
    for g, index, parity, energy, resolved in reader:
        key = (float(g), int(parity))
        if int(index) != seen.get(key, 0):
            raise ValueError(f"level_index {index} out of order at g={g}")
        seen[key] = int(index) + 1
        columns.setdefault(float(g), []).append(
            [float(energy), int(parity), resolved == "true"])
    return columns


def check_box(rec):
    """(status, problems) of one `starkspec spectrum` invocation."""
    if rec["exit"] != 0:
        return "fail", [f"{' '.join(rec['argv'])}: exit code {rec['exit']}"]
    argv = rec["argv"]
    gamma = float(argv[argv.index("--gamma") + 1])
    try:
        columns = parse_spectrum_csv(rec["csv"])
    except ValueError as exc:
        return "fail", [str(exc)]
    problems = [] if len(columns) == 2 else [f"{len(columns)} columns, 2 requested"]
    off = False
    for g, rows in columns.items():
        col_off, col_problems = check_column(gamma, g, rows, inputs.BOX_LEVELS)
        off |= col_off
        problems += col_problems
    if not problems:
        return "ok", []
    fixed = (gamma, float(argv[argv.index("--gmin") + 1])) == inputs.BOX_FIXED_FAULT
    return ("fault" if off and fixed else "fail"), [f"gamma={gamma}: {p}" for p in problems]


def check_oracle(rec):
    problems = []
    ref = merged(rec["gamma"], rec["g"], len(rec["energies"]), rec["cutoff"])
    for i, (e, p) in enumerate(zip(rec["energies"], rec["parities"])):
        if abs(e - ref[i][0]) > ORACLE_TOL:
            problems.append(f"level {i}: {e!r} vs reference {ref[i][0]!r}")
        elif p != ref[i][1] and not any(q == p and abs(x - e) <= ORACLE_TOL for x, q in ref):
            problems.append(f"level {i}: parity {p} vs reference {ref[i][1]}")
    if rec["converged"]:
        far = merged(rec["gamma"], rec["g"], rec["converged"], CONVERGED_CUTOFF)
        for i in range(rec["converged"]):
            if abs(rec["energies"][i] - far[i][0]) > CONVERGED_TOL:
                problems.append(f"level {i} marked converged: {rec['energies'][i]!r} "
                                f"vs cutoff-{CONVERGED_CUTOFF} {far[i][0]!r}")
    where = f"gamma={rec['gamma']} g={rec['g']} cutoff={rec['cutoff']}: "
    return [where + p for p in problems]


def check(results) -> dict:
    units = results["units"]
    status = ["ok"] * len(units)
    problems = []
    for i, unit in enumerate(units):
        if unit["error"] is not None:
            status[i] = "fail"
            problems.append(unit["error"])
        else:
            rec = unit["record"]
            if rec["kind"] == "box":
                status[i], found = check_box(rec)
            else:
                found = {"columns": check_columns, "crossings": check_crossings,
                         "oracle": check_oracle}[rec["kind"]](rec)
                if found:
                    status[i] = "fail"
            problems += found
        if status[i] != "ok":
            for pos in unit["covers"]:
                status[i - unit["pos"] + pos] = "fail"
    return {"units": status, "problems": problems}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: check.py RESULTS.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        results = json.load(fh)
    print(json.dumps(check(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
