"""Command-line interface and serialization.

Six subcommands map onto the solver layers; every data emitter is
deterministic (no timestamps, 17 significant digits, LF line endings) so
repeated identical invocations produce byte-identical files.  Run metadata
goes to a JSON sidecar next to the output file, never into the data file.

Exit codes: 0 success, 1 soft comparison failure (compare --tol exceeded),
2 invalid command line, 3 domain error in the physics parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fock import build_hamiltonian, diagonalize
from .model import (
    DomainError,
    ParitySector,
    validate_params,
)
from .series import DEFAULT_N_TERMS, GSample, g_profile
from .solver import (
    detect_crossings,
    spectrum_sweep,
    _classify_rungs,
    _solve_columns,
)

_DEFAULTS = {
    "delta": 0.4,
    "gamma": 0.0,
    "g": 0.4,
    "xmin": -1.0,
    "xmax": 2.0,
    "grid": 600,
    "nterms": DEFAULT_N_TERMS,
    "strict": False,
    "gmin": 0.0,
    "gmax": 1.6,
    "gsteps": 400,
    "levels": 14,
    "nmax": 3,
    "cutoff": 200,
    "tol": 1e-6,
    "gap_threshold": 4e-5,
    "format": "csv",
    "out": None,
    "config": None,
}

#: Smallest valid value of each count option.
_COUNT_MIN = {"grid": 2, "nterms": 1, "gsteps": 2, "levels": 1, "nmax": 1, "cutoff": 1}


class UsageError(ValueError):
    """An option value no command can run with (exit code 2)."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.17g}"


def _emit(header: list[str], rows: list[list], fmt: str, out, meta: dict) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records, indent=1) + "\n"
    _write(text, out, meta)


def _write(text: str, out, meta: dict) -> None:
    """Data to stdout, or to ``out`` with the metadata in a sidecar."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.write_text(text, newline="\n")
        sidecar = path.with_name(path.name + ".meta.json")
        sidecar.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", newline="\n")


def _meta(args, subcommand: str, **extra) -> dict:
    meta = {
        "tool": "starkspec",
        "version": __version__,
        "subcommand": subcommand,
        "params": {"delta": args.delta, "gamma": args.gamma},
        "nterms": getattr(args, "nterms", None),
        "strict": getattr(args, "strict", False),
    }
    meta.update(extra)
    return meta


def cmd_gfun(args) -> int:
    params = validate_params(args.delta, args.gamma, args.g)
    n_terms = args.nterms
    prof_p = g_profile(params, ParitySector.PLUS, args.xmin, args.xmax, args.grid, n_terms)
    prof_m = g_profile(params, ParitySector.MINUS, args.xmin, args.xmax, args.grid, n_terms)
    if args.strict:
        chk_p = g_profile(params, ParitySector.PLUS, args.xmin, args.xmax, args.grid, 2 * n_terms)
        chk_m = g_profile(params, ParitySector.MINUS, args.xmin, args.xmax, args.grid, 2 * n_terms)
        prof_p = [_strict_merge(a, b) for a, b in zip(prof_p, chk_p)]
        prof_m = [_strict_merge(a, b) for a, b in zip(prof_m, chk_m)]
    rows = []
    for sp, sm in zip(prof_p, prof_m):
        rows.append([
            sp.x, sp.energy,
            None if math.isnan(sp.value) else sp.value,
            None if math.isnan(sm.value) else sm.value,
            sp.reliable, sm.reliable,
        ])
    header = ["x", "E", "G_plus", "G_minus", "reliable_plus", "reliable_minus"]
    _emit(header, rows, args.format, args.out,
          _meta(args, "gfun", g=args.g, window=[args.xmin, args.xmax], grid=args.grid))
    return 0


def _strict_merge(sample, check):
    """Doubled-truncation check: keep the finer value, require agreement."""
    if math.isnan(sample.value) or math.isnan(check.value):
        return check
    agree = abs(sample.value - check.value) <= 1e-8 * (1.0 + abs(check.value))
    return GSample(energy=check.energy, x=check.x, value=check.value,
                   reliable=check.reliable and agree)


def _sweep(args):
    n_terms = 2 * args.nterms if args.strict else args.nterms
    return spectrum_sweep(args.delta, args.gamma, args.gmin, args.gmax, args.gsteps,
                          args.levels, n_terms=n_terms)


def cmd_spectrum(args) -> int:
    table = _sweep(args)
    header = ["g", "level_index", "parity", "energy", "resolved"]
    blocks = []
    for g, column in zip(table.g_grid, table.columns):
        index = {1: 0, -1: 0}
        blocks.append([])
        for entry in column:
            blocks[-1].append([float(g), index[entry.parity], entry.parity,
                               entry.energy, entry.resolved])
            index[entry.parity] += 1
    if args.format == "json":
        payload = [{"g": float(g), "levels": [dict(zip(header[1:], row[1:])) for row in block]}
                   for g, block in zip(table.g_grid, blocks)]
        _write(json.dumps(payload, indent=1) + "\n", args.out, _meta(args, "spectrum"))
        return 0
    _emit(header, [row for block in blocks for row in block], args.format, args.out,
          _meta(args, "spectrum", g_window=[args.gmin, args.gmax],
                gsteps=args.gsteps, levels=args.levels))
    return 0


def cmd_poles(args) -> int:
    params = validate_params(args.delta, args.gamma, args.g)
    rows = []
    for point in _classify_rungs(params, ParitySector.PLUS, range(1, args.nmax + 1)):
        rows.append([point.n, point.energy, point.x,
                     point.classification.value, point.residual])
    header = ["n", "E_pole", "x_pole", "classification", "residual"]
    _emit(header, rows, args.format, args.out,
          _meta(args, "poles", g=args.g, nmax=args.nmax))
    return 0


def cmd_crossings(args) -> int:
    events = detect_crossings(_sweep(args), args.gap_threshold)
    rows = [
        [ev.kind.value, ev.g_at, ev.energy_at, ev.gap,
         ev.level_indices[0][0], ev.level_indices[0][1],
         ev.level_indices[1][0], ev.level_indices[1][1]]
        for ev in events
    ]
    header = ["kind", "g", "energy", "gap",
              "parity_a", "index_a", "parity_b", "index_b"]
    _emit(header, rows, args.format, args.out,
          _meta(args, "crossings", gap_threshold=args.gap_threshold))
    return 0


def cmd_oracle(args) -> int:
    params = validate_params(args.delta, args.gamma, args.g)
    h = build_hamiltonian(params, args.cutoff)
    spectrum = diagonalize(h, args.levels)
    rows = [
        [i, float(spectrum.energies[i]), int(spectrum.parities[i]),
         i < spectrum.converged_count]
        for i in range(args.levels)
    ]
    header = ["index", "energy", "parity", "converged"]
    _emit(header, rows, args.format, args.out,
          _meta(args, "oracle", g=args.g, cutoff=args.cutoff))
    return 0


def cmd_compare(args) -> int:
    params = validate_params(args.delta, args.gamma, args.g)
    n_terms = max(2 * args.nterms if args.strict else args.nterms, 48)
    h = build_hamiltonian(params, args.cutoff)
    spectrum = diagonalize(h, 2 * args.levels + 4)
    oracles = [[float(e) for e, p in zip(spectrum.energies, spectrum.parities)
                if p == parity][: args.levels] for parity in (1, -1)]
    # the series column is solved like a spectrum column, without the oracle
    (column,) = _solve_columns(args.delta, args.gamma, [args.g], 2 * args.levels + 4, n_terms)
    rows = []
    worst = 0.0
    missing = False
    for parity, oracle in zip((1, -1), oracles):
        series = [entry.energy for entry in column
                  if entry.parity == parity and entry.resolved][: args.levels]
        for i in range(args.levels):
            if i < len(series) and i < len(oracle):
                diff = abs(series[i] - oracle[i])
                worst = max(worst, diff)
                rows.append([parity, i, series[i], oracle[i], diff])
            else:
                missing = True
                rows.append([parity, i,
                             series[i] if i < len(series) else None,
                             oracle[i] if i < len(oracle) else None, None])
    header = ["parity", "level_index", "energy_series", "energy_oracle", "abs_diff"]
    _emit(header, rows, args.format, args.out,
          _meta(args, "compare", g=args.g, cutoff=args.cutoff, tol=args.tol,
                max_abs_diff=worst))
    print(f"max|diff| = {worst:.3e} (tol {args.tol:g})", file=sys.stderr)
    if missing or worst > args.tol:
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkspec",
        description="Energy spectrum of the quantum Rabi-Stark model "
                    "(series connection functions + Fock-basis cross-check).",
    )
    parser.add_argument("--version", action="version", version=f"starkspec {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, fixed_g: bool, series: bool = True):
        p.add_argument("--delta", type=float, help="two-level splitting (units of omega)")
        p.add_argument("--gamma", type=float, help="Stark coupling, |gamma| < 1")
        if fixed_g:
            p.add_argument("--g", type=float, help="Rabi coupling (units of omega)")
        if series:
            p.add_argument("--nterms", type=int, help="series truncation order (default 12)")
            p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                           help="doubled-truncation self-check")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--out", help="output path (default stdout; '-' for stdout)")
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("gfun", help="sample G+/G- over a window in x = E + g^2")
    common(p, fixed_g=True)
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--grid", type=int)
    p.set_defaults(func=cmd_gfun)

    p = sub.add_parser("spectrum", help="level table over a range of g")
    common(p, fixed_g=False)
    p.add_argument("--gmin", type=float)
    p.add_argument("--gmax", type=float)
    p.add_argument("--gsteps", type=int)
    p.add_argument("--levels", type=int)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("poles", help="classify ladder singularities at fixed g")
    common(p, fixed_g=True, series=False)
    p.add_argument("--nmax", type=int)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("crossings", help="crossing events of a spectrum sweep")
    common(p, fixed_g=False)
    p.add_argument("--gmin", type=float)
    p.add_argument("--gmax", type=float)
    p.add_argument("--gsteps", type=int)
    p.add_argument("--levels", type=int)
    p.add_argument("--gap-threshold", dest="gap_threshold", type=float)
    p.set_defaults(func=cmd_crossings)

    p = sub.add_parser("oracle", help="truncated-Fock diagonalization")
    common(p, fixed_g=True, series=False)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--levels", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="series vs oracle, level by level")
    common(p, fixed_g=True)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--levels", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_compare)

    return parser


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options: flags > config file > built-in defaults."""
    config = {}
    if getattr(args, "config", None):
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise UsageError("config file must hold a single JSON object")
    for key, fallback in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, fallback))
    return args


def _check_args(args: argparse.Namespace) -> None:
    """Reject option values, from flags or config, that no command can use."""
    for key, default in _DEFAULTS.items():
        value = getattr(args, key, default)
        if type(default) is float and type(value) not in (int, float):
            raise UsageError(f"--{key.replace('_', '-')} must be a number (got {value!r})")
    for key, low in _COUNT_MIN.items():
        value = getattr(args, key, low)
        if type(value) is not int or value < low:
            raise UsageError(f"--{key} must be an integer >= {low} (got {value!r})")
    for lo, hi in (("gmin", "gmax"), ("xmin", "xmax")):
        if hasattr(args, lo) and not getattr(args, lo) < getattr(args, hi):
            raise UsageError(f"--{lo} must be below --{hi} (got {getattr(args, lo)!r}, "
                             f"{getattr(args, hi)!r})")
    # oracle lists --levels levels of both parities; compare asks the
    # oracle for 2 * levels + 4 of them.
    if args.subcommand not in ("oracle", "compare"):
        return
    high = 2 * (args.cutoff + 1) if args.subcommand == "oracle" else args.cutoff - 1
    if args.levels > high:
        raise UsageError(f"--levels must be <= {high} at --cutoff {args.cutoff} "
                         f"for {args.subcommand} (got {args.levels})")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Turn ``--opt -1e-05`` into ``--opt=-1e-05``: argparse reads a token
    starting with '-' as an option unless it is a number in fixed-point form."""
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        args = _apply_config(args)
        _check_args(args)
        return args.func(args)
    except DomainError as exc:
        print(f"starkspec: domain error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"starkspec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
