"""Spectrum extraction from the connection functions.

Regular eigenvalues are zeros of G; the scanner excludes small windows
around every singular energy (the pole ladder plus the normalization pole),
brackets sign changes on the remaining grid, re-brackets between each window
edge and the pole itself (zeros can sit arbitrarily close to a pole near a
level crossing), and refines by bisection.  Candidate energies where the
sign change comes from a pole rather than a zero are rejected by comparing
|G| at the refined point against the bracket endpoints.

Exceptional candidates live on the pole ladder; a candidate is a two-fold
degenerate eigenvalue (a parity-crossing point) exactly when the recursion's
right-hand-side vector vanishes along with the step determinant.  Sweeps
over the coupling g assemble parity-labeled level tables, from which
crossings, avoided crossings and near-degeneracy onsets are detected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ModelParams,
    ParitySector,
    g0_levels,
    normalization_pole_energy,
    pole_energies,
    pole_index,
    sector_couplings,
    validate_params,
)
from .series import (
    DEFAULT_N_TERMS,
    SERIES_MIN_G,
    _exceptional_kernel,
    _g_kernel,
    _g_table,
)

__all__ = [
    "TrackingAmbiguity",
    "ExceptionalKind",
    "CrossingKind",
    "ExceptionalPoint",
    "CrossingEvent",
    "LevelEntry",
    "SpectrumTable",
    "find_regular_zeros",
    "classify_exceptional",
    "find_degenerate_g",
    "spectrum_sweep",
    "detect_crossings",
]

#: Half-width (in energy) of the exclusion window around singular energies.
POLE_WINDOW = 1e-4

#: Probe distance from a pole used to read off the sign of the divergence;
#: far outside the recursion's abort zone (~1e-9) yet deep inside the window.
POLE_PROBE = POLE_WINDOW * 1e-4

#: Bisection convergence in energy.
TOL_E = 1e-10

#: |G| ceiling under which a sign-preserving local minimum counts as a
#: grazing-zero candidate.
GRAZE_TOL = 1e-5

#: Relative residual below which the recursion vector counts as vanished.
TOL_V = 1e-8

#: Relative residual above which it is clearly nonzero.
CLEAR_V = 1e-4


class TrackingAmbiguity(RuntimeError):
    """Level continuation between sweep columns is ambiguous."""

    def __init__(self, g_column: float, detail: str = ""):
        super().__init__(f"ambiguous level tracking at g={g_column}" + (f": {detail}" if detail else ""))
        self.g_column = g_column


class ExceptionalKind(enum.Enum):
    DEGENERATE = "degenerate"
    NONDEGENERATE_CANDIDATE = "nondegenerate-candidate"
    UNRESOLVED = "unresolved"


class CrossingKind(enum.Enum):
    PARITY_CROSSING = "parity-crossing"
    AVOIDED_CROSSING = "avoided-crossing"
    NEAR_DEGENERACY_ONSET = "near-degeneracy-onset"


@dataclass(frozen=True)
class ExceptionalPoint:
    n: int
    energy: float
    x: float
    classification: ExceptionalKind
    residual: float


@dataclass(frozen=True)
class CrossingEvent:
    kind: CrossingKind
    g_at: float
    energy_at: float
    gap: float
    level_indices: tuple[tuple[int, int], tuple[int, int]]


class LevelEntry(NamedTuple):
    energy: float
    parity: int
    resolved: bool


@dataclass
class SpectrumTable:
    """Parity-labeled levels over a grid of couplings g.

    ``energy_resolution`` is the energy-scan spacing the columns were built
    with; crossing detection refuses to track levels that approach within
    half of it (the table cannot distinguish them there).
    """

    delta: float
    gamma: float
    g_grid: np.ndarray
    columns: list[list[LevelEntry]]
    requested_count: int
    energy_resolution: float = 0.0


def _singular_energies(
    params: ModelParams, sector: ParitySector, e_lo: float, e_hi: float
) -> np.ndarray:
    """All singular energies of G in [e_lo, e_hi]: pole ladder + normalization pole."""
    out = []
    n_lo = max(1, int(np.ceil(pole_index(params, sector, e_lo))))
    n_hi = int(np.floor(pole_index(params, sector, e_hi)))
    if n_hi >= n_lo:
        ladder = pole_energies(params, sector, n_hi)
        out.extend(e for n, e in ladder if n >= n_lo)
    e_star = normalization_pole_energy(params, sector)
    if e_lo <= e_star <= e_hi:
        out.append(e_star)
    return np.array(sorted(out))


def _refine_min_abs(params, sector, a, b, n_terms, iters=60):
    """Golden-section minimum of |G| on [a, b]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * inv_phi
    d = a + (b - a) * inv_phi
    fc = abs(_g_table(params, sector, np.array([c]), n_terms)[0][0])
    fd = abs(_g_table(params, sector, np.array([d]), n_terms)[0][0])
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv_phi
            fc = abs(_g_table(params, sector, np.array([c]), n_terms)[0][0])
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv_phi
            fd = abs(_g_table(params, sector, np.array([d]), n_terms)[0][0])
        if b - a < 1e-12:
            break
    return (0.5 * (a + b), min(fc, fd))


def find_regular_zeros(
    params: ModelParams,
    sector: ParitySector,
    e_min: float,
    e_max: float,
    grid: int,
    n_terms: int = DEFAULT_N_TERMS,
) -> list[tuple[float, bool]]:
    """Regular-spectrum zeros of G in [e_min, e_max].

    Returns (energy, resolved) pairs sorted by energy.  Bisected sign-change
    zeros are resolved; grazing candidates (a local |G| minimum below
    ``GRAZE_TOL`` without a sign change, typically an unresolved close pair
    of zeros) are emitted with resolved = False rather than dropped.
    """
    return _find_zeros_batch([(params, sector, e_min, e_max, grid)], n_terms)[0]


def _scan_zeros(params, sector, e_min, e_max, grid, n_terms):
    """Sign-change brackets and grazing candidates of one zero search.

    Returns (lo, hi, flo, bound, graze): bracket edges, G at the lower edge,
    the smaller |G| of the two edges, and the refined grazing candidates.
    """
    if not e_min < e_max:
        raise ValueError(f"e_min < e_max required (got {e_min}, {e_max})")
    if grid < 16:
        raise ValueError(f"grid >= 16 required (got {grid})")

    sing = _singular_energies(params, sector, e_min - POLE_WINDOW, e_max + POLE_WINDOW)
    base = np.linspace(e_min, e_max, grid)
    keep = np.ones(base.size, dtype=bool)
    for s in sing:
        keep &= np.abs(base - s) >= POLE_WINDOW

    extra = []
    for s in sing:
        for p in (s - POLE_WINDOW, s - POLE_PROBE, s + POLE_PROBE, s + POLE_WINDOW):
            if e_min <= p <= e_max:
                extra.append(p)
    pts = np.unique(np.concatenate([base[keep], np.array(extra)])) if extra else base[keep]
    if pts.size < 2:
        return (np.empty(0),) * 4 + ([],)

    values, _, _, dead = _g_table(params, sector, pts, n_terms)
    alive = ~dead & np.isfinite(values)
    pts = pts[alive]
    values = values[alive]
    if pts.size < 2:
        return (np.empty(0),) * 4 + ([],)

    # an interval is unusable if a singular energy lies strictly inside it
    pos = np.searchsorted(sing, pts)
    broken = pos[1:] != pos[:-1]
    idx = np.flatnonzero((np.sign(values[1:]) * np.sign(values[:-1]) < 0) & ~broken)
    bound = np.minimum(np.abs(values[idx]), np.abs(values[idx + 1]))

    # grazing candidates on the uniform part of the grid: a kept point and
    # both kept neighbours of one sign, with the smallest |G| of the three
    bv = np.interp(base, pts, values)  # exact at kept base points, which are in pts
    av, sv = np.abs(bv), np.sign(bv)
    graze_at = np.flatnonzero(
        keep[:-2] & keep[1:-1] & keep[2:] & (av[1:-1] < GRAZE_TOL)
        & (av[1:-1] <= av[:-2]) & (av[1:-1] <= av[2:])
        & (sv[:-2] == sv[1:-1]) & (sv[1:-1] == sv[2:])) + 1
    refined = [_refine_min_abs(params, sector, base[i - 1], base[i + 1], n_terms) for i in graze_at]
    graze = [(float(e_at), False) for e_at, f_at in refined if f_at < GRAZE_TOL]
    return pts[idx], pts[idx + 1], values[idx], bound, graze


def _find_zeros_batch(jobs, n_terms=DEFAULT_N_TERMS):
    """find_regular_zeros for each (params, sector, e_min, e_max, grid) job.

    Each job is scanned on its own; then the brackets of all jobs are bisected
    in lockstep, one kernel call per step on the brackets still moving.  A
    job's brackets keep moving until all of that job's brackets are within
    ``TOL_E``, so every job gets the roots it would get alone.
    """
    scans = [_scan_zeros(*job, n_terms) for job in jobs]
    owner = np.repeat(np.arange(len(jobs)), [scan[0].size for scan in scans])
    lo, hi, flo, bound = (np.concatenate([scan[k] for scan in scans]) for k in range(4))
    point = np.array([(*sector_couplings(params, sector), params.g, params.w)
                      for params, sector, *_ in jobs])[owner].T
    for _ in range(200):
        act = np.flatnonzero(np.isin(owner, owner[hi - lo > TOL_E]))
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        fm = _g_kernel(*(c[act] for c in point), mid, n_terms)[0]
        # nan cannot occur: brackets never contain a singular energy
        same = np.sign(fm) == np.sign(flo[act])
        lo[act] = np.where(same, mid, lo[act])
        flo[act] = np.where(same, fm, flo[act])
        hi[act] = np.where(same, hi[act], mid)
    roots = 0.5 * (lo + hi)
    at_root = _g_kernel(*point, roots, n_terms)[0]
    # a pole masquerading as a sign change explodes instead of collapsing
    found = np.isfinite(at_root) & (np.abs(at_root) < bound)
    near = max(4.0 * TOL_E, 1e-13)
    out = []
    for j, ((_, _, e_min, e_max, grid), scan) in enumerate(zip(jobs, scans)):
        spacing = (e_max - e_min) / (grid - 1)
        merged: list[tuple[float, bool]] = []
        for e, res in sorted([(float(r), True) for r in roots[(owner == j) & found]] + scan[4]):
            if merged and abs(e - merged[-1][0]) < max(near, 2.5 * spacing if not (res and merged[-1][1]) else near):
                if res and not merged[-1][1]:
                    merged[-1] = (e, res)
                continue
            merged.append((e, res))
        out.append(merged)
    return out


def _rung_vectors(delta_s, gamma_s, g, w, n):
    """Step-n vectors at E_pole(n) in one kernel call (see _exceptional_kernel).

    Returns ``(energy, r)``; ``r`` stacks the vector's two signed components
    on a leading axis, each relative to its largest monomial, 0 where that
    scale is 0 (the component vanishes identically, as the second one does
    at gamma = 0) and nan where the normalization degenerates.
    """
    v1, v2, scale1, scale2, energy = _exceptional_kernel(delta_s, gamma_s, g, w, n)
    v, scale = np.stack([v1, v2]), np.stack([scale1, scale2])
    r = np.where(scale > 0.0, v / np.where(scale > 0.0, scale, 1.0), v * 0.0)
    return energy, r


def _classify_rungs(params: ModelParams, sector: ParitySector, rungs):
    """classify_exceptional at each of ``rungs``, in one kernel call."""
    n = np.asarray(rungs)
    if np.any(n < 1):
        raise ValueError(f"n >= 1 required (got {n.min()})")
    energy, r = _rung_vectors(*sector_couplings(params, sector), params.g, params.w, n)
    points = []
    for k, e, residual in zip(n.tolist(), energy.tolist(), np.abs(r).max(axis=0).tolist()):
        if residual <= TOL_V:
            kind = ExceptionalKind.DEGENERATE
        elif residual >= CLEAR_V:
            kind = ExceptionalKind.NONDEGENERATE_CANDIDATE
        else:
            kind = ExceptionalKind.UNRESOLVED
        points.append(ExceptionalPoint(n=k, energy=e, x=e + params.g * params.g,
                                       classification=kind, residual=residual))
    return points


def classify_exceptional(
    params: ModelParams, sector: ParitySector, n: int
) -> ExceptionalPoint:
    """Classify the ladder candidate at E_pole(n).

    Degenerate (residual <= 1e-8): the singularity is lifted in both sectors
    and E_pole(n) is a two-fold degenerate eigenvalue, a parity crossing.
    Clearly nonzero residual (>= 1e-4): a nondegenerate-spectrum candidate,
    reported but never placed into level tables.  Anything between is
    Unresolved, and so is a rung where the normalization degenerates (its
    residual is nan).  Residuals are relative to each component's largest
    additive term (zero scale counts as zero residual, which settles the
    fully decoupled delta = gamma = 0 case where the vector vanishes
    identically).
    """
    return _classify_rungs(params, sector, [n])[0]


#: Bisection levels evaluated per kernel call in find_degenerate_g: 255
#: points, so the 0.002 scan spacing reaches 1e-9 in three calls.
_LIFT_LEVELS = 8


def find_degenerate_g(
    delta: float,
    gamma: float,
    sector: ParitySector,
    n: int,
    g_lo: float,
    g_hi: float,
    tol_g: float = 1e-6,
) -> float | None:
    """Coupling g_s in [g_lo, g_hi] at which the ladder-n singularity lifts.

    Solves for a sign change of the (normalized) recursion vector at
    E_pole(n) as a function of g; a component that vanishes identically
    (the second one at gamma = 0) is not required to change sign.  Returns
    None when no sign structure indicates a lift in the window (including
    the identically degenerate delta = gamma = 0 case, where the whole
    vector vanishes for every g).
    """
    g_lo = max(g_lo, SERIES_MIN_G)
    if not g_lo < g_hi:
        return None
    signs = sector_couplings(validate_params(delta, gamma, g_hi), sector)
    root_scale = math.sqrt(1.0 - gamma * gamma)

    def signed(gs):
        """Relative vector components at each g, nan where the normalization degenerates."""
        gs = np.asarray(gs, dtype=float)
        return _rung_vectors(*signs, gs, gs / root_scale, n)[1]

    n_pts = max(33, min(1025, int((g_hi - g_lo) / 0.002) + 2))
    gs = np.linspace(g_lo, g_hi, n_pts)
    r = signed(gs)
    a, b = r[:, :-1], r[:, 1:]
    flips = a * b < 0.0
    # every component that is not identically zero changes sign, and one does
    lift = np.all(flips | ((a == 0.0) & (b == 0.0)), axis=0) & np.any(flips, axis=0)
    for i in np.flatnonzero(lift):
        # the component to bisect on: the one further from 0 at both ends
        comp = int(np.argmax(np.where(flips[:, i], np.minimum(np.abs(a[:, i]), np.abs(b[:, i])), -1.0)))
        lo, hi = gs[i], gs[i + 1]
        flo = a[comp, i]
        for _ in range(200 // _LIFT_LEVELS):
            # the next _LIFT_LEVELS bisection levels in one call: every
            # midpoint they can reach, computed as bisection computes it,
            # level by level, so node k has children 2k + 1 and 2k + 2
            edges, levels = np.array([lo, hi]), []
            for _ in range(_LIFT_LEVELS):
                levels.append(0.5 * (edges[:-1] + edges[1:]))
                edges, old_edges = np.empty(2 * edges.size - 1), edges
                edges[0::2], edges[1::2] = old_edges, levels[-1]
            mids = np.concatenate(levels)
            r_mid = signed(mids)
            at, node = r_mid[comp].tolist(), 0
            while node < mids.size and hi - lo > tol_g and not math.isnan(at[node]):
                if np.sign(at[node]) == np.sign(flo):
                    lo, flo, node = mids[node], at[node], 2 * node + 2
                else:
                    hi, node = mids[node], 2 * node + 1
            if node < mids.size:
                break
        # the root is the midpoint bisection would evaluate next
        check = r_mid[:, node] if node < mids.size else signed([0.5 * (lo + hi)])[:, 0]
        if np.max(np.abs(check)) < 1e-3:
            return float(0.5 * (lo + hi))
    return None


def _scan_spacing(gamma: float) -> float:
    """Energy-scan step fine enough to separate same-parity level pairs."""
    return min(2e-3, (1.0 - abs(gamma)) / 8.0)


def _column_window(delta: float, gamma: float, g: float, level_count: int):
    """Initial energy window and scan density for one sweep column.

    The lower edge is a variational bound on the ground state,
    E0 >= -g^2/(1 - |gamma|) - delta; the upper edge starts from the free
    spectrum and is extended by the caller if the window comes up short.
    """
    params = validate_params(delta, gamma, g)
    e_lo = -g * g / (1.0 - abs(gamma)) - delta - 0.5
    cap = g0_levels(params, level_count)[-1].energy
    e_hi = cap + 1.0 + 0.5 * g
    return params, e_lo, e_hi, _scan_spacing(gamma)


def _add_degenerate(windows, columns) -> None:
    """Fill parity-crossing punctures with each window's degenerate ladder energies.

    ``windows`` holds one (params, e_lo, e_hi) per entry list in ``columns``;
    every rung of every window is classified in one kernel call.  At
    delta = gamma = 0 every level n - g^2 is a degenerate pair, n = 0
    included; rung 0 is the normalization pole, which the kernel cannot
    reach, so it is filled directly.
    """
    rungs = [np.arange(1, max(0, int(np.floor(pole_index(params, ParitySector.PLUS, e_hi)))) + 1)
             for params, _, e_hi in windows]
    owner = np.repeat(np.arange(len(windows)), [r.size for r in rungs])
    point = np.array([(*sector_couplings(params, ParitySector.PLUS), params.g, params.w, e_lo, e_hi)
                      for params, e_lo, e_hi in windows])[owner].T
    energy, r = _rung_vectors(*point[:4], np.concatenate(rungs))
    degenerate = np.abs(r).max(axis=0) <= TOL_V
    found = [(owner[i], float(energy[i]))
             for i in np.flatnonzero(degenerate & (energy >= point[4]) & (energy <= point[5]))]
    found += [(j, -params.g * params.g) for j, (params, _, _) in enumerate(windows)
              if params.delta == 0.0 and params.gamma == 0.0]
    for j, e in found:
        entries = columns[j]
        for parity in (1, -1):
            if not any(entry.parity == parity and abs(entry.energy - e) < 1e-7 for entry in entries):
                entries.append(LevelEntry(e, parity, True))


def _solve_columns(delta: float, gamma: float, g_grid, level_count: int, n_terms: int):
    """Lowest ``level_count`` levels of both sectors at each coupling of ``g_grid``.

    Returns one sorted LevelEntry list per coupling.  A coupling below the
    series floor gets the exact free-limit levels; the others are solved in
    one batched zero search per pass, with degenerate exceptional energies
    filling parity-crossing punctures.  A column that comes up short retries
    with its window's upper edge raised, up to 8 passes, and is returned
    short if it never fills.
    """
    free = [LevelEntry(lv.energy, lv.parity, True)
            for lv in g0_levels(validate_params(delta, gamma, 0.0), level_count)]
    columns = [list(free) if g < SERIES_MIN_G else [] for g in g_grid]
    # column index -> (params, e_lo, e_hi) of the series columns still to solve
    short = {j: _column_window(delta, gamma, float(g), level_count)[:3]
             for j, g in enumerate(g_grid) if g >= SERIES_MIN_G}
    spacing = _scan_spacing(gamma)
    sectors = (ParitySector.PLUS, ParitySector.MINUS)
    for _ in range(8):
        if not short:
            break
        zeros = iter(_find_zeros_batch(
            [(params, sector, e_lo, e_hi, max(64, int((e_hi - e_lo) / spacing) + 2))
             for params, e_lo, e_hi in short.values() for sector in sectors],
            n_terms))
        solved = {j: [LevelEntry(e, sector.sign, res) for sector in sectors for e, res in next(zeros)]
                  for j in short}
        _add_degenerate(list(short.values()), list(solved.values()))
        for j, entries in solved.items():
            entries.sort(key=lambda item: (item.energy, -item.parity))
            columns[j] = entries[:level_count]
            if len(entries) >= level_count:
                del short[j]
            else:
                params, e_lo, e_hi = short[j]
                short[j] = (params, e_lo, e_hi + 1.5)
    return columns


def spectrum_sweep(
    delta: float,
    gamma: float,
    g_min: float,
    g_max: float,
    g_steps: int,
    level_count: int,
    n_terms: int = DEFAULT_N_TERMS,
) -> SpectrumTable:
    """Lowest ``level_count`` levels of both sectors over a uniform g grid.

    The g = 0 column (anything below the series floor) is filled from the
    exact free-limit levels; degenerate exceptional energies fill
    parity-crossing punctures of the regular spectrum when a column lands on
    one.
    """
    if g_steps < 2:
        raise ValueError(f"g_steps >= 2 required (got {g_steps})")
    if level_count < 1:
        raise ValueError(f"level_count >= 1 required (got {level_count})")
    if not g_min < g_max:
        raise ValueError(f"g_min < g_max required (got {g_min}, {g_max})")
    for g in (g_min, g_max):
        validate_params(delta, gamma, g)
    g_grid = np.linspace(g_min, g_max, g_steps)
    return SpectrumTable(
        delta=delta, gamma=gamma, g_grid=g_grid,
        columns=_solve_columns(delta, gamma, g_grid, level_count, n_terms),
        requested_count=level_count, energy_resolution=_scan_spacing(gamma),
    )


def _tracked_matrix(table: SpectrumTable, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sorted energies of one parity, truncated to the common count."""
    per_column = [
        [entry for entry in column if entry.parity == parity]
        for column in table.columns
    ]
    k = min(len(entries) for entries in per_column)
    energies = np.array([[e.energy for e in entries[:k]] for entries in per_column])
    resolved = np.array([[e.resolved for e in entries[:k]] for entries in per_column])
    return energies, resolved


def _check_tracking(table: SpectrumTable, energies: np.ndarray) -> None:
    """Continuation sanity for sorted-index tracking within one parity.

    Same-parity levels never cross in this model, so sorted order is a valid
    continuation as long as adjacent levels stay distinguishable; once two of
    them approach within half the table's scan resolution the column cannot
    tell them apart and tracking refuses to guess.
    """
    if energies.shape[1] < 2 or table.energy_resolution <= 0.0:
        return
    gaps = np.diff(energies, axis=1)
    bad = gaps < 0.5 * table.energy_resolution
    if np.any(bad):
        j, k = np.argwhere(bad)[0]
        raise TrackingAmbiguity(
            float(table.g_grid[j]),
            f"levels {k} and {k + 1} are {gaps[j, k]:.3g} apart, below half "
            f"the scan resolution {table.energy_resolution:.3g}",
        )


def detect_crossings(table: SpectrumTable, gap_threshold: float) -> list[CrossingEvent]:
    """Crossing structure of a tracked level table.

    ParityCrossing: sign change of an opposite-parity pair gap, refined to
    the lift point of the corresponding ladder singularity (gap exactly 0).
    AvoidedCrossing: strict local minimum of an adjacent same-parity gap
    (always strictly positive).  NearDegeneracyOnset: the smallest g from
    which an opposite-parity pair gap stays below ``gap_threshold`` through
    the end of the window.

    Raises:
        TrackingAmbiguity: when two same-parity levels approach within half
            the table's scan resolution, where sorted-order continuation can
            no longer tell them apart.
    """
    g = np.asarray(table.g_grid, dtype=float)
    e_plus, _ = _tracked_matrix(table, 1)
    e_minus, _ = _tracked_matrix(table, -1)
    _check_tracking(table, e_plus)
    _check_tracking(table, e_minus)
    k_pairs = min(e_plus.shape[1], e_minus.shape[1])
    events: list[CrossingEvent] = []

    for k in range(k_pairs):
        gap = e_plus[:, k] - e_minus[:, k]
        for j in range(g.size - 1):
            if not (gap[j] == 0.0 or gap[j] * gap[j + 1] < 0.0):
                continue
            if gap[j] == 0.0 and j > 0 and gap[j - 1] == 0.0:
                continue
            frac = abs(gap[j]) / (abs(gap[j]) + abs(gap[j + 1])) if gap[j] != 0.0 else 0.0
            g_est = g[j] + frac * (g[j + 1] - g[j])
            e_est = e_plus[j, k] + frac * (e_plus[j + 1, k] - e_plus[j, k])
            params_mid = validate_params(table.delta, table.gamma, max(g_est, SERIES_MIN_G))
            n_est = int(round(pole_index(params_mid, ParitySector.PLUS, e_est)))
            g_at, e_at = g_est, e_est
            if n_est >= 1:
                refined = find_degenerate_g(
                    table.delta, table.gamma, ParitySector.PLUS, n_est,
                    g[j], g[j + 1], tol_g=1e-9,
                )
                if refined is not None:
                    g_at = refined
                    params_at = validate_params(table.delta, table.gamma, g_at)
                    e_at = pole_energies(params_at, ParitySector.PLUS, n_est)[n_est - 1][1]
            events.append(
                CrossingEvent(
                    kind=CrossingKind.PARITY_CROSSING,
                    g_at=float(g_at), energy_at=float(e_at), gap=0.0,
                    level_indices=((1, k), (-1, k)),
                )
            )

    for parity, mat in ((1, e_plus), (-1, e_minus)):
        for k in range(mat.shape[1] - 1):
            d = mat[:, k + 1] - mat[:, k]
            for j in range(1, g.size - 1):
                dip = min(d[j - 1], d[j + 1]) - d[j]
                if d[j] < d[j - 1] and d[j] < d[j + 1] and dip > max(1e-9, 1e-6 * d[j]):
                    denom = d[j - 1] - 2.0 * d[j] + d[j + 1]
                    shift = 0.5 * (d[j - 1] - d[j + 1]) / denom if denom > 0 else 0.0
                    shift = float(np.clip(shift, -1.0, 1.0))
                    g_at = g[j] + shift * (g[j + 1] - g[j])
                    events.append(
                        CrossingEvent(
                            kind=CrossingKind.AVOIDED_CROSSING,
                            g_at=float(g_at),
                            energy_at=float(0.5 * (mat[j, k] + mat[j, k + 1])),
                            gap=float(d[j]),
                            level_indices=((parity, k), (parity, k + 1)),
                        )
                    )

    for k in range(k_pairs):
        gap = np.abs(e_plus[:, k] - e_minus[:, k])
        below = gap < gap_threshold
        if below.size and below[-1] and np.any(below):
            tail = np.where(~below)[0]
            j_star = 0 if tail.size == 0 else int(tail[-1]) + 1
            events.append(
                CrossingEvent(
                    kind=CrossingKind.NEAR_DEGENERACY_ONSET,
                    g_at=float(g[j_star]),
                    energy_at=float(0.5 * (e_plus[j_star, k] + e_minus[j_star, k])),
                    gap=float(gap[j_star]),
                    level_indices=((1, k), (-1, k)),
                )
            )

    events.sort(key=lambda ev: (ev.g_at, ev.kind.value, ev.level_indices))
    return events
