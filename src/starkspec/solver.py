"""Spectrum extraction from the connection functions.

Regular eigenvalues are zeros of G.  The singular energies (the pole ladder
plus the normalization pole) cut an energy window into pole intervals, on
which G is smooth; one ladder spacing holds at most two zeros.  Each
interval is sampled at its ends, ``POLE_PROBE`` short of its poles, and at
Chebyshev nodes.  A sign change between neighbouring samples is a bracket.
A local minimum of |G| between samples of one sign s may hide a close pair
of zeros: s * G is minimised there until a sample goes negative (two
brackets) or the minimum is shown positive.  Brackets are refined by
Illinois steps.  A grazing minimum that stays positive but below
``GRAZE_TOL`` is reported as an unresolved candidate.

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

#: Distance from a singular energy at which its pole interval ends: far
#: outside the recursion's abort zone (~1e-9), yet close enough that a zero
#: hugging a pole near a lift is still bracketed.
POLE_PROBE = 1e-8

#: Bracket convergence in energy.
TOL_E = 1e-10

#: Chebyshev nodes per pole interval and per ladder spacing of its width;
#: a search's ``grid`` may raise it.
_NODES = 16

#: Ladder spacings by which a search widens its window on each side: a pair
#: of zeros just inside the window then lies between samples, never beyond
#: the last one.  Zeros in the margins are dropped.
_MARGIN = 0.01

#: New samples on each side of a signed minimum per multisection step.
_SIDE = 4

#: Full-depth bracket width of a signed minimum: the closest same-parity
#: pair of zeros the search sets out to split.
_PAIR_RESOLUTION = 1e-9

#: Points per kernel call of a zero search; bounds its working set.
_SLICE = 2048

#: Cap on the Illinois steps of one bracket.
_MAX_STEPS = 200

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

    ``energy_resolution`` is the closest same-parity pair separation the
    zero search sets out to resolve (the full-depth width of its signed
    minimum); crossing detection refuses to track levels that approach within
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


def find_regular_zeros(
    params: ModelParams,
    sector: ParitySector,
    e_min: float,
    e_max: float,
    grid: int,
    n_terms: int = DEFAULT_N_TERMS,
) -> list[tuple[float, bool]]:
    """Regular-spectrum zeros of G in [e_min, e_max].

    Returns (energy, resolved) pairs sorted by energy.  ``grid`` (>= 16) is
    a floor on the number of G samples, spread over the pole intervals by
    width; every interval gets at least 16 Chebyshev nodes, and 16 per
    ladder spacing of its width.  Refined sign-change zeros are resolved;
    grazing candidates (a positive minimum of |G| below ``GRAZE_TOL`` that
    no sign change splits down to the width ``_PAIR_RESOLUTION``) are
    emitted with resolved = False rather than dropped.
    """
    return _find_zeros_batch([(params, sector, e_min, e_max, grid)], n_terms)[0]


def _pole_intervals(jobs):
    """The pole intervals of every (params, sector, e_min, e_max, grid) job.

    Each window, widened by ``_MARGIN`` ladder spacings on both sides, is
    cut at its singular energies, every interval ending ``POLE_PROBE`` short
    of a pole.  Returns ``(owner, lo, hi, key, poles, nodes)`` per interval:
    its job, its edges, its place on the ladder (2 * floor of the pole index
    at its midpoint, plus 1 above the normalization pole), the singular
    energies just below and above it (nan at a window edge) and its
    Chebyshev node count: ``_NODES`` per ladder spacing of width, at least
    ``_NODES``, and more where the job's ``grid``, spread over its intervals
    by width, asks for more.
    """
    parts = []
    for j, (params, sector, e_min, e_max, grid) in enumerate(jobs):
        if not e_min < e_max:
            raise ValueError(f"e_min < e_max required (got {e_min}, {e_max})")
        if grid < _NODES:
            raise ValueError(f"grid >= {_NODES} required (got {grid})")
        spacing = 1.0 - params.gamma ** 2
        e_lo, e_hi = e_min - _MARGIN * spacing, e_max + _MARGIN * spacing
        sing = _singular_energies(params, sector, e_lo - POLE_PROBE, e_hi + POLE_PROBE)
        lo = np.concatenate([[e_lo], sing + POLE_PROBE])
        hi = np.concatenate([sing - POLE_PROBE, [e_hi]])
        poles = np.stack([np.concatenate([[np.nan], sing]), np.concatenate([sing, [np.nan]])], axis=1)
        keep = lo < hi
        lo, hi, poles = lo[keep], hi[keep], poles[keep]
        mid = 0.5 * (lo + hi)
        key = (2 * np.floor(pole_index(params, sector, mid)).astype(int)
               + (mid > normalization_pole_energy(params, sector)))
        width = hi - lo
        nodes = np.ceil(np.maximum(_NODES * np.maximum(1.0, width / spacing),
                                   grid * width / width.sum())).astype(int)
        parts.append((np.full(lo.size, j), lo, hi, key, poles, nodes))
    return tuple(np.concatenate(column) for column in zip(*parts))


class _Brackets:
    """Sign-change brackets under lockstep Illinois steps (Dowell & Jarratt 1971).

    The steps run on (E - p_lo)(p_hi - E) G(E), with p_lo and p_hi the poles
    at the edges of the bracket's interval (a window edge contributes no
    factor): inside the interval it has the zeros and signs of G but no
    poles, so a bracket next to a pole converges as fast as any other.
    ``x`` holds each bracket's (lo, hi) and ``w`` that function there, the
    value of an edge kept twice in a row halved; ``start`` holds the first
    (lo, hi).  ``bound`` is the smaller |G| at the first edges: a zero
    refines to below it, a pole's sign change would not.
    """

    def __init__(self, iv, x, f, poles):
        self.iv, self.x, self.start, self.poles = iv, x, x.copy(), poles
        self.w = f * self._pole_free(x)
        self.bound = np.abs(f).min(axis=1, initial=np.inf)
        self.last = np.zeros(iv.size, dtype=int)  # +1: lo moved on the last step, -1: hi did
        self.steps = np.zeros(iv.size, dtype=int)

    def _pole_free(self, x, act=slice(None)):
        """The factor (E - p_lo)(p_hi - E) at each of the energies ``x`` (one row per bracket)."""
        distance = np.abs(x[..., None] - self.poles[act, None, :])
        return np.prod(np.where(np.isnan(distance), 1.0, distance), axis=-1)

    def extend(self, other: "_Brackets") -> None:
        for name in ("iv", "x", "start", "poles", "w", "bound", "last", "steps"):
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))

    def moving(self) -> np.ndarray:
        return np.flatnonzero((self.x[:, 1] - self.x[:, 0] > TOL_E) & (self.steps < _MAX_STEPS))

    def points(self, act):
        """The secant root through the weighted edges, or the midpoint where
        that leaves the bracket or is not finite.  A secant root within
        TOL_E / 2 of an edge moves to that distance (as in Brent's method), so
        a bracket whose one edge has converged closes in one more step."""
        (lo, hi), (wlo, whi) = self.x[act].T, self.w[act].T
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = (lo * whi - hi * wlo) / (whi - wlo)
        xn = np.where((xn > lo) & (xn < hi), xn, 0.5 * (lo + hi))
        return np.clip(xn, lo + 0.5 * TOL_E, hi - 0.5 * TOL_E)

    def update(self, act, xn, fn) -> None:
        x, w, last = self.x[act], self.w[act], self.last[act]
        fn = fn * self._pole_free(xn[:, None], act)[:, 0]
        up = np.sign(fn) == np.sign(w[:, 0])  # the zero lies above xn, which replaces lo
        # an edge kept for the second step in a row has its value halved
        w[:, 1] = np.where(up & (last == 1), 0.5 * w[:, 1], w[:, 1])
        w[:, 0] = np.where(~up & (last == -1), 0.5 * w[:, 0], w[:, 0])
        rows, side = np.arange(act.size), np.where(up, 0, 1)
        x[rows, side], w[rows, side] = xn, fn
        x[fn == 0.0] = xn[fn == 0.0, None]  # an exact zero closes its bracket
        self.x[act], self.w[act] = x, w
        self.last[act] = np.where(up, 1, -1)
        self.steps[act] += 1

    def roots(self) -> np.ndarray:
        return 0.5 * (self.x[:, 0] + self.x[:, 1])


# states of a signed minimum
_MOVING, _CERTIFIED, _FULL, _SPLIT = range(4)


class _Minima:
    """Local minima of s * G, s the sign of G around them, by lockstep multisection.

    ``x`` holds each minimum's samples (a, m, b), with s * G at m no larger
    than at a and b, and ``f`` holds s * G there.  A step samples ``_SIDE``
    new points on each side of m and keeps the smallest sample with its
    neighbours.  A minimum stops when a sample goes negative (two zeros,
    ``_SPLIT``), when it is certified positive (``_CERTIFIED``: at or above
    ``GRAZE_TOL``, with the parabola through its three samples keeping its
    vertex above half of it) or at the full-depth width ``_PAIR_RESOLUTION``
    (``_FULL``).  A ``deep`` minimum is never certified.
    """

    def __init__(self, iv, s, x, f):
        self.iv, self.s, self.x, self.f = iv, s, x, f
        self.deep = np.zeros(iv.size, dtype=bool)
        self.state = np.where(self._certified(np.arange(iv.size)), _CERTIFIED, _MOVING)

    def _certified(self, act):
        (a, m, b), (fa, fm, fb) = self.x[act].T, self.f[act].T
        with np.errstate(invalid="ignore"):
            d1 = (fm - fa) / (m - a)
            c2 = ((fb - fm) / (b - m) - d1) / (b - a)
            slope = d1 + c2 * (m - a)  # the parabola's slope at m
            return ~self.deep[act] & (fm >= GRAZE_TOL) & (slope * slope < 2.0 * c2 * fm)

    def moving(self) -> np.ndarray:
        return np.flatnonzero(self.state == _MOVING)

    def deepen(self, idx) -> None:
        self.deep[idx] = True
        self.state[idx] = _MOVING

    def points(self, act):
        (a, m, b), frac = self.x[act].T, np.arange(1, _SIDE + 1) / (_SIDE + 1)
        return np.concatenate([a[:, None] + (m - a)[:, None] * frac,
                               m[:, None] + (b - m)[:, None] * frac], axis=1)

    def update(self, act, xn, fn):
        """One multisection step; returns ``(interval, x, G)`` of the brackets
        of the minima that split."""
        x, f = self.x[act], self.f[act]
        fs = np.where(np.isnan(fn), np.inf, self.s[act, None] * fn)
        X = np.concatenate([x[:, :1], xn[:, :_SIDE], x[:, 1:2], xn[:, _SIDE:], x[:, 2:]], axis=1)
        F = np.concatenate([f[:, :1], fs[:, :_SIDE], f[:, 1:2], fs[:, _SIDE:], f[:, 2:]], axis=1)
        rows = np.arange(act.size)[:, None]
        k = 1 + np.argmin(F[:, 1:-1], axis=1)[:, None]
        self.x[act], self.f[act] = X[rows, k + [-1, 0, 1]], F[rows, k + [-1, 0, 1]]
        split = F[rows, k][:, 0] < 0.0
        full = self.x[act, 2] - self.x[act, 0] <= _PAIR_RESOLUTION
        self.state[act] = np.where(split, _SPLIT, np.where(
            full, _FULL, np.where(self._certified(act), _CERTIFIED, _MOVING)))
        # each bracket ends at the nearest sample of sign s on its side, not
        # at the smallest sample's neighbours, which may be negative too
        idx = np.arange(X.shape[1])
        left = np.where((F >= 0.0) & (idx < k), idx, -1).max(axis=1)[split]
        right = np.where((F >= 0.0) & (idx > k), idx, X.shape[1]).min(axis=1)[split]
        r, s = rows[split, 0], self.s[act[split], None]
        edges = [np.stack([left, left + 1], axis=1), np.stack([right - 1, right], axis=1)]
        return (np.tile(self.iv[act[split]], 2), np.concatenate([X[r[:, None], e] for e in edges]),
                np.concatenate([s * F[r[:, None], e] for e in edges]))

    def grazing(self) -> np.ndarray:
        """Minima that stayed positive, yet below ``GRAZE_TOL``, at full depth."""
        return np.flatnonzero((self.state == _FULL) & (self.f[:, 1] < GRAZE_TOL))


def _find_zeros_batch(jobs, n_terms=DEFAULT_N_TERMS, lifts=None):
    """find_regular_zeros for each (params, sector, e_min, e_max, grid) job (see _search)."""
    owner, brackets, found, minima = _search(jobs, n_terms, lifts)
    graze = minima.grazing()
    out: list[list[tuple[float, bool]]] = [[] for _ in jobs]
    for iv, energies, ok in ((brackets.iv[found], brackets.roots()[found], True),
                             (minima.iv[graze], minima.x[graze, 1], False)):
        for j, e in zip(owner[iv].tolist(), energies.tolist()):
            if jobs[j][2] <= e <= jobs[j][3]:  # not in the margins
                out[j].append((e, ok))
    return [sorted(zeros) for zeros in out]


def _search(jobs, n_terms, lifts=None):
    """The zero search of a batch of (params, sector, e_min, e_max, grid) jobs.

    Returns ``(owner, brackets, found, minima)``: the job of each pole
    interval, the refined _Brackets, which of their roots pass the pole
    check, and the _Minima.

    Every pole interval of every job is sampled in one batched evaluation,
    at its two ends and its Chebyshev nodes.  A sign change between neighbouring
    samples is a bracket; every other local minimum of |G| is searched for a
    hidden pair of zeros (see _Minima).  Minima and brackets then
    move in lockstep, one batched evaluation per step over all of them that
    still move, and each stops on its own state: a bracket once it is within
    ``TOL_E``.

    Once no minimum moves, each interval with poles at both edges has its
    zero count compared with the same interval (same ladder key) of the
    previous job of the same sector and couplings.  Where the two differ and
    no lift explains it (``lifts`` holds each job's degenerate energies, and
    a lift on one of the interval's poles does), both intervals' certified
    minima move on to full depth.  That check is the only way the other jobs
    of a batch can change a job's zeros.
    """
    owner, lo, hi, key, poles, nodes = _pole_intervals(jobs)
    point = np.array([(*sector_couplings(params, sector), params.g, params.w)
                      for params, sector, *_ in jobs]).T

    def kernel(interval, energies):
        # in slices: a large batch never holds the per-point couplings and
        # kernel terms of more than one slice at a time
        return np.concatenate([
            _g_kernel(*point[:, owner[interval[i:i + _SLICE]]], energies[i:i + _SLICE], n_terms)[0]
            for i in range(0, max(1, energies.size), _SLICE)])

    # the two ends and the Chebyshev nodes of every interval, ascending
    size = nodes + 2
    first = np.cumsum(size) - size
    iv = np.repeat(np.arange(lo.size), size)
    at = np.arange(iv.size) - first[iv]
    half = 0.5 * (hi - lo)[iv]
    node = lo[iv] + half * (1.0 - np.cos((2 * at - 1) * np.pi / (2 * nodes[iv])))
    x = np.where(at == 0, lo[iv], np.where(at == size[iv] - 1, hi[iv], node))
    f = kernel(iv, x)

    flip = np.flatnonzero((iv[1:] == iv[:-1]) & (np.sign(f[1:]) * np.sign(f[:-1]) < 0.0))
    brackets = _Brackets(iv[flip], np.stack([x[flip], x[flip + 1]], axis=1),
                         np.stack([f[flip], f[flip + 1]], axis=1), poles[iv[flip]])

    # every sample whose |G| is a local minimum between neighbours of its own
    # sign may hide a pair of zeros; an interval's end has no outer neighbour
    # (there, the minimum is a pole's)
    i = np.flatnonzero((at > 0) & (at < size[iv] - 1))
    i = i[(np.sign(f[i - 1]) == np.sign(f[i])) & (np.sign(f[i + 1]) == np.sign(f[i]))
          & (np.abs(f[i]) < np.abs(f[i - 1])) & (np.abs(f[i]) <= np.abs(f[i + 1]))]
    s = np.sign(f[i])
    minima = _Minima(iv[i], s, np.stack([x[i - 1], x[i], x[i + 1]], axis=1),
                     s[:, None] * np.stack([f[i - 1], f[i], f[i + 1]], axis=1))

    rechecked = False
    while True:
        if not rechecked and not minima.moving().size:
            rechecked = True
            minima.deepen(_recount(jobs, owner, key, ~np.isnan(poles).any(axis=1),
                                   brackets.iv, minima, lifts))
        am, ab = minima.moving(), brackets.moving()
        if not am.size and not ab.size:
            break
        xm, xb = minima.points(am), brackets.points(ab)
        fx = kernel(np.concatenate([np.repeat(minima.iv[am], 2 * _SIDE), brackets.iv[ab]]),
                    np.concatenate([xm.ravel(), xb]))
        brackets.update(ab, xb, fx[xm.size:])
        split_iv, split_x, split_f = minima.update(am, xm, fx[:xm.size].reshape(xm.shape))
        brackets.extend(_Brackets(split_iv, split_x, split_f, poles[split_iv]))

    at_root = kernel(brackets.iv, brackets.roots())
    # nan cannot occur: brackets never contain a singular energy; a pole
    # masquerading as a sign change would explode instead of collapsing
    return owner, brackets, np.isfinite(at_root) & (np.abs(at_root) < brackets.bound), minima


def _recount(jobs, owner, key, inner, bracket_iv, minima, lifts):
    """Certified minima whose interval's zero count changed from the previous
    job of the same sector and couplings, with no lift to explain it."""
    counts = np.bincount(bracket_iv, minlength=owner.size)
    previous, last = [], {}
    for j, (params, sector, *_) in enumerate(jobs):
        previous.append(last.get((sector, params.delta, params.gamma), -1))
        last[(sector, params.delta, params.gamma)] = j
    # a lift on rung n explains the intervals on both sides of it
    explained = {(j, n + side) for j, energies in enumerate(lifts or ()) for e in energies
                 for n in [round(pole_index(*jobs[j][:2], e))] for side in (-1, 0)}
    where = {(j, k): v for v, j, k in zip(np.flatnonzero(inner).tolist(), owner[inner].tolist(),
                                          key[inner].tolist())}
    changed = np.zeros(owner.size, dtype=bool)
    for (j, k), v in where.items():
        u = where.get((previous[j], k))
        if u is not None and counts[u] != counts[v] and not {(j, k // 2), (previous[j], k // 2)} & explained:
            changed[[u, v]] = True
    return np.flatnonzero((minima.state == _CERTIFIED) & changed[minima.iv])


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
    """Sample spacing fine enough to separate same-parity level pairs on a
    uniform grid; callers that want a dense ``grid`` floor derive it from this."""
    return min(2e-3, (1.0 - abs(gamma)) / 8.0)


def _column_window(delta: float, gamma: float, g: float, level_count: int):
    """Initial energy window and a dense sample spacing for one sweep column.

    The lower edge is a variational bound on the ground state,
    E0 >= -g^2/(1 - |gamma|) - delta; the upper edge starts from the free
    spectrum and is extended by the caller if the window comes up short.
    """
    params = validate_params(delta, gamma, g)
    e_lo = -g * g / (1.0 - abs(gamma)) - delta - 0.5
    cap = g0_levels(params, level_count)[-1].energy
    e_hi = cap + 1.0 + 0.5 * g
    return params, e_lo, e_hi, _scan_spacing(gamma)


def _lift_energies(windows) -> list[list[float]]:
    """Degenerate ladder energies (parity-crossing points) of each window.

    ``windows`` holds (params, e_lo, e_hi) triples; every rung of every
    window is classified in one kernel call.  At delta = gamma = 0 every
    level n - g^2 is a degenerate pair, n = 0 included; rung 0 is the
    normalization pole, which the kernel cannot reach, so it is added
    directly.
    """
    rungs = [np.arange(1, max(0, int(np.floor(pole_index(params, ParitySector.PLUS, e_hi)))) + 1)
             for params, _, e_hi in windows]
    owner = np.repeat(np.arange(len(windows)), [r.size for r in rungs])
    point = np.array([(*sector_couplings(params, ParitySector.PLUS), params.g, params.w, e_lo, e_hi)
                      for params, e_lo, e_hi in windows])[owner].T
    energy, r = _rung_vectors(*point[:4], np.concatenate(rungs))
    degenerate = np.abs(r).max(axis=0) <= TOL_V
    lifts: list[list[float]] = [[] for _ in windows]
    for i in np.flatnonzero(degenerate & (energy >= point[4]) & (energy <= point[5])):
        lifts[owner[i]].append(float(energy[i]))
    for j, (params, _, _) in enumerate(windows):
        if params.delta == 0.0 and params.gamma == 0.0:
            lifts[j].append(-params.g * params.g)
    return lifts


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
    sectors = (ParitySector.PLUS, ParitySector.MINUS)
    for _ in range(8):
        if not short:
            break
        lifts = _lift_energies(list(short.values()))
        zeros = iter(_find_zeros_batch(
            [(params, sector, e_lo, e_hi, _NODES) for params, e_lo, e_hi in short.values()
             for sector in sectors],
            n_terms, [energies for energies in lifts for _ in sectors]))
        for (j, (params, e_lo, e_hi)), energies in zip(list(short.items()), lifts):
            entries = [LevelEntry(e, sector.sign, res) for sector in sectors for e, res in next(zeros)]
            # a level on a pole is no zero of G: fill parity-crossing punctures
            for e in energies:
                for parity in (1, -1):
                    if not any(entry.parity == parity and abs(entry.energy - e) < 1e-7
                               for entry in entries):
                        entries.append(LevelEntry(e, parity, True))
            entries.sort(key=lambda item: (item.energy, -item.parity))
            columns[j] = entries[:level_count]
            if len(entries) >= level_count:
                del short[j]
            else:
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
        requested_count=level_count, energy_resolution=_PAIR_RESOLUTION,
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
    them approach within half the table's energy resolution the column cannot
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
            f"the energy resolution {table.energy_resolution:.3g}",
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
            the table's energy resolution, where sorted-order continuation can
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
