"""Series engine: coupled recursion, series evaluation and connection functions.

The eigenvalue problem reduces to a pair of first-order equations with
regular singular points at z = +/- w.  Around z = -w (series variable
y = z + w) the analytic solutions rho, rho_bar obey a coupled two-step
recursion whose step determinant is

    D_n(E) = 4 w^2 n (1-gamma^2)^2 (n - pole_index(E)),

so the coefficients blow up on the pole ladder.  The connection functions

    G_sector(E) = rho_bar(w) - rho(w)

vanish exactly at the regular eigenvalues of the corresponding parity
sector; the MINUS sector is the same computation with delta and gamma
sign-flipped.

Coefficients are stored in scaled form t_n = alpha_n * w^n (the term values
at the evaluation point y = w, i.e. the series in u = y/w).  The unscaled
alpha_n grow like (2w)^(-n) and overflow float64 already at the smallest
supported coupling g = 1e-6; the scaled ones decay like 2^(-n) for every g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConstantSet,
    DomainError,
    ModelParams,
    ParitySector,
    _constant_values,
    constants,
    sector_couplings,
)

__all__ = [
    "SingularInitialization",
    "PoleEncountered",
    "OutsideDisk",
    "SeriesCoefficients",
    "GSample",
    "DEFAULT_N_TERMS",
    "SERIES_MIN_G",
    "initial_coefficients",
    "recurse",
    "eval_rho_pair",
    "g_function",
    "g_profile",
]

#: Truncation order that already gives stable root finding in the covered box.
DEFAULT_N_TERMS = 12

#: Below this coupling the singular points collide (w -> 0) and the free
#: limit g0_levels takes over; the boundary itself is accepted.
SERIES_MIN_G = 1e-6

#: Relative step-determinant threshold |D_n| / (4 w^2 n (1-gamma^2)^2) below
#: which the recursion aborts instead of dividing (maps to an energy window
#: of about 1e-9 around a pole).
POLE_ABORT_REL = 1e-9

#: Looser threshold at which a step is flagged near-pole: the division loses
#: about |log10| of it in digits, so results are kept but marked unreliable.
POLE_FLAG_REL = 1e-6

#: Both leading-coefficient denominators below this magnitude means the
#: normalization itself is degenerate and the energy must be perturbed.
SINGULAR_INIT_TOL = 1e-14

#: Default ceiling on |t_N| + |tbar_N| for a sample to count as reliable.
DEFAULT_TAIL_TOL = 1e-6


class SingularInitialization(ArithmeticError):
    """Both k0 and c0 vanished: the leading coefficient is undetermined."""


class PoleEncountered(ArithmeticError):
    """The step determinant underflowed its threshold at step ``n``.

    Signals that the energy sits (numerically) on the singular ladder, i.e.
    is an exceptional-spectrum candidate, not that the recursion is broken.
    """

    def __init__(self, n: int):
        super().__init__(f"step determinant vanished at recursion step n={n}")
        self.n = n


class OutsideDisk(ValueError):
    """Series evaluation requested outside the disk of convergence |y| < 2w."""


@dataclass
class SeriesCoefficients:
    """Truncated series pair around the singular point z = -w.

    ``alpha[n]`` and ``alpha_bar[n]`` hold the scaled coefficients
    t_n = alpha_n * w^n (see module docstring); index 0 is unscaled by
    construction, so ``alpha_bar[0] == 1`` and ``alpha[0] == -kbar0/k0``.
    """

    alpha: np.ndarray
    alpha_bar: np.ndarray
    n_terms: int
    tail_estimate: float
    near_pole: int | None
    w: float


@dataclass(frozen=True)
class GSample:
    """One connection-function evaluation; ``x = energy + g**2``."""

    energy: float
    x: float
    value: float
    reliable: bool


def initial_coefficients(cs: ConstantSet) -> tuple[float, float]:
    """Leading coefficients (alpha_0, alpha_bar_0) of the series pair.

    The n = 0 equations are homogeneous with identically vanishing
    determinant, so alpha_bar_0 = 1 can be chosen and
    alpha_0 = -kbar0/k0 = -cbar0/c0; the better-conditioned of the two
    equal ratios is used.

    Raises:
        SingularInitialization: if both denominators are below 1e-14.
    """
    if abs(cs.k0) < SINGULAR_INIT_TOL and abs(cs.c0) < SINGULAR_INIT_TOL:
        raise SingularInitialization(
            f"k0={cs.k0!r} and c0={cs.c0!r} both vanish at E={cs.energy!r}; "
            "perturb the energy"
        )
    if abs(cs.k0) >= abs(cs.c0):
        alpha0 = -cs.kbar0 / cs.k0
    else:
        alpha0 = -cs.cbar0 / cs.c0
    return alpha0, 1.0


def recurse(cs: ConstantSet, params: ModelParams, n_terms: int) -> SeriesCoefficients:
    """Run the coupled recursion up to ``n_terms`` in scaled form.

    Each step n >= 1 solves the 2x2 system

        [k0 + 2w(1-g^2)n     kbar0          ] [t_n   ]   [b1]
        [c0                  cbar0 + 2w..n  ] [tbar_n] = [b2]

    with the right-hand side built from steps n-1 and n-2 (coefficients with
    negative index vanish by convention, which makes n = 1 a plain special
    case of the same formula).

    Raises:
        PoleEncountered: if the relative step determinant drops below
            1e-9, i.e. the energy sits on the singular ladder.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms >= 1 required (got {n_terms})")
    w = params.w
    beta = 1.0 - params.gamma * params.gamma
    w2 = w * w
    det_scale = 4.0 * w2 * beta * beta

    t = np.zeros(n_terms + 1)
    tb = np.zeros(n_terms + 1)
    t[0], tb[0] = initial_coefficients(cs)

    near_pole: int | None = None
    t1, tb1 = t[0], tb[0]
    t2 = tb2 = 0.0
    for n in range(1, n_terms + 1):
        k0n = 2.0 * w * beta * n + cs.k0
        cb0n = 2.0 * w * beta * n + cs.cbar0
        k1m = beta * (n - 1) - cs.k1
        cb1m = beta * (n - 1) - cs.cbar1
        b1 = w * (k1m * t1 - cs.kbar1 * tb1) - w2 * (cs.k2 * t2 + cs.kbar2 * tb2)
        b2 = w * (-cs.c1 * t1 + cb1m * tb1) - w2 * (cs.c2 * t2 + cs.cbar2 * tb2)
        det = k0n * cb0n - cs.kbar0 * cs.c0
        det_rel = det / (det_scale * n)
        if abs(det_rel) < POLE_ABORT_REL:
            raise PoleEncountered(n)
        if near_pole is None and abs(det_rel) < POLE_FLAG_REL:
            near_pole = n
        t[n] = (cb0n * b1 - cs.kbar0 * b2) / det
        tb[n] = (k0n * b2 - cs.c0 * b1) / det
        t2, tb2, t1, tb1 = t1, tb1, t[n], tb[n]

    tail = abs(t[n_terms]) + abs(tb[n_terms])
    return SeriesCoefficients(
        alpha=t, alpha_bar=tb, n_terms=n_terms, tail_estimate=tail,
        near_pole=near_pole, w=w,
    )


def eval_rho_pair(coeffs: SeriesCoefficients, y: float) -> tuple[float, float]:
    """Evaluate (rho(y), rho_bar(y)) by Horner's rule in u = y/w.

    Raises:
        OutsideDisk: if |y| >= 2w, the radius of convergence.
    """
    if abs(y) >= 2.0 * coeffs.w:
        raise OutsideDisk(f"|y|={abs(y)!r} is outside the disk |y| < {2.0 * coeffs.w!r}")
    u = y / coeffs.w
    rho = 0.0
    rho_bar = 0.0
    for n in range(coeffs.n_terms, -1, -1):
        rho = rho * u + coeffs.alpha[n]
        rho_bar = rho_bar * u + coeffs.alpha_bar[n]
    return rho, rho_bar


def _require_series_g(params: ModelParams) -> None:
    if params.g < SERIES_MIN_G:
        raise DomainError(
            f"series engine requires g >= {SERIES_MIN_G} (got g={params.g}); "
            "use g0_levels for the free limit"
        )


def g_function(
    params: ModelParams,
    sector: ParitySector,
    energy: float,
    n_terms: int = DEFAULT_N_TERMS,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> GSample:
    """One connection-function sample G(E) = rho_bar(w) - rho(w).

    At z = 0 the transformation back from the series variable has unit
    prefactor, so the series evaluated at y = w (mid-disk) is all that is
    needed.  A pole on the recursion ladder yields value = nan with
    reliable = False; no one-sided limit is attempted.
    """
    _require_series_g(params)
    if n_terms < 2:
        raise ValueError(f"n_terms >= 2 required (got {n_terms})")
    cs = constants(params, sector, energy)
    x = energy + params.g * params.g
    try:
        coeffs = recurse(cs, params, n_terms)
    except PoleEncountered:
        return GSample(energy=energy, x=x, value=float("nan"), reliable=False)
    rho, rho_bar = eval_rho_pair(coeffs, coeffs.w)
    reliable = coeffs.tail_estimate <= tail_tol and coeffs.near_pole is None
    return GSample(energy=energy, x=x, value=rho_bar - rho, reliable=reliable)


def g_profile(
    params: ModelParams,
    sector: ParitySector,
    x_min: float,
    x_max: float,
    grid: int,
    n_terms: int = DEFAULT_N_TERMS,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list[GSample]:
    """Uniform G samples over x = E + g^2 in [x_min, x_max].

    Pole neighborhoods are flagged through the per-sample ``reliable`` bit,
    never skipped; exact pole hits carry value = nan.
    """
    _require_series_g(params)
    if not x_min < x_max:
        raise ValueError(f"x_min < x_max required (got {x_min}, {x_max})")
    if grid < 2:
        raise ValueError(f"grid >= 2 required (got {grid})")
    xs = np.linspace(x_min, x_max, grid)
    energies = xs - params.g * params.g
    values, tails, near, dead = _g_table(params, sector, energies, n_terms)
    samples = []
    for i in range(grid):
        ok = (not dead[i]) and tails[i] <= tail_tol and near[i] < 0
        samples.append(
            GSample(energy=float(energies[i]), x=float(xs[i]),
                    value=float(values[i]), reliable=bool(ok))
        )
    return samples


#: Points per kernel pass; bounds the kernel's working set (n_terms + 1
#: term arrays per component) whatever the size of the caller's batch.
_KERNEL_BLOCK = 4096


def _g_table(
    params: ModelParams,
    sector: ParitySector,
    energies: np.ndarray,
    n_terms: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized G over an energy grid of one sector at one coupling (see _g_kernel)."""
    delta_s, gamma_s = sector_couplings(params, sector)
    return _g_kernel(delta_s, gamma_s, params.g, params.w, energies, n_terms)


def _g_kernel(delta_s, gamma_s, g, w, energies, n_terms: int):
    """Vectorized G at points given by broadcastable sector couplings, g, w and energy.

    Returns ``(values, tails, near_pole, dead)`` in the broadcast shape;
    ``near_pole`` holds the first flagged step per sample (-1 when none) and
    ``dead`` marks samples where the recursion hit a pole or the
    normalization degenerated (their value is nan).  Each point goes through
    the same operations whatever else is evaluated with it.  This is the hot
    path of every scan and sweep.
    """
    *couplings, energies = (np.asarray(a, dtype=float) for a in (delta_s, gamma_s, g, w, energies))
    shape = np.broadcast_shapes(energies.shape, *(a.shape for a in couplings))
    energies = np.broadcast_to(energies, shape).ravel()
    # uniform couplings stay scalars: the same IEEE operations, fewer array passes
    couplings = [a[()] if a.ndim == 0 else np.broadcast_to(a, shape).ravel() for a in couplings]
    blocks = [_g_block(*(a if np.ndim(a) == 0 else a[i:i + _KERNEL_BLOCK] for a in couplings),
                       energies[i:i + _KERNEL_BLOCK], n_terms)
              for i in range(0, max(1, energies.size), _KERNEL_BLOCK)]
    return tuple(np.concatenate(parts).reshape(shape) for parts in zip(*blocks))


def _g_block(delta_s, gamma_s, g, w, energies, n_terms):
    beta = 1.0 - gamma_s * gamma_s
    w2 = w * w
    det_scale = 4.0 * w2 * beta * beta

    (k2, k1, k0, kbar2, kbar1, kbar0,
     cbar2, cbar1, cbar0, c2, c1, c0) = _constant_values(delta_s, gamma_s, g, w, energies)

    dead = (np.abs(k0) < SINGULAR_INIT_TOL) & (np.abs(c0) < SINGULAR_INIT_TOL)
    near = np.full(energies.shape, -1, dtype=int)

    use_k = np.abs(k0) >= np.abs(c0)
    denom = np.where(use_k, k0, c0)
    denom = np.where(dead, 1.0, denom)
    t1 = np.where(use_k, -kbar0, -cbar0) / denom
    tb1 = np.ones_like(energies)
    t2 = np.zeros_like(energies)
    tb2 = np.zeros_like(energies)

    terms = [t1]
    terms_bar = [tb1]
    for n in range(1, n_terms + 1):
        k0n = 2.0 * w * beta * n + k0
        cb0n = 2.0 * w * beta * n + cbar0
        k1m = beta * (n - 1) - k1
        cb1m = beta * (n - 1) - cbar1
        b1 = w * (k1m * t1 - kbar1 * tb1) - w2 * (k2 * t2 + kbar2 * tb2)
        b2 = w * (-c1 * t1 + cb1m * tb1) - w2 * (c2 * t2 + cbar2 * tb2)
        det = k0n * cb0n - kbar0 * c0
        det_rel = np.abs(det) / (det_scale * n)
        hit = det_rel < POLE_ABORT_REL
        flag = (det_rel < POLE_FLAG_REL) & (near < 0)
        near = np.where(flag, n, near)
        dead = dead | hit
        det = np.where(dead, 1.0, det)
        tn = (cb0n * b1 - kbar0 * b2) / det
        tbn = (k0n * b2 - c0 * b1) / det
        tn = np.where(dead, 0.0, tn)
        tbn = np.where(dead, 0.0, tbn)
        terms.append(tn)
        terms_bar.append(tbn)
        t2, tb2, t1, tb1 = t1, tb1, tn, tbn

    # descending summation reproduces eval_rho_pair's Horner order bit for
    # bit, so scalar and vector paths agree exactly
    rho = np.zeros_like(energies)
    rho_bar = np.zeros_like(energies)
    for n in range(n_terms, -1, -1):
        rho = rho + terms[n]
        rho_bar = rho_bar + terms_bar[n]
    tails = np.abs(t1) + np.abs(tb1)
    values = np.where(dead, np.nan, rho_bar - rho)
    return values, tails, near, dead
