"""Series engine: the coupled recursion and the connection functions.

The eigenvalue problem reduces to a pair of first-order equations with
regular singular points at z = +/- w.  Around z = -w (series variable
y = z + w) the analytic solutions rho, rho_bar obey a coupled two-step
recursion whose step determinant is

    D_n(E) = 4 w^2 n (1-gamma^2)^2 (n - pole_index(E)),

so the coefficients blow up on the pole ladder.  The connection functions

    G_sector(E) = rho_bar(w) - rho(w)

vanish exactly at the regular eigenvalues of the corresponding parity
sector; the MINUS sector is the same computation with delta and gamma
sign-flipped.  On the ladder itself the step-n right-hand-side vector
decides whether E_pole(n) is an exceptional (degenerate) eigenvalue.

Coefficients are stored in scaled form t_n = alpha_n * w^n (the term values
at the evaluation point y = w, i.e. the series in u = y/w).  The unscaled
alpha_n grow like (2w)^(-n) and overflow float64 already at the smallest
supported coupling g = 1e-6; the scaled ones decay like 2^(-n) for every g.

The recursion step is written once (``_step``) and driven two ways, both
batched over broadcastable couplings: ``_g_kernel`` sums the series into G,
``_exceptional_kernel`` stops each point at its own rung n of the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DomainError,
    ModelParams,
    ParitySector,
    _constant_values,
    sector_couplings,
)

__all__ = [
    "GSample",
    "DEFAULT_N_TERMS",
    "SERIES_MIN_G",
    "g_function",
    "g_profile",
]

#: Default truncation order.  It is not enough everywhere in the covered
#: box: the series tail is not checked, so at gamma = 0.9, g = 1.6 the
#: PLUS ground state comes out at -4.8414, marked resolved, while the Fock
#: oracle gives -3.8666.  Pass a larger n_terms (--nterms) at strong coupling.
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

#: Ceiling on |t_N| + |tbar_N| for a sample to count as reliable.
TAIL_TOL = 1e-6


@dataclass(frozen=True)
class GSample:
    """One connection-function evaluation; ``x = energy + g**2``."""

    energy: float
    x: float
    value: float
    reliable: bool


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
) -> GSample:
    """One connection-function sample G(E) = rho_bar(w) - rho(w).

    At z = 0 the transformation back from the series variable has unit
    prefactor, so the series evaluated at y = w (mid-disk) is all that is
    needed.  A pole on the recursion ladder, or the normalization pole,
    yields value = nan with reliable = False; no one-sided limit is
    attempted.
    """
    _require_series_g(params)
    if n_terms < 2:
        raise ValueError(f"n_terms >= 2 required (got {n_terms})")
    return _samples(params, sector, np.array([energy], dtype=float),
                    np.array([energy + params.g * params.g]), n_terms)[0]


def g_profile(
    params: ModelParams,
    sector: ParitySector,
    x_min: float,
    x_max: float,
    grid: int,
    n_terms: int = DEFAULT_N_TERMS,
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
    return _samples(params, sector, xs - params.g * params.g, xs, n_terms)


def _samples(params, sector, energies, xs, n_terms) -> list[GSample]:
    """G at ``energies``; a sample is reliable when its recursion stayed clear
    of poles and its tail is within ``TAIL_TOL``."""
    values, tails, near, dead = _g_table(params, sector, energies, n_terms)
    reliable = ~dead & (tails <= TAIL_TOL) & (near < 0)
    return [GSample(*sample) for sample in
            zip(energies.tolist(), xs.tolist(), values.tolist(), reliable.tolist())]


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


def _start(delta_s, gamma_s, g, w, energies):
    """Recursion constants and leading pair, shared by both recursion loops.

    Returns ``(frame, singular, t0, tb0)``: ``frame`` feeds :func:`_step`;
    ``singular`` marks points where k0 and c0 both vanish, so the
    normalization is degenerate.  The n = 0 equations are homogeneous with
    identically vanishing determinant, so alpha_bar_0 = 1 is chosen and
    alpha_0 = -kbar0/k0 = -cbar0/c0, the better-conditioned of the two equal
    ratios.
    """
    beta = 1.0 - gamma_s * gamma_s
    w2 = w * w
    c = _constant_values(delta_s, gamma_s, g, w, energies)
    k0, kbar0, cbar0, c0 = c[2], c[5], c[8], c[11]
    singular = (np.abs(k0) < SINGULAR_INIT_TOL) & (np.abs(c0) < SINGULAR_INIT_TOL)
    use_k = np.abs(k0) >= np.abs(c0)
    t0 = np.where(use_k, -kbar0, -cbar0) / np.where(singular, 1.0, np.where(use_k, k0, c0))
    return (c, w, w2, beta, 4.0 * w2 * beta * beta), singular, t0, np.ones_like(t0)


def _step(frame, n, t1, tb1, t2, tb2):
    """Step n >= 1 of the coupled recursion, from the terms of steps n-1 and n-2.

    Step n solves the 2x2 system

        [k0 + 2w(1-gamma^2)n  kbar0                   ] [t_n   ]   [b1]
        [c0                   cbar0 + 2w(1-gamma^2)n  ] [tbar_n] = [b2]

    whose right-hand side is built from steps n-1 and n-2 (terms of negative
    index vanish, so n = 1 takes t2 = tb2 = 0).  Returns ``(v1, v2, det,
    det_rel, k0n, cb0n, k1m, cb1m)``: (t_n, tbar_n) = (v1, v2) / det, the
    adjugate applied to the right-hand side over the determinant, and
    det_rel = |det| / (4 w^2 n (1-gamma^2)^2) = |n - pole_index(E)|.
    """
    (k2, k1, k0, kbar2, kbar1, kbar0, cbar2, cbar1, cbar0, c2, c1, c0), w, w2, beta, det_scale = frame
    k0n = 2.0 * w * beta * n + k0
    cb0n = 2.0 * w * beta * n + cbar0
    k1m = beta * (n - 1) - k1
    cb1m = beta * (n - 1) - cbar1
    b1 = w * (k1m * t1 - kbar1 * tb1) - w2 * (k2 * t2 + kbar2 * tb2)
    b2 = w * (-c1 * t1 + cb1m * tb1) - w2 * (c2 * t2 + cbar2 * tb2)
    det = k0n * cb0n - kbar0 * c0
    det_rel = np.abs(det) / (det_scale * n)
    return cb0n * b1 - kbar0 * b2, k0n * b2 - c0 * b1, det, det_rel, k0n, cb0n, k1m, cb1m


def _g_block(delta_s, gamma_s, g, w, energies, n_terms):
    frame, dead, t1, tb1 = _start(delta_s, gamma_s, g, w, energies)
    t2 = np.zeros_like(energies)
    tb2 = np.zeros_like(energies)
    near = np.full(energies.shape, -1, dtype=int)

    terms = [t1]
    terms_bar = [tb1]
    for n in range(1, n_terms + 1):
        v1, v2, det, det_rel, *_ = _step(frame, n, t1, tb1, t2, tb2)
        near = np.where((det_rel < POLE_FLAG_REL) & (near < 0), n, near)
        dead = dead | (det_rel < POLE_ABORT_REL)
        det = np.where(dead, 1.0, det)
        tn = np.where(dead, 0.0, v1 / det)
        tbn = np.where(dead, 0.0, v2 / det)
        terms.append(tn)
        terms_bar.append(tbn)
        t2, tb2, t1, tb1 = t1, tb1, tn, tbn

    # descending summation: the order of Horner's rule at u = y/w = 1
    rho = np.zeros_like(energies)
    rho_bar = np.zeros_like(energies)
    for n in range(n_terms, -1, -1):
        rho = rho + terms[n]
        rho_bar = rho_bar + terms_bar[n]
    tails = np.abs(t1) + np.abs(tb1)
    values = np.where(dead, np.nan, rho_bar - rho)
    return values, tails, near, dead


def _exceptional_kernel(delta_s, gamma_s, g, w, n):
    """The step-n right-hand-side vector at E_pole(n), batched over broadcastable
    sector couplings, g, w and rungs n >= 1.

    Each point runs the recursion at its own pole energy through step n - 1
    and stops at rung n, where the step determinant vanishes.  Returns
    ``(v1, v2, scale1, scale2, energy)`` in the broadcast shape: the signed
    vector (the adjugate applied to the right-hand side; its two components
    are proportional on the pole), each component's largest fully expanded
    monomial and the pole energies.  The vector is nan where the
    normalization degenerates.  Each point goes through the same operations
    whatever else is evaluated with it.

    No step below n divides by a vanishing determinant: at E_pole(n) step m
    has det_rel = |m - n| >= 1, since w = g / sqrt(1 - gamma^2).
    """
    n = np.asarray(n)
    shape = np.broadcast_shapes(*(np.shape(a) for a in (delta_s, gamma_s, g, w, n)))
    energy = np.broadcast_to(n * (1.0 - gamma_s * gamma_s) - g * g - gamma_s * delta_s, shape)
    frame, singular, t1, tb1 = _start(delta_s, gamma_s, g, w, energy)
    t2 = tb2 = np.zeros(shape)
    for m in range(1, int(n.max(initial=1))):
        v1, v2, det, *_ = _step(frame, m, t1, tb1, t2, tb2)
        below = m < n
        det = np.where(below, det, 1.0)
        t2, tb2, t1, tb1 = (np.where(below, t1, t2), np.where(below, tb1, tb2),
                            np.where(below, v1 / det, t1), np.where(below, v2 / det, tb1))

    v1, v2, _, _, k0n, cb0n, k1m, cb1m = _step(frame, n, t1, tb1, t2, tb2)
    (k2, k1, k0, kbar2, kbar1, kbar0, cbar2, cbar1, cbar0, c2, c1, c0), w, w2 = frame[:3]
    # At a lift b1 and b2 vanish individually, so a useful scale has to come
    # from the fully expanded monomials, not from cb0n*b1 and kbar0*b2.
    mono_b1 = np.max(np.abs([w * k1m * t1, w * kbar1 * tb1, w2 * k2 * t2, w2 * kbar2 * tb2]), axis=0)
    mono_b2 = np.max(np.abs([w * c1 * t1, w * cb1m * tb1, w2 * c2 * t2, w2 * cbar2 * tb2]), axis=0)
    scale1 = np.maximum(mono_b1 * np.abs(cb0n), mono_b2 * np.abs(kbar0))
    scale2 = np.maximum(mono_b2 * np.abs(k0n), mono_b1 * np.abs(c0))
    return np.where(singular, np.nan, v1), np.where(singular, np.nan, v2), scale1, scale2, energy
