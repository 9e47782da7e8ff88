"""Lowest eigenvalues of symmetric tridiagonal chains, without external routines.

Sturm-count multisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967);
LAPACK ``dstebz``): every requested eigenvalue keeps a bracket whose Sturm
counts pin its index, and each pass cuts every bracket at a fixed number of
interior shifts.  All chains of a call share one row loop, so its Python
overhead is paid once per pass for the whole stack rather than once per
chain and bisection step.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
    "tridiagonal_lowest_eigenvalues",
]

#: Interior shifts per bracket and pass; each pass narrows a bracket 8-fold.
_SHIFTS = 7

#: Rows of the Sturm recurrence held in memory at once.
_ROW_BLOCK = 128

#: Passes after which a bracket that has not contracted is an error.
_MAX_PASSES = 64


class ConvergenceError(RuntimeError):
    """The eigenvalue iteration failed to converge."""


def _sturm_counts(d: np.ndarray, e2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues strictly below each shift, for every chain of the stack.

    ``d`` is (rows, chains, 1), ``e2`` is (rows - 1, chains, 1) with every
    entry > 0, ``shifts`` is (chains, n).  With no zero in ``e2`` the IEEE
    recurrence needs no pivot guard: a zero pivot turns into an infinity
    whose reciprocal is zero one row later, and no NaN can arise.
    """
    count = np.zeros(shifts.shape, dtype=np.int64)
    tmp = np.empty(shifts.shape)
    prev = None
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, d.shape[0], _ROW_BLOCK):
            q = d[start:start + _ROW_BLOCK] - shifts
            for i in range(q.shape[0]):
                if prev is not None:
                    np.divide(e2[start + i - 1], prev, out=tmp)
                    np.subtract(q[i], tmp, out=q[i])
                prev = q[i]
            count += np.count_nonzero(q < 0.0, axis=0)
    return count


def tridiagonal_lowest_eigenvalues(
    d: Sequence[np.ndarray], e: Sequence[np.ndarray], count: Sequence[int]
) -> list[np.ndarray]:
    """Lowest ``count[c]`` eigenvalues of each symmetric tridiagonal chain c.

    Chain c has diagonal ``d[c]`` and off-diagonal ``e[c]``; the chains may
    differ in length.  The shorter ones are padded with decoupled rows that
    sit above every shift, so they add nothing to any Sturm count, and the
    whole stack is solved in one lockstep multisection.  Each eigenvalue is
    returned to a few ulps of its chain's Gershgorin span, regardless of
    clustering.
    """
    d = [np.asarray(dc, dtype=float) for dc in d]
    e = [np.asarray(ec, dtype=float) for ec in e]
    count = [int(k) for k in count]
    for dc, ec, k in zip(d, e, count, strict=True):
        if ec.size != dc.size - 1:
            raise ValueError(f"off-diagonal of {ec.size} for a chain of {dc.size}")
        if not 1 <= k <= dc.size:
            raise ValueError(f"count must be in 1..{dc.size} (got {k})")
        if not (np.all(np.isfinite(dc)) and np.all(np.isfinite(ec))):
            raise ConvergenceError("non-finite entries in tridiagonal matrix")

    radius = [np.abs(np.r_[0.0, ec]) + np.abs(np.r_[ec, 0.0]) for ec in e]
    glo = np.array([np.min(dc - r) for dc, r in zip(d, radius)])
    ghi = np.array([np.max(dc + r) for dc, r in zip(d, radius)])
    tiny = np.finfo(float).tiny
    rows = max(dc.size for dc in d)
    stack_d = np.full((rows, len(d), 1), ghi.max() + abs(ghi.max()) + 1.0)
    stack_e2 = np.full((rows - 1, len(d), 1), tiny)
    for c, (dc, ec) in enumerate(zip(d, e)):
        stack_d[:dc.size, c, 0] = dc
        stack_e2[:ec.size, c, 0] = np.maximum(ec * ec, tiny)

    # Brackets are (chains, kmax); a chain asking for fewer levels carries
    # spare brackets that are solved alongside and dropped at the end.
    kmax = max(count)
    ks = np.arange(1, kmax + 1)
    lo = np.repeat(glo[:, None], kmax, axis=1)
    hi = np.repeat(ghi[:, None], kmax, axis=1)
    tol = (4.0 * np.finfo(float).eps * np.maximum(np.abs(glo), np.abs(ghi)) + 1e-15)[:, None]
    cuts = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    for _ in range(_MAX_PASSES):
        if np.all(hi - lo <= tol):
            break
        shifts = lo[..., None] + (hi - lo)[..., None] * cuts
        counts = _sturm_counts(stack_d, stack_e2, shifts.reshape(len(d), -1))
        # The shifts whose count stays below k are a prefix of the grid
        # lo, shifts..., hi; the new bracket is the step out of that prefix.
        below = np.count_nonzero(counts.reshape(shifts.shape) < ks[:, None], axis=-1)
        grid = np.concatenate([lo[..., None], shifts, hi[..., None]], axis=-1)
        new_lo = np.take_along_axis(grid, below[..., None], axis=-1)[..., 0]
        new_hi = np.take_along_axis(grid, below[..., None] + 1, axis=-1)[..., 0]
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    else:
        raise ConvergenceError("multisection brackets failed to contract")
    mid = 0.5 * (lo + hi)
    return [mid[c, :k].copy() for c, k in enumerate(count)]
