"""Lowest eigenvalues of symmetric tridiagonal chains, without external routines.

Sturm-count multisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967);
LAPACK ``dstebz``): every requested eigenvalue keeps a bracket whose Sturm
counts pin its index, and each pass cuts every bracket at a fixed number of
interior shifts.  All chains of a call share one row loop, so its Python
overhead is paid once per pass for the whole stack rather than once per
chain and bisection step.

A pass walks only the rows that can still change a count.  Row j's floor is
d_j - |e_{j-1}| - |e_j|, less a small slack for rounding.  Where every row
from j on has its floor at or above a shift, a pivot q_{j-1} >= |e_{j-1}|
gives q_j = d_j - shift - e_{j-1}^2/q_{j-1} >= d_j - shift - |e_{j-1}| >= |e_j|,
so by induction no later pivot turns negative; the loop stops at the first
such row whose pivots all pass, with exactly the full-row count.
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


def _stack(d: list[np.ndarray], e: list[np.ndarray], pad: float):
    """The chains as (d, e2, floor) stacks, each shaped (rows, chains, 1).

    Rows past a chain's end are decoupled with diagonal ``pad``; ``e2``
    (rows - 1 of them) holds e^2, raised to the smallest normal float where
    it is smaller.  ``floor[i]`` is the least
    d_j - (1 + eps)(|e_{j-1}| + |e_j|) - eps |d_j| over rows j >= i, with
    |e| = sqrt(e2), the missing end entries 0 and eps = 1e-8; the eps terms
    cover the rounding of the floor itself and of the Sturm recurrence.
    """
    tiny = np.finfo(float).tiny
    rows = max(dc.size for dc in d)
    stack_d = np.full((rows, len(d), 1), pad)
    stack_e2 = np.full((rows - 1, len(d), 1), tiny)
    for c, (dc, ec) in enumerate(zip(d, e)):
        stack_d[:dc.size, c, 0] = dc
        stack_e2[:ec.size, c, 0] = np.maximum(ec * ec, tiny)
    abs_e = np.sqrt(stack_e2)
    edge = np.zeros((1, len(d), 1))
    radius = np.concatenate([edge, abs_e]) + np.concatenate([abs_e, edge])
    eps = 1e-8
    floor = stack_d - (1.0 + eps) * radius - eps * np.abs(stack_d)
    return stack_d, stack_e2, np.minimum.accumulate(floor[::-1], axis=0)[::-1]


def _sturm_counts(
    d: np.ndarray, e2: np.ndarray, floor: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Eigenvalues strictly below each shift, for every chain of the stack.

    ``d`` is (rows, chains, 1), ``e2`` is (rows - 1, chains, 1) with every
    entry > 0, ``floor`` is the third stack of ``_stack`` and ``shifts`` is
    (chains, n).  With no zero in ``e2`` the IEEE recurrence needs no pivot
    guard: a zero pivot turns into an infinity whose reciprocal is zero one
    row later, and no NaN can arise.

    The loop runs to the first row from which every chain's floor is at or
    above its top shift, then stops at the first row whose pivots q_{j-1}
    all reach |e_{j-1}|: by induction, q_j >= d_j - shift - |e_{j-1}| >= |e_j|
    for every later row, so the rows left add nothing to any count.
    """
    rows = d.shape[0]
    # a chain's floor never decreases, so its rows below the top shift come first
    stop = max(1, int(np.count_nonzero(floor[..., 0] < shifts.max(axis=1), axis=0).max()))
    count = np.zeros(shifts.shape, dtype=np.int64)
    tmp = np.empty(shifts.shape)
    prev = None
    start = 0
    with np.errstate(divide="ignore", over="ignore"):
        while start < rows:
            if start >= stop and np.all(prev >= np.sqrt(e2[start - 1])):
                break
            # whole blocks up to the stop row, then one row per stop test
            end = min(start + _ROW_BLOCK, stop) if start < stop else start + 1
            q = d[start:end] - shifts
            for i in range(q.shape[0]):
                if prev is not None:
                    np.divide(e2[start + i - 1], prev, out=tmp)
                    np.subtract(q[i], tmp, out=q[i])
                prev = q[i]
            count += np.count_nonzero(q < 0.0, axis=0)
            start = end
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
    stack_d, stack_e2, floor = _stack(d, e, ghi.max() + abs(ghi.max()) + 1.0)

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
        counts = _sturm_counts(stack_d, stack_e2, floor, shifts.reshape(len(d), -1))
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
