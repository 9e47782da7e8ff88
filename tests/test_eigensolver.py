import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkspec import eigensolver, fock
from starkspec.eigensolver import (
    ConvergenceError,
    _stack,
    _sturm_counts,
    tridiagonal_lowest_eigenvalues,
)
from starkspec.model import validate_params


def dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def full_row_counts(d, e2, floor, shifts):
    """Sturm counts from the plain LDL^T recurrence over every row of the stack."""
    with np.errstate(divide="ignore", over="ignore"):
        q = d[0] - shifts
        count = np.count_nonzero(q[None] < 0.0, axis=0)
        for i in range(1, d.shape[0]):
            q = (d[i] - shifts) - e2[i - 1] / q
            count += q < 0.0
    return count


@st.composite
def sturm_cases(draw):
    """1-4 chains of 1-300 rows, some off-diagonals exactly zero, and shifts
    from below the lowest Gershgorin edge to above the highest, row edges and
    floors among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    slope = draw(st.sampled_from([0.0, 0.05, 1.0, 2.0]))
    scale = draw(st.sampled_from([1e-3, 0.3, 5.0]))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    integral = draw(st.booleans())
    d, e = [], []
    for n in sizes:
        dc = slope * np.arange(n) + 3.0 * rng.normal(size=n)
        ec = scale * rng.normal(size=n - 1) * (rng.random(n - 1) >= zero_share)
        d.append(np.round(dc) if integral else dc)
        e.append(np.round(ec) if integral else ec)
    radius = [np.abs(np.r_[0.0, ec]) + np.abs(np.r_[ec, 0.0]) for ec in e]
    lo = min(np.min(dc - r) for dc, r in zip(d, radius)) - 1.0
    hi = max(np.max(dc + r) for dc, r in zip(d, radius)) + 1.0
    stack_d, stack_e2, floor = _stack(d, e, 2.0 * abs(hi) + 1.0)  # padding above every shift
    width = draw(st.integers(1, 24))
    shifts = []
    for dc, r, fc in zip(d, radius, floor[..., 0].T):
        pool = np.concatenate([rng.uniform(lo, hi, width), dc, dc - r, dc + r, fc[:dc.size], [lo, hi]])
        shifts.append(rng.choice(pool, width))
    return stack_d, stack_e2, floor, np.array(shifts)


class TestSturmBisection:
    def test_against_reference(self):
        rng = np.random.default_rng(11)
        d = rng.normal(size=300)
        e = rng.normal(size=299)
        (got,) = tridiagonal_lowest_eigenvalues([d], [e], [300])
        ref = np.linalg.eigvalsh(dense(d, e))
        assert np.max(np.abs(got - ref)) < 1e-11

    def test_clustered_eigenvalues(self):
        d = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        e = np.zeros(4)
        (got,) = tridiagonal_lowest_eigenvalues([d], [e], [5])
        assert got == pytest.approx([1, 1, 1, 2, 2], abs=1e-13)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            tridiagonal_lowest_eigenvalues([np.ones(3)], [np.zeros(2)], [4])
        with pytest.raises(ValueError):
            tridiagonal_lowest_eigenvalues([np.ones(3)], [np.zeros(2)], [0])
        with pytest.raises(ValueError):
            tridiagonal_lowest_eigenvalues([np.ones(3), np.ones(2)], [np.zeros(2)], [1, 1])
        with pytest.raises(ValueError):
            tridiagonal_lowest_eigenvalues([np.ones(3)], [np.zeros(3)], [1])

    def test_nan_raises(self):
        with pytest.raises(ConvergenceError):
            tridiagonal_lowest_eigenvalues([np.array([1.0, np.nan])], [np.zeros(1)], [1])


class TestLowestEigenvalues:
    def test_tridiagonal_fast_path(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=80)
        e = rng.normal(size=79)
        (got,) = tridiagonal_lowest_eigenvalues([d], [e], [10])
        ref = np.linalg.eigvalsh(dense(d, e))[:10]
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_unequal_lengths_degenerate_across_chains(self):
        # Chain b is chain a followed by a decoupled tail, and chain c is a
        # reversed (similar) copy of a: a's levels recur in all three chains,
        # and the chains have 40, 57 and 40 rows, so two of them are padded.
        rng = np.random.default_rng(17)
        da, ea = rng.normal(size=40), rng.normal(size=39)
        db = np.concatenate([da, 0.5 + rng.normal(size=17)])
        eb = np.concatenate([ea, [0.0], rng.normal(size=16)])
        dc, ec = da[::-1], ea[::-1]
        dd, ed = np.array([0.25]), np.empty(0)
        counts = [12, 30, 40, 1]
        got = tridiagonal_lowest_eigenvalues([da, db, dc, dd], [ea, eb, ec, ed], counts)
        assert [g.size for g in got] == counts
        for g, d, e, k in zip(got, (da, db, dc, dd), (ea, eb, ec, ed), counts):
            ref = np.linalg.eigvalsh(dense(d, e))[:k]
            assert np.max(np.abs(g - ref)) < 1e-11
        assert np.max(np.abs(got[0] - got[2][:12])) < 1e-11
        assert np.min(np.abs(got[1][:, None] - got[0][None, :]), axis=0).max() < 1e-11


class TestSturmCounts:
    @settings(max_examples=50, deadline=None)
    @given(case=sturm_cases())
    def test_equal_to_full_row_counts(self, case):
        got = _sturm_counts(*case)
        assert got.dtype == np.int64
        assert np.array_equal(got, full_row_counts(*case))

    @pytest.mark.parametrize("pivot", [-5.0, 1e-12])
    def test_stop_test_fails_on_small_pivot(self, pivot):
        # Every floor from row 1 on is about 8, above the shift 5, so the stop
        # row is 1, but row 0's pivot is below |e_0| = 1 and the stop test
        # fails there.  After -5 the next pivot passes; after 1e-12 the next
        # is about -1e12, the chain's one level below 5, which a loop that
        # stopped at row 1 would miss.
        d = [np.array([5.0 + pivot, 10.0, 10.0, 10.0, 10.0, 10.0])]
        e = [np.ones(5)]
        case = (*_stack(d, e, 100.0), np.array([[5.0]]))
        assert case[2][1, 0, 0] >= 5.0 > case[2][0, 0, 0]
        assert _sturm_counts(*case)[0, 0] == full_row_counts(*case)[0, 0] == 1


class TestOracleBitIdentity:
    # At gamma = 0 a pass stops after about 80 of the 826 rows; at
    # gamma = 0.95 the slow branch keeps the floor low and it walks them all.
    @pytest.mark.parametrize("gamma, g", [(0.0, 0.05), (0.5, 1.6), (0.95, 1.6)])
    def test_diagonalize_equals_full_row_counts(self, monkeypatch, gamma, g):
        ham = fock.build_hamiltonian(validate_params(0.4, gamma, g), 800)
        fast = fock.diagonalize(ham, 26)
        monkeypatch.setattr(eigensolver, "_sturm_counts", full_row_counts)
        full = fock.diagonalize(ham, 26)
        assert np.array_equal(fast.energies, full.energies)
        assert np.array_equal(fast.parities, full.parities)
        assert fast.converged_count == full.converged_count
