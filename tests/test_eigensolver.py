import numpy as np
import pytest

from starkspec.eigensolver import ConvergenceError, tridiagonal_lowest_eigenvalues


def dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


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
