import numpy as np
import pytest

from starkspec.fock import build_hamiltonian, diagonalize
from starkspec.model import ParitySector, g0_levels, validate_params

PLUS = ParitySector.PLUS


def dense_interleaved(p, cutoff):
    """H in the basis index 2n + s (s = 0 up, 1 down), built row by row."""
    n = np.arange(cutoff + 1, dtype=float)
    h = np.zeros((2 * (cutoff + 1), 2 * (cutoff + 1)))
    h[2 * np.arange(cutoff + 1), 2 * np.arange(cutoff + 1)] = n * (1.0 + p.gamma) + p.delta
    h[2 * np.arange(cutoff + 1) + 1, 2 * np.arange(cutoff + 1) + 1] = (
        n * (1.0 - p.gamma) - p.delta)
    hop = p.g * np.sqrt(n[1:])
    for m in range(cutoff):
        i_up, i_dn = 2 * m, 2 * m + 1
        j_up, j_dn = 2 * (m + 1), 2 * (m + 1) + 1
        h[i_up, j_dn] = h[j_dn, i_up] = hop[m]
        h[i_dn, j_up] = h[j_up, i_dn] = hop[m]
    parity = np.tile([1.0, -1.0], cutoff + 1) * np.repeat((-1.0) ** n, 2)
    return h, parity


class TestBuildHamiltonian:
    def test_cutoff_one_matrix_by_hand(self):
        # basis order |0 up>, |0 dn>, |1 up>, |1 dn>; the PLUS chain is
        # |0 up>, |1 dn> and the MINUS chain |0 dn>, |1 up>
        delta, gamma, g = 0.4, 0.5, 0.3
        p = validate_params(delta, gamma, g)
        ham = build_hamiltonian(p, 1)
        expected = np.array([
            [delta, 0.0, 0.0, g],
            [0.0, -delta, g, 0.0],
            [0.0, g, 1.0 + gamma + delta, 0.0],
            [g, 0.0, 0.0, 1.0 - gamma - delta],
        ])
        for row, (a, b) in enumerate(((0, 3), (1, 2))):
            assert ham.d[row] == pytest.approx([expected[a, a], expected[b, b]], abs=0)
            assert ham.e[row] == pytest.approx([expected[a, b]], abs=0)

    @pytest.mark.parametrize("delta, gamma, g, cutoff, want", [
        (0.4, 0.5, 0.3, 1, 4),
        (0.7, -0.3, 1.1, 40, 30),
        (0.0, 0.6, 0.5, 30, 20),
        (0.4, -0.9, 0.5, 25, 52),
        (1.3, 0.2, 0.05, 12, 9),
    ])
    def test_against_dense_reference(self, delta, gamma, g, cutoff, want):
        p = validate_params(delta, gamma, g)
        h, parity = dense_interleaved(p, cutoff)
        # numpy only used as an independent reference inside tests
        ref_e, vectors = np.linalg.eigh(h)
        ref_p = np.einsum("i,ij,ij->j", parity, vectors, vectors)[:want]
        assert np.min(np.diff(ref_e[:want + 1])) > 1e-6  # <P> needs no degeneracy
        assert np.max(np.abs(np.abs(ref_p) - 1.0)) < 1e-9
        ham = build_hamiltonian(p, cutoff)
        for row, sign in enumerate((1, -1)):
            block = h[np.ix_(parity == sign, parity == sign)]
            assert np.array_equal(np.diag(block), ham.d[row])
            assert np.array_equal(np.diag(block, 1), ham.e[row])
            assert not np.any(h[np.ix_(parity == sign, parity == -sign)])
        spectrum = diagonalize(ham, want)
        assert np.max(np.abs(spectrum.energies - ref_e[:want])) < 1e-11
        assert list(spectrum.parities) == list(np.rint(ref_p).astype(int))

    def test_cutoff_validation(self):
        p = validate_params(0.4, 0.5, 0.4)
        with pytest.raises(ValueError):
            build_hamiltonian(p, 0)


class TestDiagonalize:
    def test_g_zero_matches_free_levels_exactly(self):
        p = validate_params(0.4, 0.5, 0.0)
        spectrum = diagonalize(build_hamiltonian(p, 80), 10, check_convergence=False)
        reference = g0_levels(p, 10)
        for got_e, got_p, ref in zip(spectrum.energies, spectrum.parities, reference):
            assert got_e == pytest.approx(ref.energy, abs=1e-12)
            assert got_p == ref.parity

    def test_free_limit_example(self):
        p = validate_params(0.4, 0.5, 0.0)
        spectrum = diagonalize(build_hamiltonian(p, 60), 7, check_convergence=False)
        assert spectrum.energies == pytest.approx(
            [-0.4, 0.1, 0.4, 0.6, 1.1, 1.6, 1.9], abs=1e-12)
        assert list(spectrum.parities) == [-1, 1, 1, -1, 1, -1, -1]

    def test_parity_flip_degeneracy_at_delta_zero(self):
        p = validate_params(0.0, 0.0, 0.5)
        spectrum = diagonalize(build_hamiltonian(p, 120), 8, check_convergence=False)
        e = spectrum.energies
        for k in range(0, 8, 2):
            assert abs(e[k] - e[k + 1]) < 1e-10
            assert spectrum.parities[k] != spectrum.parities[k + 1]

    def test_variational_bound_in_cutoff(self):
        p = validate_params(0.4, 0.5, 1.2)
        grounds = [
            diagonalize(build_hamiltonian(p, c), 1, check_convergence=False).energies[0]
            for c in (30, 60, 120)
        ]
        assert grounds[1] <= grounds[0] + 1e-13
        assert grounds[2] <= grounds[1] + 1e-13

    def test_cutoff_convergence_count(self):
        p = validate_params(0.4, 0.5, 1.2)
        tight = diagonalize(build_hamiltonian(p, 8), 14)
        assert tight.converged_count < 14
        wide = diagonalize(build_hamiltonian(p, 150), 14)
        assert wide.converged_count == 14

    def test_lowest_pair_gap_in_compressed_regime(self):
        # gamma = 0.95, g = 0.6: the converged lowest opposite-parity gap is
        # 2.92e-2 (stable from cutoff 200 up; the series solver agrees to
        # machine precision, see the solver tests).
        p = validate_params(0.4, 0.95, 0.6)
        spectrum = diagonalize(build_hamiltonian(p, 300), 2)
        assert spectrum.converged_count == 2
        gap = spectrum.energies[1] - spectrum.energies[0]
        assert spectrum.parities[0] != spectrum.parities[1]
        assert 0.0290 < gap < 0.0295

    def test_want_validation(self):
        p = validate_params(0.4, 0.5, 0.4)
        h = build_hamiltonian(p, 4)
        with pytest.raises(ValueError):
            diagonalize(h, 11)
