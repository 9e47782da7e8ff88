"""Independent cross-check: truncated number-basis diagonalization.

Builds the Hamiltonian of :mod:`starkspec.model` in the product basis
|n, s> (photon number n = 0..cutoff, spin s = up/down along sigma_z) and
diagonalizes it with the in-repo tridiagonal eigensolver.  The Hamiltonian
commutes exactly with the parity operator P = (-1)^(a^dag a) sigma_z and
splits into two parity chains, each tridiagonal in ascending photon number;
they are built in closed form, never as a dense matrix, and each eigenvalue
inherits the exact parity of its chain.

This path shares no code with the series engine (different frame, different
algorithms), which is what makes the agreement of the two spectra a real
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import ConvergenceError, tridiagonal_lowest_eigenvalues
from .model import ModelParams

__all__ = [
    "ConvergenceError",
    "FockHamiltonian",
    "OracleSpectrum",
    "build_hamiltonian",
    "diagonalize",
    "CONVERGENCE_STEP",
    "CONVERGENCE_TOL",
]

#: Extra photon states added for the convergence re-run.
CONVERGENCE_STEP = 25

#: A level counts as cutoff-converged when the re-run moves it by less.
CONVERGENCE_TOL = 1e-8


@dataclass
class FockHamiltonian:
    """The two parity chains of H at a photon cutoff, as (d, e) rows.

    Row 0 is the PLUS chain |0 up>, |1 dn>, |2 up>, ..., row 1 the MINUS
    chain |0 dn>, |1 up>, |2 dn>, ...; both run over n = 0..cutoff.  ``d``
    (2 x (cutoff+1)) alternates between n(1 + gamma) + delta (spin up) and
    n(1 - gamma) - delta (spin down); ``e`` (2 x cutoff) holds the Rabi
    element g*sqrt(n+1) between photon numbers n and n+1.
    """

    cutoff: int
    d: np.ndarray
    e: np.ndarray
    params: ModelParams


@dataclass
class OracleSpectrum:
    """Lowest eigenvalues with exact parity labels.

    ``converged_count`` is how many of the leading levels were stable under
    a cutoff + 25 re-run (0 when the check was skipped).
    """

    energies: np.ndarray
    parities: np.ndarray
    converged_count: int


def build_hamiltonian(params: ModelParams, cutoff: int) -> FockHamiltonian:
    """Assemble both parity chains at the given photon cutoff."""
    if cutoff < 1:
        raise ValueError(f"cutoff >= 1 required (got {cutoff})")
    n = np.arange(cutoff + 1, dtype=float)
    up = n * (1.0 + params.gamma) + params.delta
    down = n * (1.0 - params.gamma) - params.delta
    even = np.arange(cutoff + 1) % 2 == 0
    d = np.stack([np.where(even, up, down), np.where(even, down, up)])
    e = np.tile(params.g * np.sqrt(n[1:]), (2, 1))
    return FockHamiltonian(cutoff=cutoff, d=d, e=e, params=params)


def diagonalize(
    h: FockHamiltonian, want: int, check_convergence: bool = True
) -> OracleSpectrum:
    """Lowest ``want`` eigenvalues with parity labels.

    Both parity chains, and with ``check_convergence`` both chains again at
    cutoff + 25, go through one call of the eigensolver.  Parity labels are
    exact: every eigenvector of a chain is a parity eigenstate with
    <P> = +/-1, which is also how parity would be assigned inside any
    degenerate subspace.

    Raises:
        ConvergenceError: propagated from the eigensolver.
    """
    dim = 2 * (h.cutoff + 1)
    if not 1 <= want <= dim:
        raise ValueError(f"want must be in 1..{dim} (got {want})")
    hams = [h]
    if check_convergence:
        hams.append(build_hamiltonian(h.params, h.cutoff + CONVERGENCE_STEP))
    d = [chain for ham in hams for chain in ham.d]
    e = [chain for ham in hams for chain in ham.e]
    levels = tridiagonal_lowest_eigenvalues(d, e, [min(want, chain.size) for chain in d])
    merged = []
    for plus, minus in zip(levels[0::2], levels[1::2]):
        energies = np.concatenate([plus, minus])
        labels = np.repeat([1, -1], [plus.size, minus.size])
        order = np.lexsort((-labels, energies))[:want]  # ties list PLUS first
        merged.append((energies[order], labels[order]))
    energies, labels = merged[0]

    converged = 0
    if check_convergence:
        stable = np.abs(energies - merged[1][0]) <= CONVERGENCE_TOL
        converged = int(np.argmin(stable)) if not np.all(stable) else want
    return OracleSpectrum(energies=energies, parities=labels, converged_count=converged)
