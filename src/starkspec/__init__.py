"""Exact spectrum of the quantum Rabi-Stark model.

Regular eigenvalues come from the zeros of series-built connection
functions, exceptional ones from lifted singularities of the same series;
an independent truncated-Fock diagonalization cross-validates both.
"""

from .model import (
    Branch,
    ConstantSet,
    DomainError,
    GZeroLevel,
    ModelParams,
    ParitySector,
    constants,
    g0_levels,
    normalization_pole_energy,
    pole_energies,
    pole_index,
    validate_params,
)
from .series import (
    DEFAULT_N_TERMS,
    SERIES_MIN_G,
    GSample,
    g_function,
    g_profile,
)
from .fock import (
    ConvergenceError,
    FockHamiltonian,
    OracleSpectrum,
    build_hamiltonian,
    diagonalize,
)
from .solver import (
    CrossingEvent,
    CrossingKind,
    ExceptionalKind,
    ExceptionalPoint,
    LevelEntry,
    SpectrumTable,
    TrackingAmbiguity,
    classify_exceptional,
    detect_crossings,
    find_degenerate_g,
    find_regular_zeros,
    spectrum_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ConstantSet",
    "ConvergenceError",
    "CrossingEvent",
    "CrossingKind",
    "DEFAULT_N_TERMS",
    "DomainError",
    "ExceptionalKind",
    "ExceptionalPoint",
    "FockHamiltonian",
    "GSample",
    "GZeroLevel",
    "LevelEntry",
    "ModelParams",
    "OracleSpectrum",
    "ParitySector",
    "SERIES_MIN_G",
    "SpectrumTable",
    "TrackingAmbiguity",
    "build_hamiltonian",
    "classify_exceptional",
    "constants",
    "detect_crossings",
    "diagonalize",
    "find_degenerate_g",
    "find_regular_zeros",
    "g0_levels",
    "g_function",
    "g_profile",
    "normalization_pole_energy",
    "pole_energies",
    "pole_index",
    "spectrum_sweep",
    "validate_params",
]
