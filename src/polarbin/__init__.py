"""Ultrafast dynamics of disordered molecular polaritons via disorder binning.

Importing polarbin before numpy loads numpy's bundled OpenBLAS at one
thread, and so does the first load of scipy's copy, by scipy.linalg,
unless the caller has set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS: the binned problems are small and sparse, and a BLAS
thread pool costs them more than it saves (see :mod:`polarbin.blas`). The
environment is left as it was found. Import loads numpy only, and no scipy
module or scipy's OpenBLAS: scipy.linalg (the Krylov stepper),
scipy.integrate (the equations-of-motion engine) and the process pool
load on first use. scipy.sparse never loads: the reference engines of
polarbin.oracle step a numpy CSR operator, and the binned model is bounded
and stepped as a numpy arrowhead.
"""

from .blas import loading_at_one_thread as _loading_at_one_thread

with _loading_at_one_thread():
    import numpy as _numpy  # loads numpy's bundled OpenBLAS

from .errors import (
    ConfigError,
    DegenerateDistributionError,
    DimensionCapError,
    InitialStateError,
    NoSplittingError,
    PolarbinError,
    PropagationError,
    ZeroPopulationError,
)
from .hamiltonian import (
    EffectiveHamiltonian,
    build_effective_hamiltonian,
    displaced_number_operator,
)
from .model import (
    FS_TO_AU,
    BasisLayout,
    BinSet,
    ModelSpec,
    bin_count_rule,
    discretize_disorder,
    time_to_au,
)
from .observables import (
    PopulationRecord,
    Spectrum,
    absorption,
    default_omega_grid,
    populations,
    rabi_splitting,
    state_populations,
    vibrational_energy,
)
from .oracle import build_multibin_hamiltonian, propagate_eom
from .propagator import (
    Trajectory,
    bright_state,
    make_initial_state,
    photonic_state,
    polariton_state,
    propagate,
)

__version__ = "0.1.0"

__all__ = [
    "BasisLayout",
    "BinSet",
    "ConfigError",
    "DegenerateDistributionError",
    "DimensionCapError",
    "EffectiveHamiltonian",
    "FS_TO_AU",
    "InitialStateError",
    "ModelSpec",
    "NoSplittingError",
    "PolarbinError",
    "PopulationRecord",
    "PropagationError",
    "Spectrum",
    "Trajectory",
    "ZeroPopulationError",
    "absorption",
    "bin_count_rule",
    "bright_state",
    "build_effective_hamiltonian",
    "build_multibin_hamiltonian",
    "default_omega_grid",
    "discretize_disorder",
    "displaced_number_operator",
    "make_initial_state",
    "photonic_state",
    "polariton_state",
    "populations",
    "propagate",
    "propagate_eom",
    "rabi_splitting",
    "state_populations",
    "time_to_au",
    "vibrational_energy",
    "__version__",
]
