"""Ultrafast dynamics of disordered molecular polaritons via disorder binning.

Importing polarbin before numpy loads the OpenBLAS copies bundled with
numpy and scipy at one thread each, unless the caller has set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS: the binned
problems are small and sparse, and a BLAS thread pool costs them more than
it saves. The environment is left as it was found. Import loads numpy
only, and no scipy module: scipy.sparse (the Fock-basis CSR matrices
that only the reference engines of polarbin.oracle assemble; the binned
model is bounded and stepped as a numpy arrowhead), scipy.linalg (the
Krylov stepper), scipy.integrate (the equations-of-motion engine) and the
process pool load on first use.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    # OpenBLAS reads its thread count from the environment once, when it loads
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from .propagator import _openblas_thread_controls

        _openblas_thread_controls()  # loads numpy's and scipy's OpenBLAS
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
    YieldReport,
    absorption,
    default_omega_grid,
    populations,
    rabi_splitting,
    reaction_yield,
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
    "YieldReport",
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
    "reaction_yield",
    "state_populations",
    "time_to_au",
    "vibrational_energy",
    "__version__",
]
