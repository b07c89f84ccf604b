"""Ultrafast dynamics of disordered molecular polaritons via disorder binning."""

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
    fc_overlap,
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
    leakage,
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
    "fc_overlap",
    "leakage",
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
