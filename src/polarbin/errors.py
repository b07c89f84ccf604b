"""Exception hierarchy shared across the package.

Two branches matter for the command line: configuration problems, a
ConfigError or one of its subclasses (exit code 1), and every other
error, a numerical failure during a run (exit code 2).
"""


class PolarbinError(Exception):
    """Base class for all package errors."""


class ConfigError(PolarbinError):
    """Invalid, unknown, or unresolvable configuration input."""


class DegenerateDistributionError(ConfigError):
    """sigma = 0 cannot be split into more than one bin."""


class DimensionCapError(ConfigError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class PropagationError(PolarbinError):
    """Time propagation failed (non-finite state or tolerance not met)."""


class InitialStateError(PolarbinError):
    """An observable was requested from a trajectory with the wrong initial state."""


class ZeroPopulationError(PolarbinError):
    """Bin-conditioned quantity undefined because the bin carries no population."""


class NoSplittingError(PolarbinError):
    """Spectrum has fewer than two local maxima; no splitting can be read off."""
