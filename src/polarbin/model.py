"""Physical parameters, disorder discretization, and basis bookkeeping.

Everything internal is in Hartree atomic units (au). Times in femtoseconds
are accepted only at input boundaries through :func:`time_to_au`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateDistributionError

# fixed conversion constant, 1 fs of time in au
FS_TO_AU = 41.341373335

# domain truncation of the Gaussian disorder distribution, in units of sigma
DOMAIN_HALF_WIDTH = 3.0

# largest accepted deviation of a bin set's weight sum from one
WEIGHT_SUM_TOLERANCE = 1e-12


def time_to_au(value: float, unit: str = "au") -> float:
    """Convert a time given in 'fs' or 'au' to atomic units."""
    if unit not in ("au", "fs"):
        raise ConfigError(f"unknown time unit {unit!r} (expected 'fs' or 'au')")
    au = float(value) * (FS_TO_AU if unit == "fs" else 1.0)
    if not (math.isfinite(au) and au >= 0):
        raise ConfigError(f"time must be finite and non-negative, got {value} {unit}")
    return au


def bin_count_rule(sigma: float, t_final: float) -> int:
    """Number of disorder bins resolving a width-sigma Gaussian over t_final.

    A finite propagation time resolves frequencies only to ~2*pi/t_final,
    so the truncated 6*sigma domain needs ceil(6*sigma*t_final/2*pi) bins,
    with a floor of one bin.
    """
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if t_final <= 0:
        raise ConfigError("t_final must be > 0")
    count = 2.0 * DOMAIN_HALF_WIDTH * sigma * t_final / (2.0 * math.pi)
    if not math.isfinite(count):
        raise ConfigError(f"sigma = {sigma!r} over t_final = {t_final!r} au overflows the bin count")
    return max(1, math.ceil(count))


@dataclass(frozen=True)
class ModelSpec:
    """All physical parameters of one disordered-ensemble-in-a-cavity model.

    Energies and rates in au; s1/s2 are dimensionless signed displacements
    of the two excited surfaces; coupling is the collective value g*sqrt(N)
    held fixed in the large-ensemble limit.
    """

    omega0: float     # mean exciton frequency
    omega_nu: float   # vibrational frequency
    s1: float         # displacement of the reactant surface
    s2: float         # displacement of the product surface
    v12: float        # diabatic reactant-product coupling
    omega_c: float    # cavity frequency
    kappa: float      # cavity decay rate
    coupling: float   # collective light-matter coupling g*sqrt(N)
    sigma: float      # Gaussian exciton-frequency disorder width
    delta2: float = 0.0  # rigid energy offset of the product surface

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value!r}")
        if self.omega_nu <= 0:
            raise ConfigError("omega_nu must be > 0")
        if self.omega0 <= 0 or self.omega_c <= 0:
            raise ConfigError("omega0 and omega_c must be > 0")
        if self.kappa < 0 or self.coupling < 0 or self.sigma < 0:
            raise ConfigError("kappa, coupling and sigma must be >= 0")
        if self.v12 < 0:
            raise ConfigError("v12 must be >= 0")


@dataclass(frozen=True)
class BinSet:
    """Discretized disorder distribution.

    weights sum to one after renormalization of the truncated Gaussian;
    centers are the bin-conditional mean frequencies, strictly increasing;
    edges has length n_bins + 1 and tiles the truncated domain.
    """

    weights: np.ndarray
    centers: np.ndarray
    edges: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        """Raise ConfigError unless the arrays fit together as stated above."""
        if not len(self.centers) == self.n_bins == len(self.edges) - 1:
            raise ConfigError("a bin set needs as many centers as weights, and one more edge")
        if abs(self.weights.sum() - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ConfigError("bin weights do not sum to 1")
        if np.any(np.diff(self.centers) <= 0) and self.n_bins > 1:
            raise ConfigError("bin centers must strictly increase")
        # a center strictly inside its bin also makes the edges strictly increase
        degenerate = self.edges[0] == self.edges[-1]
        if not degenerate:
            inside = (self.edges[:-1] < self.centers) & (self.centers < self.edges[1:])
            if not inside.all():
                raise ConfigError("each center must lie strictly inside its bin")


def _standard_normal_cdf(z):
    erf = np.array([math.erf(value / math.sqrt(2.0)) for value in z])
    return 0.5 * (1.0 + erf)


def _standard_normal_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def discretize_disorder(spec: ModelSpec, n_bins: int) -> BinSet:
    """Split the Gaussian exciton-frequency distribution into equal-width bins.

    The domain is truncated to omega0 +/- 3*sigma. Per bin, the weight is
    the Gaussian probability mass and the frequency is the bin-conditional
    mean; weights are renormalized so they sum to one (the raw truncated
    mass is erf(3/sqrt 2) ~ 0.99730). Both integrals are evaluated in
    closed form from the normal cdf/pdf, exact to machine precision.
    """
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    if spec.sigma == 0.0:
        if n_bins > 1:
            raise DegenerateDistributionError(
                "sigma = 0 admits a single bin only; use n_bins = 1"
            )
        ones = np.array([1.0])
        return BinSet(weights=ones, centers=np.array([spec.omega0]),
                      edges=np.array([spec.omega0, spec.omega0]))

    z_edges = np.linspace(-DOMAIN_HALF_WIDTH, DOMAIN_HALF_WIDTH, n_bins + 1)
    cdf = _standard_normal_cdf(z_edges)
    pdf = _standard_normal_pdf(z_edges)
    raw_weights = cdf[1:] - cdf[:-1]
    # first moment of the standard normal over each slice is pdf(lo) - pdf(hi)
    raw_moments = pdf[:-1] - pdf[1:]
    centers = spec.omega0 + spec.sigma * raw_moments / raw_weights
    weights = raw_weights / raw_weights.sum()
    binset = BinSet(weights=weights, centers=centers,
                    edges=spec.omega0 + spec.sigma * z_edges)
    try:
        binset.validate()
    except ConfigError as exc:
        raise DegenerateDistributionError(
            f"sigma = {spec.sigma!r} around omega0 = {spec.omega0!r} cannot be split "
            f"into {n_bins} distinct bins in double precision: {exc}"
        ) from exc
    return binset


class BasisLayout:
    """Flat indexing of the state vector, shared by every engine.

    A photon block of photon_dim states comes first, then one reactant
    (surface 0, 'e1') block per vibrational coordinate, then one product
    (surface 1, 'e2') block per coordinate; each excited block holds the
    vib_dim = n_vib**n_modes configurations of n_modes vibrational modes,
    contiguous and in row-major order. The binned model has one photon
    state (carrying the shared ground vibrational wavefunction) and one
    coordinate of one mode per bin; the reference engines' ExplicitLayout
    sets other sizes, and maps its coordinates to bins.
    """

    PHOTON = 0

    def __init__(self, n_bins: int, n_vib: int):
        if n_bins < 1 or n_vib < 2:
            raise ConfigError("need n_bins >= 1 and n_vib >= 2")
        self.n_bins = n_bins
        self.n_vib = n_vib
        self.photon_dim = 1
        self.n_coords = n_bins
        self.n_modes = 1

    @property
    def vib_dim(self) -> int:
        return self.n_vib**self.n_modes

    @property
    def dimension(self) -> int:
        return self.photon_dim + 2 * self.n_coords * self.vib_dim

    def index(self, surface, coordinate, level):
        """Flat index of a level of a coordinate on surface 0 (e1) or 1 (e2).

        Unchecked, and elementwise over arrays.
        """
        return self.photon_dim + (surface * self.n_coords + coordinate) * self.vib_dim + level

    def blocks(self, vector: np.ndarray):
        """(photon block, excited blocks as a (2, n_coords, vib_dim) view).

        The layout runs along the last axis, so a block of states, one per
        row, gives a (rows, photon_dim) and a (rows, 2, n_coords, vib_dim) view.
        """
        return (vector[..., : self.photon_dim],
                vector[..., self.photon_dim :].reshape(
                    *vector.shape[:-1], 2, self.n_coords, self.vib_dim))
