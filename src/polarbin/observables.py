"""Derived quantities: absorption spectra, populations, yields, energies.

All functions are pure maps from recorded trajectories (or single
states) to numbers and arrays; nothing here mutates its inputs. The
per-step populations are reduced by :func:`state_populations` while the
state is propagated; :func:`populations` only packages them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    InitialStateError,
    NoSplittingError,
    PropagationError,
    ZeroPopulationError,
)
from .hamiltonian import displaced_number_operator
from .model import BasisLayout, ModelSpec

if TYPE_CHECKING:  # the propagator records through state_populations
    from .propagator import Trajectory

OMEGA_GRID_STEP = 1e-4
MAX_OMEGA_POINTS = 1_000_000


@dataclass(frozen=True)
class Spectrum:
    """Absorption samples on a strictly increasing frequency grid."""

    omega: np.ndarray
    values: np.ndarray


def default_omega_grid(spec: ModelSpec) -> np.ndarray:
    """Frequency window covering both polariton branches plus disorder."""
    lo = spec.omega0 - 3.0 * spec.sigma - 3.0 * spec.coupling
    hi = spec.omega0 + spec.omega_nu + 3.0 * spec.sigma + 3.0 * spec.coupling
    if not np.isfinite([lo, hi]).all():
        # four terms of at most 3|p| each: some parameter has 12|p| > max float
        named = [f"{k} = {getattr(spec, k)!r}" for k in ("omega0", "omega_nu", "sigma", "coupling")
                 if not np.isfinite(12.0 * getattr(spec, k))]
        raise ConfigError(f"the absorption window overflows at {', '.join(named)}")
    if not (hi - lo) / OMEGA_GRID_STEP < MAX_OMEGA_POINTS:
        raise ConfigError(
            f"absorption window [{lo!r}, {hi!r}] au needs more than "
            f"{MAX_OMEGA_POINTS} frequency points"
        )
    n = int(np.floor((hi - lo) / OMEGA_GRID_STEP + 1e-9)) + 1
    return lo + OMEGA_GRID_STEP * np.arange(n)


def absorption(traj: Trajectory, kappa: float, omega_grid: np.ndarray) -> Spectrum:
    """Linear absorption from the autocorrelation of a photonic run.

    A(w) = kappa*Re[C~(w)] - kappa^2/2 |C~(w)|^2 with C~ the finite-time
    Fourier transform of <psi(0)|psi(t)>, evaluated by trapezoidal
    quadrature on the recorded grid with plain truncation (no window).
    """
    if traj.initial_state_label != "photonic":
        raise InitialStateError(
            "absorption requires a trajectory started from the photonic state, "
            f"got {traj.initial_state_label!r}"
        )
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or np.any(np.diff(omega_grid) <= 0):
        raise ConfigError("omega grid must be 1d and strictly increasing")
    t = traj.times
    weights = np.full(len(t), traj.dt_record)
    if len(t) > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5
    weighted = traj.autocorr * weights
    ct = np.empty(len(omega_grid), dtype=complex)
    chunk = 512  # bound the phase-matrix memory
    for start in range(0, len(omega_grid), chunk):
        block = omega_grid[start : start + chunk]
        ct[start : start + len(block)] = np.exp(1j * np.outer(block, t)) @ weighted
    values = kappa * ct.real - 0.5 * (kappa * kappa) * np.abs(ct) ** 2
    if not np.isfinite(values).all():
        raise PropagationError(f"absorption overflows at kappa = {kappa!r}")
    return Spectrum(omega=omega_grid, values=values)


def state_populations(psi: np.ndarray, layout: BasisLayout):
    """Per-bin reactant/product populations and photon population of one state.

    Works for every basis layout: a photon block of layout.photon_dim
    states, then one reactant and then one product block per coordinate,
    each of layout.vib_dim contiguous states. Block sums go to the bins
    named by layout.block_bins: the identity for the binned layout, the
    molecule-to-bin map for an explicit ensemble.
    """
    density = np.abs(psi) ** 2
    per_block = density[layout.photon_dim:].reshape(2, -1, layout.vib_dim).sum(axis=2)
    p_e1, p_e2 = (
        np.bincount(layout.block_bins, weights, minlength=layout.n_bins)
        for weights in per_block
    )
    return p_e1, p_e2, float(density[: layout.photon_dim].sum())


@dataclass(frozen=True)
class PopulationRecord:
    """Populations on the time grid of one trajectory.

    gamma is the leaked probability 1 - <psi|psi>; normalized() divides by
    the surviving norm, removing the cavity-leakage envelope, and refuses a
    state that has leaked completely.
    """

    times: np.ndarray
    p_e1: np.ndarray           # (n_times, n_bins)
    p_e2: np.ndarray
    photon: np.ndarray
    norms2: np.ndarray
    gamma: np.ndarray

    @property
    def p_e1_total(self) -> np.ndarray:
        return self.p_e1.sum(axis=1)

    @property
    def p_e2_total(self) -> np.ndarray:
        return self.p_e2.sum(axis=1)

    def normalized(self, values: np.ndarray) -> np.ndarray:
        """values (time along the first axis) over the surviving norm."""
        if not self.norms2.all():  # norms are >= 0: the first minimum is the first zero
            raise ZeroPopulationError(
                f"the state leaked completely by t = {self.times[self.norms2.argmin()]:.6g} au; "
                "no population to normalize")
        return values / self.norms2.reshape((-1,) + (1,) * (values.ndim - 1))

    def completeness_defect(self) -> float:
        """Max deviation of photon + populations + leakage from one."""
        total = self.photon + self.p_e1_total + self.p_e2_total + self.gamma
        return float(np.abs(total - 1.0).max())


def populations(traj: Trajectory) -> PopulationRecord:
    """Populations recorded at every grid time of a trajectory."""
    return PopulationRecord(
        times=traj.times,
        p_e1=traj.p_e1,
        p_e2=traj.p_e2,
        photon=traj.photon,
        norms2=traj.norms2,
        gamma=1.0 - traj.norms2,
    )


def vibrational_energy(
    psi: np.ndarray,
    layout: BasisLayout,
    spec: ModelSpec,
    bin_index: int,
    min_population: float = 1e-12,
) -> float:
    """Mean vibrational energy of the reactant wavepacket of one bin.

    Measured above the displaced-surface minimum and conditioned on the
    bin population, so differences between bins reflect wavepacket motion
    rather than the Franck-Condon offset or absorption differences.
    """
    block = psi[layout.e1_slice(bin_index)]
    population = float(np.vdot(block, block).real)
    if population <= min_population:
        raise ZeroPopulationError(
            f"bin {bin_index} population {population:g} too small for a "
            "conditional vibrational energy"
        )
    op = displaced_number_operator(spec.s1, layout.n_vib)
    return spec.omega_nu * float(np.vdot(block, op @ block).real) / population


def rabi_splitting(spectrum: Spectrum) -> float:
    """Distance between the two largest strict local maxima of a spectrum.

    Evaluated on the raw grid with no interpolation; amplitude ties are
    broken toward the wider pair.
    """
    a = spectrum.values
    interior = np.arange(1, len(a) - 1)
    mask = (a[interior] > a[interior - 1]) & (a[interior] > a[interior + 1])
    maxima = interior[mask]
    if len(maxima) < 2:
        raise NoSplittingError(f"found {len(maxima)} local maxima, need two")
    amps = a[maxima]
    order = np.argsort(-amps, kind="stable")
    v1, v2 = amps[order[0]], amps[order[1]]
    candidates = maxima[amps >= v2]
    best = None
    for p in candidates:
        for q in candidates:
            if q <= p or (a[p] < v1 and a[q] < v1):
                continue
            sep = spectrum.omega[q] - spectrum.omega[p]
            if best is None or sep > best:
                best = sep
    return float(best)


@dataclass(frozen=True)
class YieldReport:
    """Final-time product populations, raw and leakage-normalized."""

    t_final: float
    per_bin: np.ndarray
    total: float
    per_bin_normalized: np.ndarray
    total_normalized: float
    gamma: float


def reaction_yield(record: PopulationRecord) -> YieldReport:
    """Product-state yield at the final recorded time."""
    p = record.p_e2[-1]
    return YieldReport(
        t_final=float(record.times[-1]),
        per_bin=p.copy(),
        total=float(p.sum()),
        per_bin_normalized=record.normalized(record.p_e2)[-1],
        total_normalized=float(record.normalized(record.p_e2_total)[-1]),
        gamma=float(record.gamma[-1]),
    )
