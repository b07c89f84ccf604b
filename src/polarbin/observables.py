"""Derived quantities: absorption spectra, populations, energies.

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
PHOTONIC_START_TOLERANCE = 1e-12
# a bin population at or below this cannot condition a vibrational energy
MIN_CONDITIONING_POPULATION = 1e-12
# absorption's grid may stray this many ulps of its largest |w| from uniform
UNIFORM_GRID_ULPS = 8
# The FFT length of a short trajectory. The chunk of frequencies is this
# minus n_t plus one: on the widest grid default_omega_grid allows, that
# is about 2000 loop passes, and a chirp phase step*dt*j^2/2 below the
# largest w*t of the direct sum, which sets the rounding of both.
MIN_FFT_LENGTH = 512


@dataclass(frozen=True)
class Spectrum:
    """Absorption samples on a uniform, strictly increasing frequency grid."""

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
    The initial state traj.psi0 must be the photonic state up to a phase:
    its photon population and its squared norm both one to within
    PHOTONIC_START_TOLERANCE, or InitialStateError is raised. Only
    traj.autocorr, the photon amplitude a0(t), enters, so a trajectory of
    the arrowhead and one of its photon chain
    (:class:`~polarbin.hamiltonian.PhotonChain`, whose site 0 is the
    photon) give the same spectrum to within the tolerance. The grid
    must be 1d, non-empty, finite, strictly increasing and uniform to
    rounding, or ConfigError is raised.

    The sum C~(w_j) = sum_k w_k C_k exp(i w_j t_k) is a chirp-z transform
    (Bluestein): on w_j = lo + j*step and t_k = k*dt, jk = (j^2 + k^2 -
    (j - k)^2)/2 turns it into one convolution with the chirp
    exp(-i step*dt m^2/2), done by FFT in O(n log n) time. The grid is
    taken in chunks of about n_t frequencies (MIN_FFT_LENGTH sets a floor
    for short runs), each with its own lo, so memory stays O(n_t) and the
    chirp phases step*dt*j^2/2, whose rounding the result carries, stay
    near the size of the direct sum's w*t. The grid's own rounding off
    lo + j*step is corrected to first order by the transform of t_k w_k C_k,
    the frequency derivative, which leaves an error of its square.
    """
    photon0, norm0 = abs(traj.psi0[BasisLayout.PHOTON]) ** 2, traj.norms2[0]
    if not (abs(photon0 - 1.0) <= PHOTONIC_START_TOLERANCE
            and abs(norm0 - 1.0) <= PHOTONIC_START_TOLERANCE):
        raise InitialStateError(
            "absorption requires a trajectory started from the photonic state, "
            f"got |a0(0)|^2 = {photon0!r} and |psi(0)|^2 = {norm0!r}"
        )
    omega_grid = np.asarray(omega_grid, dtype=float)
    step = _uniform_step(omega_grid)
    t, dt, n_t = traj.times, traj.dt_record, len(traj.times)
    weights = np.full(n_t, dt)
    if n_t > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5
    n_fft = max(MIN_FFT_LENGTH, 1 << (2 * n_t - 2).bit_length())
    chunk = n_fft - n_t + 1  # no lag of the convolution wraps onto a kept frequency
    j = np.arange(chunk)
    chirp = np.exp(1j * (0.5 * step * dt * (j * j)))
    # the chirp at lags 0 .. chunk-1, then at lags -(n_t-1) .. -1
    kernel = np.fft.fft(np.concatenate([chirp, chirp[n_t - 1 : 0 : -1]]).conj())
    source = traj.autocorr * weights * chirp[:n_t]
    ct = np.empty(len(omega_grid), dtype=complex)
    for start in range(0, len(omega_grid), chunk):
        block = omega_grid[start : start + chunk]
        n = len(block)
        shifted = source * np.exp(1j * block[0] * t)
        plain, slope = [np.fft.ifft(np.fft.fft(x, n_fft) * kernel)[:n]
                        for x in (shifted, t * shifted)]
        rounding = (block - block[0]) - step * j[:n]
        ct[start : start + n] = chirp[:n] * (plain + 1j * rounding * slope)
    values = kappa * ct.real - 0.5 * (kappa * kappa) * np.abs(ct) ** 2
    if not np.isfinite(values).all():
        raise PropagationError(f"absorption overflows at kappa = {kappa!r}")
    return Spectrum(omega=omega_grid, values=values)


def _uniform_step(omega_grid: np.ndarray) -> float:
    """The step of a 1d, non-empty, finite, strictly increasing grid that
    is uniform to rounding; 0 for a single frequency. ConfigError otherwise."""
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise ConfigError(f"omega grid must be 1d and non-empty, got shape {omega_grid.shape}")
    if not np.isfinite(omega_grid).all():
        raise ConfigError("omega grid must hold finite frequencies only")
    if np.any(np.diff(omega_grid) <= 0):
        raise ConfigError("omega grid must be strictly increasing")
    n = len(omega_grid)
    step = (omega_grid[-1] - omega_grid[0]) / max(n - 1, 1)
    off = np.abs(omega_grid - (omega_grid[0] + step * np.arange(n))).max()
    # lo + step*j and linspace grids stray at most 3 ulps from this line
    if off > UNIFORM_GRID_ULPS * np.spacing(np.abs(omega_grid[[0, -1]]).max()):
        raise ConfigError(f"omega grid must be uniform, but a frequency is {off!r} au "
                          f"off the line through its ends")
    return float(step)


def state_populations(psi: np.ndarray, layout: BasisLayout):
    """Per-coordinate reactant/product populations and photon population of
    one state, or of every row of a block of states.

    Works for every basis layout: the photon block and the excited blocks
    of layout.blocks, reduced to one population per coordinate, which is
    one per bin on the binned layout. A row of a block gives the same bits
    as that state alone.
    """
    photon, excited = layout.blocks(np.abs(psi) ** 2)
    sums = excited.sum(axis=-1)  # (..., surface, coordinate)
    return sums[..., 0, :], sums[..., 1, :], photon.sum(axis=-1)


@dataclass(frozen=True)
class PopulationRecord:
    """Populations on the time grid of one trajectory.

    gamma is the leaked probability 1 - <psi|psi>; normalized() divides by
    the surviving norm, removing the cavity-leakage envelope, and refuses a
    state that has leaked completely.
    """

    times: np.ndarray
    p_e1: np.ndarray           # (n_times, n_coords)
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
        """values, one per recorded time, over the surviving norm."""
        if not self.norms2.all():  # norms are >= 0: the first minimum is the first zero
            raise ZeroPopulationError(
                f"the state leaked completely by t = {self.times[self.norms2.argmin()]:.6g} au; "
                "no population to normalize")
        return values / self.norms2

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


def vibrational_energy(psi: np.ndarray, layout: BasisLayout, spec: ModelSpec) -> np.ndarray:
    """Mean vibrational energy of the reactant wavepacket of every bin of a
    binned state.

    Measured above the displaced-surface minimum and conditioned on the
    bin's reactant population p_e1 of :func:`state_populations`, so
    differences between bins reflect wavepacket motion rather than the
    Franck-Condon offset or absorption differences. A bin whose population
    is at or below MIN_CONDITIONING_POPULATION has no conditional energy:
    its entry is nan.
    """
    reactant = layout.blocks(psi)[1][0]  # one row of n_vib amplitudes per bin
    number = displaced_number_operator(spec.s1, layout.n_vib)  # real symmetric
    quanta = (reactant.conj() * (reactant @ number)).sum(axis=-1).real
    p_e1 = state_populations(psi, layout)[0]
    conditioned = p_e1 > MIN_CONDITIONING_POPULATION
    energy = np.full(layout.n_bins, np.nan)
    energy[conditioned] = spec.omega_nu * quanta[conditioned] / p_e1[conditioned]
    return energy


def rabi_splitting(spectrum: Spectrum) -> float:
    """Distance between the two largest strict local maxima of a spectrum.

    Evaluated on the raw grid with no interpolation; amplitude ties are
    broken toward the wider pair. With v1 >= v2 the two largest maximum
    amplitudes, a pair holds one maximum at v1 and another at or above v2;
    the widest runs from the first v1 maximum to the last such candidate,
    or from the first candidate to the last v1 maximum.
    """
    a = spectrum.values
    interior = np.arange(1, len(a) - 1)
    maxima = interior[(a[interior] > a[interior - 1]) & (a[interior] > a[interior + 1])]
    if len(maxima) < 2:
        raise NoSplittingError(f"found {len(maxima)} local maxima, need two")
    omega, amps = spectrum.omega[maxima], a[maxima]
    v2, v1 = np.sort(amps)[-2:]
    top, pair = omega[amps == v1], omega[amps >= v2]
    return float(max(pair[-1] - top[0], top[-1] - pair[0]))
