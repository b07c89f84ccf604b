"""Brute-force validation engines.

Two tensor-product reference constructions, deliberately expensive and
kept small, sharing one block assembly and one basis layout:

* the explicit finite ensemble (every molecule with its own vibrational
  coordinate, single-molecule coupling g = G/sqrt(N), no Franck-Condon
  projector): the binned model is its large-ensemble limit at fixed
  collective coupling;
* the multi-coordinate two-bin form: collapsing all bins onto one shared
  coordinate is exact for the supported initial states.

Both reuse :func:`polarbin.propagator.propagate` and
:func:`polarbin.observables.populations` verbatim, so the engine under
test differs only in Hamiltonian assembly.

:func:`propagate_eom` is an independent integrator for the binned model
itself: it solves the amplitude equations of motion in the displaced
vibrational eigenbasis with an adaptive explicit Runge-Kutta method and
records through the same recorder as :func:`propagate`. Both represent
the identical truncated model, so any disagreement beyond integrator
tolerances is a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, PropagationError
from .hamiltonian import (
    DEFAULT_DIMENSION_CAP,
    EffectiveHamiltonian,
    build_effective_hamiltonian,
    check_dimension,
    displaced_number_operator,
)
from .model import BasisLayout, BinSet, ModelSpec
from .observables import populations
from .propagator import (
    DEFAULT_TOLERANCE,
    Trajectory,
    _Recorder,
    check_tolerance,
    make_initial_state,
    propagate,
)

EXPLICIT_DIMENSION_CAP = 50_000
MAX_EXPLICIT_MOLECULES = 4


def apportion_molecules(bins: BinSet, n_molecules: int) -> np.ndarray:
    """Integer molecule counts per bin by largest-remainder rounding.

    Ties go to the lower bin index, keeping the assignment deterministic.
    The rounding mismatch against the real weights is part of the
    finite-ensemble error the oracle quantifies.
    """
    if n_molecules < 1:
        raise ConfigError("need at least one molecule")
    quota = bins.weights * n_molecules
    counts = np.floor(quota).astype(int)
    remainder = n_molecules - counts.sum()
    order = np.argsort(-(quota - counts), kind="stable")
    for i in order[:remainder]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class ExplicitEnsemble:
    """Finite ensemble: one entry of molecule_bins per molecule."""

    bins: BinSet
    molecule_bins: np.ndarray
    n_vib: int
    coupling: float  # collective value; single-molecule g = coupling/sqrt(N)

    @property
    def n_molecules(self) -> int:
        return len(self.molecule_bins)

    @property
    def g_single(self) -> float:
        return self.coupling / math.sqrt(self.n_molecules)

    @classmethod
    def from_bins(cls, bins: BinSet, n_molecules: int, n_vib: int, coupling: float):
        counts = apportion_molecules(bins, n_molecules)
        molecule_bins = np.repeat(np.arange(bins.n_bins), counts)
        return cls(bins=bins, molecule_bins=molecule_bins, n_vib=n_vib,
                   coupling=coupling)


class ExplicitLayout:
    """Basis of the tensor-product reference Hamiltonians.

    Blocks: photon, then one reactant and then one product block per
    vibrational coordinate, each spanning all n_vib**n_coords vibrational
    configurations in row-major order. The explicit ensemble has one
    coordinate per molecule and a photon block as large as an excited
    one; the multi-coordinate form has one coordinate per bin and a
    one-state photon block (ground-state molecules stay in the shared
    ground vibrational wavefunction). block_bins maps coordinates to bins.
    """

    PHOTON = 0

    def __init__(self, block_bins, n_bins: int, n_vib: int, photon_dim: int):
        self.block_bins = np.asarray(block_bins)
        self.n_bins = n_bins
        self.n_coords = len(self.block_bins)
        self.n_vib = n_vib
        self.vib_dim = n_vib**self.n_coords
        self.photon_dim = photon_dim
        self.dimension = photon_dim + 2 * self.n_coords * self.vib_dim

    def photon_slice(self) -> slice:
        return slice(0, self.photon_dim)

    def e1_slice(self, coordinate: int) -> slice:
        start = self.photon_dim + coordinate * self.vib_dim
        return slice(start, start + self.vib_dim)

    def e2_slice(self, coordinate: int) -> slice:
        start = self.photon_dim + (self.n_coords + coordinate) * self.vib_dim
        return slice(start, start + self.vib_dim)


def _embed(op, coordinate: int, n_coords: int, n_vib: int):
    """Kronecker-embed a single-coordinate operator at the given position."""
    factors = [
        op if k == coordinate else sp.identity(n_vib, format="csr")
        for k in range(n_coords)
    ]
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


@np.errstate(over="ignore", invalid="ignore")  # as in vibronic_block
def _tensor_hamiltonian(spec: ModelSpec, layout: ExplicitLayout, omegas,
                        photon, links) -> EffectiveHamiltonian:
    """Assemble photon block, excited tensor-product blocks and couplings.

    Coordinate j's excited blocks sit at its exciton frequency omegas[j]
    (plus delta2 on the product surface); its own coordinate carries the
    displaced surface, every other coordinate the undisplaced ground-surface
    oscillator. links[j] couples the photon block to coordinate j's
    reactant block; v12 couples reactant and product as the identity.
    """
    n, n_vib = layout.n_coords, layout.n_vib
    number_op = sp.diags(np.arange(n_vib, dtype=float))
    identity = sp.identity(layout.vib_dim, format="csr")
    blocks = [[None] * (1 + 2 * n) for _ in range(1 + 2 * n)]
    blocks[0][0] = photon
    for j in range(n):
        e1, e2 = 1 + j, 1 + n + j
        for block, s_disp, offset in ((e1, spec.s1, 0.0), (e2, spec.s2, spec.delta2)):
            displaced = displaced_number_operator(s_disp, n_vib)
            vib = sum(
                _embed(spec.omega_nu * sp.csr_matrix(displaced if k == j else number_op),
                       k, n, n_vib)
                for k in range(n)
            )
            blocks[block][block] = (omegas[j] + offset) * identity + vib
        blocks[0][e1] = links[j]
        blocks[e1][0] = links[j].T
        blocks[e1][e2] = blocks[e2][e1] = spec.v12 * identity
    matrix = sp.bmat(blocks, format="csr", dtype=complex)
    return EffectiveHamiltonian(matrix=matrix, layout=layout)


@np.errstate(over="ignore", invalid="ignore")  # as in vibronic_block
def build_explicit_hamiltonian(
    spec: ModelSpec,
    ensemble: ExplicitEnsemble,
    dimension_cap: int = EXPLICIT_DIMENSION_CAP,
) -> EffectiveHamiltonian:
    """Assemble the explicit-ensemble Hamiltonian, first excitation manifold.

    Ground-state molecules keep their undisplaced oscillators, so spectator
    vibrational dynamics is fully represented; the cavity couples to every
    reactant transition with the bare g and the full vibrational identity
    (the Franck-Condon projection of the binned model is emergent, not
    imposed).
    """
    n, n_vib = ensemble.n_molecules, ensemble.n_vib
    if n > MAX_EXPLICIT_MOLECULES:
        raise ConfigError(f"explicit ensemble capped at {MAX_EXPLICIT_MOLECULES} molecules")
    layout = ExplicitLayout(ensemble.molecule_bins, ensemble.bins.n_bins,
                            n_vib, n_vib**n)
    check_dimension(layout.dimension, dimension_cap)
    number_op = sp.diags(np.arange(n_vib, dtype=float))
    identity = sp.identity(layout.vib_dim, format="csr")
    photon = (spec.omega_c - 0.5j * spec.kappa) * identity + sum(
        _embed(spec.omega_nu * number_op, k, n, n_vib) for k in range(n)
    )
    omegas = ensemble.bins.centers[ensemble.molecule_bins]
    return _tensor_hamiltonian(spec, layout, omegas, photon,
                               [ensemble.g_single * identity] * n)


def build_multibin_hamiltonian(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> EffectiveHamiltonian:
    """Assemble the multi-coordinate form, one vibrational mode per bin.

    Reference engine for cross-validation; its Hilbert space grows as
    n_vib**n_bins, so it is capped at two bins. Spectator coordinates are
    inert for states created through the ground vibrational level, which
    is how every supported initial state enters. The photon couples each
    reactant block through its all-ground vibrational configuration.
    """
    bins.validate()
    if bins.n_bins > 2:
        raise ConfigError("multibin form is capped at two bins")
    layout = ExplicitLayout(np.arange(bins.n_bins), bins.n_bins, n_vib, 1)
    check_dimension(layout.dimension, dimension_cap)
    photon = sp.csr_matrix(np.array([[spec.omega_c - 0.5j * spec.kappa]]))
    # the Franck-Condon projector: block-local index 0 is the all-ground configuration
    links = [
        sp.csr_matrix(([spec.coupling * math.sqrt(w)], ([0], [0])),
                      shape=(1, layout.vib_dim))
        for w in bins.weights
    ]
    return _tensor_hamiltonian(spec, layout, bins.centers, photon, links)


@dataclass(frozen=True)
class DeviationReport:
    """Absolute deviations between a reference engine and the binned one."""

    label: str
    times: np.ndarray
    photon_max: float
    photon_final: float
    p_e1_max: float          # max over bins and times
    p_e1_final: float
    p_e2_max: float
    p_e2_final: float
    p_e1_total_max: float
    autocorr_max: float
    autocorr_final: float


def _compare(label, reference, spec, bins, n_vib, dt_record, t_final, tolerance,
             initial_state) -> DeviationReport:
    """Propagate a reference engine and the binned one from the same named state."""
    records = []
    for ham in (reference, build_effective_hamiltonian(spec, bins, n_vib)):
        traj = propagate(
            ham, make_initial_state(initial_state, ham.layout, bins),
            dt_record, t_final, tolerance, initial_state_label=initial_state,
        )
        records.append((populations(traj), traj.autocorr))
    (ref, c_ref), (eff, c_eff) = records
    d_e1 = np.abs(ref.p_e1 - eff.p_e1)
    d_e2 = np.abs(ref.p_e2 - eff.p_e2)
    d_ph = np.abs(ref.photon - eff.photon)
    d_c = np.abs(c_ref - c_eff)
    return DeviationReport(
        label=label,
        times=ref.times,
        photon_max=float(d_ph.max()),
        photon_final=float(d_ph[-1]),
        p_e1_max=float(d_e1.max()),
        p_e1_final=float(d_e1[-1].max()),
        p_e2_max=float(d_e2.max()),
        p_e2_final=float(d_e2[-1].max()),
        p_e1_total_max=float(np.abs(ref.p_e1_total - eff.p_e1_total).max()),
        autocorr_max=float(d_c.max()),
        autocorr_final=float(d_c[-1]),
    )


def compare_to_cute(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
    n_molecules: int,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DeviationReport:
    """Propagate the explicit ensemble and the binned model side by side.

    Both start from the photonic state and share the propagator; the
    report holds absolute deviations of photon population, per-bin
    populations, and the autocorrelation on the common grid.
    """
    ensemble = ExplicitEnsemble.from_bins(bins, n_molecules, n_vib, spec.coupling)
    return _compare(f"explicit N={n_molecules}", build_explicit_hamiltonian(spec, ensemble),
                    spec, bins, n_vib, dt_record, t_final, tolerance, "photonic")


def compare_multibin_to_effective(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
    initial_state: str = "photonic",
) -> DeviationReport:
    """Check the multi-coordinate and shared-coordinate engines agree.

    With a uniform vibrational frequency the two forms are exactly
    equivalent for states entering through the ground vibrational level,
    so deviations should sit at integrator tolerance.
    """
    return _compare("multibin", build_multibin_hamiltonian(spec, bins, n_vib),
                    spec, bins, n_vib, dt_record, t_final, tolerance, initial_state)


class _EigenbasisModel:
    """Per-surface eigendecomposition of the truncated vibrational operators.

    Diagonalizing the truncated displaced number operators keeps this
    engine unitarily equivalent, block by block, to the sparse matrix of
    build_effective_hamiltonian: the photon coupling picks up the ground
    row of the reactant eigenvectors (the truncated Franck-Condon
    amplitudes) and the diabatic coupling becomes the overlap matrix
    between the two eigenbases.
    """

    def __init__(self, spec: ModelSpec, bins: BinSet, n_vib: int):
        self.spec = spec
        self.bins = bins
        self.layout = BasisLayout(bins.n_bins, n_vib)
        lam1, u1 = np.linalg.eigh(displaced_number_operator(spec.s1, n_vib))
        lam2, u2 = np.linalg.eigh(displaced_number_operator(spec.s2, n_vib))
        self.lam1, self.u1 = lam1, u1
        self.lam2, self.u2 = lam2, u2
        self.fc_row = u1[0, :].copy()
        self.overlap = u1.T @ u2
        self.sqrt_w = np.sqrt(bins.weights)
        self.e1_freq = bins.centers[:, None] + spec.omega_nu * lam1[None, :]
        self.e2_freq = bins.centers[:, None] + spec.delta2 + spec.omega_nu * lam2[None, :]

    def to_eigen(self, psi: np.ndarray):
        nb, nv = self.layout.n_bins, self.layout.n_vib
        a0 = psi[0]
        blocks = psi[1:].reshape(2 * nb, nv)
        a1 = blocks[:nb] @ self.u1
        a2 = blocks[nb:] @ self.u2
        return a0, a1, a2

    def to_fock(self, a0, a1, a2) -> np.ndarray:
        psi = np.empty(self.layout.dimension, dtype=complex)
        psi[0] = a0
        nb, nv = self.layout.n_bins, self.layout.n_vib
        psi[1 : 1 + nb * nv] = (a1 @ self.u1.T).ravel()
        psi[1 + nb * nv :] = (a2 @ self.u2.T).ravel()
        return psi

    def rhs(self, _t, y):
        nb, nv = self.layout.n_bins, self.layout.n_vib
        a0 = y[0]
        a1 = y[1 : 1 + nb * nv].reshape(nb, nv)
        a2 = y[1 + nb * nv :].reshape(nb, nv)
        g = self.spec.coupling
        d0 = (self.spec.omega_c - 0.5j * self.spec.kappa) * a0 + g * (
            self.sqrt_w @ (a1 @ self.fc_row)
        )
        d1 = (
            self.e1_freq * a1
            + (g * a0) * np.outer(self.sqrt_w, self.fc_row)
            + self.spec.v12 * (a2 @ self.overlap.T)
        )
        d2 = self.e2_freq * a2 + self.spec.v12 * (a1 @ self.overlap)
        return -1j * np.concatenate(([d0], d1.ravel(), d2.ravel()))


def propagate_eom(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
    psi0: np.ndarray,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
    state_times=(),
    initial_state_label: str = "custom",
) -> Trajectory:
    """Evolve psi0 by integrating the amplitude equations of motion.

    Independent cross-validation path for :func:`propagate`: same
    truncated model, but expressed in the displaced eigenbasis and
    integrated with an adaptive high-order Runge-Kutta scheme. Every grid
    state is mapped back to the Fock basis and recorded like propagate's.
    """
    from scipy.integrate import solve_ivp  # only this engine needs it

    check_tolerance(tolerance)
    model = _EigenbasisModel(spec, bins, n_vib)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.layout.dimension,):
        raise ConfigError("initial state dimension does not match model")
    recorder = _Recorder(psi0, model.layout, dt_record, t_final, state_times)

    a0, a1, a2 = model.to_eigen(psi0)
    y0 = np.concatenate(([a0], a1.ravel(), a2.ravel()))
    if recorder.n_steps == 0:
        ys = y0[:, None]
    else:
        rtol = max(1e-13, 0.01 * tolerance)
        sol = solve_ivp(
            model.rhs,
            (0.0, t_final),
            y0,
            method="DOP853",
            t_eval=recorder.times,
            rtol=rtol,
            atol=rtol,
        )
        if not sol.success:
            raise PropagationError(f"EoM integration failed: {sol.message}")
        ys = sol.y
    if not np.isfinite(ys).all():
        raise PropagationError("non-finite amplitudes in EoM integration")

    nb, nv = model.layout.n_bins, model.layout.n_vib
    for k, col in enumerate(ys.T):
        psi = model.to_fock(
            col[0], col[1 : 1 + nb * nv].reshape(nb, nv), col[1 + nb * nv :].reshape(nb, nv)
        )
        recorder.record(k, psi)
    return recorder.trajectory(psi, initial_state_label)
