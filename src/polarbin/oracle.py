"""Reference engines, and the Fock-basis assembly only they use.

:func:`assemble_hamiltonian` places every entry of the model's Fock-basis
matrix by index arithmetic, for any basis layout, into a numpy CSR
operator (a :class:`FockHamiltonian`), stepped in the Fock basis under a
Gershgorin rectangle. Two tensor-product reference constructions,
deliberately expensive and kept small, are built from it:

* the explicit finite ensemble (every molecule with its own vibrational
  coordinate, single-molecule coupling g = G/sqrt(N), no Franck-Condon
  projector): the binned model is its large-ensemble limit at fixed
  collective coupling;
* the multi-coordinate two-bin form: collapsing all bins onto one shared
  coordinate is exact for the supported initial states.

Both reuse :func:`polarbin.propagator.propagate` and
:func:`polarbin.observables.populations` verbatim, so the engine under
test differs only in Hamiltonian assembly and in the basis it is stepped
in: these CSR matrices step in the Fock basis, the binned one as an
arrowhead in its vibronic eigenbasis. On the binned layout the same
placement gives the binned model's own Fock matrix, which the tests
compare the arrowhead against.

:func:`propagate_eom` is an independent integrator for the binned model
itself: it solves the amplitude equations of motion in the displaced
vibrational eigenbasis with an adaptive explicit Runge-Kutta method and
returns the same :class:`~polarbin.propagator.Trajectory` as
:func:`propagate`. Both represent the identical truncated model, so any
disagreement beyond integrator tolerances is a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import blas
from .errors import ConfigError, PropagationError
from .hamiltonian import (
    DEFAULT_DIMENSION_CAP,
    build_effective_hamiltonian,
    check_dimension,
    check_finite,
    displaced_number_operator,
    vibronic_block,
)
from .model import BasisLayout, BinSet, ModelSpec
from .observables import populations
from .propagator import DEFAULT_TOLERANCE, Trajectory, make_initial_state, propagate

EXPLICIT_DIMENSION_CAP = 50_000
MAX_EXPLICIT_MOLECULES = 4


class CsrOperator:
    """A sparse matrix in compressed sparse row form, read-only once made.

    Row r holds data[indptr[r]:indptr[r + 1]] in the columns of the same
    slice of indices. dot is all the steppers ask of a matrix; shape and
    nnz (the stored entries) serve reports.

    dot runs on a copy in fixed-width rows: slot k of row r holds the
    row's k-th entry, or a zero in column r past its last, so one
    product is a few whole-vector passes, each row summed in column
    order. The explicit ensembles store at most N + 1 entries a row.
    """

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (len(indptr) - 1,) * 2
        self.nnz = len(data)
        lengths = np.diff(indptr)
        rows = np.repeat(np.arange(self.shape[0]), lengths)
        slots = np.arange(self.nnz) - indptr[rows]
        self._slot_values = np.zeros((lengths.max(initial=1), self.shape[0]), dtype=data.dtype)
        self._slot_values[slots, rows] = data
        self._slot_columns = np.tile(np.arange(self.shape[0]), (len(self._slot_values), 1))
        self._slot_columns[slots, rows] = indices

    @classmethod
    def from_triplets(cls, values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                      dimension: int) -> CsrOperator:
        """The dimension-square matrix with entry values[i] at (rows[i],
        cols[i]), no two at the same place, sorted by row and then column."""
        order = np.lexsort((cols, rows))
        indptr = np.zeros(dimension + 1, dtype=int)
        np.cumsum(np.bincount(rows, minlength=dimension), out=indptr[1:])
        return cls(values[order], cols[order], indptr)

    def dot(self, x: np.ndarray) -> np.ndarray:
        out = self._slot_values[0] * x[self._slot_columns[0]]
        for values, columns in zip(self._slot_values[1:], self._slot_columns[1:]):
            out += values * x[columns]
        return out


@dataclass(frozen=True)
class FockHamiltonian:
    """A Fock-basis Hamiltonian as a :class:`CsrOperator`, stepped in the
    Fock basis.

    Its CSR arrays hold each structural entry once, sorted by row and then
    column, in a symmetric pattern that holds the whole diagonal.
    """

    matrix: object
    layout: BasisLayout
    gershgorin: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # taken here, while the memory the assembly just freed can hold its
        # temporaries, and again whenever dataclasses.replace changes matrix
        object.__setattr__(self, "gershgorin", _gershgorin(self.matrix, self.matrix.shape[0]))

    def to_working(self, psi: np.ndarray) -> np.ndarray:
        return psi

    def to_fock(self, y: np.ndarray) -> np.ndarray:
        return y

    def enclosure(self) -> tuple[float, float, float, float]:
        """The gershgorin rectangle; an entry of matrix that is not finite
        raises PropagationError."""
        check_finite(self.matrix.data)
        return self.gershgorin


# a huge finite entry overflows the rectangle; the step plan then takes Krylov
@np.errstate(over="ignore", invalid="ignore")
def _gershgorin(matrix, dimension: int) -> tuple[float, float, float, float]:
    """(lo, hi, slo, shi): Gershgorin intervals of the Hermitian part
    (H + H^H)/2 and of the skew part (H - H^H)/2i of CSR H, whose rectangle
    holds its numerical range; each row's radius is summed in column order.
    """
    values = matrix.data
    rows = np.repeat(np.arange(dimension, dtype=matrix.indices.dtype),
                     np.diff(matrix.indptr))
    # the pattern is symmetric, so a stable sort of the row-sorted entries
    # by column lists the transposes
    adjoint = values[np.argsort(matrix.indices, kind="stable")]
    np.conjugate(adjoint, out=adjoint)
    off = rows != matrix.indices
    off_rows = rows[off]

    def interval(part):
        radius = np.bincount(off_rows, np.abs(part)[off], minlength=dimension)
        centre = part[~off].real
        return [float((centre - radius).min()), float((centre + radius).max())]

    # in place, one part at a time, so the large reference matrices add
    # little to the peak memory
    part = values + adjoint
    part *= 0.5
    bounds = interval(part)
    del part
    skew = np.subtract(values, adjoint, out=adjoint)
    skew *= -0.5j
    return tuple(bounds + interval(skew))


def assemble_hamiltonian(spec: ModelSpec, layout: BasisLayout, omegas,
                         links) -> FockHamiltonian:
    """Assemble the Fock-basis Hamiltonian of any layout as a CsrOperator.

    An excited block spans the vibrational configurations of layout.n_modes
    modes, and coordinate j vibrates along its own mode: mode j when every
    coordinate has one, else the single mode. Coordinate j carries the
    vibronic block K on its own mode, shifted by omegas[j] (plus delta2 on
    the product surface), and omega_nu*n of every other mode. The photon
    block holds omega_c - i*kappa/2 plus the same oscillators on its
    photon_dim configurations, and links[j] couples photon configuration c
    to reactant configuration c of coordinate j. The triplets are laid out
    by index arithmetic, each entry once, and sorted into CSR order. All
    structural entries are stored even when numerically zero, so the
    sparsity pattern is independent of the parameter values.
    """
    # the triplets are freed before the rectangle takes its temporaries
    matrix = CsrOperator.from_triplets(*_triplets(spec, layout, omegas, links),
                                       layout.dimension)
    return FockHamiltonian(matrix=matrix, layout=layout)


# a huge finite parameter overflows to inf here; the step plan refuses it
@np.errstate(over="ignore", invalid="ignore")
def _triplets(spec: ModelSpec, layout: BasisLayout, omegas, links):
    """(values, rows, cols) of every structural entry, in no particular
    order; see assemble_hamiltonian.

    The one definition of every Fock-basis matrix: each entry once, in a
    symmetric pattern.
    """
    n_vib, n_modes, vib_dim = layout.n_vib, layout.n_modes, layout.vib_dim
    coords = np.arange(layout.n_coords)
    own = coords % n_modes  # mode j, or mode 0 of a one-mode layout
    levels = np.indices((n_vib,) * n_modes).reshape(n_modes, vib_dim)
    own_levels = levels[own]  # (n_coords, vib_dim)
    k = vibronic_block(spec, n_vib)
    # diagonal terms per mode, surface, coordinate and configuration; the
    # own mode's term is K_aa, and the modes are summed in order after the
    # shift: (omega_j + offset) + ((t_0 + t_1) + ...)
    oscillators = spec.omega_nu * levels
    is_own = (np.arange(n_modes)[:, None] == own)[:, None, :, None]
    k_diagonal = np.diag(k).reshape(2, n_vib)[:, own_levels]
    terms = np.where(is_own, k_diagonal, oscillators[:, None, None, :])
    shift = np.asarray(omegas)[None, :, None] + np.array([0.0, spec.delta2])[:, None, None]
    diagonal = np.empty(layout.dimension, dtype=complex)
    photon_block, excited = layout.blocks(diagonal)
    photon_block[:] = (spec.omega_c - 0.5j * spec.kappa) + reduce(
        np.add, oscillators[:, : layout.photon_dim])
    excited[:] = shift + reduce(np.add, terms)
    # K's structural off-diagonal: the two surface ladders and the v12 identity
    eye = np.eye(n_vib)
    ladder = np.eye(n_vib, k=1) + np.eye(n_vib, k=-1)
    local_rows, local_cols = np.nonzero(np.block([[ladder, eye], [eye, ladder]]))
    surface_r, level_r = np.divmod(local_rows, n_vib)
    surface_c, level_c = np.divmod(local_cols, n_vib)
    # K_rc moves the own mode from level_r to level_c in every configuration
    # of the other modes; base holds those configurations at own level 0
    base = np.nonzero(own_levels == 0)[1].reshape(layout.n_coords, 1, -1)
    stride = (n_vib ** (n_modes - 1 - own))[:, None, None]
    coord = coords[:, None, None]
    off_rows = layout.index(surface_r[:, None], coord, base + stride * level_r[:, None])
    off_cols = layout.index(surface_c[:, None], coord, base + stride * level_c[:, None])
    off_values = np.broadcast_to(k[local_rows, local_cols][:, None], off_rows.shape)
    photon = np.arange(layout.photon_dim)
    link_photon = np.tile(photon, layout.n_coords)
    link_reactant = layout.index(0, coords[:, None], photon).ravel()
    link_values = np.repeat(links, layout.photon_dim)
    flat = np.arange(layout.dimension)
    return (np.concatenate((diagonal, link_values, link_values, off_values.ravel())),
            np.concatenate((flat, link_photon, link_reactant, off_rows.ravel())),
            np.concatenate((flat, link_reactant, link_photon, off_cols.ravel())))


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


class ExplicitLayout(BasisLayout):
    """Basis of the tensor-product reference Hamiltonians.

    The blocks of BasisLayout with one vibrational mode per coordinate,
    each excited block spanning all n_vib**n_coords configurations. The
    explicit ensemble has one coordinate per molecule and a photon block
    as large as an excited one; the multi-coordinate form has one
    coordinate per bin and a one-state photon block (ground-state
    molecules stay in the shared ground vibrational wavefunction).
    block_bins maps coordinates to bins.
    """

    def __init__(self, block_bins, n_bins: int, n_vib: int, photon_dim: int):
        self.block_bins = np.asarray(block_bins)
        self.n_bins = n_bins
        self.n_vib = n_vib
        self.photon_dim = photon_dim
        self.n_coords = len(self.block_bins)
        self.n_modes = self.n_coords


def build_explicit_hamiltonian(
    spec: ModelSpec,
    ensemble: ExplicitEnsemble,
) -> FockHamiltonian:
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
    check_dimension(layout.dimension, EXPLICIT_DIMENSION_CAP)
    return assemble_hamiltonian(spec, layout, ensemble.bins.centers[ensemble.molecule_bins],
                                np.full(n, ensemble.g_single))


def build_multibin_hamiltonian(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
) -> FockHamiltonian:
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
    check_dimension(layout.dimension, DEFAULT_DIMENSION_CAP)
    # the photon state is the all-ground configuration: the Franck-Condon projector
    return assemble_hamiltonian(spec, layout, bins.centers,
                                spec.coupling * np.sqrt(bins.weights))


@dataclass(frozen=True)
class DeviationReport:
    """Absolute deviations between a reference engine and the binned one."""

    photon_max: float
    photon_final: float
    p_e1_max: float          # max over bins and times
    p_e1_final: float
    p_e2_max: float
    p_e2_final: float
    p_e1_total_max: float
    autocorr_max: float
    autocorr_final: float


def _compare(reference, spec, bins, n_vib, dt_record, t_final, tolerance,
             initial_state) -> DeviationReport:
    """Propagate a reference engine and the binned one from the same named state."""
    records = []
    for ham in (reference, build_effective_hamiltonian(spec, bins, n_vib)):
        traj = propagate(
            ham, make_initial_state(initial_state, ham.layout, bins),
            dt_record, t_final, tolerance,
        )
        records.append((populations(traj), traj.autocorr))
    (ref, c_ref), (eff, c_eff) = records
    d_e1 = np.abs(ref.p_e1 - eff.p_e1)
    d_e2 = np.abs(ref.p_e2 - eff.p_e2)
    d_ph = np.abs(ref.photon - eff.photon)
    d_c = np.abs(c_ref - c_eff)
    return DeviationReport(
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
    return _compare(build_explicit_hamiltonian(spec, ensemble), spec, bins, n_vib,
                    dt_record, t_final, tolerance, "photonic")


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
    return _compare(build_multibin_hamiltonian(spec, bins, n_vib), spec, bins, n_vib,
                    dt_record, t_final, tolerance, initial_state)


class _EigenbasisModel:
    """Per-surface eigendecomposition of the truncated vibrational operators.

    Diagonalizing the truncated displaced number operators keeps this
    engine unitarily equivalent, block by block, to the Fock-basis matrix of
    build_effective_hamiltonian: the photon coupling picks up the ground
    row of the reactant eigenvectors (the truncated Franck-Condon
    amplitudes) and the diabatic coupling becomes the overlap matrix
    between the two eigenbases.
    """

    def __init__(self, spec: ModelSpec, bins: BinSet, n_vib: int):
        self.spec = spec
        self.layout = BasisLayout(bins.n_bins, n_vib)
        lam1, self.u1 = np.linalg.eigh(displaced_number_operator(spec.s1, n_vib))
        lam2, self.u2 = np.linalg.eigh(displaced_number_operator(spec.s2, n_vib))
        self.fc_row = self.u1[0, :].copy()
        self.overlap = self.u1.T @ self.u2
        self.sqrt_w = np.sqrt(bins.weights)
        self.e1_freq = bins.centers[:, None] + spec.omega_nu * lam1[None, :]
        self.e2_freq = bins.centers[:, None] + spec.delta2 + spec.omega_nu * lam2[None, :]

    def to_eigen(self, psi: np.ndarray) -> np.ndarray:
        return self._rotate(psi, self.u1, self.u2)

    def to_fock(self, y: np.ndarray) -> np.ndarray:
        return self._rotate(y, self.u1.T, self.u2.T)

    def _rotate(self, vector, r1, r2) -> np.ndarray:
        """vector, or each row of a block of them, laid out as layout.blocks
        reads it, with its reactant blocks times r1 and its product blocks
        times r2."""
        photon, excited = self.layout.blocks(vector)
        out = np.empty(vector.shape, dtype=complex)
        out_photon, out_excited = self.layout.blocks(out)
        out_photon[:] = photon
        out_excited[..., 0, :, :] = excited[..., 0, :, :] @ r1
        out_excited[..., 1, :, :] = excited[..., 1, :, :] @ r2
        return out

    def rhs(self, _t, y):
        (a0,), (a1, a2) = self.layout.blocks(y)
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
        dy = np.empty_like(y)
        dy_photon, dy_excited = self.layout.blocks(dy)
        dy_photon[0], dy_excited[0], dy_excited[1] = d0, d1, d2
        return -1j * dy


def propagate_eom(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
    psi0: np.ndarray,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
    state_times=(),
) -> Trajectory:
    """Evolve psi0 by integrating the amplitude equations of motion.

    Independent cross-validation path for :func:`propagate`: same
    truncated model, but expressed in the displaced eigenbasis and
    integrated with an adaptive high-order Runge-Kutta scheme. The
    Trajectory checks the inputs as propagate's does; every grid state is
    mapped back to the Fock basis and recorded like propagate's.
    """
    solve_ivp = blas.import_at_one_thread("scipy.integrate").solve_ivp  # only this engine needs it
    model = _EigenbasisModel(spec, bins, n_vib)
    traj = Trajectory(psi0, model, dt_record, t_final, state_times, tolerance)
    if len(traj.times) == 1:
        return traj
    rtol = max(1e-13, 0.01 * tolerance)
    sol = solve_ivp(
        model.rhs,
        (0.0, t_final),
        model.to_eigen(traj.psi0),
        method="DOP853",
        t_eval=traj.times,
        rtol=rtol,
        atol=rtol,
    )
    if not sol.success:
        raise PropagationError(f"EoM integration failed: {sol.message}")
    # the first column is psi0, which the Trajectory recorded when made
    traj.record(1, sol.y[:, 1:].T)
    return traj
