"""Hamiltonian assembly for the binned-disorder cavity model.

Every matrix is defined once, in the undisplaced Fock basis of every
vibrational mode, by the triplets :func:`assemble_hamiltonian` describes.
Displaced-surface vibrational terms are expanded analytically to
tridiagonal form, so these matrices are exactly sparse and free of
displacement-operator truncation error. The photon diagonal carries the
-i*kappa/2 loss term; everything else is Hermitian.

The binned model is stepped in another basis. Every bin carries the same
real-symmetric vibronic block K' = K + delta2*P_e2, shifted by its
frequency, so in the eigenbasis of K' its Hamiltonian is an arrowhead:
a diagonal plus one photon row and column (:class:`ArrowheadOperator`).
That operator needs numpy only. The Fock-basis CSR matrix, which the
reference engines step and the tests inspect, is built on demand and
imports scipy.sparse only then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigError, DimensionCapError
from .model import BasisLayout, BinSet, ModelSpec

DEFAULT_DIMENSION_CAP = 500_000


def displaced_number_operator(s: float, n_vib: int) -> np.ndarray:
    """Number operator of a surface displaced by s, in the undisplaced basis.

    Expanding D(s) b'b D'(s) = b'b - s(b + b') + s^2 gives a symmetric
    tridiagonal matrix: diagonal n + s^2, off-diagonal -s*sqrt(n+1).
    """
    if n_vib < 2:
        raise ConfigError("n_vib must be >= 2")
    n = np.arange(n_vib, dtype=float)
    op = np.diag(n + s * s)
    ladder = -s * np.sqrt(n[1:])
    op += np.diag(ladder, 1) + np.diag(ladder, -1)
    return op


def fc_overlap(s: float, level: int) -> float:
    """Overlap of the undisplaced ground state with displaced level l.

    <0|D(s)|l> = exp(-s^2/2) (-s)^l / sqrt(l!), the sign convention that
    matches displaced_number_operator (displaced eigenstates are D(s)|l>).
    """
    if level < 0:
        raise ConfigError("level must be >= 0")
    if s == 0.0:
        return 1.0 if level == 0 else 0.0
    sign = 1.0 if (level % 2 == 0 or s < 0) else -1.0
    log_mag = -0.5 * s * s + level * math.log(abs(s)) - 0.5 * math.lgamma(level + 1)
    return sign * math.exp(log_mag)


class ArrowheadOperator:
    """A diagonal plus a full first row, and a first column equal to it.

    arm holds the first row past the diagonal, so dot(x) is diagonal*x
    plus arm.x[1:] in the first entry and x[0]*arm in the others. dot is
    all the steppers of :func:`polarbin.propagator.propagate` ask of a
    matrix; shape and nnz (the stored entries) serve reports.
    """

    def __init__(self, diagonal: np.ndarray, arm: np.ndarray):
        self.diagonal = diagonal
        self.arm = arm
        self.shape = (len(diagonal),) * 2
        self.nnz = len(diagonal) + 2 * len(arm)

    def dot(self, x: np.ndarray) -> np.ndarray:
        out = self.diagonal * x
        out[0] += self.arm @ x[1:]
        out[1:] += x[0] * self.arm
        return out


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """An assembled Hamiltonian, with the basis it is stepped in.

    entries holds the Fock-basis (rows, cols, values) of every structural
    entry, sorted by row and then column (the order of CSR arrays), and
    enclosure the rectangle of :func:`_enclosure` around their numerical
    range, which no change of basis moves. matrix is the operator
    propagate steps, in the working basis. Without basis that is the Fock
    basis. With basis, the eigenvectors U of the shared block K' as
    columns, a working vector is the photon amplitude followed by the
    (2*n_vib, n_bins) array whose column i is U' x_i, x_i being bin i's
    reactant levels followed by its product levels.
    """

    matrix: object
    layout: BasisLayout
    entries: tuple
    basis: np.ndarray | None = None
    enclosure: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # derived here, while the memory the assembly just freed can hold
        # its temporaries, and again whenever dataclasses.replace changes entries
        object.__setattr__(self, "enclosure", _enclosure(self.entries, self.dimension))

    @property
    def dimension(self) -> int:
        return self.layout.dimension

    def to_working(self, psi: np.ndarray) -> np.ndarray:
        """A Fock-basis state in the working basis."""
        if self.basis is None:
            return psi
        photon, excited = self.layout.blocks(psi)
        bins_last = excited.transpose(0, 2, 1).reshape(len(self.basis), -1)
        # U is real: a real product on the interleaved float view, as in to_fock
        working = (self.basis.T @ bins_last.view(float)).view(complex)
        return np.concatenate((photon, working.ravel()))

    def to_fock(self, y: np.ndarray) -> np.ndarray:
        """A working-basis state, or each row of a block of them, in the
        Fock basis: one real matrix product per state, in one call."""
        if self.basis is None:
            return y
        n_vib, lead = self.layout.n_vib, y.shape[:-1]
        # U is real, so it multiplies the interleaved float view of y
        working = y[..., self.layout.photon_dim :].reshape(*lead, 2 * n_vib, -1).view(float)
        fock = (self.basis @ working).view(complex).reshape(*lead, 2, n_vib, -1)
        psi = np.empty_like(y)
        photon, excited = self.layout.blocks(psi)
        photon[:] = y[..., : self.layout.photon_dim]
        excited[:] = np.swapaxes(fock, -1, -2)
        return psi

    def fock_matrix(self):
        """The Fock-basis matrix as scipy CSR, built from entries."""
        return _csr(self.entries, self.dimension)

    def hermiticity_defect(self) -> float:
        """Max |H - H'| over all entries except the lossy photon-block diagonal."""
        matrix = self.fock_matrix()
        defect = (matrix - matrix.conjugate().transpose()).tocoo()
        mask = ~((defect.row == defect.col) & (defect.row < self.layout.photon_dim))
        if not mask.any():
            return 0.0
        return float(np.abs(defect.data[mask]).max())


# a huge finite entry overflows the rectangle; the step plan then takes Krylov
@np.errstate(over="ignore", invalid="ignore")
def _enclosure(entries, dimension: int) -> tuple[float, float, float, float]:
    """(lo, hi, slo, shi): Gershgorin intervals of the Hermitian part
    (H + H^H)/2 and of the skew part (H - H^H)/2i.

    entries are H's (rows, cols, values), each entry once, sorted by row
    and then column, in a symmetric pattern that holds the whole diagonal:
    so each row's radius is summed in column order, as over CSR arrays.
    """
    rows, cols, values = entries
    # the pattern is symmetric, so a stable sort of the row-sorted entries
    # by column lists the transposes
    adjoint = values[np.argsort(cols, kind="stable")]
    np.conjugate(adjoint, out=adjoint)
    off = rows != cols
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


def check_dimension(dimension: int, cap: int) -> None:
    if dimension > cap:
        raise DimensionCapError(f"dimension {dimension} exceeds cap {cap}")


# a huge finite parameter overflows to inf here; the step plan refuses it
@np.errstate(over="ignore", invalid="ignore")
def vibronic_block(spec: ModelSpec, n_vib: int) -> np.ndarray:
    """Real-symmetric vibronic block K of one molecule, exciton energy excluded.

    Reactant levels first, then product levels: omega_nu*n(s1) and
    omega_nu*n(s2) on the diagonal blocks, v12 times the identity between
    them. Every bin of the effective Hamiltonian carries this block,
    shifted on the diagonal by its frequency omega_i on the reactant
    levels and by omega_i + delta2 on the product levels.
    """
    eye = np.eye(n_vib)
    return np.block([
        [spec.omega_nu * displaced_number_operator(spec.s1, n_vib), spec.v12 * eye],
        [spec.v12 * eye, spec.omega_nu * displaced_number_operator(spec.s2, n_vib)],
    ])


def assemble_hamiltonian(spec: ModelSpec, layout: BasisLayout, omegas,
                         links) -> EffectiveHamiltonian:
    """Assemble the Fock-basis Hamiltonian of any layout as CSR.

    An excited block spans the vibrational configurations of layout.n_modes
    modes, and coordinate j vibrates along its own mode: mode j when every
    coordinate has one, else the single mode. Coordinate j carries the
    vibronic block K on its own mode, shifted by omegas[j] (plus delta2 on
    the product surface), and omega_nu*n of every other mode. The photon
    block holds omega_c - i*kappa/2 plus the same oscillators on its
    photon_dim configurations, and links[j] couples photon configuration c
    to reactant configuration c of coordinate j. The triplets are laid out
    by index arithmetic and converted to CSR once. All structural entries
    are stored even when numerically zero, so the sparsity pattern is
    independent of the parameter values.
    """
    matrix = _csr(_triplets(spec, layout, omegas, links), layout.dimension)
    # CSR holds the entries sorted, as EffectiveHamiltonian keeps them; share its arrays
    rows = np.repeat(np.arange(layout.dimension, dtype=matrix.indices.dtype),
                     np.diff(matrix.indptr))
    return EffectiveHamiltonian(matrix=matrix, layout=layout,
                                entries=(rows, matrix.indices, matrix.data))


def _csr(entries, dimension: int):
    """CSR of (rows, cols, values); the only user of scipy.sparse."""
    import scipy.sparse as sp  # production runs step the arrowhead and never load it

    rows, cols, values = entries
    return sp.csr_matrix((values, (rows, cols)), shape=(dimension, dimension))


# a huge finite parameter overflows to inf here; the step plan refuses it
@np.errstate(over="ignore", invalid="ignore")
def _triplets(spec: ModelSpec, layout: BasisLayout, omegas, links):
    """(rows, cols, values) of every structural entry; see assemble_hamiltonian.

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
    return (np.concatenate((flat, link_photon, link_reactant, off_rows.ravel())),
            np.concatenate((flat, link_reactant, link_photon, off_cols.ravel())),
            np.concatenate((diagonal, link_values, link_values, off_values.ravel())))


def build_effective_hamiltonian(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> EffectiveHamiltonian:
    """Assemble the single-coordinate effective Hamiltonian as an arrowhead.

    Every bin i carries the vibronic block K of :func:`vibronic_block`
    shifted by its frequency, and the photon couples to its reactant n=0
    level with strength coupling*sqrt(P_i). With K' = K + delta2*P_e2 =
    U diag(lambda) U', the working basis of EffectiveHamiltonian puts
    omega_c - i*kappa/2 and omega_i + lambda_k on the diagonal and
    coupling*sqrt(P_i)*U_0k in the photon row and column.
    """
    bins.validate()
    layout = BasisLayout(bins.n_bins, n_vib)
    check_dimension(layout.dimension, dimension_cap)
    links = spec.coupling * np.sqrt(bins.weights)
    rows, cols, values = _triplets(spec, layout, bins.centers, links)
    order = np.lexsort((cols, rows))  # row by row, as CSR stores them
    entries = (rows[order], cols[order], values[order])
    energies, basis = _shared_eigenbasis(spec, n_vib)
    diagonal = np.empty(layout.dimension, dtype=complex)
    diagonal[0] = spec.omega_c - 0.5j * spec.kappa
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal[1:] = (energies[:, None] + bins.centers).ravel()
    # complex, so that neither product of dot converts it at every step
    arm = np.outer(basis[0], links).ravel().astype(complex)
    return EffectiveHamiltonian(matrix=ArrowheadOperator(diagonal, arm), layout=layout,
                                entries=entries, basis=basis)


# a huge finite parameter overflows to inf here; the step plan refuses it
@np.errstate(over="ignore", invalid="ignore")
def _shared_eigenbasis(spec: ModelSpec, n_vib: int):
    """Eigenvalues and eigenvectors (columns) of K' = K + delta2 on the product levels.

    A K' that is not finite keeps its diagonal and the identity: the step
    plan refuses the Fock entries before any step is taken.
    """
    block = vibronic_block(spec, n_vib)
    block[n_vib:, n_vib:] += spec.delta2 * np.eye(n_vib)
    if not np.isfinite(block).all():
        return np.diag(block).copy(), np.eye(2 * n_vib)
    return np.linalg.eigh(block)
