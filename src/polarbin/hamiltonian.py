"""The Hamiltonian of the binned-disorder cavity model, as it is stepped.

Every bin carries the same real-symmetric vibronic block K' = K +
delta2*P_e2 (:func:`vibronic_block`), shifted by its frequency. K is
defined in the undisplaced Fock basis: displaced-surface vibrational terms
are expanded analytically to tridiagonal form, free of displacement-operator
truncation error. In the eigenbasis of K' the Hamiltonian is therefore an
arrowhead: a diagonal plus one photon row and column
(:class:`ArrowheadOperator`), whose photon diagonal carries the
-i*kappa/2 loss term. :meth:`EffectiveHamiltonian.enclosure` bounds its
numerical range from that diagonal and arm alone, so this module needs
numpy only. The Fock-basis matrices of the same model, which the
reference engines step and the tests compare against, are assembled in
:mod:`polarbin.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionCapError, PropagationError
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


class ArrowheadOperator:
    """A diagonal plus a full first row, and a first column equal to it.

    arm holds the first row past the diagonal, so dot(x) is diagonal*x
    plus arm.x[1:] in the first entry and x[0]*arm in the others. dot is
    all the steppers of :func:`polarbin.propagator.propagate` ask of a
    matrix, and enclosure bounds the step plan; shape and nnz (the stored
    entries) serve reports.
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

    # a huge finite entry overflows the rectangle; the step plan then takes Krylov
    @np.errstate(over="ignore", invalid="ignore")
    def enclosure(self) -> tuple[float, float, float, float]:
        """(lo, hi, slo, shi): intervals holding the spectra of the Hermitian
        part (H + H^H)/2 and of the skew part (H - H^H)/2i, so that their
        rectangle holds the numerical range of H.

        Each part is a real diagonal, the real or imaginary part of H's,
        plus a border: that part of the arm in the first row and column,
        whose eigenvalues are +-|border| and zeros. By Weyl's inequality the
        part's spectrum lies in the diagonal's range widened by |border|.
        An entry that is not finite raises PropagationError.
        """
        check_finite(self.diagonal, self.arm)
        bounds = []
        for part in (np.real, np.imag):
            centre, radius = part(self.diagonal), np.linalg.norm(part(self.arm))
            bounds += [float(centre.min() - radius), float(centre.max() + radius)]
        return tuple(bounds)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """The binned Hamiltonian as the arrowhead propagate steps, with its basis.

    matrix is the :class:`ArrowheadOperator` in the working basis; basis
    holds the eigenvectors U of the shared block K' as columns. A working
    vector is the photon amplitude followed by the (2*n_vib, n_bins) array
    whose column i is U' x_i, x_i being bin i's reactant levels followed
    by its product levels.
    """

    matrix: object
    layout: BasisLayout
    basis: np.ndarray

    def enclosure(self) -> tuple[float, float, float, float]:
        """The rectangle of :meth:`ArrowheadOperator.enclosure`. It holds the
        Fock-basis matrix's numerical range too, which no change of basis moves."""
        return self.matrix.enclosure()

    def to_working(self, psi: np.ndarray) -> np.ndarray:
        """A Fock-basis state in the working basis."""
        photon, excited = self.layout.blocks(psi)
        bins_last = excited.transpose(0, 2, 1).reshape(len(self.basis), -1)
        # U is real: a real product on the interleaved float view, as in to_fock
        working = (self.basis.T @ bins_last.view(float)).view(complex)
        return np.concatenate((photon, working.ravel()))

    def to_fock(self, y: np.ndarray) -> np.ndarray:
        """A working-basis state, or each row of a block of them, in the
        Fock basis: one real matrix product per state, in one call."""
        n_vib, lead = self.layout.n_vib, y.shape[:-1]
        # U is real, so it multiplies the interleaved float view of y
        working = y[..., self.layout.photon_dim :].reshape(*lead, 2 * n_vib, -1).view(float)
        fock = (self.basis @ working).view(complex).reshape(*lead, 2, n_vib, -1)
        psi = np.empty_like(y)
        photon, excited = self.layout.blocks(psi)
        photon[:] = y[..., : self.layout.photon_dim]
        excited[:] = np.swapaxes(fock, -1, -2)
        return psi


def check_finite(*arrays) -> None:
    """Raise PropagationError unless every entry of arrays, the stored
    entries of a matrix about to be stepped, is finite."""
    if not all(np.isfinite(array).all() for array in arrays):
        raise PropagationError("the Hamiltonian has entries that are not finite")


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


def build_effective_hamiltonian(
    spec: ModelSpec,
    bins: BinSet,
    n_vib: int,
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
    check_dimension(layout.dimension, DEFAULT_DIMENSION_CAP)
    links = spec.coupling * np.sqrt(bins.weights)
    energies, basis = _shared_eigenbasis(spec, n_vib)
    diagonal = np.empty(layout.dimension, dtype=complex)
    diagonal[0] = spec.omega_c - 0.5j * spec.kappa
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal[1:] = (energies[:, None] + bins.centers).ravel()
    # complex, so that neither product of dot converts it at every step
    arm = np.outer(basis[0], links).ravel().astype(complex)
    return EffectiveHamiltonian(matrix=ArrowheadOperator(diagonal, arm), layout=layout,
                                basis=basis)


# a huge finite parameter overflows to inf here; the step plan refuses it
@np.errstate(over="ignore", invalid="ignore")
def _shared_eigenbasis(spec: ModelSpec, n_vib: int):
    """Eigenvalues and eigenvectors (columns) of K' = K + delta2 on the product levels.

    A K' that is not finite has none: nan eigenvalues and the identity,
    which the step plan refuses before any step is taken.
    """
    block = vibronic_block(spec, n_vib)
    block[n_vib:, n_vib:] += spec.delta2 * np.eye(n_vib)
    if not np.isfinite(block).all():
        return np.full(2 * n_vib, np.nan), np.eye(2 * n_vib)
    return np.linalg.eigh(block)
