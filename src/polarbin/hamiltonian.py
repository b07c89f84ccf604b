"""Sparse Hamiltonian assembly for the binned-disorder cavity model.

The working basis is the undisplaced Fock basis of the shared vibrational
coordinate. Displaced-surface vibrational terms are expanded analytically
to tridiagonal form, so the matrices are exactly sparse and free of
displacement-operator truncation error. The photon diagonal carries the
-i*kappa/2 loss term; everything else is Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Assembled sparse Hamiltonian with its basis layout."""

    matrix: sp.csr_matrix
    layout: object

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        """Max |H - H'| over all entries except the lossy photon diagonal."""
        defect = (self.matrix - self.matrix.conjugate().transpose()).tocoo()
        mask = ~((defect.row == 0) & (defect.col == 0))
        if not mask.any():
            return 0.0
        return float(np.abs(defect.data[mask]).max())




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
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> EffectiveHamiltonian:
    """Assemble the single-coordinate effective Hamiltonian.

    Every bin i carries the vibronic block K of :func:`vibronic_block`
    shifted by its frequency, and the photon couples to its reactant n=0
    level with strength coupling*sqrt(P_i). The triplets are laid out by
    index arithmetic and converted to CSR once. All structural entries
    are stored even when numerically zero, so the sparsity pattern is
    independent of the parameter values.
    """
    bins.validate()
    layout = BasisLayout(bins.n_bins, n_vib)
    check_dimension(layout.dimension, dimension_cap)
    nb = bins.n_bins
    # structural entries of K: two tridiagonal surfaces and a diagonal coupling
    eye = np.eye(n_vib)
    band = eye + np.eye(n_vib, k=1) + np.eye(n_vib, k=-1)
    local_rows, local_cols = np.nonzero(np.block([[band, eye], [eye, band]]))
    values = np.tile(vibronic_block(spec, n_vib)[local_rows, local_cols], (nb, 1))
    diagonal = local_rows == local_cols
    # the bin shift and delta2 are summed first: (omega_i + delta2) + omega_nu*n
    offsets = np.array([0.0, spec.delta2])[local_rows[diagonal] // n_vib]
    shift = bins.centers[:, None] + offsets
    values[:, diagonal] = shift + values[:, diagonal]
    starts = 1 + n_vib * np.arange(nb)[:, None]  # reactant level 0 of each bin

    def place(local):
        # a bin's product levels sit (nb - 1) * n_vib further down than in K
        return (starts + local + (local // n_vib) * (nb - 1) * n_vib).ravel()

    photon = np.zeros(nb, dtype=int)
    fc_coupling = spec.coupling * np.sqrt(bins.weights)
    rows = np.concatenate(([layout.PHOTON], photon, starts.ravel(), place(local_rows)))
    cols = np.concatenate(([layout.PHOTON], starts.ravel(), photon, place(local_cols)))
    vals = np.concatenate(([spec.omega_c - 0.5j * spec.kappa], fc_coupling,
                           fc_coupling, values.ravel()))
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(layout.dimension,) * 2)
    return EffectiveHamiltonian(matrix=matrix, layout=layout)
