"""Sparse Hamiltonian assembly for the binned-disorder cavity model.

The working basis is the undisplaced Fock basis of every vibrational
mode. Displaced-surface vibrational terms are expanded analytically
to tridiagonal form, so the matrices are exactly sparse and free of
displacement-operator truncation error. The photon diagonal carries the
-i*kappa/2 loss term; everything else is Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

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
    layout: BasisLayout

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        """Max |H - H'| over all entries except the lossy photon-block diagonal."""
        defect = (self.matrix - self.matrix.conjugate().transpose()).tocoo()
        mask = ~((defect.row == defect.col) & (defect.row < self.layout.photon_dim))
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


def assemble_hamiltonian(spec: ModelSpec, layout: BasisLayout, omegas,
                         links) -> EffectiveHamiltonian:
    """Assemble the Hamiltonian of any layout from per-coordinate data.

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
    # built in a helper so that its temporaries are freed before the conversion
    rows, cols, values = _triplets(spec, layout, omegas, links)
    matrix = sp.csr_matrix((values, (rows, cols)), shape=(layout.dimension,) * 2)
    return EffectiveHamiltonian(matrix=matrix, layout=layout)


# a huge finite parameter overflows to inf here; the step plan refuses it
@np.errstate(over="ignore", invalid="ignore")
def _triplets(spec: ModelSpec, layout: BasisLayout, omegas, links):
    """(rows, cols, values) of every structural entry; see assemble_hamiltonian."""
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
    """Assemble the single-coordinate effective Hamiltonian.

    Every bin i carries the vibronic block K of :func:`vibronic_block`
    shifted by its frequency, and the photon couples to its reactant n=0
    level with strength coupling*sqrt(P_i).
    """
    bins.validate()
    layout = BasisLayout(bins.n_bins, n_vib)
    check_dimension(layout.dimension, dimension_cap)
    return assemble_hamiltonian(spec, layout, bins.centers,
                                spec.coupling * np.sqrt(bins.weights))
