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

:func:`deflate` drops the eigenvectors of K' that the photon barely
reaches and bounds the error that this costs.

A photonic run's autocorrelation and norm depend on the photon amplitude
a0(t) alone. :func:`photon_chain` maps the photon's star onto a real
tridiagonal chain by Lanczos (:class:`PhotonChain`), whose first site is
the photon and whose length is set by the Chebyshev tail of
:func:`series_terms` over the arrowhead's enclosure (see
:func:`chebyshev_frame`), not by the dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ConfigError, DimensionCapError, PropagationError
from .model import BasisLayout, BinSet, ModelSpec

DEFAULT_DIMENSION_CAP = 500_000
# Share of a run's tolerance a photon chain's truncation may spend; the
# steps get the rest. The chain's bound falls faster than exponentially
# with its length, so a smaller share costs a site or two
CHAIN_BUDGET_SHARE = 0.5
# Share of a run's tolerance that deflate may spend on the eigenvectors it
# drops; a photon chain and the steps get the rest
DEFLATION_BUDGET_SHARE = 0.1
# Crouzeix-Palencia: |f(H)| <= (1 + sqrt 2) * max |f| over the numerical range
CROUZEIX = 1.0 + math.sqrt(2.0)


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


class TridiagonalOperator:
    """A symmetric tridiagonal matrix: diagonal, and off on the diagonals
    above and below it. dot, enclosure and shape serve as those of
    :class:`ArrowheadOperator` do.
    """

    def __init__(self, diagonal: np.ndarray, off: np.ndarray):
        self.diagonal = diagonal
        self.off = off
        self.shape = (len(diagonal),) * 2

    def dot(self, x: np.ndarray) -> np.ndarray:
        out = self.diagonal * x
        out[:-1] += self.off * x[1:]
        out[1:] += self.off * x[:-1]
        return out

    # a huge finite entry overflows the rectangle; the step plan then takes Krylov
    @np.errstate(over="ignore", invalid="ignore")
    def enclosure(self) -> tuple[float, float, float, float]:
        """(lo, hi, slo, shi) as :meth:`ArrowheadOperator.enclosure` gives
        them, by Gershgorin's theorem on each part: the real or imaginary
        part of the diagonal, widened in each row by that part of its two
        off entries. O(L); an entry that is not finite raises PropagationError.
        """
        check_finite(self.diagonal, self.off)
        bounds = []
        for part in (np.real, np.imag):
            reach = np.abs(part(self.off))
            radius = np.zeros(len(self.diagonal))
            radius[:-1] += reach
            radius[1:] += reach
            centre = part(self.diagonal)
            bounds += [float((centre - radius).min()), float((centre + radius).max())]
        return tuple(bounds)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """The binned Hamiltonian as the arrowhead propagate steps, with its basis.

    matrix is the :class:`ArrowheadOperator` in the working basis; basis
    holds the eigenvectors U of the shared block K' as columns, all of
    them or those :func:`deflate` keeps. A working vector is the photon
    amplitude followed by the (columns, n_bins) array whose column i is
    U' x_i, x_i being bin i's reactant levels followed by its product
    levels. spent is the part of a run's tolerance taken before any step:
    0 on the exact arrowhead, the bound of :func:`deflate` on a deflated
    one, which steps only unit states of the photon and the reactant
    ground levels.
    """

    matrix: object
    layout: BasisLayout
    basis: np.ndarray
    spent: float = 0.0

    def enclosure(self) -> tuple[float, float, float, float]:
        """The rectangle of :meth:`ArrowheadOperator.enclosure`. It holds the
        Fock-basis matrix's numerical range too, which no change of basis moves."""
        return self.matrix.enclosure()

    def to_working(self, psi: np.ndarray) -> np.ndarray:
        """A Fock-basis state in the working basis. On a deflated arrowhead,
        a state its bound does not cover raises ConfigError."""
        photon, excited = self.layout.blocks(psi)
        # the named initial states have unit norm up to rounding
        if self.basis.shape[1] < len(self.basis) and (
                excited[0, :, 1:].any() or excited[1].any()
                or np.vdot(psi, psi).real > 1.0 + 1e-12):
            raise ConfigError("a deflated Hamiltonian steps only unit states of the "
                              "photon and the reactant ground levels")
        bins_last = excited.transpose(0, 2, 1).reshape(len(self.basis), -1)
        # U is real: a real product on the interleaved float view, as in to_fock
        working = (self.basis.T @ bins_last.view(float)).view(complex)
        return np.concatenate((photon, working.ravel()))

    def to_fock(self, y: np.ndarray) -> np.ndarray:
        """A working-basis state, or each row of a block of them, in the
        Fock basis: one real matrix product per state, in one call."""
        n_vib, lead = self.layout.n_vib, y.shape[:-1]
        # U is real, so it multiplies the interleaved float view of y
        working = y[..., self.layout.photon_dim :].reshape(
            *lead, self.basis.shape[1], -1).view(float)
        fock = (self.basis @ working).view(complex).reshape(*lead, 2, n_vib, -1)
        psi = np.empty((*lead, self.layout.dimension), dtype=complex)
        photon, excited = self.layout.blocks(psi)
        photon[:] = y[..., : self.layout.photon_dim]
        excited[:] = np.swapaxes(fock, -1, -2)
        return psi


class ChainLayout:
    """The layout a :class:`PhotonChain` gives the Trajectory: site 0 is
    the photon, and the later sites mix every bin, so the chain has no
    coordinate. A chain run records the photon amplitude (the
    autocorrelation of the photon), the norm and the photon population,
    and no matter population.
    """

    PHOTON = 0
    photon_dim = 1
    n_coords = 0

    def __init__(self, sites: int):
        self.dimension = sites

    def blocks(self, vector: np.ndarray):
        """(photon block, an empty (2, 0, 1) block of excited levels),
        as :meth:`polarbin.model.BasisLayout.blocks` gives them."""
        return vector[..., :1], np.empty((*vector.shape[:-1], 2, 0, 1))


@dataclass(frozen=True)
class PhotonChain:
    """The photon amplitude of a photonic run, from a chain of L + 1 sites
    that :func:`photon_chain` maps the arrowhead's photon star onto.

    matrix is the :class:`TridiagonalOperator` J of the Lanczos
    coefficients, with the photon's omega_c - i*kappa/2 on site 0: since
    the photon is the first Lanczos vector, the loss sits there alone. A
    chain state y is its own working and Fock state, y[0] is the photon
    amplitude a0, and |y|^2 decays as 1 - kappa*int |y[0]|^2, as the norm
    of the arrowhead's state does with a0. bound is the a-priori bound on
    |a0 - a0 of the arrowhead| up to the t_final the chain was built for,
    in exact arithmetic; spent is the part of the run's tolerance that
    bound takes, plus the arrowhead's own spent, and propagate steps the
    chain on the rest.
    """

    matrix: object
    layout: ChainLayout
    bound: float
    spent: float

    @property
    def length(self) -> int:
        """L, the sites past the photon."""
        return self.layout.dimension - 1

    def enclosure(self) -> tuple[float, float, float, float]:
        """The Gershgorin rectangle of :meth:`TridiagonalOperator.enclosure`."""
        return self.matrix.enclosure()

    def to_working(self, psi: np.ndarray) -> np.ndarray:
        return psi

    def to_fock(self, y: np.ndarray) -> np.ndarray:
        return y


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
def _shared_block(spec: ModelSpec, n_vib: int) -> np.ndarray:
    """K' = K + delta2 on the product levels."""
    block = vibronic_block(spec, n_vib)
    block[n_vib:, n_vib:] += spec.delta2 * np.eye(n_vib)
    return block


def _shared_eigenbasis(spec: ModelSpec, n_vib: int):
    """Eigenvalues and eigenvectors (columns) of K' of :func:`_shared_block`.

    A K' that is not finite has none: nan eigenvalues and the identity,
    which the step plan refuses before any step is taken.
    """
    block = _shared_block(spec, n_vib)
    if not np.isfinite(block).all():
        return np.full(2 * n_vib, np.nan), np.eye(2 * n_vib)
    return np.linalg.eigh(block)


def deflate(ham: EffectiveHamiltonian, spec: ModelSpec, t_final: float,
            tolerance: float) -> EffectiveHamiltonian:
    """ham on the eigenvectors of K' that the photon reaches: every bin
    loses the rows of a set Q of columns of U.

    The photon couples to bin i's column k with coupling*sqrt(P_i)*U_0k,
    the P_i summing to 1. A unit psi0 in the span of the photon and the
    reactant ground levels has a Q part of norm at most w_Q >= |U_0Q|, so
    by Duhamel's formula and the contraction of exp(-iHt) the state stays
    within spent = (1 + coupling*t_final) * w_Q of ham's. A column's
    weight is |U_0k| plus eigh's rounding: its residual |K'u_k - theta_k
    u_k|, theta_k its Rayleigh quotient, over the gap to the nearest other
    eigenvalue. With b = DEFLATION_BUDGET_SHARE * tolerance / (1 +
    coupling*t_final) and c columns of |U_0k| <= b, those of weight at most
    b / sqrt(c) go, so spent <= b * (1 + coupling*t_final). A weight not
    bounded (a zero gap) keeps its column, and a K', U or arrowhead with an
    entry that is not finite gives ham back.
    """
    basis, arrowhead = ham.basis, ham.matrix
    growth = 1.0 + spec.coupling * t_final
    budget = DEFLATION_BUDGET_SHARE * tolerance / growth
    block = _shared_block(spec, ham.layout.n_vib)
    if not (budget > 0.0 and all(np.isfinite(a).all() for a in (
            block, basis, arrowhead.diagonal, arrowhead.arm))):
        return ham
    candidates = np.flatnonzero(np.abs(basis[0]) <= budget)
    # the first bin's diagonal holds lambda_k + omega_0, in ascending order
    levels = arrowhead.diagonal[1 :: ham.layout.n_coords].real
    with np.errstate(all="ignore"):
        steps = np.diff(levels, prepend=-np.inf, append=np.inf)
        vectors = basis[:, candidates]
        product = block @ vectors
        product -= vectors * (vectors * product).sum(axis=0)
        weights = (np.abs(vectors[0]) + np.linalg.norm(product, axis=0)
                   / np.minimum(steps[:-1], steps[1:])[candidates])
    dropped = weights <= budget / math.sqrt(max(1, len(candidates)))
    if not dropped.any():
        return ham
    kept = np.ones(len(levels), dtype=bool)
    kept[candidates[dropped]] = False
    rows = arrowhead.diagonal[1:].reshape(len(levels), -1)[kept].ravel()
    matrix = ArrowheadOperator(np.concatenate((arrowhead.diagonal[:1], rows)),
                               arrowhead.arm.reshape(len(levels), -1)[kept].ravel())
    return EffectiveHamiltonian(matrix=matrix, layout=ham.layout, basis=basis[:, kept],
                                spent=growth * float(np.linalg.norm(weights[dropped])))


# a huge finite entry overflows the corners; the callers then refuse the frame
@np.errstate(over="ignore", invalid="ignore")
def chebyshev_frame(rectangle) -> tuple[float, float, float]:
    """(c, R, rho) of an enclosure (lo, hi, slo, shi) of a numerical range:
    the centre and half-width of the interval that Chebyshev polynomials
    T_k((z - c)/R) are scaled to, and the largest Bernstein-ellipse
    parameter of the rectangle's corners, so that |T_k| <= rho^k on the
    rectangle. A rectangle that overflows gives an R or rho that is not
    finite.
    """
    lo, hi, slo, shi = rectangle
    radius = max(0.5 * (hi - lo), 0.5 * (shi - slo), np.finfo(float).tiny)
    half = 0.5 * (hi - lo) / radius
    corners = np.array([complex(re, im / radius) for re in (-half, half) for im in (slo, shi)])
    root = np.sqrt(corners * corners - 1.0)
    rho = float(np.maximum(np.abs(corners + root), np.abs(corners - root)).max())
    return 0.5 * (lo + hi), radius, rho


def series_tail(y: float, n_terms: int) -> float:
    """The log of a bound on sum_{k>K} y^k/k! for K = n_terms > y - 2:
    y^(K+1)/(K+1)! / (1 - y/(K+2))."""
    return ((n_terms + 1) * math.log(y) - math.lgamma(n_terms + 2)
            - math.log1p(-y / (n_terms + 2)))


def series_terms(y: float, log_limit: float, max_terms: int) -> int | None:
    """The least K <= max_terms with sum_{k>K} y^k/k! <= exp(log_limit), or None."""
    for n_terms in range(1, max_terms + 1):
        if n_terms + 2 > y and series_tail(y, n_terms) <= log_limit:
            return n_terms
    return None


def photon_chain(ham: EffectiveHamiltonian, t_final: float,
                 tolerance: float) -> PhotonChain | None:
    """The :class:`PhotonChain` that gives the arrowhead's photon amplitude
    a0 up to t_final within its share of tolerance, or None when the chain
    would not be shorter than the arrowhead, which is then stepped itself.

    The chain is the Lanczos tridiagonalization J of the Hermitian (kappa
    = 0) arrowhead H started at the photon, the star-to-chain map of Chin,
    Rivas, Huelga and Plenio (J. Math. Phys. 51, 092109 (2010)), run by
    :func:`_lanczos` on one BLAS thread. Its length L is the least whose
    bound 2 (1 + sqrt 2) sum_{k>2L+1} 2 (x rho/2)^k/k!, with x = R*t_final
    and rho from :func:`chebyshev_frame` of H's enclosure, meets the share
    CHAIN_BUDGET_SHARE * tolerance / max(1, 2*kappa*t_final). The moments
    e0'H^k e0 and e0'J^k e0 agree through k = 2L + 1 (Gauss quadrature;
    the loss sits on the first Lanczos vector), so the Chebyshev series
    of exp(-iHt) cut there errs on H and on J alike, and J, a compression
    of H, has its numerical range inside H's: the Crouzeix-Palencia bound
    of the step plan holds on each. That is exact arithmetic; without
    reorthogonalization the quadrature stays accurate (Greenbaum, Linear
    Algebra Appl. 113, 7 (1989)), which the tests check against dense
    exponentials. The chain ends sooner at a beta_j with beta_j * t_final
    <= share, a zero one included: dropping it moves the state by at most
    beta_j * t (Duhamel). The norm moves by at most 2*kappa*t times a0's
    error, hence the division of the share: with the steps on the
    tolerance less spent, a0 stays within tolerance and the norm within
    2 * tolerance, as on the arrowhead. A deflated arrowhead's spent bounds
    its whole state, norm included, and adds to the chain's.
    """
    arrowhead = ham.matrix
    dimension = arrowhead.shape[0]
    kappa = -2.0 * float(arrowhead.diagonal[0].imag)
    loss = max(1.0, 2.0 * kappa * t_final)
    share = CHAIN_BUDGET_SHARE * tolerance / loss
    _, radius, rho = chebyshev_frame(ham.enclosure())
    y = 0.5 * radius * t_final * rho
    if not 0.0 < y < math.inf:  # nothing to step, or a frame that overflows
        return None
    # the longest chain shorter than the arrowhead, L = dimension - 2, cuts at 2L + 1
    log_limit = math.log(share / (2.0 * 2.0 * CROUZEIX))
    n_terms = series_terms(y, log_limit, 2 * dimension - 3)
    if n_terms is None:
        return None
    length = n_terms // 2  # the least L with 2L + 1 >= n_terms
    with blas.one_thread():
        alpha, beta, dropped = _lanczos(arrowhead.diagonal, arrowhead.arm, length,
                                        share / t_final)
    bound = dropped * t_final
    if len(beta) == length:
        bound = min(bound, 4.0 * CROUZEIX * math.exp(series_tail(y, 2 * length + 1)))
    diagonal = alpha.astype(complex)
    diagonal[0] = arrowhead.diagonal[0]
    # complex, so that dot converts neither at every step
    matrix = TridiagonalOperator(diagonal, beta.astype(complex))
    return PhotonChain(matrix=matrix, layout=ChainLayout(len(alpha)), bound=bound,
                       spent=bound * loss + ham.spent)


def _lanczos(diagonal: np.ndarray, arm: np.ndarray, length: int, cut: float):
    """(alpha, beta, dropped) of the Lanczos chain of the real part of an
    arrowhead started at its first entry: alpha_0..alpha_n on the chain's
    diagonal, beta_0..beta_(n-1) beside it and beta_n, the coupling the
    chain drops. n is length, or less at the first beta_n <= cut.

    The first Lanczos vector e0 gives alpha_0 = Re diagonal[0] and the
    residual (0, Re arm). Every later vector is zero on the first entry,
    where only the previous vector's arm product lands, and the
    recurrence removes it, so the later sites are the Lanczos chain of
    the rest of the real diagonal alone, started at Re arm / |Re arm|:
    elementwise products, one dot and one norm a site, and no division
    by a zero beta.
    """
    energies = np.ascontiguousarray(diagonal[1:].real)
    residual = np.ascontiguousarray(arm.real)
    previous = np.zeros_like(residual)
    alpha, beta = np.empty(length + 1), np.empty(length)
    alpha[0] = diagonal[0].real
    b = math.sqrt(residual @ residual)
    n = 0
    while n < length and b > cut:
        beta[n] = b
        n += 1
        vector = residual / b
        residual = energies * vector
        alpha[n] = a = vector @ residual
        residual -= a * vector
        residual -= b * previous
        previous = vector
        b = math.sqrt(residual @ residual)
    return alpha[: n + 1], beta[:n], b
