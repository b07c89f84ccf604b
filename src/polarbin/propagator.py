"""Time evolution of a state vector under a sparse, lossy Hamiltonian.

:func:`propagate` steps the assembled Hamiltonian H = A - i*Gamma on the
recording grid, in its working basis (the arrowhead of the binned model,
or the Fock-basis CSR of a reference engine), a block of grid steps at a
time, by one of two steppers with the same block interface, chosen once
per run. A Chebyshev series, cut where a rigorous bound over an enclosure
of H's numerical range meets the block's share of the tolerance, gives
every state of a block from one three-term recurrence: its vectors do not
depend on time, so one coefficient matrix, planned once, combines them
into the block's states by real matrix products. It serves at any
dimension whenever that plan is finite, short and well-conditioned, with
the block length of least estimated work whose buffers fit BLOCK_BYTES.
The enclosure comes from ham.enclosure(): Weyl's inequality on the
arrowhead, or Gershgorin's on a reference engine's CSR. A plan refused
for stiff loss or overflow leaves the run to adaptive Arnoldi (Krylov)
steps with a per-step error estimate, gathered into blocks as well.
Either way the total 2-norm error stays within the requested tolerance.
A :class:`Trajectory` checks the inputs and records each block while the
state is propagated: it maps a few states at a time to the Fock basis,
reduces their autocorrelation, norm and per-bin populations, and checks
every norm; full states are kept only at the times a caller asks for and
at the end. The independent cross-validation engine,
:func:`polarbin.oracle.propagate_eom`, records into the same
:class:`Trajectory`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import blas
from .errors import ConfigError, PropagationError
from .model import BasisLayout, BinSet
from .observables import state_populations

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_RANGE = (1e-12, 1e-6)
MAX_KRYLOV = 30
# The longest Chebyshev series of one block. K grows about linearly with
# the block's span R*m*dt, so the plan shortens the block first; a single
# step that needs more is left to Arnoldi (at most MAX_KRYLOV vectors,
# splitting the step when they do not suffice). _bessel_j is checked to
# this order
MAX_CHEBYSHEV = 128
# Rounding in the three-term recurrence grows like rho**K, the largest
# Chebyshev polynomial on the numerical range; capping it keeps the lost
# digits (about GROWTH * eps = 2e-13 of the norm per block) below the
# smallest tolerance, 1e-12
MAX_CHEBYSHEV_GROWTH = 1e3
# Share of the block budget a Chebyshev plan spends. The bound exceeds the
# error it bounds about tenfold, so a plan on the whole budget would err by
# about a tenth of the tolerance, more than a Krylov run usually does; one
# more term per block cuts that error about thirtyfold
CHEBYSHEV_BUDGET_SHARE = 0.1
# Bytes the buffers of a block of steps may take: a Chebyshev block's
# states, series vectors and partial sum (see _block_rows), a Krylov
# block's states, and the rows a Trajectory maps to the Fock basis at a
# time, at RECORD_ROW_BYTES per entry (the Fock state, the matrix product
# and the squared moduli with their temporary)
BLOCK_BYTES = 1 << 20
RECORD_ROW_BYTES = 48
# Bytes a Trajectory's arrays on the time grid may take: 5 floats a time
# (times, norms2, photon and the complex autocorr) and 2 a bin (p_e1,
# p_e2). The largest preset grid, figS1's finest bin count (1,655 times,
# 64 bins), takes 1.76 MB, about 600 times less
MAX_RECORD_BYTES = 1 << 30
# Estimated cost of a Chebyshev block in nanoseconds (see _work_per_step),
# as measured with numpy's bundled OpenBLAS at one thread on a 2-core
# x86-64 box: CALL_NS for each recurrence step and each chunk's matrix
# product, ENTRY_NS per vector entry of a recurrence step, TERM_ENTRY_NS
# per series term, state and entry of the products, ADD_ENTRY_NS per state
# and entry to add a chunk's partial sum, and BLOCK_NS to record a block
CALL_NS = 5_000.0
ENTRY_NS = 5.0
TERM_ENTRY_NS = 0.15
ADD_ENTRY_NS = 1.0
BLOCK_NS = 40_000.0
_EPS = float(np.finfo(float).eps)
# Below this argument the Bessel power series converges in a few terms;
# above it Miller's recurrence runs, rescaled past _BESSEL_RESCALE
_BESSEL_SERIES_BELOW = 1e-2
_BESSEL_RESCALE = 1e250
# Crouzeix-Palencia: |f(H)| <= (1 + sqrt 2) * max |f| over the numerical range
_CROUZEIX = 1.0 + math.sqrt(2.0)


def photonic_state(layout: BasisLayout) -> np.ndarray:
    """One photon, every molecule in its vibrational ground state."""
    psi = np.zeros(layout.dimension, dtype=complex)
    psi[layout.PHOTON] = 1.0
    return psi


def bright_state(layout: BasisLayout, bins: BinSet) -> np.ndarray:
    """In-phase superposition sqrt(P_i)|e1,i> at the ground vibrational level."""
    psi = np.zeros(layout.dimension, dtype=complex)
    psi[layout.index(0, np.arange(bins.n_bins), 0)] = np.sqrt(bins.weights)
    return psi


def polariton_state(layout: BasisLayout, bins: BinSet, sign: int) -> np.ndarray:
    """(|1> +/- bright)/sqrt(2); sign +1 targets the upper branch."""
    if sign not in (+1, -1):
        raise ConfigError("sign must be +1 or -1")
    psi = (photonic_state(layout) + sign * bright_state(layout, bins)) / math.sqrt(2.0)
    return psi


# each initial state by name, built as builder(layout, bins)
INITIAL_STATES = {
    "photonic": lambda layout, bins: photonic_state(layout),
    "bright": bright_state,
    "upper_polariton": functools.partial(polariton_state, sign=+1),
    "lower_polariton": functools.partial(polariton_state, sign=-1),
}


def make_initial_state(name: str, layout: BasisLayout, bins: BinSet) -> np.ndarray:
    if name not in INITIAL_STATES:
        raise ConfigError(f"unknown initial state {name!r}")
    return INITIAL_STATES[name](layout, bins)


def _resolve_grid(dt_record: float, t_final: float) -> int:
    if dt_record <= 0:
        raise ConfigError("dt_record must be > 0")
    if t_final < 0:
        raise ConfigError("t_final must be >= 0")
    if t_final == 0:
        return 0
    n_steps = round(t_final / dt_record)
    if n_steps < 1 or abs(n_steps * dt_record - t_final) > 1e-9 * t_final:
        raise ConfigError(
            f"dt_record={dt_record} must divide t_final={t_final}"
        )
    return n_steps


def check_tolerance(tolerance: float) -> None:
    lo, hi = TOLERANCE_RANGE
    if not lo <= tolerance <= hi:
        raise ConfigError(f"tolerance must lie in [{lo}, {hi}], got {tolerance!r}")


def check_record(n_times: float, n_bins: int) -> None:
    """Refuse a record grid of n_times times (a float, maybe not finite)
    and n_bins bins whose arrays would take more than MAX_RECORD_BYTES."""
    size = 8.0 * n_times * (5 + 2 * n_bins)
    if not size <= MAX_RECORD_BYTES:
        raise ConfigError(
            f"recording {n_times:.6g} times of {n_bins} bins needs {size / 2**30:.3g} GiB, "
            f"more than the {MAX_RECORD_BYTES / 2**30:g} GiB allowed; "
            "raise dt_record or shorten t_final")


class Trajectory:
    """Observables recorded on a uniform time grid while a state is propagated.

    psi0 is the Fock-basis initial state; autocorr holds <psi0|psi(t_k)>,
    norms2 the squared norm (decaying when the cavity is lossy); p_e1/p_e2
    (n_times, n_bins) and photon are the populations of state_populations
    at every grid time. states holds one full state per requested time,
    taken at the grid time state_times nearest to it (the first on a tie);
    final_state is the last state recorded. The constructor checks the
    tolerance, psi0 against engine.layout and the grid against
    MAX_RECORD_BYTES (ConfigError), allocates every array and records psi0
    at t = 0. record fills a block of later grid steps from working-basis
    states, which engine.to_fock maps to the Fock basis a few rows at a
    time, and checks every recorded norm against psi0's.
    """

    def __init__(self, psi0, engine, dt_record: float, t_final: float, state_times,
                 tolerance: float):
        check_tolerance(tolerance)
        layout = engine.layout
        psi0 = np.asarray(psi0, dtype=complex)
        if psi0.shape != (layout.dimension,):
            raise ConfigError(f"the initial state must be a vector of {layout.dimension} "
                              f"amplitudes, got shape {psi0.shape}")
        n_t = _resolve_grid(dt_record, t_final) + 1
        check_record(n_t, layout.n_bins)
        self.times = np.arange(n_t) * dt_record
        self.dt_record = dt_record
        self.autocorr = np.empty(n_t, dtype=complex)
        self.norms2 = np.empty(n_t)
        self.p_e1 = np.empty((n_t, layout.n_bins))
        self.p_e2 = np.empty((n_t, layout.n_bins))
        self.photon = np.empty(n_t)
        state_times = np.asarray(state_times, dtype=float)
        if not np.isfinite(state_times).all():
            raise ConfigError("state_times must be finite")
        self._state_steps = np.array(
            [int(np.argmin(np.abs(self.times - t))) for t in state_times], dtype=int
        )
        self.state_times = self.times[self._state_steps]
        self.states = np.empty((len(self._state_steps), layout.dimension), dtype=complex)
        self.final_state = None
        self.psi0 = psi0
        self._layout = layout
        self._tolerance = tolerance
        self._to_fock = engine.to_fock
        # a row's Fock state and the temporaries of its reductions take
        # about RECORD_ROW_BYTES per entry; a sub-block stays within BLOCK_BYTES
        self._rows = max(1, BLOCK_BYTES // (RECORD_ROW_BYTES * layout.dimension))
        self._record(0, psi0[None])
        self._norm0 = math.sqrt(self.norms2[0])

    def record(self, start: int, block: np.ndarray) -> None:
        """Record the working-basis states of block, one per row, at grid
        steps start, start + 1, ...; raise PropagationError at the first
        whose norm fails the check of _check_norms."""
        for lo in range(0, len(block), self._rows):
            working = block[lo : lo + self._rows]
            self._record(start + lo, self._to_fock(working))
            self._check_norms(start + lo, working)

    def _record(self, start: int, fock: np.ndarray) -> None:
        span = slice(start, start + len(fock))
        self.autocorr[span] = [np.vdot(self.psi0, psi) for psi in fock]
        self.norms2[span] = [np.vdot(psi, psi).real for psi in fock]
        self.p_e1[span], self.p_e2[span], self.photon[span] = state_populations(
            fock, self._layout)
        kept = (span.start <= self._state_steps) & (self._state_steps < span.stop)
        self.states[kept] = fock[self._state_steps[kept] - start]
        self.final_state = fock[-1].copy()

    def _check_norms(self, start: int, working: np.ndarray) -> None:
        """The generator is dissipative, so the exact norm never grows:
        allow the tolerance and 64 ulps of rounding per step. A norm that
        is not finite, or grows past that, raises PropagationError."""
        steps = np.arange(start, start + len(working))
        norms = np.sqrt(self.norms2[steps])
        limits = self._norm0 * (1.0 + 64 * _EPS * steps) + self._tolerance
        failed = np.flatnonzero(~(norms <= limits))
        if len(failed) == 0:
            return
        row = int(failed[0])
        k, norm, norm0 = start + row, norms[row], self._norm0
        t = k * self.dt_record
        if math.isfinite(norm):
            raise PropagationError(
                f"state norm {norm:.6g} at step {k} (t = {t}) exceeds "
                f"its initial {norm0:.6g}; the model is out of numerical range"
            )
        if np.isfinite(working[row]).all():
            raise PropagationError(
                f"state norm at step {k} (t = {t}) exceeds its initial {norm0:.6g} "
                "and is not finite; the model is out of numerical range"
            )
        raise PropagationError(f"state at step {k} (t = {t}) is not finite")


def _check_budget(budget: float) -> None:
    if not (math.isfinite(budget) and budget > 0.0):
        raise PropagationError(
            f"step budget {budget!r} cannot meet a tolerance; it must be positive and finite"
        )


def _bessel_j(n_max: int, x) -> np.ndarray:
    """J_0(x), ..., J_n_max(x) for x >= 0, to about 1e-15 absolute; for an
    array of x, one row per value.

    Tiny x sums the power series (x/2)^k/k! * sum_m (-x^2/4)^m / (m! (k+1)...(k+m)).
    Otherwise Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1},
    started well above max(n_max, x), is normalised by
    J_0 + 2 * sum_k J_2k = 1 (Numerical Recipes, section 6.5); the decaying
    tail k > x keeps its relative accuracy. An array runs both for all its
    values at once, Miller's from above the largest.
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(n_max + 1)
    values = np.empty((*x.shape, n_max + 1))
    tiny = x < _BESSEL_SERIES_BELOW
    if tiny.any():
        half = 0.5 * x[tiny][:, None]
        lead = np.cumprod(np.concatenate((np.ones_like(half), half / k[1:]), axis=1), axis=1)
        term = np.ones(lead.shape)
        total = term.copy()
        m = 0
        while np.abs(term).max() > _EPS * _EPS:
            m += 1
            term *= -half * half / (m * (k + m))
            total += term
        values[tiny] = lead * total
    if tiny.all():
        return values
    x = x[~tiny]
    reach = max(n_max, math.ceil(x.max()))
    start = 2 * ((reach + math.isqrt(40 * reach) + 20) // 2)
    miller = np.zeros((len(x), n_max + 1))
    above, current, total = np.zeros(len(x)), np.ones(len(x)), np.zeros(len(x))
    for j in range(start, 0, -1):
        if j % 2 == 0:
            total += 2.0 * current
        if j <= n_max:
            miller[:, j] = current
        above, current = current, (2.0 * j / x) * current - above
        large = np.abs(current) > _BESSEL_RESCALE
        if large.any():
            miller[large] /= _BESSEL_RESCALE
            above[large] /= _BESSEL_RESCALE
            current[large] /= _BESSEL_RESCALE
            total[large] /= _BESSEL_RESCALE
    miller[:, 0] = current
    values[~tiny] = miller / (total + current)[:, None]
    return values


def _series_terms(y: float, log_limit: float, max_terms: int) -> int | None:
    """The least K <= max_terms with sum_{k>K} y^k/k! <= exp(log_limit), or None.

    Once K + 2 > y the sum is at most y^(K+1)/(K+1)! / (1 - y/(K+2)).
    """
    for n_terms in range(1, max_terms + 1):
        if n_terms + 2 <= y:
            continue
        log_tail = ((n_terms + 1) * math.log(y) - math.lgamma(n_terms + 2)
                    - math.log1p(-y / (n_terms + 2)))
        if log_tail <= log_limit:
            return n_terms
    return None


def _work_per_step(steps: int, n_terms: int, chunk: int, dimension: int) -> float:
    """Estimated nanoseconds per recorded step of a block of steps states,
    cut after n_terms, whose series vectors are combined chunk at a time."""
    n_series = n_terms + 1
    flushes = -(-n_series // chunk)
    recurrence = n_terms * (CALL_NS + ENTRY_NS * dimension)
    products = (flushes * CALL_NS + steps * n_series * dimension * TERM_ENTRY_NS
                + (flushes - 1) * steps * dimension * ADD_ENTRY_NS)
    return (recurrence + products + BLOCK_NS) / steps


def _block_rows(steps: int, n_terms: int, dimension: int) -> tuple[int, int]:
    """(rows of the block buffers, series vectors held at once) of a block
    of steps states cut after n_terms.

    The whole series is held when it fits BLOCK_BYTES beside the states;
    otherwise as many vectors as fit beside the states and one partial
    sum of them (three at least, which the recurrence needs).
    """
    fit = BLOCK_BYTES // (16 * dimension)
    if n_terms + 1 + steps <= fit:
        return n_terms + 1 + steps, n_terms + 1
    chunk = max(3, fit - 2 * steps)
    return chunk + 2 * steps, chunk


class _ChebyshevStepper:
    """exp(-i*H*j*dt) psi for the m steps j = 1..m of a block, from one
    truncated Chebyshev series with an a-priori bound.

    With c and R the centre and half-width of an enclosure of the numerical
    range W(H), exp(-i*H*t) = exp(-i*c*t) * sum_k (2 - delta_k0) J_k(R*t) S_k
    with S_k = (-i)^k T_k((H - c)/R) psi (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)). The vectors S_k do not depend on t, so one
    recurrence S_{k+1} = -2i (H - c)/R S_k + S_{k-1} of K mat-vecs serves
    every time of a block (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)):
    the real (m, K+1) matrix of (2 - delta_k0) J_k(R*j*dt), the same for
    every block, combines them into the block's m states, as matrix
    products on their interleaved float view, and the phases exp(-i*c*j*dt)
    finish them. A block cut short uses the first rows.

    The enclosure is the rectangle of ham.enclosure(): intervals holding
    the spectra of the Hermitian part (H + H^H)/2 and of the skew part
    (H - H^H)/2i of the operator stepped, by Weyl's inequality on the
    arrowhead or Gershgorin's on a reference engine's CSR. On it
    |T_k| <= rho^k, where rho is the largest Bernstein-ellipse parameter of
    its corners, and by Crouzeix and Palencia (SIAM J. Matrix Anal. Appl.
    38, 649 (2017)) |T_k(...)| <= (1 + sqrt 2) rho^k in the 2-norm. With
    |J_k(x)| <= (x/2)^k / k!, the series cut after K terms errs at any
    x <= R*m*dt by at most (1 + sqrt 2) * sum_{k>K} 2 (x rho/2)^k / k!
    times the state's norm: a rigorous bound, not an estimate, that grows
    with x, so the block's last time bounds all of them. A block costs K
    mat-vecs and vector updates and one product per chunk of series
    vectors, with no basis and no dense exponential. Its buffers hold the
    m states, the series vectors of _block_rows and, when the series is
    chunked, one partial sum: 16 bytes per entry each.
    """

    def __init__(self, matrix, center: float, radius: float, dt: float,
                 coefficients: np.ndarray, chunk: int):
        dimension = matrix.shape[0]
        self.matrix = matrix
        self.center = center
        self.radius = radius
        self.coefficients = coefficients
        self.steps, n_series = coefficients.shape
        self.phases = np.exp(-1j * center * (np.arange(1, self.steps + 1) * dt))
        self._series = np.empty((min(chunk, n_series), dimension), dtype=complex)
        self._states = np.empty((self.steps, dimension), dtype=complex)
        self._partial = (np.empty((self.steps, 2 * dimension)) if chunk < n_series
                         else None)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # huge entries overflow the corners
    def plan(cls, matrix, rectangle, dt: float, n_steps: int, tolerance: float, norm: float):
        """The stepper of matrix for n_steps steps of dt whose blocks of
        states of psi, |psi| <= norm, err by at most
        CHEBYSHEV_BUDGET_SHARE * tolerance / (the number of blocks) each.

        rectangle is ham.enclosure(). Of the block lengths m whose series
        is allowed, the least estimated work per recorded step
        (_work_per_step) wins. A series is allowed when it is finite, has
        at most MAX_CHEBYSHEV terms and its rounding cannot grow past
        MAX_CHEBYSHEV_GROWTH; the bound holds at any dimension, so a small
        system takes long blocks as well. A longer block of m > 1 must also
        fit its buffers in BLOCK_BYTES. None when m = 1 is not allowed, for
        stiff loss or overflow: Krylov is the safer stepper. A tolerance
        that is not positive and finite raises PropagationError.
        """
        _check_budget(tolerance)
        lo, hi, slo, shi = rectangle
        radius = max(0.5 * (hi - lo), 0.5 * (shi - slo), np.finfo(float).tiny)
        x = radius * dt
        if not (math.isfinite(x) and math.isfinite(norm)):
            return None
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) / radius
        corners = np.array([complex(re, im / radius) for re in (-half, half) for im in (slo, shi)])
        root = np.sqrt(corners * corners - 1.0)
        rho = float(np.maximum(np.abs(corners + root), np.abs(corners - root)).max())
        if not (0.0 < 0.5 * x * rho < math.inf):
            return None
        dimension = matrix.shape[0]
        log_norm = math.log(2.0 * _CROUZEIX * norm) if norm > 0.0 else -math.inf
        best = None
        for steps in range(1, n_steps + 1):
            n_blocks = -(-n_steps // steps)
            log_limit = math.log(CHEBYSHEV_BUDGET_SHARE * tolerance / n_blocks) - log_norm
            n_terms = _series_terms(0.5 * x * rho * steps, log_limit, MAX_CHEBYSHEV)
            if n_terms is None or n_terms * math.log(rho) > math.log(MAX_CHEBYSHEV_GROWTH):
                break
            rows, chunk = _block_rows(steps, n_terms, dimension)
            if steps > 1 and 16 * dimension * rows > BLOCK_BYTES:
                break
            work = _work_per_step(steps, n_terms, chunk, dimension)
            if best is None or work < best[0]:
                best = (work, steps, n_terms, chunk)
        if best is None:
            return None
        _, steps, n_terms, chunk = best
        coefficients = _bessel_j(n_terms, x * np.arange(1, steps + 1))
        coefficients[:, 1:] *= 2.0
        return cls(matrix, center, radius, dt, coefficients, chunk)

    def block(self, psi: np.ndarray, n: int) -> np.ndarray:
        """The states after steps 1..n <= m from psi, as rows of a view of
        the stepper's buffer that the next block overwrites."""
        series, states = self._series, self._states[:n]
        chunk, n_series = len(series), self.coefficients.shape[1]
        coefficients = self.coefficients[:n]
        out = states.view(float)
        series_real = series.view(float)
        scale = -2j / self.radius
        series[0] = psi
        for k in range(1, n_series):
            current, target = series[(k - 1) % chunk], series[k % chunk]
            product = self.matrix.dot(current)
            product -= self.center * current
            np.multiply(product, scale if k > 1 else 0.5 * scale, out=target)
            if k > 1:
                target += series[(k - 2) % chunk]
            if k % chunk == chunk - 1 or k == n_series - 1:
                first = k - k % chunk
                terms = (coefficients[:, first : k + 1], series_real[: k % chunk + 1])
                if first == 0:
                    np.matmul(*terms, out=out)
                else:
                    partial = self._partial[:n]
                    np.matmul(*terms, out=partial)
                    out += partial
        states *= self.phases[:n, None]
        return states


class _KrylovStepper:
    """exp(-i*H*dt) applied repeatedly, with an a-posteriori error estimate.

    block takes steps of the run's dt and per-step budget, as many to a
    block as fit BLOCK_BYTES; step takes one of any dt and budget.

    Arnoldi with block classical Gram-Schmidt and one reorthogonalization
    pass: each new column is projected out against the whole basis at
    once, twice. The per-step error is estimated from the (m+1, 1) entry
    of the exponential of the augmented Hessenberg matrix, which equals
    the first neglected term h_{m+1,m} * int_0^1 [exp((1-s) H_m)]_{m,1} ds;
    for this dissipative generator the propagator is a contraction, so
    the estimate is reliable. H and dt are fixed within a run, so the
    subspace size a step needs hardly changes: the estimate is evaluated
    only from one below the previous accepted size onward (and at the
    largest allowed size). If that size cannot meet the step budget the
    step is split recursively; a result is never accepted above its
    budget. When Arnoldi reaches an invariant subspace the result is
    exact up to rounding and is accepted as is. The budget must be
    positive and finite; any other value raises PropagationError before
    any work. A Krylov vector or error estimate that overflows raises it
    too, at once instead of splitting the step; a non-finite result is
    left to propagate's norm check.
    """

    def __init__(self, matrix, dt: float, budget: float, m_max: int = MAX_KRYLOV):
        self.expm = blas.import_at_one_thread("scipy.linalg").expm  # only this stepper needs it
        self.matrix = matrix
        self.dt = dt
        self.budget = budget
        self.steps = max(1, BLOCK_BYTES // (16 * matrix.shape[0]))
        self.m_max = m_max
        self.m_previous = 0

    def block(self, psi: np.ndarray, n: int) -> np.ndarray:
        """The states after steps 1..n <= m from psi, one per row."""
        states = np.empty((n, len(psi)), dtype=complex)
        for j in range(n):
            psi = states[j] = self.step(psi, self.dt, self.budget)
        return states

    def step(self, psi: np.ndarray, dt: float, budget: float, depth: int = 0) -> np.ndarray:
        _check_budget(budget)
        if depth > 30:
            raise PropagationError("step subdivision failed to meet tolerance")
        beta = np.linalg.norm(psi)
        if beta == 0.0:
            return psi.copy()
        dim = len(psi)
        m_cap = min(self.m_max, dim)
        m_first = max(2, self.m_previous - 1)
        V = np.empty((m_cap + 1, dim), dtype=complex)
        H = np.zeros((m_cap + 1, m_cap), dtype=complex)
        V[0] = psi / beta
        scale = -1j * dt
        for j in range(m_cap):
            w = scale * self.matrix.dot(V[j])
            basis = V[: j + 1]
            for _ in range(2):  # second pass restores orthogonality lost to rounding
                c = (basis @ w.conj()).conj()
                H[: j + 1, j] += c
                w -= basis.T @ c
            h = np.linalg.norm(w)
            if not math.isfinite(h):
                raise PropagationError(
                    "Krylov vector overflowed: |H|*dt is too large to represent"
                )
            H[j + 1, j] = h
            m = j + 1
            if h <= 1e-14 * max(1.0, np.abs(H[: m + 1, :m]).max()):
                # invariant subspace reached: result exact in the subspace
                phi = self.expm(H[:m, :m])[:, 0]
                return beta * (V[:m].T @ phi)
            V[j + 1] = w / h
            if m >= m_first or m == m_cap:
                aug = np.zeros((m + 1, m + 1), dtype=complex)
                aug[:m, :m] = H[:m, :m]
                aug[m, m - 1] = h
                expa = self.expm(aug)
                # safety factor 2 against cancellation inside the estimate
                err = 2.0 * beta * abs(expa[m, 0])
                if err <= budget:
                    self.m_previous = m
                    return beta * (V[:m].T @ expa[:m, 0])
                if not math.isfinite(err):
                    raise PropagationError(
                        "Krylov error estimate is not finite: |H|*dt is too large to represent"
                    )
        half = self.step(psi, dt / 2.0, budget / 2.0, depth + 1)
        return self.step(half, dt / 2.0, budget / 2.0, depth + 1)


def propagate(
    ham,
    psi0: np.ndarray,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
    state_times=(),
) -> Trajectory:
    """Evolve psi0 under the assembled Hamiltonian, recording every dt_record.

    ham is the binned :class:`~polarbin.hamiltonian.EffectiveHamiltonian`
    or a reference engine's :class:`~polarbin.oracle.FockHamiltonian`.
    The state at each grid time matches exp(-i H t) psi0 to within
    `tolerance` in the vector 2-norm (budgeted uniformly over the
    Chebyshev blocks, or over the Krylov steps). The Trajectory checks
    the inputs, and psi0 is mapped into ham's working basis once; the
    steps are Chebyshev blocks planned once from ham.matrix, ham.enclosure(),
    dt_record, the number of steps and the tolerance, or blocks of Krylov
    steps where that plan is refused (see _ChebyshevStepper.plan). Every
    block is recorded, and its norms checked, by Trajectory.record. Full
    states are kept at the grid times nearest to `state_times` and at the
    end. A norm that is not finite, or grows beyond the tolerance and
    rounding, which the lossy generator cannot do, raises PropagationError
    and discards the trajectory. So does a matrix entry that is not finite.
    """
    traj = Trajectory(psi0, ham, dt_record, t_final, state_times, tolerance)
    n_steps = len(traj.times) - 1
    if n_steps == 0:
        return traj
    # norms never grow, so a plan for the initial norm bounds every block
    stepper = (_ChebyshevStepper.plan(ham.matrix, ham.enclosure(), dt_record, n_steps,
                                      tolerance, math.sqrt(traj.norms2[0]))
               or _KrylovStepper(ham.matrix, dt_record, tolerance / n_steps))
    psi = ham.to_working(traj.psi0)
    # an out-of-range model overflows inside a step; the norm checks and
    # the steppers' own report it, not numpy warnings
    with blas.one_thread(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, stepper.steps):
            block = stepper.block(psi, min(stepper.steps, n_steps + 1 - start))
            traj.record(start, block)
            psi = block[-1]
    return traj
