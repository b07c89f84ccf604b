"""Time evolution of a state vector under a sparse, lossy Hamiltonian.

:func:`propagate` steps the assembled Hamiltonian H = A - i*Gamma on the
recording grid, in its working basis (the arrowhead of the binned model,
or the Fock-basis CSR of a reference engine), with one of two steppers
chosen once per run. A Chebyshev series, cut where a rigorous bound over
an enclosure of H's numerical range meets the step's share of the
tolerance, costs only mat-vecs and vector updates; it serves whenever
that plan is finite, short and well-conditioned. The enclosure comes
from H's Fock-basis entries; it is unitarily invariant, so it serves
every basis. Otherwise an adaptive Arnoldi (Krylov) approximation steps
the run, carrying a per-step error estimate. Either way the total 2-norm
error stays within the requested tolerance. Observables
(autocorrelation, norm, photon amplitude and per-bin populations) are
recorded from the Fock-basis state at every grid step while the state is
propagated; full states are kept only at the times a caller asks for and
at the end. The independent cross-validation engine,
:func:`polarbin.oracle.propagate_eom`, returns the same :class:`Trajectory`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import math
import os

import numpy as np

from .errors import ConfigError, PropagationError
from .hamiltonian import EffectiveHamiltonian
from .model import BasisLayout, BinSet
from .observables import state_populations

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_RANGE = (1e-12, 1e-6)
MAX_KRYLOV = 30
# A Chebyshev step needs more than e*|H|*dt/2 terms and cannot split
# itself; past this many, Arnoldi (at most MAX_KRYLOV vectors, splitting
# the step when they do not suffice) is the stepper to use
MAX_CHEBYSHEV = 64
# Rounding in the three-term recurrence grows like rho**K, the largest
# Chebyshev polynomial on the numerical range; capping it keeps the lost
# digits (about GROWTH * eps = 2e-13 of the norm per step) below the
# smallest tolerance, 1e-12
MAX_CHEBYSHEV_GROWTH = 1e3
# Share of the step budget a Chebyshev plan spends. The bound exceeds the
# error it bounds about tenfold, so a plan on the whole budget would err by
# about a tenth of the tolerance, more than a Krylov run usually does; one
# more term per step cuts that error about thirtyfold
CHEBYSHEV_BUDGET_SHARE = 0.1
_EPS = float(np.finfo(float).eps)
# Below this argument the Bessel power series converges in a few terms;
# above it Miller's recurrence runs, rescaled past _BESSEL_RESCALE
_BESSEL_SERIES_BELOW = 1e-2
_BESSEL_RESCALE = 1e250
# Crouzeix-Palencia: |f(H)| <= (1 + sqrt 2) * max |f| over the numerical range
_CROUZEIX = 1.0 + math.sqrt(2.0)

INITIAL_STATE_NAMES = ("photonic", "bright", "upper_polariton", "lower_polariton")

# (package, library file pattern inside <package>.libs, getter, setter) of
# the OpenBLAS copies that numpy and scipy bundle
_OPENBLAS_THREAD_CONTROLS = (
    ("numpy", "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


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


def make_initial_state(name: str, layout: BasisLayout, bins: BinSet) -> np.ndarray:
    if name == "photonic":
        return photonic_state(layout)
    if name == "bright":
        return bright_state(layout, bins)
    if name == "upper_polariton":
        return polariton_state(layout, bins, +1)
    if name == "lower_polariton":
        return polariton_state(layout, bins, -1)
    raise ConfigError(f"unknown initial state {name!r}")


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


class Trajectory:
    """Observables recorded on a uniform time grid while a state is propagated.

    autocorr holds <psi(0)|psi(t_k)>, norms2 the squared norm (decaying
    when the cavity is lossy), photon_amp the bare photon amplitude;
    p_e1/p_e2 (n_times, n_bins) and photon are the populations of
    state_populations at every grid time. states holds one full state per
    requested time, taken at the grid time state_times nearest to it (the
    first on a tie); final_state is the last state recorded. The
    constructor allocates every array and record fills one grid step.
    """

    def __init__(self, psi0, layout: BasisLayout, dt_record: float, t_final: float,
                 state_times=()):
        n_t = _resolve_grid(dt_record, t_final) + 1
        self.times = np.arange(n_t) * dt_record
        self.dt_record = dt_record
        self.autocorr = np.empty(n_t, dtype=complex)
        self.norms2 = np.empty(n_t)
        self.photon_amp = np.empty(n_t, dtype=complex)
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
        self._psi0 = psi0
        self._layout = layout

    def record(self, k: int, psi: np.ndarray) -> None:
        self.autocorr[k] = np.vdot(self._psi0, psi)
        self.norms2[k] = np.vdot(psi, psi).real
        self.photon_amp[k] = psi[self._layout.PHOTON]
        self.p_e1[k], self.p_e2[k], self.photon[k] = state_populations(psi, self._layout)
        self.states[self._state_steps == k] = psi
        self.final_state = psi


def _check_budget(budget: float) -> None:
    if not (math.isfinite(budget) and budget > 0.0):
        raise PropagationError(
            f"step budget {budget!r} cannot meet a tolerance; it must be positive and finite"
        )


def _bessel_j(n_max: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_n_max(x) for x >= 0, to about 1e-15 absolute.

    Tiny x sums the power series (x/2)^k/k! * sum_m (-x^2/4)^m / (m! (k+1)...(k+m)).
    Otherwise Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1},
    started well above max(n_max, x), is normalised by
    J_0 + 2 * sum_k J_2k = 1 (Numerical Recipes, section 6.5); the decaying
    tail k > x keeps its relative accuracy.
    """
    k = np.arange(n_max + 1)
    if x < _BESSEL_SERIES_BELOW:
        half = 0.5 * x
        lead = np.cumprod(np.concatenate(([1.0], half / k[1:])))
        term = np.ones(n_max + 1)
        total = term.copy()
        m = 0
        while np.abs(term).max() > _EPS * _EPS:
            m += 1
            term *= -half * half / (m * (k + m))
            total += term
        return lead * total
    reach = max(n_max, math.ceil(x))
    start = 2 * ((reach + math.isqrt(40 * reach) + 20) // 2)
    values = np.zeros(n_max + 1)
    above, current, total = 0.0, 1.0, 0.0
    for j in range(start, 0, -1):
        if j % 2 == 0:
            total += 2.0 * current
        if j <= n_max:
            values[j] = current
        above, current = current, (2.0 * j / x) * current - above
        if abs(current) > _BESSEL_RESCALE:
            values /= _BESSEL_RESCALE
            above, current = above / _BESSEL_RESCALE, current / _BESSEL_RESCALE
            total /= _BESSEL_RESCALE
    values[0] = current
    return values / (total + current)


class _ChebyshevStepper:
    """exp(-i*H*dt) as a truncated Chebyshev series with an a-priori bound.

    With c and R the centre and half-width of an enclosure of the numerical
    range W(H), exp(-i*H*dt) = exp(-i*c*dt) * sum_k a_k T_k((H - c)/R),
    a_k = (2 - delta_k0) (-i)^k J_k(R*dt) (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)). The enclosure is the rectangle of the
    Gershgorin intervals of the Hermitian part (H + H^H)/2 and of the skew
    part (H - H^H)/2i. On it |T_k| <= rho^k, where rho is the largest
    Bernstein-ellipse parameter of its corners, and by Crouzeix and
    Palencia (SIAM J. Matrix Anal. Appl. 38, 649 (2017)) |T_k(...)| <=
    (1 + sqrt 2) rho^k in the 2-norm. With |J_k(x)| <= (x/2)^k / k!, the
    series cut after K terms errs by at most
    (1 + sqrt 2) * sum_{k>K} 2 (x rho/2)^k / k! times the state's norm:
    a rigorous bound, not an estimate. A step is K mat-vecs and vector
    updates, with no basis and no dense exponential.
    """

    def __init__(self, matrix, center: float, radius: float, coefficients: np.ndarray):
        self.matrix = matrix
        self.center = center
        self.radius = radius
        self.coefficients = coefficients

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # huge entries overflow the corners
    def plan(cls, ham: EffectiveHamiltonian, dt: float, budget: float, norm: float):
        """The stepper of ham.matrix whose steps of psi, |psi| <= norm, err
        by at most CHEBYSHEV_BUDGET_SHARE * budget.

        The rectangle is ham.enclosure. None when Krylov is the safer
        stepper: the plan is not finite, needs MAX_CHEBYSHEV terms or more
        than the dimension (Arnoldi never needs more than that), or its
        rounding could grow past MAX_CHEBYSHEV_GROWTH. A budget that is not
        positive and finite, or a Fock entry that is not finite, raises
        PropagationError.
        """
        _check_budget(budget)
        if not np.isfinite(ham.entries[2]).all():
            raise PropagationError("the Hamiltonian has entries that are not finite")
        lo, hi, slo, shi = ham.enclosure
        radius = max(0.5 * (hi - lo), 0.5 * (shi - slo), np.finfo(float).tiny)
        x = radius * dt
        if not (math.isfinite(x) and math.isfinite(norm)):
            return None
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) / radius
        corners = np.array([complex(re, im / radius) for re in (-half, half) for im in (slo, shi)])
        root = np.sqrt(corners * corners - 1.0)
        rho = float(np.maximum(np.abs(corners + root), np.abs(corners - root)).max())
        y = 0.5 * x * rho
        if not (0.0 < y < math.inf):
            return None
        log_limit = (math.log(CHEBYSHEV_BUDGET_SHARE * budget)
                     - math.log(2.0 * _CROUZEIX * norm) if norm > 0.0 else math.inf)
        # sum_{k>K} y^k/k! <= y^(K+1)/(K+1)! / (1 - y/(K+2)) once K + 2 > y
        for n_terms in range(1, min(MAX_CHEBYSHEV, ham.dimension - 1) + 1):
            if n_terms + 2 <= y:
                continue
            log_tail = ((n_terms + 1) * math.log(y) - math.lgamma(n_terms + 2)
                        - math.log1p(-y / (n_terms + 2)))
            if log_tail <= log_limit:
                break
        else:
            return None
        if n_terms * math.log(rho) > math.log(MAX_CHEBYSHEV_GROWTH):
            return None
        k = np.arange(n_terms + 1)
        coefficients = 2.0 * (-1j) ** k * _bessel_j(n_terms, x) * np.exp(-1j * center * dt)
        coefficients[0] *= 0.5
        return cls(ham.matrix, center, radius, coefficients)

    def step(self, psi: np.ndarray) -> np.ndarray:
        """The three-term recurrence T_{k+1} = 2 z T_k - T_{k-1} on (H - c)/R."""
        a = self.coefficients
        scale = 1.0 / self.radius
        shift = self.center * scale
        previous = psi
        current = scale * self.matrix.dot(psi) - shift * psi
        result = a[0] * psi + a[1] * current
        for a_k in a[2:]:
            following = (2.0 * scale) * self.matrix.dot(current)
            following -= (2.0 * shift) * current
            following -= previous
            result += a_k * following
            previous, current = current, following
        return result


class _KrylovStepper:
    """exp(-i*H*dt) applied repeatedly, with an a-posteriori error estimate.

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

    def __init__(self, matrix, m_max: int = MAX_KRYLOV):
        from scipy.linalg import expm  # only this stepper needs it

        self.expm = expm
        self.matrix = matrix
        self.m_max = m_max
        self.m_previous = 0

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


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(getter, setter) pairs of the bundled OpenBLAS copies that export them.

    Empty when numpy and scipy link another BLAS. Looking them up loads
    both copies: the package calls this at import, under a one-thread
    environment, so that scipy's copy starts at one thread before
    scipy.linalg (loaded only by the Krylov stepper) ever needs it.
    """
    controls = []
    for package, pattern, get_name, set_name in _OPENBLAS_THREAD_CONTROLS:
        # find_spec locates a package without importing it: scipy stays unloaded
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(spec.origin)),
                                f"{package}.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, pattern))):
            library = ctypes.CDLL(path)
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls.append((getter, setter))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS on one thread, then restore.

    A Krylov step makes dozens of BLAS calls on vectors of a few thousand
    entries and matrices of a few dozen; handing each to a thread pool
    costs more than the arithmetic. The thread count is process-wide.
    A process that imported polarbin before numpy already runs at one
    thread (see the package docstring); this scope serves callers that
    loaded numpy first.
    """
    controls = _openblas_thread_controls()
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), threads in zip(controls, saved):
            setter(threads)


def propagate(
    ham: EffectiveHamiltonian,
    psi0: np.ndarray,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
    state_times=(),
) -> Trajectory:
    """Evolve psi0 under the assembled Hamiltonian, recording every dt_record.

    The state at each grid time matches exp(-i H t) psi0 to within
    `tolerance` in the vector 2-norm (budgeted uniformly over the steps).
    psi0 is mapped into ham's working basis once; the steps are Chebyshev
    steps planned once from the Hamiltonian, dt_record and the step
    budget, with Krylov steps where that plan is refused (see
    _ChebyshevStepper.plan), and every step is recorded from its
    Fock-basis state. Full states are kept at the grid times
    nearest to `state_times` and at the end. Each step's recorded norm is
    checked: a norm that is not finite, or grows beyond the tolerance and
    rounding, which the lossy generator cannot do, raises PropagationError
    and discards the trajectory. So does a matrix entry that is not finite.
    """
    check_tolerance(tolerance)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (ham.dimension,):
        raise ConfigError("initial state dimension does not match Hamiltonian")
    traj = Trajectory(psi0, ham.layout, dt_record, t_final, state_times)
    n_steps = len(traj.times) - 1
    traj.record(0, psi0.copy())
    if n_steps == 0:
        return traj
    budget = tolerance / n_steps
    norm0 = math.sqrt(traj.norms2[0])
    # norms never grow, so a plan for norm0 bounds every step
    chebyshev = _ChebyshevStepper.plan(ham, dt_record, budget, norm0)
    if chebyshev is not None:
        step = chebyshev.step
    else:
        step = functools.partial(_KrylovStepper(ham.matrix).step, dt=dt_record, budget=budget)
    psi = ham.to_working(psi0)
    # an out-of-range model overflows inside a step; the checks below and
    # the steppers' own report it, not numpy warnings
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            psi = step(psi)
            traj.record(k, ham.to_fock(psi))
            t = k * dt_record
            norm2 = traj.norms2[k]
            if not math.isfinite(norm2):
                if np.isfinite(psi).all():
                    raise PropagationError(
                        f"state norm at step {k} (t = {t}) exceeds its initial {norm0:.6g} "
                        "and is not finite; the model is out of numerical range"
                    )
                raise PropagationError(f"state at step {k} (t = {t}) is not finite")
            # the generator is dissipative, so the exact norm never grows:
            # allow the error budget and 64 ulps of rounding per step
            norm = math.sqrt(norm2)
            if not norm <= norm0 * (1.0 + 64 * _EPS * k) + tolerance:
                raise PropagationError(
                    f"state norm {norm:.6g} at step {k} (t = {t}) exceeds "
                    f"its initial {norm0:.6g}; the model is out of numerical range"
                )
    return traj
