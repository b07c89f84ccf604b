"""Time evolution of a state vector under a sparse, lossy Hamiltonian.

:func:`propagate` steps the assembled sparse matrix with an adaptive
Arnoldi (Krylov) approximation of the matrix exponential, carrying a
per-step error estimate so the total 2-norm error stays within the
requested tolerance. Observables (autocorrelation, norm, photon amplitude
and per-bin populations) are recorded at every grid step while the state
is propagated; full states are kept only at the times a caller asks for
and at the end. The independent cross-validation engine,
:func:`polarbin.oracle.propagate_eom`, fills the same recorder.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, PropagationError
from .hamiltonian import EffectiveHamiltonian
from .model import BasisLayout, BinSet
from .observables import state_populations

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_RANGE = (1e-12, 1e-6)
MAX_KRYLOV = 30
_EPS = float(np.finfo(float).eps)

INITIAL_STATE_NAMES = ("photonic", "bright", "upper_polariton", "lower_polariton")

# (package, library file pattern inside <package>.libs, getter, setter) of
# the OpenBLAS copies that numpy and scipy bundle
_OPENBLAS_THREAD_CONTROLS = (
    (np, "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@dataclass
class Trajectory:
    """Observables recorded on a uniform time grid.

    autocorr holds <psi(0)|psi(t_k)>, norms2 the squared norm (decaying
    when the cavity is lossy), photon_amp the bare photon amplitude;
    p_e1/p_e2 (n_times, n_bins) and photon are the populations of
    state_populations at every grid time. states holds one full state per
    requested time, taken at the grid time state_times nearest to it.
    """

    times: np.ndarray
    autocorr: np.ndarray
    norms2: np.ndarray
    photon_amp: np.ndarray
    p_e1: np.ndarray
    p_e2: np.ndarray
    photon: np.ndarray
    state_times: np.ndarray
    states: np.ndarray
    final_state: np.ndarray
    initial_state: np.ndarray
    initial_state_label: str
    dt_record: float

    @property
    def t_final(self) -> float:
        return float(self.times[-1])


def photonic_state(layout: BasisLayout) -> np.ndarray:
    """One photon, every molecule in its vibrational ground state."""
    psi = np.zeros(layout.dimension, dtype=complex)
    psi[layout.PHOTON] = 1.0
    return psi


def bright_state(layout: BasisLayout, bins: BinSet) -> np.ndarray:
    """In-phase superposition sqrt(P_i)|e1,i> at the ground vibrational level."""
    psi = np.zeros(layout.dimension, dtype=complex)
    for i in range(bins.n_bins):
        psi[layout.e1_slice(i).start] = math.sqrt(bins.weights[i])
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


class _Recorder:
    """Observables of every grid step, full states only where asked.

    A requested time keeps the state of the nearest grid step (the first
    on a tie).
    """

    def __init__(self, psi0, layout, dt_record: float, t_final: float, state_times=()):
        self.n_steps = _resolve_grid(dt_record, t_final)
        self.times = np.arange(self.n_steps + 1) * dt_record
        self.dt_record = dt_record
        self.psi0 = psi0
        self.layout = layout
        n_t = self.n_steps + 1
        self.autocorr = np.empty(n_t, dtype=complex)
        self.norms2 = np.empty(n_t)
        self.photon_amp = np.empty(n_t, dtype=complex)
        self.p_e1 = np.empty((n_t, layout.n_bins))
        self.p_e2 = np.empty((n_t, layout.n_bins))
        self.photon = np.empty(n_t)
        state_times = np.asarray(state_times, dtype=float)
        if not np.isfinite(state_times).all():
            raise ConfigError("state_times must be finite")
        self.state_steps = np.array(
            [int(np.argmin(np.abs(self.times - t))) for t in state_times], dtype=int
        )
        self.states = np.empty((len(self.state_steps), layout.dimension), dtype=complex)

    def record(self, k: int, psi: np.ndarray) -> None:
        self.autocorr[k] = np.vdot(self.psi0, psi)
        self.norms2[k] = np.vdot(psi, psi).real
        self.photon_amp[k] = psi[0]
        self.p_e1[k], self.p_e2[k], self.photon[k] = state_populations(psi, self.layout)
        self.states[self.state_steps == k] = psi

    def trajectory(self, final_state: np.ndarray, initial_state_label: str) -> Trajectory:
        return Trajectory(
            times=self.times,
            autocorr=self.autocorr,
            norms2=self.norms2,
            photon_amp=self.photon_amp,
            p_e1=self.p_e1,
            p_e2=self.p_e2,
            photon=self.photon,
            state_times=self.times[self.state_steps],
            states=self.states,
            final_state=final_state,
            initial_state=self.psi0,
            initial_state_label=initial_state_label,
            dt_record=self.dt_record,
        )


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
    any work.
    """

    def __init__(self, matrix, m_max: int = MAX_KRYLOV):
        self.matrix = matrix
        self.m_max = m_max
        self.m_previous = 0

    def step(self, psi: np.ndarray, dt: float, budget: float, depth: int = 0) -> np.ndarray:
        if not (math.isfinite(budget) and budget > 0.0):
            raise PropagationError(
                f"step budget {budget!r} cannot meet a tolerance; it must be positive and finite"
            )
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
                phi = scipy.linalg.expm(H[:m, :m])[:, 0]
                return beta * (V[:m].T @ phi)
            V[j + 1] = w / h
            if m >= m_first or m == m_cap:
                aug = np.zeros((m + 1, m + 1), dtype=complex)
                aug[:m, :m] = H[:m, :m]
                aug[m, m - 1] = h
                expa = scipy.linalg.expm(aug)
                # safety factor 2 against cancellation inside the estimate
                err = 2.0 * beta * abs(expa[m, 0])
                if err <= budget:
                    self.m_previous = m
                    return beta * (V[:m].T @ expa[:m, 0])
        half = self.step(psi, dt / 2.0, budget / 2.0, depth + 1)
        return self.step(half, dt / 2.0, budget / 2.0, depth + 1)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(getter, setter) pairs of the bundled OpenBLAS copies that export them.

    Empty when numpy and scipy link another BLAS. Looked up on first use,
    not at import.
    """
    controls = []
    for package, pattern, get_name, set_name in _OPENBLAS_THREAD_CONTROLS:
        libs_dir = os.path.join(
            os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs"
        )
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
    initial_state_label: str = "custom",
) -> Trajectory:
    """Evolve psi0 under the assembled Hamiltonian, recording every dt_record.

    The state at each grid time matches exp(-i H t) psi0 to within
    `tolerance` in the vector 2-norm (budgeted uniformly over the steps).
    Full states are kept at the grid times nearest to `state_times` and at
    the end. A state whose norm grows beyond that tolerance and rounding,
    which the lossy generator cannot do, raises PropagationError.
    """
    check_tolerance(tolerance)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (ham.dimension,):
        raise ConfigError("initial state dimension does not match Hamiltonian")
    recorder = _Recorder(psi0, ham.layout, dt_record, t_final, state_times)
    stepper = _KrylovStepper(ham.matrix)
    budget = tolerance / max(1, recorder.n_steps)
    psi = psi0.copy()
    recorder.record(0, psi)
    norm0 = math.sqrt(recorder.norms2[0])
    with _one_blas_thread():
        for k in range(1, recorder.n_steps + 1):
            psi = stepper.step(psi, dt_record, budget)
            if not np.isfinite(psi).all():
                raise PropagationError(
                    f"non-finite amplitudes at step {k} (t = {k * dt_record})"
                )
            recorder.record(k, psi)
            # the generator is dissipative, so the exact norm never grows:
            # allow the error budget and 64 ulps of rounding per step
            norm = math.sqrt(recorder.norms2[k])
            if not norm <= norm0 * (1.0 + 64 * _EPS * k) + tolerance:
                raise PropagationError(
                    f"state norm {norm:.6g} at step {k} (t = {k * dt_record}) exceeds "
                    f"its initial {norm0:.6g}; the model is out of numerical range"
                )
    return recorder.trajectory(psi, initial_state_label)
