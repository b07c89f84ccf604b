"""Time evolution of a state vector under a sparse, lossy Hamiltonian.

Two independent engines:

* :func:`propagate` steps the assembled sparse matrix with an adaptive
  Arnoldi (Krylov) approximation of the matrix exponential, carrying a
  per-step error estimate so the total 2-norm error stays within the
  requested tolerance.
* :func:`propagate_eom` integrates the amplitude equations of motion in
  the displaced vibrational eigenbasis with an adaptive explicit
  Runge-Kutta method. Both engines represent the identical truncated
  model, so any disagreement beyond integrator tolerances is a bug.
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
from scipy.integrate import solve_ivp

from .errors import ConfigError, PropagationError
from .hamiltonian import EffectiveHamiltonian, displaced_number_operator
from .model import BasisLayout, BinSet, ModelSpec

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_RANGE = (1e-12, 1e-6)
MAX_KRYLOV = 30

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
    """Recorded dynamics on a uniform time grid.

    autocorr holds <psi(0)|psi(t_k)>, norms2 the squared norm (decaying
    when the cavity is lossy), photon_amp the bare photon amplitude.
    Full snapshots are kept at a configurable stride; the first and final
    states are always included.
    """

    times: np.ndarray
    autocorr: np.ndarray
    norms2: np.ndarray
    photon_amp: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray | None
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


def _check_tolerance(tolerance: float) -> None:
    lo, hi = TOLERANCE_RANGE
    if not lo <= tolerance <= hi:
        raise ConfigError(f"tolerance must lie in [{lo}, {hi}]")


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


def _record(traj_arrays, k, psi, psi0):
    autocorr, norms2, photon_amp = traj_arrays
    autocorr[k] = np.vdot(psi0, psi)
    norms2[k] = np.vdot(psi, psi).real
    photon_amp[k] = psi[0]


def propagate(
    ham: EffectiveHamiltonian,
    psi0: np.ndarray,
    dt_record: float,
    t_final: float,
    tolerance: float = DEFAULT_TOLERANCE,
    snapshot_stride: int = 1,
    initial_state_label: str = "custom",
) -> Trajectory:
    """Evolve psi0 under the assembled Hamiltonian, recording every dt_record.

    The state at each grid time matches exp(-i H t) psi0 to within
    `tolerance` in the vector 2-norm (budgeted uniformly over the steps).
    snapshot_stride = 0 disables interior snapshots; the initial and final
    states are always retained.
    """
    _check_tolerance(tolerance)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (ham.dimension,):
        raise ConfigError("initial state dimension does not match Hamiltonian")
    n_steps = _resolve_grid(dt_record, t_final)

    times = np.arange(n_steps + 1) * dt_record
    autocorr = np.empty(n_steps + 1, dtype=complex)
    norms2 = np.empty(n_steps + 1)
    photon_amp = np.empty(n_steps + 1, dtype=complex)

    keep = _snapshot_indices(n_steps, snapshot_stride)
    snapshots = np.empty((len(keep), ham.dimension), dtype=complex) if keep else None

    stepper = _KrylovStepper(ham.matrix)
    budget = tolerance / max(1, n_steps)
    psi = psi0.copy()
    _record((autocorr, norms2, photon_amp), 0, psi, psi0)
    snap_at = {k: pos for pos, k in enumerate(keep)}
    if snapshots is not None and 0 in snap_at:
        snapshots[snap_at[0]] = psi
    with _one_blas_thread():
        for k in range(1, n_steps + 1):
            psi = stepper.step(psi, dt_record, budget)
            if not np.isfinite(psi).all():
                raise PropagationError(
                    f"non-finite amplitudes at step {k} (t = {k * dt_record})"
                )
            _record((autocorr, norms2, photon_amp), k, psi, psi0)
            if snapshots is not None and k in snap_at:
                snapshots[snap_at[k]] = psi

    return Trajectory(
        times=times,
        autocorr=autocorr,
        norms2=norms2,
        photon_amp=photon_amp,
        snapshot_times=times[keep] if keep else times[:0],
        snapshots=snapshots,
        final_state=psi,
        initial_state=psi0,
        initial_state_label=initial_state_label,
        dt_record=dt_record,
    )


def _snapshot_indices(n_steps: int, stride: int) -> list[int]:
    if stride < 0:
        raise ConfigError("snapshot_stride must be >= 0")
    if stride == 0:
        return [0, n_steps] if n_steps else [0]
    keep = list(range(0, n_steps + 1, stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    return keep


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
    snapshot_stride: int = 1,
    initial_state_label: str = "custom",
) -> Trajectory:
    """Evolve psi0 by integrating the amplitude equations of motion.

    Independent cross-validation path for :func:`propagate`: same
    truncated model, but expressed in the displaced eigenbasis and
    integrated with an adaptive high-order Runge-Kutta scheme.
    """
    _check_tolerance(tolerance)
    model = _EigenbasisModel(spec, bins, n_vib)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.layout.dimension,):
        raise ConfigError("initial state dimension does not match model")
    n_steps = _resolve_grid(dt_record, t_final)
    times = np.arange(n_steps + 1) * dt_record

    a0, a1, a2 = model.to_eigen(psi0)
    y0 = np.concatenate(([a0], a1.ravel(), a2.ravel()))
    if n_steps == 0:
        ys = y0[:, None]
    else:
        rtol = max(1e-13, 0.01 * tolerance)
        sol = solve_ivp(
            model.rhs,
            (0.0, t_final),
            y0,
            method="DOP853",
            t_eval=times,
            rtol=rtol,
            atol=rtol,
        )
        if not sol.success:
            raise PropagationError(f"EoM integration failed: {sol.message}")
        ys = sol.y
    if not np.isfinite(ys).all():
        raise PropagationError("non-finite amplitudes in EoM integration")

    y0c = y0.conj()
    autocorr = y0c @ ys
    norms2 = np.einsum("ik,ik->k", ys.conj(), ys).real
    photon_amp = ys[0].copy()

    keep = _snapshot_indices(n_steps, snapshot_stride)
    nb, nv = model.layout.n_bins, model.layout.n_vib

    def unpack(col):
        return model.to_fock(
            col[0], col[1 : 1 + nb * nv].reshape(nb, nv), col[1 + nb * nv :].reshape(nb, nv)
        )

    snapshots = np.array([unpack(ys[:, k]) for k in keep]) if keep else None

    return Trajectory(
        times=times,
        autocorr=autocorr,
        norms2=norms2,
        photon_amp=photon_amp,
        snapshot_times=times[keep] if keep else times[:0],
        snapshots=snapshots,
        final_state=unpack(ys[:, -1]),
        initial_state=psi0,
        initial_state_label=initial_state_label,
        dt_record=dt_record,
    )
