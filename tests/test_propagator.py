import ctypes
import glob
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import polarbin as pb
from polarbin import blas
from polarbin.blas import bundled_openblas
from polarbin.errors import ConfigError
from polarbin.hamiltonian import ArrowheadOperator
from polarbin.observables import populations
from polarbin.oracle import (
    CsrOperator,
    ExplicitEnsemble,
    ExplicitLayout,
    build_explicit_hamiltonian,
)

from conftest import binned_fock, fig3_spec, negated, random_small_spec, scipy_csr


def small_system(spec, n_bins, n_vib):
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    return bins, ham


def dense_fock(spec, bins, n_vib):
    return scipy_csr(binned_fock(spec, bins, n_vib).matrix).toarray()


def preset_points():
    """(preset name, sweep point, resolved configuration) of every preset point."""
    from polarbin.config import PRESET_NAMES, load_preset

    for name in PRESET_NAMES:
        cfg = load_preset(name)
        for point in cfg.sweep_points():
            yield name, point, cfg.resolve_point(point)


class CountingMatrix:
    """Sparse-matrix stand-in that counts the mat-vecs made through it.

    With `limit` set, the mat-vec past the limit fails the test at once.
    Other attribute reads go to the wrapped matrix.
    """

    def __init__(self, matrix, limit=None):
        self.matrix = matrix
        self.limit = limit
        self.calls = 0

    def dot(self, vec):
        self.calls += 1
        if self.limit is not None and self.calls > self.limit:
            raise AssertionError(f"more than {self.limit} mat-vecs")
        return self.matrix.dot(vec)

    def __getattr__(self, name):
        return getattr(self.matrix, name)


# numpy's and scipy's bundled OpenBLAS: (package, file pattern, getter, setter)
OPENBLAS = (
    (np, "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@pytest.fixture
def openblas_getters():
    """Thread-count getters of both bundled OpenBLAS copies, each set to 2
    threads for the test (so a limit of 1 shows) and restored afterwards."""
    controls = []
    for package, pattern, get_name, set_name in OPENBLAS:
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                f"{package.__name__}.libs")
        paths = sorted(glob.glob(os.path.join(libs_dir, pattern)))
        if not paths:
            pytest.skip(f"{package.__name__} bundles no OpenBLAS to read threads from")
        library = ctypes.CDLL(paths[0])
        getter, setter = getattr(library, get_name), getattr(library, set_name)
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        controls.append((getter, setter))
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(2)
    try:
        getters = [getter for getter, _ in controls]
        assert [getter() for getter in getters] == [2, 2]
        yield getters
    finally:
        for (_, setter), threads in zip(controls, saved):
            setter(threads)


class ThreadProbeMatrix:
    """Sparse-matrix stand-in that reads the BLAS thread counts at every
    mat-vec; with `fail_at` set, that mat-vec raises PropagationError.
    Other attribute reads go to the wrapped matrix."""

    def __init__(self, matrix, getters, fail_at=None):
        self.matrix = matrix
        self.shape = matrix.shape
        self.getters = getters
        self.fail_at = fail_at
        self.calls = 0
        self.seen = set()

    def dot(self, vec):
        self.calls += 1
        self.seen.add(tuple(getter() for getter in self.getters))
        if self.calls == self.fail_at:
            raise pb.PropagationError("mat-vec failed")
        return self.matrix.dot(vec)

    def __getattr__(self, name):
        return getattr(self.matrix, name)


class TestInitialStates:
    def test_photonic_unit_norm(self):
        _, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        psi = pb.photonic_state(ham.layout)
        assert np.linalg.norm(psi) == 1.0
        assert psi[0] == 1.0

    def test_bright_state_weights(self):
        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        psi = pb.bright_state(ham.layout, bins)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        for i in range(4):
            assert psi[ham.layout.index(0, i, 0)] == pytest.approx(
                math.sqrt(bins.weights[i])
            )

    def test_polariton_states(self):
        bins, ham = small_system(fig3_spec(sigma=0.02), 3, 5)
        up = pb.polariton_state(ham.layout, bins, +1)
        lp = pb.polariton_state(ham.layout, bins, -1)
        for psi in (up, lp):
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert up[0] == pytest.approx(1 / math.sqrt(2))
        assert np.vdot(up, lp) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_selector(self):
        bins, ham = small_system(fig3_spec(sigma=0.02), 2, 4)
        with pytest.raises(ConfigError):
            pb.make_initial_state("squeezed", ham.layout, bins)

    def test_polariton_sign_must_be_one(self):
        bins, ham = small_system(fig3_spec(sigma=0.02), 2, 4)
        with pytest.raises(ConfigError, match="sign must be"):
            pb.polariton_state(ham.layout, bins, 0)


class TestPropagate:
    def test_stationary_state_pure_phase(self):
        # diagonal-only Hamiltonian: undisplaced surfaces, no couplings
        spec = fig3_spec(s1=0.0, s2=0.0, coupling=0.0, v12=0.0, kappa=0.0)
        bins, ham = small_system(spec, 1, 5)
        layout = ham.layout
        psi0 = np.zeros(layout.dimension, dtype=complex)
        level = layout.index(0, 0, 2)
        psi0[level] = 1.0
        energy = scipy_csr(binned_fock(spec, bins, 5).matrix)[level, level].real
        traj = pb.propagate(ham, psi0, 2.0, 200.0, 1e-10)
        expected = np.exp(-1j * energy * traj.times)
        np.testing.assert_allclose(traj.autocorr, expected, atol=1e-9)
        np.testing.assert_allclose(np.abs(traj.autocorr), 1.0, atol=1e-9)

    def test_empty_cavity_decay_closed_form(self):
        spec = fig3_spec(coupling=0.0, kappa=0.004)
        bins, ham = small_system(spec, 1, 4)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 1.0, 500.0, 1e-10)
        expected = np.exp((-1j * spec.omega_c - spec.kappa / 2) * traj.times)
        np.testing.assert_allclose(traj.autocorr, expected, atol=1e-9)
        np.testing.assert_allclose(
            traj.norms2, np.exp(-spec.kappa * traj.times), atol=1e-9
        )

    def test_jaynes_cummings_rabi_oscillation(self):
        spec = fig3_spec(s1=0.0, v12=0.0, kappa=0.0, omega_c=0.10)
        bins, ham = small_system(spec, 1, 3)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 1.0, 1240.0, 1e-9)
        target = np.cos(spec.coupling * traj.times) ** 2
        np.testing.assert_allclose(
            traj.photon, target, atol=1e-8
        )
        # full population oscillation period 2 pi / (2 G) ~ 2.5 fs
        period = 2 * math.pi / (2 * spec.coupling)
        assert period == pytest.approx(104.72, abs=0.01)
        assert period / pb.FS_TO_AU == pytest.approx(2.53, abs=0.01)

    def test_matches_dense_expm_oracle(self):
        rng = np.random.default_rng(7)
        spec = random_small_spec(rng)
        bins, ham = small_system(spec, 3, 6)
        dim = ham.layout.dimension
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        traj = pb.propagate(ham, psi0, 5.0, 50.0, 1e-10)
        dense = dense_fock(spec, bins, 6)
        for k, t in enumerate(traj.times):
            exact = scipy.linalg.expm(-1j * dense * t) @ psi0
            assert abs(np.vdot(psi0, exact) - traj.autocorr[k]) < 1e-9

    def test_zero_time_trajectory(self):
        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 1.0, 0.0, 1e-9)
        assert len(traj.times) == 1
        assert traj.autocorr[0] == pytest.approx(1.0)
        assert traj.norms2[0] == pytest.approx(1.0)

    def test_state_times(self):
        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        every = pb.propagate(ham, psi0, 1.0, 10.0, 1e-9,
                             state_times=np.arange(11) * 1.0)
        # the nearest grid step, the earlier one on a tie, in request order
        traj = pb.propagate(ham, psi0, 1.0, 10.0, 1e-9,
                            state_times=[3.4, 0.0, 7.5, 12.0, 3.6, -1.0])
        np.testing.assert_array_equal(traj.state_times, [3.0, 0.0, 7.0, 10.0, 4.0, 0.0])
        np.testing.assert_array_equal(traj.states, every.states[[3, 0, 7, 10, 4, 0]])
        np.testing.assert_array_equal(traj.final_state, every.states[-1])
        none = pb.propagate(ham, psi0, 1.0, 10.0, 1e-9)
        assert none.states.shape == (0, ham.layout.dimension)
        assert len(none.state_times) == 0
        np.testing.assert_array_equal(none.final_state, every.final_state)

    def test_non_finite_state_time_rejected(self):
        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        with pytest.raises(ConfigError, match="state_times"):
            pb.propagate(ham, pb.photonic_state(ham.layout), 1.0, 10.0, 1e-9,
                         state_times=[float("nan")])

    def test_grid_validation(self):
        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        with pytest.raises(ConfigError):
            pb.propagate(ham, psi0, 3.0, 10.0, 1e-9)
        with pytest.raises(ConfigError):
            pb.propagate(ham, psi0, 1.0, 10.0, 1e-5)
        with pytest.raises(ConfigError):
            pb.propagate(ham, psi0[:-1], 1.0, 10.0, 1e-9)
        # 1e12 times: refused before the arrays are allocated
        with pytest.raises(ConfigError, match="recording 1e\\+12 times of 2 bins"):
            pb.propagate(ham, psi0, 1e-3, 1e9, 1e-9)

    def test_unmeetable_step_budget_raises(self):
        from polarbin.propagator import _KrylovStepper

        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        stepper = _KrylovStepper(ham.matrix, 1.0, 0.0)
        with pytest.raises(pb.PropagationError, match="tolerance"):
            stepper.step(psi0, 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_error_estimate_raises_without_splitting(self):
        # |H|*dt = 1e119: the Krylov vectors stay finite but expm of the
        # Hessenberg matrix does not; halving the step 31 times never helped
        from polarbin.propagator import MAX_KRYLOV

        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        matrix = CountingMatrix(ham.matrix, limit=MAX_KRYLOV)
        with pytest.raises(pb.PropagationError, match="error estimate is not finite"):
            pb.propagate(replace(ham, matrix=matrix), pb.photonic_state(ham.layout),
                         1e120, 1e120, 1e-9)
        assert matrix.calls > 0

    @pytest.mark.parametrize("budget", [0.0, -1e-12, math.nan, math.inf])
    # D = 17 lets Arnoldi reach D; D = 37 exceeds MAX_KRYLOV, so steps split
    @pytest.mark.parametrize("n_bins, n_vib, dim", [(2, 4, 17), (3, 6, 37)])
    def test_invalid_step_budget_raises_before_any_matvec(self, budget, n_bins, n_vib, dim):
        from polarbin.propagator import MAX_KRYLOV, _KrylovStepper

        bins, ham = small_system(fig3_spec(sigma=0.01), n_bins, n_vib)
        assert ham.layout.dimension == dim and 17 < MAX_KRYLOV < 37
        matrix = CountingMatrix(ham.matrix, limit=0)
        stepper = _KrylovStepper(matrix, 1.0, budget)
        psi0 = pb.photonic_state(ham.layout)
        with pytest.raises(pb.PropagationError, match="tolerance"):
            stepper.step(psi0, 1.0, budget)
        assert matrix.calls == 0

    @pytest.mark.parametrize("dt", [1.0, 50.0])
    def test_valid_step_budget_matches_dense_expm(self, dt):
        from polarbin.propagator import _KrylovStepper

        spec = fig3_spec(sigma=0.01)
        bins, ham = small_system(spec, 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        matrix = CountingMatrix(ham.matrix)
        psi = ham.to_fock(_KrylovStepper(matrix, dt, 1e-12).step(ham.to_working(psi0), dt,
                                                                 1e-12))
        if dt == 50.0:
            # no estimate fits below m = D: the invariant-subspace return
            assert matrix.calls == ham.matrix.shape[0]
        exact = scipy.linalg.expm(-1j * dt * dense_fock(spec, bins, 4)) @ psi0
        assert np.linalg.norm(psi - exact) <= 1e-12

    # budgets from 1e-12 to 1e-6 on the lossy fig3 system, D = 49 > MAX_KRYLOV
    @pytest.mark.parametrize("budget", [1e-12, 1e-10, 1e-8, 1e-6])
    @pytest.mark.parametrize("dt", [0.5, 2.0, 8.0, 30.0])
    def test_steps_within_budget_of_dense_expm(self, dt, budget):
        from polarbin.propagator import MAX_KRYLOV, _KrylovStepper

        spec = fig3_spec(sigma=0.02)
        bins, ham = small_system(spec, 4, 6)
        assert ham.layout.dimension == 49 > MAX_KRYLOV
        exact_step = scipy.linalg.expm(-1j * dt * dense_fock(spec, bins, 6))
        stepper = _KrylovStepper(ham.matrix, dt, budget)
        y = ham.to_working(pb.polariton_state(ham.layout, bins, +1))
        for _ in range(4):  # later steps start the estimate from the previous m
            exact = exact_step @ ham.to_fock(y)
            y = stepper.step(y, dt, budget)
            assert np.linalg.norm(ham.to_fock(y) - exact) <= budget

    def test_subdivided_step_within_budget(self):
        from polarbin.propagator import _KrylovStepper

        # four basis vectors cannot carry a 30 au step: it must be split
        spec = fig3_spec(sigma=0.02)
        bins, ham = small_system(spec, 4, 6)
        matrix = CountingMatrix(ham.matrix)
        psi0 = pb.photonic_state(ham.layout)
        stepper = _KrylovStepper(matrix, 30.0, 1e-10, m_max=4)
        psi = ham.to_fock(stepper.step(ham.to_working(psi0), 30.0, 1e-10))
        assert matrix.calls > 4
        exact = scipy.linalg.expm(-1j * 30.0 * dense_fock(spec, bins, 6)) @ psi0
        assert np.linalg.norm(psi - exact) <= 1e-10

    def test_invariant_subspace_step_within_budget(self):
        from polarbin.propagator import _KrylovStepper

        # an empty lossy cavity: the photonic state is an eigenvector, so
        # Arnoldi stops after one mat-vec
        spec = fig3_spec(sigma=0.02, coupling=0.0)
        bins, ham = small_system(spec, 4, 6)
        matrix = CountingMatrix(ham.matrix)
        psi0 = pb.photonic_state(ham.layout)
        stepper = _KrylovStepper(matrix, 30.0, 1e-12)
        psi = ham.to_fock(stepper.step(ham.to_working(psi0), 30.0, 1e-12))
        assert matrix.calls == 1
        exact = scipy.linalg.expm(-1j * 30.0 * dense_fock(spec, bins, 6)) @ psi0
        assert np.linalg.norm(psi - exact) <= 1e-12


class TestBesselJ:
    """The Chebyshev coefficients' Bessel values against scipy.special.jv."""

    # orders up to MAX_CHEBYSHEV, arguments past those its blocks reach
    @pytest.mark.parametrize("n_max", [1, 12, 64, 128])
    @pytest.mark.parametrize("x", [1e-300, 1e-9, 1e-3, 0.5, 5.0, 20.0, 45.0, 60.0, 100.0])
    def test_matches_scipy(self, x, n_max):
        from scipy.special import jv

        from polarbin.propagator import MAX_CHEBYSHEV, _bessel_j

        assert n_max <= MAX_CHEBYSHEV
        k = np.arange(n_max + 1)
        values, reference = _bessel_j(n_max, x), jv(k, x)
        assert np.abs(values - reference).max() <= 4e-15
        # the truncation lives in the decaying tail; subnormal values carry
        # no relative precision to compare
        tail = (k > x + 5) & (np.abs(reference) >= np.finfo(float).tiny)
        np.testing.assert_allclose(values[tail], reference[tail], rtol=1e-12, atol=0)


def plan_of(ham, dt, n_steps, tolerance, norm=1.0):
    """(stepper or None, mat-vecs the plan made) of a Chebyshev block plan."""
    from polarbin.propagator import _ChebyshevStepper

    matrix = CountingMatrix(ham.matrix, limit=0)
    stepper = _ChebyshevStepper.plan(matrix, ham.enclosure(), dt, n_steps, tolerance, norm)
    return stepper, matrix.calls


def block_shape(stepper):
    """(m, K): the steps of a block and the series length of its plan."""
    return stepper.steps, stepper.coefficients.shape[1] - 1


# criterion 2's system (D = 5) over 200 fs: (dt, steps) and its (m, K)
CRITERION_2_GRID = (200 * pb.FS_TO_AU / 8268, 8268)
CRITERION_2_PLAN = (127, 39)


# (m, K) of every preset point's block plan, in sweep order: the steps of
# a block and its series length. A small system (sigma = 0, D = 121) takes
# long blocks, since a mat-vec there costs mostly call overhead
FIG6_PLAN = (7, 23)
_FIG3C_PLANS = (
    [(85, 101), (84, 101), (84, 102), (83, 102), (84, 103)]
    + [(35, 53), (33, 51), (35, 54), (35, 54), (31, 50)]
    + [(13, 30)] * 4 + [(13, 31)] + [(11, 28)] * 5
    + [(7, 23)] * 5 + [(6, 21)] + [(7, 23)] * 4 + [(5, 20)] * 5 + [(4, 19)] * 5
)
PRESET_PLANS = {
    "fig3a": [(84, 103), (13, 31), (7, 23), (5, 20)],
    "fig3c": _FIG3C_PLANS,
    "fig4a": [(85, 101), (84, 103), (7, 23), (7, 23), (4, 19), (4, 19)],
    "fig4c": [(84, 101), (83, 104), (7, 23), (7, 23), (4, 19), (4, 19)],
    "fig6": [FIG6_PLAN],
    "figS1": [(5, 20)],
    "figS2": _FIG3C_PLANS,
    "figS3": [(7, 23)] * 8,
    "figS4": [(43, 63)],
}


class TestChebyshevStep:
    # tolerances from 1e-12 to 1e-6 on the lossy fig3 system, D = 49
    @pytest.mark.parametrize("tolerance", [1e-12, 1e-10, 1e-8, 1e-6])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 8.0])
    @pytest.mark.parametrize("norm", [1.0, 0.3, 7.0])
    def test_steps_within_budget_of_dense_expm(self, dt, tolerance, norm):
        from polarbin.propagator import _ChebyshevStepper

        spec = fig3_spec(sigma=0.02)
        bins, ham = small_system(spec, 4, 6)
        assert ham.layout.dimension == 49
        exact_step = scipy.linalg.expm(-1j * dt * dense_fock(spec, bins, 6))
        rng = np.random.default_rng(round(1e3 * dt))
        psi = rng.normal(size=49) + 1j * rng.normal(size=49)
        psi *= norm / np.linalg.norm(psi)
        n_steps = 60
        matrix = CountingMatrix(ham.matrix)
        stepper = _ChebyshevStepper.plan(matrix, ham.enclosure(), dt, n_steps, tolerance,
                                         norm)
        assert stepper is not None and matrix.calls == 0
        steps, n_terms = block_shape(stepper)
        budget = tolerance / -(-n_steps // steps)
        y = ham.to_working(psi)
        for b in range(1, 4):
            exact = ham.to_fock(y)
            block = stepper.block(y, steps)
            assert matrix.calls == b * n_terms
            for row in block:
                exact = exact_step @ exact
                assert np.linalg.norm(ham.to_fock(row) - exact) <= budget
            y = block[-1].copy()

    @pytest.mark.parametrize("budget", [0.0, -1e-12, math.nan, math.inf])
    def test_invalid_budget_raises_before_any_matvec(self, budget):
        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        with pytest.raises(pb.PropagationError, match="tolerance"):
            plan_of(ham, 1.0, 10, budget)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_raises_before_any_matvec(self, value):
        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        for broken in ("diagonal", "arm"):
            parts = {"diagonal": ham.matrix.diagonal.copy(), "arm": ham.matrix.arm.copy()}
            parts[broken][7] = value
            matrix = CountingMatrix(ArrowheadOperator(**parts), limit=0)
            with pytest.raises(pb.PropagationError, match="not finite"):
                pb.propagate(replace(ham, matrix=matrix), pb.photonic_state(ham.layout),
                             1.0, 10.0, 1e-9)
            assert matrix.calls == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_csr_entry_raises_before_any_matvec(self, value):
        spec = fig3_spec(sigma=0.02)
        fock = binned_fock(spec, pb.discretize_disorder(spec, 4), 6)
        data = fock.matrix.data.copy()
        data[7] = value
        matrix = CountingMatrix(CsrOperator(data, fock.matrix.indices, fock.matrix.indptr),
                                limit=0)
        with pytest.raises(pb.PropagationError, match="not finite"):
            pb.propagate(replace(fock, matrix=matrix), pb.photonic_state(fock.layout),
                         1.0, 10.0, 1e-9)
        assert matrix.calls == 0

    @pytest.mark.parametrize("case", ["kappa 0.5", "kappa 1000", "s1 4.36e10"])
    def test_krylov_where_chebyshev_cannot_serve(self, case):
        # the per-step budget of each case as before blocks: a refused
        # single step refuses every block length
        n_steps, tolerance = 1, 1e-9
        if case == "kappa 0.5":  # rounding would grow like 3**K
            spec, n_bins, n_vib, dt = fig3_spec(sigma=0.02, kappa=0.5), 4, 6, 1.0
        elif case == "kappa 1000":  # stiff loss on the fig6 shape, D = 241
            from polarbin.config import load_preset

            spec, n_bins, n_vib, dt = replace(load_preset("fig6").spec, kappa=1000.0), 2, 60, 1.0
        else:  # |H|*dt of about 1e11
            spec, n_bins, n_vib, dt = fig3_spec(s1=4.36e10, kappa=0.0), 1, 2, 0.5
        _, ham = small_system(spec, n_bins, n_vib)
        assert plan_of(ham, dt, n_steps, tolerance) == (None, 0)

    def test_small_systems_take_long_blocks(self):
        # the bound holds at any dimension: a series longer than D serves
        # a long block of a small system
        spec = fig3_spec(coupling=0.0, omega_c=0.105, sigma=0.0)
        _, ham = small_system(spec, 1, 2)
        assert ham.layout.dimension == 5
        stepper, calls = plan_of(ham, *CRITERION_2_GRID, 1e-9)
        assert calls == 0 and block_shape(stepper) == CRITERION_2_PLAN
        # the oracle-n4 benchmark point: the binned model and N = 1
        spec = fig3_spec(coupling=0.01, sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        dt, n_steps = 4 * pb.FS_TO_AU / 17, 17
        explicit = build_explicit_hamiltonian(spec, ExplicitEnsemble.from_bins(bins, 1, 6,
                                                                               spec.coupling))
        plans = {}
        for ham in (pb.build_effective_hamiltonian(spec, bins, 6), explicit):
            stepper, calls = plan_of(ham, dt, n_steps, 1e-9)
            assert calls == 0
            plans[ham.layout.dimension] = block_shape(stepper)
        assert plans == {25: (12, 52), 18: (12, 53)}

    @pytest.mark.parametrize("case", ["criterion 2 photonic", "criterion 2 random",
                                      "kappa 0.5"])
    def test_small_and_stiff_runs_match_dense_expm(self, case):
        # criterion 2's system takes one Chebyshev plan, kappa 0.5 Krylov blocks
        rng = np.random.default_rng(5)
        if case.startswith("criterion 2"):
            spec, n_bins, n_vib = fig3_spec(coupling=0.0, omega_c=0.105, sigma=0.0), 1, 2
            (dt, n_steps), plan = CRITERION_2_GRID, CRITERION_2_PLAN
        else:
            spec, n_bins, n_vib = fig3_spec(sigma=0.02, kappa=0.5), 4, 6
            dt, n_steps, plan = 1.0, 100, None
        bins, ham = small_system(spec, n_bins, n_vib)
        stepper, _ = plan_of(ham, dt, n_steps, 1e-9)
        assert (None if stepper is None else block_shape(stepper)) == plan
        if case == "criterion 2 photonic":
            psi0 = pb.photonic_state(ham.layout)
        else:
            dim = ham.layout.dimension
            psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi0 /= np.linalg.norm(psi0)
        traj = pb.propagate(ham, psi0, dt, n_steps * dt, 1e-9,
                            state_times=np.arange(n_steps + 1) * dt)
        step = scipy.linalg.expm(-1j * dt * dense_fock(spec, bins, n_vib))
        exact = psi0
        for state in traj.states:
            assert np.linalg.norm(state - exact) <= 1e-9
            exact = step @ exact

    def test_fig6_shape_takes_chebyshev(self):
        bins, ham = small_system(fig3_spec(sigma=0.02), 24, 60)
        assert ham.layout.dimension == 2881
        psi0 = pb.polariton_state(ham.layout, bins, +1)
        stepper, calls = plan_of(ham, 1.0, 1240, 1e-9, np.linalg.norm(psi0))
        assert stepper is not None and calls == 0
        assert block_shape(stepper) == FIG6_PLAN

    def test_every_preset_point_takes_chebyshev(self):
        # a silent fall-back to Krylov would undo the blocks' speed-up, and a
        # shorter block or a longer series would cost mat-vecs
        from polarbin.propagator import _resolve_grid

        plans = {name: [] for name in PRESET_PLANS}
        for name, point, resolved in preset_points():
            bins, ham = small_system(resolved.spec, resolved.n_bins, resolved.n_vib)
            psi0 = pb.make_initial_state(resolved.initial_state, ham.layout, bins)
            n_steps = _resolve_grid(resolved.dt_record, resolved.t_final)
            stepper, calls = plan_of(ham, resolved.dt_record, n_steps, resolved.tolerance,
                                     np.linalg.norm(psi0))
            assert stepper is not None and calls == 0, (name, point)
            plans[name].append(block_shape(stepper))
        assert plans == PRESET_PLANS


class TestBlockStep:
    """Every recorded state of a Chebyshev block run against dense expm of
    the Fock matrix, H stepped as the binned arrowhead or as reference CSR."""

    DT, TOLERANCE = 2.0, 1e-10

    @staticmethod
    def engine(name):
        """(ham, dense Fock matrix, initial state) of a lossy fig3 system."""
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 4)
        if name == "arrowhead":
            ham = pb.build_effective_hamiltonian(spec, bins, 6)
            return ham, dense_fock(spec, bins, 6), pb.polariton_state(ham.layout, bins, +1)
        ham = build_explicit_hamiltonian(spec, ExplicitEnsemble.from_bins(bins, 2, 3,
                                                                          spec.coupling))
        return ham, scipy_csr(ham.matrix).toarray(), pb.photonic_state(ham.layout)

    def steps_of(self, ham, n_steps):
        stepper, _ = plan_of(ham, self.DT, n_steps, self.TOLERANCE)
        return stepper.steps

    @pytest.mark.parametrize("engine", ["arrowhead", "csr"])
    @pytest.mark.parametrize("grid", ["whole blocks", "cut short", "shorter than a block"])
    def test_every_recorded_state_matches_dense_expm(self, engine, grid):
        ham, dense, psi0 = self.engine(engine)
        long = self.steps_of(ham, 400)
        assert long > 2
        if grid == "shorter than a block":
            n_steps = long - 2
            assert self.steps_of(ham, n_steps) <= n_steps
        else:
            remainder = (lambda n, m: n % m == 0) if grid == "whole blocks" else (
                lambda n, m: n % m != 0)
            n_steps = next(n for n in range(2 * long, 4 * long)
                           if remainder(n, self.steps_of(ham, n)))
            assert n_steps > self.steps_of(ham, n_steps) > 1
        traj = pb.propagate(ham, psi0, self.DT, n_steps * self.DT, self.TOLERANCE,
                            state_times=np.arange(n_steps + 1) * self.DT)
        step = scipy.linalg.expm(-1j * self.DT * dense)
        exact = psi0
        for state in traj.states:
            assert np.linalg.norm(state - exact) <= self.TOLERANCE
            exact = step @ exact

    @pytest.mark.parametrize("engine", ["arrowhead", "csr"])
    def test_every_row_of_a_short_block_matches_dense_expm(self, engine):
        from polarbin.propagator import _ChebyshevStepper

        ham, dense, psi0 = self.engine(engine)
        n_steps = 400
        stepper = _ChebyshevStepper.plan(ham.matrix, ham.enclosure(), self.DT, n_steps,
                                         self.TOLERANCE, 1.0)
        budget = self.TOLERANCE / -(-n_steps // stepper.steps)
        step = scipy.linalg.expm(-1j * self.DT * dense)
        for n in (1, stepper.steps - 1, stepper.steps):
            exact = psi0
            block = stepper.block(ham.to_working(psi0), n)
            assert block.shape == (n, ham.matrix.shape[0])
            for row in block:
                exact = step @ exact
                assert np.linalg.norm(ham.to_fock(row) - exact) <= budget

    def test_norm_growth_fails_inside_a_block_at_its_step(self):
        from polarbin.propagator import CHEBYSHEV_BUDGET_SHARE

        # time-reversed loss is gain: at this rate the norm crosses the
        # allowed tolerance at step 3, inside the first block, by margins
        # larger than the block's error bound
        dt, n_steps, tolerance = 3.0, 40, 1e-6
        spec = fig3_spec(sigma=0.02, kappa=2.75e-7)
        bins, ham = small_system(spec, 2, 4)
        gain = negated(ham)
        stepper, _ = plan_of(gain, dt, n_steps, tolerance)
        step = scipy.linalg.expm(1j * dt * dense_fock(spec, bins, 4))
        psi = pb.photonic_state(ham.layout)
        excess = []
        for k in range(1, n_steps + 1):
            psi = step @ psi
            excess.append(np.linalg.norm(psi) - (1.0 + 64 * np.finfo(float).eps * k + tolerance))
        first = 1 + next(k for k, value in enumerate(excess) if value > 0)
        assert 1 < first < stepper.steps
        bound = CHEBYSHEV_BUDGET_SHARE * tolerance / -(-n_steps // stepper.steps)
        assert min(abs(excess[first - 2]), excess[first - 1]) > bound
        with pytest.raises(pb.PropagationError,
                           match=rf"at step {first} \(t = {first * dt}\) exceeds its initial 1"):
            pb.propagate(gain, pb.photonic_state(ham.layout), dt, n_steps * dt, tolerance)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 3), n_vib=st.integers(2, 5),
       dt=st.floats(0.25, 20.0), n_steps=st.integers(1, 40), kappa=st.floats(0.0, 0.05),
       tolerance=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]))
def test_random_lossy_models_stay_within_tolerance(seed, n_bins, n_vib, dt, n_steps, kappa,
                                                   tolerance):
    rng = np.random.default_rng(seed)
    spec = replace(random_small_spec(rng), kappa=kappa)
    bins, ham = small_system(spec, n_bins if spec.sigma > 0 else 1, n_vib)
    psi0 = rng.normal(size=ham.layout.dimension) + 1j * rng.normal(size=ham.layout.dimension)
    psi0 /= np.linalg.norm(psi0)
    traj = pb.propagate(ham, psi0, dt, n_steps * dt, tolerance,
                        state_times=np.arange(n_steps + 1) * dt)
    step = scipy.linalg.expm(-1j * dt * dense_fock(spec, bins, n_vib))
    exact = psi0
    for state in traj.states:
        assert np.linalg.norm(state - exact) <= tolerance
        exact = step @ exact


class TestEnclosure:
    """The plan's rectangle, by Weyl's inequality on the stepped arrowhead."""

    def test_every_preset_point(self):
        # never wider than the Gershgorin rectangle of the Fock matrix
        for name, point, resolved in preset_points():
            bins, ham = small_system(resolved.spec, resolved.n_bins, resolved.n_vib)
            lo, hi, slo, shi = ham.enclosure()
            fock = binned_fock(resolved.spec, bins, resolved.n_vib).enclosure()
            assert hi - lo <= fock[1] - fock[0], (name, point)
            assert shi - slo <= fock[3] - fock[2], (name, point)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dimension=st.integers(1, 12),
           loss=st.floats(0.0, 2.0), arm_scale=st.floats(0.0, 3.0))
    def test_holds_the_spectra_of_both_parts(self, seed, dimension, loss, arm_scale):
        rng = np.random.default_rng(seed)
        diagonal = rng.normal(size=dimension) - 1j * loss * rng.random(dimension)
        arm = arm_scale * (rng.normal(size=dimension - 1) + 1j * rng.normal(size=dimension - 1))
        lo, hi, slo, shi = ArrowheadOperator(diagonal, arm).enclosure()
        dense = np.diag(diagonal)
        dense[0, 1:] = dense[1:, 0] = arm
        slack = 1e-13 * (1.0 + np.abs(diagonal).max() + np.linalg.norm(arm))
        for (a, b), part in (((lo, hi), 0.5 * (dense + dense.conj().T)),
                             ((slo, shi), -0.5j * (dense - dense.conj().T))):
            eigenvalues = np.linalg.eigvalsh(part)
            assert a - slack <= eigenvalues.min() and eigenvalues.max() <= b + slack


class TestBlasThreadScope:
    def test_one_thread_inside_propagate_restored_after(self, openblas_getters):
        bins, ham = small_system(fig3_spec(sigma=0.02), 3, 4)
        probe = ThreadProbeMatrix(ham.matrix, openblas_getters)
        pb.propagate(replace(ham, matrix=probe), pb.photonic_state(ham.layout),
                     1.0, 20.0, 1e-9)
        assert probe.calls > 0
        assert probe.seen == {(1, 1)}
        assert [getter() for getter in openblas_getters] == [2, 2]

    def test_restored_after_propagation_error(self, openblas_getters):
        bins, ham = small_system(fig3_spec(sigma=0.02), 3, 4)
        probe = ThreadProbeMatrix(ham.matrix, openblas_getters, fail_at=10)
        with pytest.raises(pb.PropagationError, match="mat-vec failed"):
            pb.propagate(replace(ham, matrix=probe), pb.photonic_state(ham.layout),
                         1.0, 20.0, 1e-9)
        assert probe.calls == 10
        assert probe.seen == {(1, 1)}
        assert [getter() for getter in openblas_getters] == [2, 2]


class TestLoadingAtOneThread:
    def test_imported_module_leaves_the_environment_alone(self, monkeypatch):
        def refuse():
            raise AssertionError("the environment was changed")

        monkeypatch.setattr(blas, "loading_at_one_thread", refuse)
        assert blas.import_at_one_thread("scipy.linalg") is scipy.linalg

    def test_two_threads_loading_at_once(self, monkeypatch):
        # the second waits for the first body; neither finds the variable
        # gone that it set
        monkeypatch.setattr(blas, "_STARTS_AT_ONE_THREAD", True)
        for name in blas.THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        entered, release, seen, errors = threading.Event(), threading.Event(), [], []

        def load(wait):
            try:
                with blas.loading_at_one_thread():
                    entered.set()
                    if wait:
                        release.wait(5.0)
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        first = threading.Thread(target=load, args=(True,))
        first.start()
        assert entered.wait(5.0)
        second = threading.Thread(target=load, args=(False,))
        second.start()
        second.join(0.05)
        assert second.is_alive() and seen == []
        release.set()
        first.join()
        second.join()
        assert errors == [] and seen == ["1", "1"]
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestStartupBlasThreads:
    """A process that imports polarbin before numpy loads numpy's bundled
    OpenBLAS at one thread, and scipy's only when a Krylov or an
    equations-of-motion run first needs scipy.linalg, at one thread as
    well, unless the caller chose a count."""

    # argv: the import order, then the run: none; the stiff kappa = 0.5
    # system (D = 49), which the Chebyshev plan refuses to Krylov; or the
    # equations-of-motion engine. Prints the thread counts of the loaded
    # copies, whether scipy's copy (numpy's is libscipy_openblas64_) and
    # scipy.linalg were loaded before and after the run, and the variable
    SCRIPT = (
        "import json, os, sys\n"
        "if sys.argv[1] == 'numpy-first':\n"
        "    import numpy, scipy.linalg\n"
        "import polarbin as pb\n"
        "from conftest import fig3_spec\n"
        "from polarbin.blas import thread_controls\n"
        "from polarbin.propagator import _ChebyshevStepper\n"
        "def loaded():\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        return ['libscipy_openblas-' in maps.read(), 'scipy.linalg' in sys.modules]\n"
        "before = loaded()\n"
        "spec = fig3_spec(sigma=0.02, kappa=0.5)\n"
        "bins = pb.discretize_disorder(spec, 4)\n"
        "if sys.argv[2] == 'krylov':\n"
        "    ham = pb.build_effective_hamiltonian(spec, bins, 6)\n"
        "    assert _ChebyshevStepper.plan(ham.matrix, ham.enclosure(), 1.0, 100, 1e-9,\n"
        "                                  1.0) is None\n"
        "    pb.propagate(ham, pb.photonic_state(ham.layout), 1.0, 100.0, 1e-9)\n"
        "elif sys.argv[2] == 'eom':\n"
        "    pb.propagate_eom(spec, bins, 6, pb.photonic_state(pb.BasisLayout(4, 6)),\n"
        "                     1.0, 10.0, 1e-9)\n"
        "print(json.dumps([[getter() for getter, _ in thread_controls()], before, loaded(),\n"
        "                  os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )

    @pytest.fixture(autouse=True)
    def _needs_two_bundled_copies_and_cores(self):
        if len(bundled_openblas()) != 2 or not os.path.exists("/proc/self/maps"):
            pytest.skip("numpy and scipy do not both bundle OpenBLAS, or no /proc")
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        if (cores or 1) < 2:
            pytest.skip("one core: the default thread count is already 1")

    def _start(self, order, run, **variables):
        src = os.path.dirname(os.path.dirname(pb.__file__))
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(variables, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, order, run], env=env,
                                capture_output=True, text=True, check=True)
        return json.loads(result.stdout)

    def test_plain_import_starts_at_one_thread(self):
        threads, before, after, variable = self._start("polarbin-first", "none")
        assert threads == [1]
        assert before == after == [False, False]
        assert variable is None

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_caller_setting_wins(self, name):
        threads, before, after, variable = self._start("polarbin-first", "krylov",
                                                       **{name: "2"})
        assert before == [False, False] and after == [True, True]
        assert threads == [2, 2]
        assert variable == ("2" if name == "OPENBLAS_NUM_THREADS" else None)

    def test_lazy_scipy_linalg_runs_at_one_thread(self):
        threads, before, after, variable = self._start("polarbin-first", "krylov")
        assert before == [False, False] and after == [True, True]
        assert threads == [1, 1]
        assert variable is None

    @pytest.mark.parametrize("name", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_eom_engine_follows_the_same_rule(self, name):
        variables = {name: "2"} if name else {}
        threads, before, after, variable = self._start("polarbin-first", "eom", **variables)
        assert before == [False, False] and after == [True, True]
        assert threads == ([2, 2] if name else [1, 1])
        assert variable == ("2" if name == "OPENBLAS_NUM_THREADS" else None)

    def test_numpy_imported_first_keeps_its_default(self):
        threads, before, _, variable = self._start("numpy-first", "none")
        assert before == [True, True]
        assert threads[0] > 1 and threads[1] > 1
        assert variable is None


class TestRecorder:
    """Observables recorded while propagating equal those of the kept states."""

    @pytest.mark.parametrize("engine", ["binned", "explicit", "eom"])
    def test_recorded_rows_equal_kept_states(self, engine):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 4)
        dt, t_final = 2.0, 40.0
        every_step = np.arange(21) * dt
        if engine == "explicit":
            ensemble = ExplicitEnsemble.from_bins(bins, 2, 3, spec.coupling)
            ham = build_explicit_hamiltonian(spec, ensemble)
            assert isinstance(ham.layout, ExplicitLayout)
        else:
            ham = pb.build_effective_hamiltonian(spec, bins, 6)
            assert ham.layout.dimension == 49
        psi0 = pb.photonic_state(ham.layout)
        if engine == "eom":
            traj = pb.propagate_eom(spec, bins, 6, psi0, dt, t_final, 1e-9,
                                    state_times=every_step)
        else:
            traj = pb.propagate(ham, psi0, dt, t_final, 1e-9,
                                state_times=every_step)
        np.testing.assert_array_equal(traj.state_times, traj.times)
        np.testing.assert_array_equal(traj.states[-1], traj.final_state)
        assert traj.p_e1.shape == traj.p_e2.shape == (21, bins.n_bins)
        for k, psi in enumerate(traj.states):
            e1, e2, photon = pb.state_populations(psi, ham.layout)
            assert np.array_equal(traj.p_e1[k], e1)
            assert np.array_equal(traj.p_e2[k], e2)
            assert traj.photon[k] == photon
            assert traj.norms2[k] == np.vdot(psi, psi).real
            assert traj.autocorr[k] == np.vdot(psi0, psi)
        record = populations(traj)
        np.testing.assert_array_equal(record.times, traj.times)
        np.testing.assert_array_equal(record.gamma, 1.0 - traj.norms2)
        assert record.photon[-1] > 0.0 and record.p_e2[-1].sum() > 0.0


class TestPropagateEom:
    def test_decoupled_pure_phases(self):
        spec = fig3_spec(s1=0.0, s2=0.0, coupling=0.0, v12=0.0, kappa=0.0,
                         sigma=0.02)
        bins = pb.discretize_disorder(spec, 3)
        layout = pb.BasisLayout(3, 5)
        psi0 = np.zeros(layout.dimension, dtype=complex)
        psi0[layout.index(0, 1, 2)] = 1.0
        traj = pb.propagate_eom(spec, bins, 5, psi0, 2.0, 100.0, 1e-10)
        energy = bins.centers[1] + 2 * spec.omega_nu
        np.testing.assert_allclose(
            traj.autocorr, np.exp(-1j * energy * traj.times), atol=1e-9
        )

    def test_zero_time(self):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        layout = pb.BasisLayout(1, 4)
        psi0 = pb.photonic_state(layout)
        traj = pb.propagate_eom(spec, bins, 4, psi0, 1.0, 0.0, 1e-9)
        assert len(traj.times) == 1
        assert traj.autocorr[0] == pytest.approx(1.0)

    def test_non_finite_solution_fails_at_its_step(self, monkeypatch):
        # a successful integration with a nan column is caught by the
        # recorder's norm check, which names the step
        import scipy.integrate

        solve_ivp = scipy.integrate.solve_ivp

        def with_nan_column(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            sol.y[:, 3] = np.nan
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", with_nan_column)
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        psi0 = pb.photonic_state(pb.BasisLayout(1, 4))
        with pytest.raises(pb.PropagationError, match="at step 3 "):
            pb.propagate_eom(spec, bins, 4, psi0, 1.0, 10.0, 1e-9)

    def test_wrong_sized_initial_state(self):
        # the Trajectory checks psi0 for both engines, with one message
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        psi0 = pb.photonic_state(pb.BasisLayout(1, 4))
        with pytest.raises(ConfigError, match="must be a vector of 11 amplitudes"):
            pb.propagate_eom(spec, bins, 5, psi0, 1.0, 10.0, 1e-9)
        with pytest.raises(ConfigError, match="must be a vector of 11 amplitudes"):
            pb.propagate(pb.build_effective_hamiltonian(spec, bins, 5), psi0, 1.0, 10.0,
                         1e-9)

    def test_integrator_failure_is_a_propagation_error(self, monkeypatch):
        import scipy.integrate

        solve_ivp = scipy.integrate.solve_ivp

        def failing(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            sol.success, sol.message = False, "Required step size is less than spacing"
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", failing)
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        psi0 = pb.photonic_state(pb.BasisLayout(1, 4))
        with pytest.raises(pb.PropagationError,
                           match="EoM integration failed: Required step size"):
            pb.propagate_eom(spec, bins, 4, psi0, 1.0, 10.0, 1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_method_independence_random_models(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_small_spec(rng)
        n_bins = int(rng.integers(1, 9)) if spec.sigma > 0 else 1
        n_vib = int(rng.integers(4, 21))
        bins = pb.discretize_disorder(spec, n_bins)
        ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
        psi0 = pb.make_initial_state("photonic", ham.layout, bins)
        tol = 1e-9
        a = pb.propagate(ham, psi0, 1.0, 300.0, tol)
        b = pb.propagate_eom(spec, bins, n_vib, psi0, 1.0, 300.0, tol)
        ra, rb = populations(a), populations(b)
        assert np.abs(ra.p_e1 - rb.p_e1).max() < 10 * tol
        assert np.abs(ra.p_e2 - rb.p_e2).max() < 10 * tol
        assert np.abs(a.autocorr - b.autocorr).max() < 10 * tol


class TestPropagationInvariants:
    def test_linearity(self):
        rng = np.random.default_rng(11)
        spec = fig3_spec(sigma=0.015)
        bins, ham = small_system(spec, 3, 8)
        dim = ham.layout.dimension
        psi1 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi1 /= np.linalg.norm(psi1)
        psi2 /= np.linalg.norm(psi2)
        alpha, beta = 0.6, 0.8
        tol = 1e-9
        combo = pb.propagate(ham, alpha * psi1 + beta * psi2, 1.0, 50.0, tol)
        t1 = pb.propagate(ham, psi1, 1.0, 50.0, tol)
        t2 = pb.propagate(ham, psi2, 1.0, 50.0, tol)
        diff = combo.final_state - (alpha * t1.final_state + beta * t2.final_state)
        assert np.linalg.norm(diff) < 10 * tol

    def test_reversibility_without_loss(self):
        spec = fig3_spec(sigma=0.01, kappa=0.0)
        bins, ham = small_system(spec, 2, 8)
        psi0 = pb.photonic_state(ham.layout)
        tol = 1e-9
        forward = pb.propagate(ham, psi0, 1.0, 100.0, tol)
        back = pb.propagate(negated(ham), forward.final_state, 1.0, 100.0, tol)
        assert np.linalg.norm(back.final_state - psi0) < 100 * tol

    def test_norm_growth_rejected(self):
        # time-reversed loss is gain, which no dissipative model allows
        _, ham = small_system(fig3_spec(sigma=0.02), 2, 4)
        with pytest.raises(pb.PropagationError,
                           match=r"at step 1 \(t = 1.0\) exceeds its initial 1"):
            pb.propagate(negated(ham), pb.photonic_state(ham.layout), 1.0, 20.0, 1e-9)

    def test_norm_decay_law(self):
        # d<psi|psi>/dt = -kappa * photon population
        spec = fig3_spec(sigma=0.01)
        bins, ham = small_system(spec, 2, 8)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 0.25, 50.0, 1e-10)
        dndt = np.gradient(traj.norms2, traj.times)
        target = -spec.kappa * traj.photon
        assert np.abs(dndt - target)[1:-1].max() < 1e-6

    def test_norm_constant_without_loss(self):
        spec = fig3_spec(sigma=0.01, kappa=0.0)
        bins, ham = small_system(spec, 2, 6)
        psi0 = pb.bright_state(ham.layout, bins)
        traj = pb.propagate(ham, psi0, 1.0, 200.0, 1e-9)
        np.testing.assert_allclose(traj.norms2, 1.0, atol=1e-8)
