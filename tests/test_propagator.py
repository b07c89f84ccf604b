import ctypes
import glob
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import polarbin as pb
from polarbin.errors import ConfigError
from polarbin.observables import populations
from polarbin.oracle import ExplicitEnsemble, ExplicitLayout, build_explicit_hamiltonian
from polarbin.propagator import _openblas_thread_controls

from conftest import fig3_spec, random_small_spec


def small_system(spec, n_bins, n_vib):
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    return bins, ham


def negated(ham):
    return replace(ham, matrix=-ham.matrix)


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
            assert psi[ham.layout.e1(i, 0)] == pytest.approx(
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


class TestPropagate:
    def test_stationary_state_pure_phase(self):
        # diagonal-only Hamiltonian: undisplaced surfaces, no couplings
        spec = fig3_spec(s1=0.0, s2=0.0, coupling=0.0, v12=0.0, kappa=0.0)
        bins, ham = small_system(spec, 1, 5)
        layout = ham.layout
        psi0 = np.zeros(layout.dimension, dtype=complex)
        psi0[layout.e1(0, 2)] = 1.0
        energy = ham.matrix[layout.e1(0, 2), layout.e1(0, 2)].real
        traj = pb.propagate(ham, psi0, 2.0, 200.0, 1e-10)
        expected = np.exp(-1j * energy * traj.times)
        np.testing.assert_allclose(traj.autocorr, expected, atol=1e-9)
        np.testing.assert_allclose(np.abs(traj.autocorr), 1.0, atol=1e-9)

    def test_empty_cavity_decay_closed_form(self):
        spec = fig3_spec(coupling=0.0, kappa=0.004)
        bins, ham = small_system(spec, 1, 4)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 1.0, 500.0, 1e-10,
                            initial_state_label="photonic")
        expected = np.exp((-1j * spec.omega_c - spec.kappa / 2) * traj.times)
        np.testing.assert_allclose(traj.autocorr, expected, atol=1e-9)
        np.testing.assert_allclose(
            traj.norms2, np.exp(-spec.kappa * traj.times), atol=1e-9
        )

    def test_jaynes_cummings_rabi_oscillation(self):
        spec = fig3_spec(s1=0.0, v12=0.0, kappa=0.0, omega_c=0.10)
        bins, ham = small_system(spec, 1, 3)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 1.0, 1240.0, 1e-9,
                            initial_state_label="photonic")
        target = np.cos(spec.coupling * traj.times) ** 2
        np.testing.assert_allclose(
            np.abs(traj.photon_amp) ** 2, target, atol=1e-8
        )
        # full population oscillation period 2 pi / (2 G) ~ 2.5 fs
        period = 2 * math.pi / (2 * spec.coupling)
        assert period == pytest.approx(104.72, abs=0.01)
        assert period / pb.FS_TO_AU == pytest.approx(2.53, abs=0.01)

    def test_matches_dense_expm_oracle(self):
        rng = np.random.default_rng(7)
        spec = random_small_spec(rng)
        bins, ham = small_system(spec, 3, 6)
        dim = ham.dimension
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        traj = pb.propagate(ham, psi0, 5.0, 50.0, 1e-10)
        dense = ham.matrix.toarray()
        for k, t in enumerate(traj.times):
            exact = scipy.linalg.expm(-1j * dense * t) @ psi0
            assert abs(np.vdot(psi0, exact) - traj.autocorr[k]) < 1e-9

    def test_zero_time_trajectory(self):
        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        traj = pb.propagate(ham, psi0, 1.0, 0.0, 1e-9,
                            initial_state_label="photonic")
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
        assert none.states.shape == (0, ham.dimension)
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

    def test_unmeetable_step_budget_raises(self):
        from polarbin.propagator import _KrylovStepper

        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        stepper = _KrylovStepper(ham.matrix)
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
        assert ham.dimension == dim and 17 < MAX_KRYLOV < 37
        matrix = CountingMatrix(ham.matrix, limit=0)
        stepper = _KrylovStepper(matrix)
        psi0 = pb.photonic_state(ham.layout)
        with pytest.raises(pb.PropagationError, match="tolerance"):
            stepper.step(psi0, 1.0, budget)
        assert matrix.calls == 0

    @pytest.mark.parametrize("dt", [1.0, 50.0])
    def test_valid_step_budget_matches_dense_expm(self, dt):
        from polarbin.propagator import _KrylovStepper

        bins, ham = small_system(fig3_spec(sigma=0.01), 2, 4)
        psi0 = pb.photonic_state(ham.layout)
        matrix = CountingMatrix(ham.matrix)
        psi = _KrylovStepper(matrix).step(psi0, dt, 1e-12)
        if dt == 50.0:
            # no estimate fits below m = D: the invariant-subspace return
            assert matrix.calls == ham.dimension
        exact = scipy.linalg.expm(-1j * dt * ham.matrix.toarray()) @ psi0
        assert np.linalg.norm(psi - exact) <= 1e-12

    # budgets from 1e-12 to 1e-6 on the lossy fig3 system, D = 49 > MAX_KRYLOV
    @pytest.mark.parametrize("budget", [1e-12, 1e-10, 1e-8, 1e-6])
    @pytest.mark.parametrize("dt", [0.5, 2.0, 8.0, 30.0])
    def test_steps_within_budget_of_dense_expm(self, dt, budget):
        from polarbin.propagator import MAX_KRYLOV, _KrylovStepper

        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        assert ham.dimension == 49 > MAX_KRYLOV
        exact_step = scipy.linalg.expm(-1j * dt * ham.matrix.toarray())
        stepper = _KrylovStepper(ham.matrix)
        psi = pb.polariton_state(ham.layout, bins, +1)
        for _ in range(4):  # later steps start the estimate from the previous m
            exact = exact_step @ psi
            psi = stepper.step(psi, dt, budget)
            assert np.linalg.norm(psi - exact) <= budget

    def test_subdivided_step_within_budget(self):
        from polarbin.propagator import _KrylovStepper

        # four basis vectors cannot carry a 30 au step: it must be split
        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        matrix = CountingMatrix(ham.matrix)
        psi0 = pb.photonic_state(ham.layout)
        psi = _KrylovStepper(matrix, m_max=4).step(psi0, 30.0, 1e-10)
        assert matrix.calls > 4
        exact = scipy.linalg.expm(-1j * 30.0 * ham.matrix.toarray()) @ psi0
        assert np.linalg.norm(psi - exact) <= 1e-10

    def test_invariant_subspace_step_within_budget(self):
        from polarbin.propagator import _KrylovStepper

        # an empty lossy cavity: the photonic state is an eigenvector, so
        # Arnoldi stops after one mat-vec
        bins, ham = small_system(fig3_spec(sigma=0.02, coupling=0.0), 4, 6)
        matrix = CountingMatrix(ham.matrix)
        psi0 = pb.photonic_state(ham.layout)
        psi = _KrylovStepper(matrix).step(psi0, 30.0, 1e-12)
        assert matrix.calls == 1
        exact = scipy.linalg.expm(-1j * 30.0 * ham.matrix.toarray()) @ psi0
        assert np.linalg.norm(psi - exact) <= 1e-12


class TestBesselJ:
    """The Chebyshev coefficients' Bessel values against scipy.special.jv."""

    @pytest.mark.parametrize("n_max", [1, 12, 64])
    @pytest.mark.parametrize("x", [1e-300, 1e-9, 1e-3, 0.5, 5.0, 20.0, 45.0, 60.0])
    def test_matches_scipy(self, x, n_max):
        from scipy.special import jv

        from polarbin.propagator import _bessel_j

        k = np.arange(n_max + 1)
        values, reference = _bessel_j(n_max, x), jv(k, x)
        assert np.abs(values - reference).max() <= 4e-15
        # the truncation lives in the decaying tail; subnormal values carry
        # no relative precision to compare
        tail = (k > x + 5) & (np.abs(reference) >= np.finfo(float).tiny)
        np.testing.assert_allclose(values[tail], reference[tail], rtol=1e-12, atol=0)


class TestChebyshevStep:
    # budgets from 1e-12 to 1e-6 on the lossy fig3 system, D = 49
    @pytest.mark.parametrize("budget", [1e-12, 1e-10, 1e-8, 1e-6])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 8.0])
    @pytest.mark.parametrize("norm", [1.0, 0.3, 7.0])
    def test_steps_within_budget_of_dense_expm(self, dt, budget, norm):
        from polarbin.propagator import _ChebyshevStepper

        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        assert ham.dimension == 49
        exact_step = scipy.linalg.expm(-1j * dt * ham.matrix.toarray())
        rng = np.random.default_rng(round(1e3 * dt))
        psi = rng.normal(size=49) + 1j * rng.normal(size=49)
        psi *= norm / np.linalg.norm(psi)
        matrix = CountingMatrix(ham.matrix)
        stepper = _ChebyshevStepper.plan(matrix, dt, budget, norm)
        assert stepper is not None and matrix.calls == 0
        n_terms = len(stepper.coefficients) - 1
        for k in range(1, 4):
            exact = exact_step @ psi
            psi = stepper.step(psi)
            assert matrix.calls == k * n_terms
            assert np.linalg.norm(psi - exact) <= budget

    @pytest.mark.parametrize("budget", [0.0, -1e-12, math.nan, math.inf])
    def test_invalid_budget_raises_before_any_matvec(self, budget):
        from polarbin.propagator import _ChebyshevStepper

        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        matrix = CountingMatrix(ham.matrix, limit=0)
        with pytest.raises(pb.PropagationError, match="tolerance"):
            _ChebyshevStepper.plan(matrix, 1.0, budget, 1.0)
        assert matrix.calls == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_raises_before_any_matvec(self, value):
        bins, ham = small_system(fig3_spec(sigma=0.02), 4, 6)
        broken = ham.matrix.copy()
        broken.data[7] = value
        matrix = CountingMatrix(broken, limit=0)
        with pytest.raises(pb.PropagationError, match="not finite"):
            pb.propagate(replace(ham, matrix=matrix), pb.photonic_state(ham.layout),
                         1.0, 10.0, 1e-9)
        assert matrix.calls == 0

    @pytest.mark.parametrize("case", ["criterion 2", "kappa 0.5", "s1 4.36e10"])
    def test_krylov_where_chebyshev_cannot_serve(self, case):
        from polarbin.propagator import _ChebyshevStepper

        budget = 1e-9
        if case == "criterion 2":  # D = 5 is less than the 7 terms needed
            spec, n_bins, n_vib = fig3_spec(coupling=0.0, omega_c=0.105), 1, 2
            dt, budget = 200 * pb.FS_TO_AU / 8268, 1e-9 / 8268
        elif case == "kappa 0.5":  # rounding would grow like 3**K
            spec, n_bins, n_vib, dt = fig3_spec(sigma=0.02, kappa=0.5), 4, 6, 1.0
        else:  # |H|*dt of about 1e11
            spec, n_bins, n_vib, dt = fig3_spec(s1=4.36e10, kappa=0.0), 1, 2, 0.5
        _, ham = small_system(spec, n_bins, n_vib)
        matrix = CountingMatrix(ham.matrix, limit=0)
        assert _ChebyshevStepper.plan(matrix, dt, budget, 1.0) is None

    def test_fig6_shape_takes_chebyshev(self):
        from polarbin.propagator import _ChebyshevStepper

        bins, ham = small_system(fig3_spec(sigma=0.02), 24, 60)
        assert ham.dimension == 2881
        psi0 = pb.polariton_state(ham.layout, bins, +1)
        matrix = CountingMatrix(ham.matrix, limit=0)
        stepper = _ChebyshevStepper.plan(matrix, 1.0, 1e-9 / 1240, np.linalg.norm(psi0))
        assert stepper is not None
        assert len(stepper.coefficients) - 1 == 12

    def test_every_preset_point_takes_chebyshev(self):
        # a silent fall-back to Krylov would undo the step's speed-up
        from polarbin.config import PRESET_NAMES, load_preset
        from polarbin.propagator import _ChebyshevStepper, _resolve_grid

        for name in PRESET_NAMES:
            cfg = load_preset(name)
            for point in cfg.sweep_points():
                resolved = cfg.resolve_point(point)
                bins, ham = small_system(resolved.spec, resolved.n_bins, resolved.n_vib)
                psi0 = pb.make_initial_state(resolved.initial_state, ham.layout, bins)
                n_steps = _resolve_grid(resolved.dt_record, resolved.t_final)
                matrix = CountingMatrix(ham.matrix, limit=0)
                stepper = _ChebyshevStepper.plan(
                    matrix, resolved.dt_record, resolved.tolerance / n_steps,
                    np.linalg.norm(psi0),
                )
                assert stepper is not None, (name, point)


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


class TestStartupBlasThreads:
    """A process that imports polarbin before numpy loads both bundled
    OpenBLAS copies at one thread, unless the caller chose a count."""

    READ = (
        "import json, os, sys\n"
        "if sys.argv[1] == 'numpy-first':\n"
        "    import numpy, scipy.linalg\n"
        "import polarbin\n"
        "from polarbin.propagator import _openblas_thread_controls\n"
        "print(json.dumps([[getter() for getter, _ in _openblas_thread_controls()],\n"
        "                  os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )

    @pytest.fixture(autouse=True)
    def _needs_two_bundled_copies_and_cores(self):
        if len(_openblas_thread_controls()) != 2:
            pytest.skip("numpy and scipy do not both bundle OpenBLAS")
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        if (cores or 1) < 2:
            pytest.skip("one core: the default thread count is already 1")

    # the criterion-2 system (D = 5) takes the Krylov stepper, which loads
    # scipy.linalg only then; its OpenBLAS must still run at one thread
    KRYLOV = (
        "import json, sys\n"
        "import polarbin as pb\n"
        "from conftest import fig3_spec\n"
        "from polarbin.propagator import _ChebyshevStepper, _openblas_thread_controls\n"
        "loaded = ['scipy.linalg' in sys.modules]\n"
        "spec = fig3_spec(coupling=0.0, omega_c=0.105, sigma=0.0)\n"
        "ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 1), 2)\n"
        "dt = 200 * pb.FS_TO_AU / 8268\n"
        "assert _ChebyshevStepper.plan(ham.matrix, dt, 1e-9 / 100, 1.0) is None\n"
        "pb.propagate(ham, pb.photonic_state(ham.layout), dt, 100 * dt, 1e-9)\n"
        "loaded.append('scipy.linalg' in sys.modules)\n"
        "print(json.dumps([[getter() for getter, _ in _openblas_thread_controls()], loaded]))\n"
    )

    def _start(self, order, script=READ, **variables):
        src = os.path.dirname(os.path.dirname(pb.__file__))
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(variables, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
        result = subprocess.run([sys.executable, "-c", script, order], env=env,
                                capture_output=True, text=True, check=True)
        return json.loads(result.stdout)

    def test_plain_import_starts_at_one_thread(self):
        threads, variable = self._start("polarbin-first")
        assert threads == [1, 1]
        assert variable is None

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_caller_setting_wins(self, name):
        threads, variable = self._start("polarbin-first", **{name: "2"})
        assert threads == [2, 2]
        assert variable == ("2" if name == "OPENBLAS_NUM_THREADS" else None)

    def test_lazy_scipy_linalg_runs_at_one_thread(self):
        threads, loaded = self._start("polarbin-first", self.KRYLOV)
        assert loaded == [False, True]
        assert threads == [1, 1]

    def test_numpy_imported_first_keeps_its_default(self):
        threads, variable = self._start("numpy-first")
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
            assert ham.dimension == 49
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
            assert traj.photon_amp[k] == psi[0]
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
        psi0[layout.e1(1, 2)] = 1.0
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
        traj = pb.propagate_eom(spec, bins, 4, psi0, 1.0, 0.0, 1e-9,
                                initial_state_label="photonic")
        assert len(traj.times) == 1
        assert traj.autocorr[0] == pytest.approx(1.0)

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
        a = pb.propagate(ham, psi0, 1.0, 300.0, tol,
                         initial_state_label="photonic")
        b = pb.propagate_eom(spec, bins, n_vib, psi0, 1.0, 300.0, tol,
                             initial_state_label="photonic")
        ra, rb = populations(a), populations(b)
        assert np.abs(ra.p_e1 - rb.p_e1).max() < 10 * tol
        assert np.abs(ra.p_e2 - rb.p_e2).max() < 10 * tol
        assert np.abs(a.autocorr - b.autocorr).max() < 10 * tol


class TestPropagationInvariants:
    def test_linearity(self):
        rng = np.random.default_rng(11)
        spec = fig3_spec(sigma=0.015)
        bins, ham = small_system(spec, 3, 8)
        dim = ham.dimension
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
        traj = pb.propagate(ham, psi0, 0.25, 50.0, 1e-10,
                            initial_state_label="photonic")
        dndt = np.gradient(traj.norms2, traj.times)
        target = -spec.kappa * np.abs(traj.photon_amp) ** 2
        assert np.abs(dndt - target)[1:-1].max() < 1e-6

    def test_norm_constant_without_loss(self):
        spec = fig3_spec(sigma=0.01, kappa=0.0)
        bins, ham = small_system(spec, 2, 6)
        psi0 = pb.bright_state(ham.layout, bins)
        traj = pb.propagate(ham, psi0, 1.0, 200.0, 1e-9)
        np.testing.assert_allclose(traj.norms2, 1.0, atol=1e-8)
