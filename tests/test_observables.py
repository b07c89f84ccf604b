import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import polarbin as pb
from polarbin.errors import (
    ConfigError,
    InitialStateError,
    NoSplittingError,
    ZeroPopulationError,
)
from polarbin.observables import MAX_OMEGA_POINTS, Spectrum

from conftest import fig3_spec


def photonic_run(spec, n_bins, n_vib, t_final, dt=1.0):
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    traj = pb.propagate(
        ham, pb.photonic_state(ham.layout), dt, t_final, 1e-9,
    )
    return bins, ham, traj


def _weighted_autocorr(traj):
    """Trapezoidal weights times the autocorrelation, as absorption sums it."""
    weights = np.full(len(traj.times), traj.dt_record)
    if len(weights) > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5
    return traj.autocorr * weights


def _absorption_values(ct, kappa):
    return kappa * ct.real - 0.5 * (kappa * kappa) * np.abs(ct) ** 2


def phase_matrix_absorption(traj, kappa, omega_grid):
    """Reference: the direct float64 sum, exp(i w t) applied to the
    weighted autocorrelation 512 frequencies at a time."""
    weighted = _weighted_autocorr(traj)
    ct = np.empty(len(omega_grid), dtype=complex)
    for start in range(0, len(omega_grid), 512):
        block = omega_grid[start : start + 512]
        ct[start : start + len(block)] = np.exp(1j * np.outer(block, traj.times)) @ weighted
    return _absorption_values(ct, kappa)


def longdouble_absorption(traj, kappa, omega_grid):
    """Reference: the direct sum with phases and products in long double."""
    weighted = _weighted_autocorr(traj)
    phase = np.outer(np.asarray(omega_grid, np.longdouble),
                     np.asarray(traj.times, np.longdouble))
    re, im = (np.asarray(part, np.longdouble) for part in (weighted.real, weighted.imag))
    ct = ((np.cos(phase) * re - np.sin(phase) * im).sum(axis=1).astype(float)
          + 1j * (np.sin(phase) * re + np.cos(phase) * im).sum(axis=1).astype(float))
    return _absorption_values(ct, kappa)


def synthetic_run(n_t, dt):
    """A photonic-start record: a damped polariton doublet decaying to
    e^-3 over the run, with a little seeded noise."""
    t = np.arange(n_t) * dt
    decay = 3.0 / max(t[-1], dt)
    c = 0.5 * (np.exp(-0.07j * t) + np.exp(-0.13j * t)) * np.exp(-decay * t)
    c[1:] += 1e-3 * np.random.default_rng(n_t).standard_normal(n_t - 1)
    return SimpleNamespace(times=t, dt_record=dt, autocorr=c, norms2=np.ones(n_t),
                           psi0=c[:1])


def widest_default_grid():
    """default_omega_grid at the most points it allows."""
    # window width omega_nu + 6*sigma + 6*coupling = 99.99985 au: 999,999 points
    spec = fig3_spec(sigma=(99.99985 - 0.01 - 0.18) / 6)
    grid = pb.default_omega_grid(spec)
    assert len(grid) == MAX_OMEGA_POINTS - 1
    return grid


KAPPA = fig3_spec().kappa
FIG3_GRID = pb.default_omega_grid(fig3_spec())


class TestAbsorptionTransform:
    @pytest.mark.parametrize("n_t, dt, grid", [
        (40, 31.0, 0.04 + 1e-4 * np.arange(20_000)),   # n_omega >> n_t
        (20_001, 1.0, 0.05 + 1e-4 * np.arange(7)),     # n_omega << n_t
        (1241, 1.0, np.array([0.1])),                  # one frequency
        (1, 1.0, FIG3_GRID),                           # one recorded time
        (156, 8.0, FIG3_GRID),
        (1241, 1.0, np.linspace(-0.3, 0.5, 1001)),
    ])
    def test_matches_phase_matrix_sum(self, n_t, dt, grid):
        traj = synthetic_run(n_t, dt)
        spectrum = pb.absorption(traj, KAPPA, grid)
        np.testing.assert_allclose(spectrum.values, phase_matrix_absorption(traj, KAPPA, grid),
                                   rtol=0, atol=1e-12)

    def test_widest_window_of_a_two_step_run(self):
        # omega*t reaches 6e4 rad: the float64 direct sum's own rounding
        # is the yardstick, measured against a long double sum
        grid = widest_default_grid()
        traj = synthetic_run(2, 1240.0)
        start = time.perf_counter()
        spectrum = pb.absorption(traj, KAPPA, grid)
        assert time.perf_counter() - start < 1.0
        sample = slice(3, None, 97)
        exact = longdouble_absorption(traj, KAPPA, grid[sample])
        direct_error = np.abs(phase_matrix_absorption(traj, KAPPA, grid[sample]) - exact).max()
        assert np.abs(spectrum.values[sample] - exact).max() <= 2.0 * direct_error

    # the direct sum's 512 x n_t phase chunk and its exponential peak at
    # 20 MB for n_t = 1241; at n_t = 20,000 allow 25 complex numbers per time
    @pytest.mark.parametrize("n_t, limit", [(1241, 2e6), (20_000, 25 * 16 * 20_000)])
    def test_working_memory_is_linear_in_record_length(self, n_t, limit):
        traj = synthetic_run(n_t, 1.0)
        grid = 0.04 + 1e-4 * np.arange(3701)
        tracemalloc.start()
        try:
            pb.absorption(traj, KAPPA, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("grid", [
        np.array([]),
        np.array([0.1, np.nan, 0.3]),
        np.array([0.1, 0.2, 0.4]),
        0.1 + 1e-4 * np.arange(100) ** 1.001,
        np.zeros((2, 3)),
    ], ids=["empty", "nan", "uneven", "drifting", "2d"])
    def test_rejects_grid_that_is_not_uniform(self, grid):
        with pytest.raises(ConfigError):
            pb.absorption(synthetic_run(10, 1.0), KAPPA, grid)


class TestAbsorption:
    def test_requires_photonic_trajectory(self):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        ham = pb.build_effective_hamiltonian(spec, bins, 4)
        traj = pb.propagate(ham, pb.bright_state(ham.layout, bins), 1.0, 10.0,
                            1e-9)
        with pytest.raises(InitialStateError):
            pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))

    @pytest.mark.parametrize("phase", [1.0, 1j])
    def test_accepts_photonic_start_up_to_a_phase(self, phase):
        # no label: the recorded t = 0 state is what is checked
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        ham = pb.build_effective_hamiltonian(spec, bins, 4)
        traj = pb.propagate(ham, phase * pb.photonic_state(ham.layout), 1.0, 10.0, 1e-9)
        spectrum = pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))
        assert np.isfinite(spectrum.values).all()

    @pytest.mark.parametrize("start", ["upper_polariton", "twice_photonic"])
    def test_refuses_other_starts(self, start):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        ham = pb.build_effective_hamiltonian(spec, bins, 4)
        psi0 = (2.0 * pb.photonic_state(ham.layout) if start == "twice_photonic"
                else pb.make_initial_state(start, ham.layout, bins))
        traj = pb.propagate(ham, psi0, 1.0, 10.0, 1e-9)
        with pytest.raises(InitialStateError):
            pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))

    def test_empty_cavity_cancellation(self):
        # with T_f = 35/kappa the analytic truncation residue ~5e-8; the
        # recording step is refined so quadrature error stays below 1e-6
        spec = fig3_spec(coupling=0.0, kappa=0.01, omega_c=0.105)
        t_final = 35 / spec.kappa
        n = 4 * round(t_final)
        _, _, traj = photonic_run(spec, 1, 2, t_final, dt=t_final / n)
        spectrum = pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))
        assert np.abs(spectrum.values).max() < 1e-6

    def test_jaynes_cummings_doublet(self):
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, omega_c=0.10)
        _, _, traj = photonic_run(spec, 1, 2, 1240.0)
        spectrum = pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))
        a, w = spectrum.values, spectrum.omega
        interior = np.arange(1, len(a) - 1)
        maxima = interior[(a[interior] > a[interior - 1])
                          & (a[interior] > a[interior + 1])]
        top2 = sorted(maxima[np.argsort(-a[maxima])[:2]])
        assert w[top2[0]] == pytest.approx(0.10 - 0.03, abs=1e-4)
        assert w[top2[1]] == pytest.approx(0.10 + 0.03, abs=1e-4)
        assert a[top2[0]] == pytest.approx(a[top2[1]], rel=0.05)

    def test_values_are_real_and_deterministic(self):
        spec = fig3_spec(sigma=0.0)
        _, _, traj = photonic_run(spec, 1, 10, 200.0)
        grid = pb.default_omega_grid(spec)
        s1 = pb.absorption(traj, spec.kappa, grid)
        s2 = pb.absorption(traj, spec.kappa, grid)
        assert s1.values.dtype == np.float64
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_rejects_unsorted_grid(self):
        spec = fig3_spec(sigma=0.0)
        _, _, traj = photonic_run(spec, 1, 4, 10.0)
        with pytest.raises(ConfigError):
            pb.absorption(traj, spec.kappa, np.array([0.2, 0.1]))


class TestDefaultOmegaGrid:
    def test_window_and_step(self):
        spec = fig3_spec(sigma=0.02)
        grid = pb.default_omega_grid(spec)
        assert grid[0] == pytest.approx(0.10 - 0.06 - 0.09)
        assert grid[-1] <= 0.10 + 0.01 + 0.06 + 0.09 + 1e-12
        assert np.allclose(np.diff(grid), 1e-4)


class TestPopulations:
    def test_photonic_at_time_zero(self):
        spec = fig3_spec(sigma=0.01)
        bins, ham, traj = photonic_run(spec, 3, 5, 10.0)
        record = pb.populations(traj)
        assert record.photon[0] == pytest.approx(1.0)
        assert record.p_e1[0] == pytest.approx(np.zeros(3), abs=1e-15)
        assert record.p_e2[0] == pytest.approx(np.zeros(3), abs=1e-15)

    def test_bright_at_time_zero(self):
        spec = fig3_spec(sigma=0.01)
        bins = pb.discretize_disorder(spec, 3)
        ham = pb.build_effective_hamiltonian(spec, bins, 5)
        traj = pb.propagate(ham, pb.bright_state(ham.layout, bins), 1.0, 5.0,
                            1e-9)
        record = pb.populations(traj)
        np.testing.assert_allclose(record.p_e1[0], bins.weights, atol=1e-14)

    def test_completeness_without_loss(self):
        spec = fig3_spec(sigma=0.01, kappa=0.0)
        bins, ham, traj = photonic_run(spec, 2, 8, 300.0)
        record = pb.populations(traj)
        assert record.completeness_defect() < 1e-8
        assert np.abs(record.gamma).max() < 1e-8

    def test_completeness_with_loss(self):
        spec = fig3_spec(sigma=0.01)
        bins, ham, traj = photonic_run(spec, 2, 8, 300.0)
        record = pb.populations(traj)
        assert record.completeness_defect() < 1e-8
        assert record.gamma[-1] > 0.1  # substantial leakage by 300 au


class TestVibrationalEnergy:
    def _single_level_state(self, layout, i):
        psi = np.zeros(layout.dimension, dtype=complex)
        psi[layout.index(0, i, 0)] = 1.0
        return psi

    def test_undisplaced_ground_level_zero(self):
        spec = fig3_spec(s1=0.0, sigma=0.01)
        layout = pb.BasisLayout(2, 6)
        psi = self._single_level_state(layout, 0)
        assert pb.vibrational_energy(psi, layout, spec)[0] == pytest.approx(0.0)

    def test_displaced_ground_level_offset(self):
        # Franck-Condon point sits s^2 quanta above the displaced minimum
        spec = fig3_spec(sigma=0.01)
        layout = pb.BasisLayout(2, 6)
        psi = self._single_level_state(layout, 1)
        energy = pb.vibrational_energy(psi, layout, spec)[1]
        assert energy == pytest.approx(spec.omega_nu * spec.s1**2)
        assert energy == pytest.approx(0.01)

    def test_zero_population_is_nan(self):
        # bin 0 holds nothing, bin 1 its ground level: only bin 0 has no energy
        spec = fig3_spec(sigma=0.01)
        layout = pb.BasisLayout(2, 6)
        energies = pb.vibrational_energy(self._single_level_state(layout, 1), layout, spec)
        assert np.isnan(energies[0])
        assert energies[1] == pytest.approx(spec.omega_nu * spec.s1**2)
        assert np.isnan(pb.vibrational_energy(pb.photonic_state(layout), layout, spec)).all()

    def test_matches_per_bin_quadratic_forms(self):
        # reference: <psi_i|n_s1|psi_i> / <psi_i|psi_i> bin by bin, by vdot
        spec = fig3_spec(sigma=0.01)
        layout = pb.BasisLayout(5, 7)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        op = pb.displaced_number_operator(spec.s1, layout.n_vib)
        expected = []
        for i in range(layout.n_bins):
            block = psi[layout.index(0, i, np.arange(layout.n_vib))]
            expected.append(spec.omega_nu * np.vdot(block, op @ block).real
                            / np.vdot(block, block).real)
        np.testing.assert_allclose(pb.vibrational_energy(psi, layout, spec), expected,
                                   rtol=1e-13, atol=0.0)


def _widest_top_pair(w, a):
    """Widest pair of strict local maxima that holds a maximum of the largest
    amplitude v1 and another at or above the second largest v2, or None."""
    maxima = [i for i in range(1, len(a) - 1) if a[i - 1] < a[i] > a[i + 1]]
    if len(maxima) < 2:
        return None
    v1, v2 = sorted((a[i] for i in maxima), reverse=True)[:2]
    candidates = [i for i in maxima if a[i] >= v2]
    return max(w[q] - w[p] for p in candidates for q in candidates
               if p < q and v1 in (a[p], a[q]))


class TestRabiSplitting:
    def _lorentzian(self, w, w0, width):
        return width**2 / ((w - w0) ** 2 + width**2)

    def test_symmetric_doublet(self):
        w = np.linspace(0.0, 0.2, 2001)
        a = self._lorentzian(w, 0.08, 0.003) + self._lorentzian(w, 0.14, 0.003)
        assert pb.rabi_splitting(Spectrum(w, a)) == pytest.approx(0.06, abs=1e-4)

    def test_single_peak_raises(self):
        w = np.linspace(0.0, 0.2, 2001)
        a = self._lorentzian(w, 0.11, 0.005)
        with pytest.raises(NoSplittingError):
            pb.rabi_splitting(Spectrum(w, a))

    def test_amplitude_tie_prefers_wider_pair(self):
        # three exactly equal maxima: the rule picks the outermost pair
        w = np.linspace(0.0, 1.0, 1001)
        a = np.zeros_like(w)
        a[[200, 500, 800]] = 1.0
        assert pb.rabi_splitting(Spectrum(w, a)) == pytest.approx(0.6, abs=1e-12)

    def test_third_peak_below_the_top_two_is_ignored(self):
        # overlapping tails make the middle peak strictly largest: the two
        # largest are then the middle plus one side, separation 0.3
        w = np.linspace(0.0, 1.0, 1001)
        a = np.zeros_like(w)
        for center in (0.2, 0.5, 0.8):
            a += self._lorentzian(w, center, 0.01)
        assert pb.rabi_splitting(Spectrum(w, a)) == pytest.approx(0.3, abs=2e-3)

    def test_closed_form_matches_every_pair(self):
        # seeded random spectra, half of them integer-valued so that tied
        # amplitudes are common, against the search over every pair of maxima
        rng = np.random.default_rng(20)
        checked = 0
        for case in range(400):
            n = int(rng.integers(3, 40))
            w = np.cumsum(rng.uniform(0.1, 1.0, n))
            a = (rng.integers(0, 4, n).astype(float) if case % 2
                 else rng.normal(size=n))
            expected = _widest_top_pair(w, a)
            if expected is None:
                with pytest.raises(NoSplittingError):
                    pb.rabi_splitting(Spectrum(w, a))
            else:
                assert pb.rabi_splitting(Spectrum(w, a)) == expected
                checked += 1
        assert checked > 200

    def test_monotone_spectrum_has_no_maxima(self):
        w = np.linspace(0.0, 1.0, 101)
        with pytest.raises(NoSplittingError):
            pb.rabi_splitting(Spectrum(w, w.copy()))


class TestReactionYield:
    def test_no_coupling_photonic_never_reacts(self):
        spec = fig3_spec(coupling=0.0, sigma=0.01)
        bins, ham, traj = photonic_run(spec, 2, 8, 200.0)
        record = pb.populations(traj)
        result = pb.reaction_yield(record)
        assert result.total == pytest.approx(0.0, abs=1e-12)

    def test_no_diabatic_coupling_no_product(self):
        spec = fig3_spec(v12=0.0, sigma=0.01)
        bins = pb.discretize_disorder(spec, 2)
        ham = pb.build_effective_hamiltonian(spec, bins, 8)
        traj = pb.propagate(ham, pb.bright_state(ham.layout, bins), 1.0, 200.0,
                            1e-9)
        record = pb.populations(traj)
        result = pb.reaction_yield(record)
        assert result.total == pytest.approx(0.0, abs=1e-12)
        assert result.per_bin == pytest.approx(np.zeros(2), abs=1e-12)

    def test_normalized_variant_divides_by_norm(self):
        spec = fig3_spec(sigma=0.01)
        bins, ham, traj = photonic_run(spec, 2, 10, 300.0)
        record = pb.populations(traj)
        result = pb.reaction_yield(record)
        assert result.total_normalized == pytest.approx(
            result.total / record.norms2[-1]
        )
        assert result.total_normalized > result.total  # lossy cavity
        assert result.gamma == pytest.approx(1.0 - record.norms2[-1])


class TestLeakage:
    def test_complete_leakage_leaves_no_normalized_yield(self):
        spec = fig3_spec(sigma=0.01)
        bins, ham, traj = photonic_run(spec, 2, 6, 10.0)
        traj.norms2[3:] = 0.0  # the state gone from the fourth grid time on
        record = pb.populations(traj)
        with pytest.raises(ZeroPopulationError, match=f"by t = {traj.times[3]:.6g} au"):
            record.normalized(record.p_e1_total)
        with pytest.raises(ZeroPopulationError, match="leaked completely"):
            pb.reaction_yield(record)

    def test_matches_norm_deficit(self):
        spec = fig3_spec(sigma=0.01)
        bins, ham, traj = photonic_run(spec, 2, 6, 100.0)
        gamma = pb.populations(traj).gamma
        np.testing.assert_allclose(gamma, 1.0 - traj.norms2, atol=0)
        assert gamma[0] == pytest.approx(0.0, abs=1e-12)


class TestProductionDiagnostics:
    def test_normalized_yield_insensitive_to_loss_at_large_disorder(self):
        # leakage only rescales the bright-state yield once disorder has
        # killed the collective return to the photon (2 sigma >= 2 G)
        def normalized_yield(kappa):
            spec = fig3_spec(sigma=0.04, kappa=kappa)
            t_final = 30 * pb.FS_TO_AU
            n_bins = pb.bin_count_rule(spec.sigma, t_final)
            bins = pb.discretize_disorder(spec, n_bins)
            ham = pb.build_effective_hamiltonian(spec, bins, 60)
            traj = pb.propagate(
                ham, pb.bright_state(ham.layout, bins),
                t_final / 1240, t_final, 1e-9,
            )
            _, e2, _ = pb.state_populations(traj.final_state, ham.layout)
            norm2 = np.vdot(traj.final_state, traj.final_state).real
            return e2.sum() / norm2

        lossless = normalized_yield(0.0)
        lossy = normalized_yield(0.006)
        assert abs(lossy - lossless) / lossless < 0.02

    def test_doublet_peaks_stable_under_time_doubling(self):
        # resolution diagnostic on an isolated-line spectrum: once both
        # peaks are resolved, doubling T_f leaves them on the same grid
        # point (vibronic/disordered spectra stay resolution-limited; see
        # the notes ledger)
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, omega_c=0.10)

        def peaks(t_final_fs):
            t_final = t_final_fs * pb.FS_TO_AU
            n = round(t_final)
            _, _, traj = photonic_run(spec, 1, 2, t_final, dt=t_final / n)
            s = pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))
            a = s.values
            interior = np.arange(1, len(a) - 1)
            maxima = interior[(a[interior] > a[interior - 1])
                              & (a[interior] > a[interior + 1])]
            top = maxima[np.argsort(-a[maxima])[:2]]
            return np.sort(s.omega[top])

        shift = np.abs(peaks(60) - peaks(30)).max()
        assert shift <= 1.0001e-4
