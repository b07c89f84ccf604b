import math

import numpy as np
import pytest

import polarbin as pb
from polarbin.errors import (
    ConfigError,
    InitialStateError,
    NoSplittingError,
    ZeroPopulationError,
)
from polarbin.observables import Spectrum

from conftest import fig3_spec


def photonic_run(spec, n_bins, n_vib, t_final, dt=1.0):
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    traj = pb.propagate(
        ham, pb.photonic_state(ham.layout), dt, t_final, 1e-9,
        initial_state_label="photonic",
    )
    return bins, ham, traj


class TestAbsorption:
    def test_requires_photonic_trajectory(self):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        ham = pb.build_effective_hamiltonian(spec, bins, 4)
        traj = pb.propagate(ham, pb.bright_state(ham.layout, bins), 1.0, 10.0,
                            1e-9, initial_state_label="bright")
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
                            1e-9, initial_state_label="bright")
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
        psi[layout.e1(i, 0)] = 1.0
        return psi

    def test_undisplaced_ground_level_zero(self):
        spec = fig3_spec(s1=0.0, sigma=0.01)
        layout = pb.BasisLayout(2, 6)
        psi = self._single_level_state(layout, 0)
        assert pb.vibrational_energy(psi, layout, spec, 0) == pytest.approx(0.0)

    def test_displaced_ground_level_offset(self):
        # Franck-Condon point sits s^2 quanta above the displaced minimum
        spec = fig3_spec(sigma=0.01)
        layout = pb.BasisLayout(2, 6)
        psi = self._single_level_state(layout, 1)
        energy = pb.vibrational_energy(psi, layout, spec, 1)
        assert energy == pytest.approx(spec.omega_nu * spec.s1**2)
        assert energy == pytest.approx(0.01)

    def test_zero_population_raises(self):
        spec = fig3_spec(sigma=0.01)
        layout = pb.BasisLayout(2, 6)
        psi = pb.photonic_state(layout)
        with pytest.raises(ZeroPopulationError):
            pb.vibrational_energy(psi, layout, spec, 0)


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
                            1e-9, initial_state_label="bright")
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
                initial_state_label="bright",
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
