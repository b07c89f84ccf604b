"""The photon chain: a photonic run's photon amplitude from a Lanczos chain."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import polarbin as pb
from polarbin import hamiltonian, propagator
from polarbin.config import load_preset
from polarbin.hamiltonian import PhotonChain, TridiagonalOperator, photon_chain
from polarbin.runs import run_spectrum

from conftest import binned_fock, fig3_spec, random_small_spec, scipy_csr


def chain_path(ham, dt, t_final, tolerance):
    """The engine a spectrum point steps, and its trajectory from the photon."""
    engine = photon_chain(ham, t_final, tolerance) or ham
    traj = pb.propagate(engine, pb.photonic_state(engine.layout), dt, t_final, tolerance)
    return engine, traj


def dense_photon_record(spec, bins, n_vib, dt, n_steps):
    """(a0, |psi|^2) on the grid from dense exponentials of the Fock matrix."""
    dense = scipy_csr(binned_fock(spec, bins, n_vib).matrix).toarray()
    step = scipy.linalg.expm(-1j * dt * dense)
    psi = np.zeros(len(dense), dtype=complex)
    psi[0] = 1.0
    amplitudes, norms2 = [], []
    for _ in range(n_steps + 1):
        amplitudes.append(psi[0])
        norms2.append(np.vdot(psi, psi).real)
        psi = step @ psi
    return np.array(amplitudes), np.array(norms2)


class TestTridiagonalOperator:
    def test_dot_matches_dense(self):
        rng = np.random.default_rng(1)
        diagonal = rng.normal(size=7) - 0.3j * rng.random(7)
        off = rng.normal(size=6).astype(complex)
        dense = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        x = rng.normal(size=7) + 1j * rng.normal(size=7)
        assert np.allclose(TridiagonalOperator(diagonal, off).dot(x), dense @ x,
                           rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), sites=st.integers(1, 12), loss=st.floats(0.0, 2.0))
    def test_enclosure_holds_the_spectra_of_both_parts(self, seed, sites, loss):
        rng = np.random.default_rng(seed)
        diagonal = rng.normal(size=sites) - 1j * loss * rng.random(sites)
        off = (rng.normal(size=sites - 1) + 1j * rng.normal(size=sites - 1))
        lo, hi, slo, shi = TridiagonalOperator(diagonal, off).enclosure()
        dense = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        slack = 1e-13 * (1.0 + np.abs(dense).max())
        for (a, b), part in (((lo, hi), 0.5 * (dense + dense.conj().T)),
                             ((slo, shi), -0.5j * (dense - dense.conj().T))):
            eigenvalues = np.linalg.eigvalsh(part)
            assert a - slack <= eigenvalues.min() and eigenvalues.max() <= b + slack

    def test_non_finite_entry_refused(self):
        with pytest.raises(pb.PropagationError, match="not finite"):
            TridiagonalOperator(np.array([1.0, np.inf], dtype=complex),
                                np.array([0.5], dtype=complex)).enclosure()


class TestPhotonChain:
    def test_moments_of_the_arrowhead_through_2l_plus_1(self):
        # Gauss quadrature: e0'J^k e0 = e0'H^k e0 for k <= 2L + 1, the loss
        # included; on (H - c)/R the moments are at most rho^k in size
        bins = pb.discretize_disorder(fig3_spec(sigma=0.02), 6)
        ham = pb.build_effective_hamiltonian(fig3_spec(sigma=0.02), bins, 8)
        chain = photon_chain(ham, 100.0, 1e-9)
        assert chain is not None and 0 < chain.length < ham.layout.dimension - 1
        centre, radius, _ = hamiltonian.chebyshev_frame(ham.enclosure())
        h = pb.photonic_state(ham.layout)
        j = pb.photonic_state(chain.layout)
        for _ in range(2 * chain.length + 2):
            assert abs(h[0] - j[0]) <= 1e-13
            h = (ham.matrix.dot(h) - centre * h) / radius
            j = (chain.matrix.dot(j) - centre * j) / radius

    def test_site_zero_is_the_lossy_photon(self):
        spec = fig3_spec(sigma=0.02)
        ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 6), 8)
        chain = photon_chain(ham, 100.0, 1e-9)
        assert chain.matrix.diagonal[0] == spec.omega_c - 0.5j * spec.kappa
        assert np.all(chain.matrix.diagonal[1:].imag == 0.0)
        assert np.all(chain.matrix.off.imag == 0.0)
        assert chain.matrix.off[0].real == pytest.approx(spec.coupling, rel=1e-12)

    def test_length_and_bound_meet_the_share(self):
        spec = fig3_spec(sigma=0.02)
        ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 6), 8)
        t_final, tolerance = 100.0, 1e-9
        chain = photon_chain(ham, t_final, tolerance)
        loss = max(1.0, 2.0 * spec.kappa * t_final)
        assert 0.0 < chain.bound <= hamiltonian.CHAIN_BUDGET_SHARE * tolerance / loss
        assert chain.spent == chain.bound * loss
        # one site fewer would not meet the share
        _, radius, rho = hamiltonian.chebyshev_frame(ham.enclosure())
        y = 0.5 * radius * t_final * rho
        shorter = 4.0 * hamiltonian.CROUZEIX * math.exp(
            hamiltonian.series_tail(y, 2 * chain.length - 1))
        assert shorter > hamiltonian.CHAIN_BUDGET_SHARE * tolerance / loss

    def test_steps_get_the_tolerance_less_spent(self, monkeypatch):
        plan, budgets = propagator._ChebyshevStepper.plan, []

        def spy(matrix, rectangle, dt, n_steps, tolerance, norm):
            budgets.append(tolerance)
            return plan(matrix, rectangle, dt, n_steps, tolerance, norm)

        monkeypatch.setattr(propagator._ChebyshevStepper, "plan", staticmethod(spy))
        spec = fig3_spec(sigma=0.02)
        ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 6), 8)
        engine, _ = chain_path(ham, 2.0, 100.0, 1e-9)
        assert isinstance(engine, PhotonChain) and engine.spent > 0.0
        pb.propagate(ham, pb.photonic_state(ham.layout), 2.0, 100.0, 1e-9)
        assert budgets == [1e-9 - engine.spent, 1e-9]

    def test_zero_coupling_is_the_photon_alone(self):
        # beta_0 = 0 ends the chain at once, exactly
        spec = fig3_spec(coupling=0.0, sigma=0.02)
        ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 4), 6)
        engine, traj = chain_path(ham, 2.0, 200.0, 1e-9)
        assert isinstance(engine, PhotonChain)
        assert engine.length == 0 and engine.bound == 0.0
        exact = np.exp(-1j * (spec.omega_c - 0.5j * spec.kappa) * traj.times)
        assert np.abs(traj.autocorr - exact).max() <= 1e-12

    def test_exhausted_measure_ends_the_chain(self):
        # s1 = s2 = v12 = 0: the photon reaches only each bin's reactant
        # ground level, so the Lanczos chain ends after one site per bin
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, sigma=0.02)
        bins = pb.discretize_disorder(spec, 5)
        ham = pb.build_effective_hamiltonian(spec, bins, 8)
        engine, traj = chain_path(ham, 2.0, 300.0, 1e-9)
        assert isinstance(engine, PhotonChain)
        assert engine.length == bins.n_bins
        a0, norms2 = dense_photon_record(spec, bins, 8, 2.0, 150)
        assert np.abs(traj.autocorr - a0).max() <= 1e-9
        assert np.abs(traj.norms2 - norms2).max() <= 1e-9

    def test_chain_no_shorter_than_the_arrowhead_is_refused(self):
        # one bin at sigma = 0 over a long run: the bound asks for more sites
        # than the arrowhead has, so the arrowhead is stepped, bit for bit
        spec = fig3_spec()
        bins = pb.discretize_disorder(spec, 1)
        ham = pb.build_effective_hamiltonian(spec, bins, 10)
        assert photon_chain(ham, 1240.0, 1e-9) is None
        engine, traj = chain_path(ham, 8.0, 1240.0, 1e-9)
        assert engine is ham
        direct = pb.propagate(ham, pb.photonic_state(ham.layout), 8.0, 1240.0, 1e-9)
        assert np.array_equal(traj.autocorr, direct.autocorr)
        assert np.array_equal(traj.norms2, direct.norms2)

    def test_no_steps_no_chain(self):
        spec = fig3_spec(sigma=0.02)
        ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 4), 6)
        assert photon_chain(ham, 0.0, 1e-9) is None

    def test_records_no_matter_population(self):
        spec = fig3_spec(sigma=0.02)
        ham = pb.build_effective_hamiltonian(spec, pb.discretize_disorder(spec, 6), 8)
        engine, traj = chain_path(ham, 2.0, 100.0, 1e-9)
        assert isinstance(engine, PhotonChain)
        assert traj.p_e1.shape == traj.p_e2.shape == (len(traj.times), 0)
        assert np.allclose(traj.photon, np.abs(traj.autocorr) ** 2, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 6), n_vib=st.integers(2, 5),
       dt=st.floats(1.0, 10.0), n_steps=st.integers(1, 60), kappa=st.floats(0.0, 0.05),
       case=st.sampled_from(["random", "no coupling", "one bin", "degenerate block"]),
       tolerance=st.sampled_from([1e-10, 1e-9, 1e-8]))
def test_chain_path_within_tolerance_of_dense_expm(seed, n_bins, n_vib, dt, n_steps, kappa,
                                                    case, tolerance):
    # a0 and |psi|^2 at every grid time, on whichever engine the path takes
    rng = np.random.default_rng(seed)
    spec = replace(random_small_spec(rng), kappa=kappa)
    spec = replace(spec, **{"random": {}, "no coupling": {"coupling": 0.0},
                            "one bin": {"sigma": 0.0},
                            "degenerate block": {"s1": 0.0, "s2": 0.0, "v12": 0.0}}[case])
    bins = pb.discretize_disorder(spec, n_bins if spec.sigma > 0 else 1)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    engine, traj = chain_path(ham, dt, n_steps * dt, tolerance)
    if isinstance(engine, PhotonChain):
        assert engine.length + 1 < ham.layout.dimension
    a0, norms2 = dense_photon_record(spec, bins, n_vib, dt, n_steps)
    assert np.abs(traj.autocorr - a0).max() <= tolerance
    assert np.abs(traj.norms2 - norms2).max() <= tolerance


class TestReducedFig3aSpectrum:
    """run_spectrum's CSVs against the arrowhead's propagate and absorption."""

    OVERRIDES = ["run.t_final=10 fs", "run.n_vib=30", "run.dt_record=4"]

    def test_csvs_match_the_arrowhead(self, tmp_path):
        # each engine is within tolerance of the exact a0 and within 2 * tol
        # of the exact norm; the absorption moves by at most kappa * t_final
        # times the amplitude's deviation, plus its square
        cfg = load_preset("fig3a", self.OVERRIDES)
        run_spectrum(cfg, str(tmp_path))
        chained = 0
        for i, point in enumerate(cfg.sweep_points()):
            resolved = cfg.resolve_point(point)
            bins = pb.discretize_disorder(resolved.spec, resolved.n_bins)
            ham = pb.build_effective_hamiltonian(resolved.spec, bins, resolved.n_vib)
            chained += photon_chain(ham, resolved.t_final, resolved.tolerance) is not None
            traj = pb.propagate(ham, pb.photonic_state(ham.layout), resolved.dt_record,
                                resolved.t_final, resolved.tolerance)
            spectrum = pb.absorption(traj, resolved.spec.kappa,
                                     pb.default_omega_grid(resolved.spec))
            directory = os.path.join(tmp_path, f"point_{i:03d}")
            autocorr = np.loadtxt(os.path.join(directory, "autocorr.csv"), delimiter=",",
                                  skiprows=1)
            norms = np.loadtxt(os.path.join(directory, "norms.csv"), delimiter=",", skiprows=1)
            absorption = np.loadtxt(os.path.join(directory, "spectrum.csv"), delimiter=",",
                                    skiprows=1)
            tol, kappa, t_final = resolved.tolerance, resolved.spec.kappa, resolved.t_final
            assert np.array_equal(autocorr[:, 0], traj.times)
            assert np.abs(autocorr[:, 1] + 1j * autocorr[:, 2] - traj.autocorr).max() <= 2 * tol
            assert np.abs(norms[:, 1] - traj.norms2).max() <= 4 * tol
            assert np.array_equal(absorption[:, 0], spectrum.omega)
            assert np.abs(absorption[:, 1] - spectrum.values).max() <= 4 * kappa * t_final * tol
        # the ordered point keeps its arrowhead; the disordered ones chain
        assert chained == len(cfg.sweep_points()) - 1
