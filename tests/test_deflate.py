"""Franck-Condon deflation: the arrowhead on the eigenvectors the photon reaches."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import polarbin as pb
from polarbin import runs
from polarbin.config import load_preset
from polarbin.hamiltonian import DEFLATION_BUDGET_SHARE, chebyshev_frame, deflate
from polarbin.propagator import INITIAL_STATES

from conftest import binned_fock, fig3_spec, random_small_spec, scipy_csr


def deflated(spec, n_bins, n_vib, t_final, tolerance):
    """(bins, exact arrowhead, its deflate)."""
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    return bins, ham, deflate(ham, spec, t_final, tolerance)


class TestDeflate:
    def test_fig6_drops_the_top_of_the_spectrum(self):
        cfg = load_preset("fig6")
        point = cfg.resolve_point()
        _, ham, small = deflated(point.spec, point.n_bins, point.n_vib, point.t_final,
                                 point.tolerance)
        assert (ham.matrix.shape[0], small.matrix.shape[0]) == (2881, 2353)
        assert small.basis.shape == (120, 98) and small.layout is ham.layout
        assert chebyshev_frame(ham.enclosure())[1] == pytest.approx(0.730, abs=5e-4)
        assert chebyshev_frame(small.enclosure())[1] == pytest.approx(0.410, abs=5e-4)
        # the bound covers the photon arm dropped, and meets its share
        kept = {column.tobytes() for column in small.basis.T}
        arm_norm = np.linalg.norm([column[0] for column in ham.basis.T
                                   if column.tobytes() not in kept])
        growth = 1.0 + point.spec.coupling * point.t_final
        assert growth * arm_norm <= small.spent <= DEFLATION_BUDGET_SHARE * point.tolerance

    def test_degenerate_block_drops_nothing(self):
        # s1 = s2 = v12 = delta2 = 0: every eigenvalue of K' is double, so
        # no gap bounds eigh's rounding of U_0k, and every column stays
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, delta2=0.0, sigma=0.02)
        _, ham, small = deflated(spec, 3, 8, 200.0, 1e-6)
        assert small is ham and small.spent == 0.0

    def test_exact_zero_overlaps_go_for_nothing(self):
        # the same block with delta2 in a gap is diagonal: eigh's columns are
        # exact unit vectors, and the photon reaches the reactant ground level alone
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, delta2=0.0025, sigma=0.02)
        bins, ham, small = deflated(spec, 3, 8, 200.0, 1e-9)
        assert small.basis.shape == (16, 1) and small.spent == 0.0
        assert small.matrix.shape[0] == 1 + bins.n_bins
        psi0 = pb.bright_state(ham.layout, bins)
        exact = pb.propagate(ham, psi0, 4.0, 200.0, 1e-9, state_times=[200.0])
        fast = pb.propagate(small, psi0, 4.0, 200.0, 1e-9, state_times=[200.0])
        assert np.linalg.norm(fast.states[-1] - exact.states[-1]) <= 2e-9

    @pytest.mark.parametrize("overrides", [
        {"omega_nu": 1.7e308}, {"v12": 1.7e308}, {"coupling": 1.7e308}, {"s1": 4.36e10},
    ], ids=["omega_nu", "v12", "coupling", "s1"])
    def test_non_finite_model_keeps_its_arrowhead(self, overrides):
        with np.errstate(over="ignore", invalid="ignore"):
            _, ham, small = deflated(fig3_spec(sigma=0.02, **overrides), 3, 8, 200.0, 1e-9)
        assert small is ham

    def test_refuses_a_state_its_bound_does_not_cover(self):
        spec = fig3_spec(sigma=0.02)
        bins, ham, small = deflated(spec, 3, 30, 200.0, 1e-8)
        assert small.basis.shape[1] < 60
        for name in INITIAL_STATES:
            small.to_working(pb.make_initial_state(name, ham.layout, bins))
        excited = pb.photonic_state(ham.layout)
        excited[ham.layout.index(0, 1, 1)] = 1e-3
        doubled = 2.0 * pb.photonic_state(ham.layout)
        for psi in (excited / np.linalg.norm(excited), doubled):
            with pytest.raises(pb.ConfigError, match="deflated"):
                small.to_working(psi)
        ham.to_working(doubled)  # the exact arrowhead steps any state

    def test_maps_through_the_kept_columns(self):
        spec = fig3_spec(sigma=0.02)
        bins, ham, small = deflated(spec, 3, 30, 200.0, 1e-8)
        psi = pb.polariton_state(ham.layout, bins, +1)
        y = small.to_working(psi)
        assert y.shape == (small.matrix.shape[0],)
        assert np.linalg.norm(small.to_fock(y) - psi) <= small.spent
        assert small.to_fock(np.stack([y, 1j * y])).shape == (2, ham.layout.dimension)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 3), n_vib=st.integers(14, 18),
       dt=st.floats(1.0, 10.0), n_steps=st.integers(1, 40), kappa=st.floats(0.0, 0.05),
       state=st.sampled_from(sorted(INITIAL_STATES)),
       tolerance=st.sampled_from([1e-8, 1e-7, 1e-6]))
def test_deflated_runs_stay_within_tolerance_of_dense_expm(seed, n_bins, n_vib, dt, n_steps,
                                                          kappa, state, tolerance):
    # the deflation's bound and the steps' share add up to the tolerance
    rng = np.random.default_rng(seed)
    spec = replace(random_small_spec(rng), kappa=kappa)
    t_final = n_steps * dt
    bins, _, small = deflated(spec, n_bins if spec.sigma > 0 else 1, n_vib, t_final,
                              tolerance)
    assert small.spent <= DEFLATION_BUDGET_SHARE * tolerance
    psi0 = pb.make_initial_state(state, small.layout, bins)
    traj = pb.propagate(small, psi0, dt, t_final, tolerance,
                        state_times=np.arange(n_steps + 1) * dt)
    step = scipy.linalg.expm(-1j * dt * scipy_csr(binned_fock(spec, bins, n_vib).matrix)
                             .toarray())
    exact = psi0
    for kept in traj.states:
        assert np.linalg.norm(kept - exact) <= tolerance
        exact = step @ exact


@pytest.mark.parametrize("state", sorted(INITIAL_STATES))
def test_deflated_point_agrees_with_the_exact_arrowhead(monkeypatch, state):
    cfg = load_preset("fig6", ["run.n_vib=30", "run.n_bins=3", "run.t_final=20 fs",
                               "run.vib_energy_times=", "run.tolerance=1e-8",
                               f"run.initial_state={state}"])
    point = cfg.resolve_point()
    times = np.linspace(0.0, point.t_final, 5)
    _, small, traj = runs._propagate_point(point, times)
    monkeypatch.setattr(runs, "deflate", lambda ham, *args: ham)
    _, ham, exact = runs._propagate_point(point, times)
    assert small.matrix.shape[0] < ham.matrix.shape[0] and ham.spent == 0.0
    assert 0.0 < small.spent <= DEFLATION_BUDGET_SHARE * point.tolerance
    bound = small.spent + point.tolerance
    assert np.linalg.norm(traj.states - exact.states, axis=1).max() <= bound
    assert np.abs(traj.autocorr - exact.autocorr).max() <= bound
