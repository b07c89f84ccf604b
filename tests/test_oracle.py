import math
from functools import reduce

import numpy as np
import pytest

import polarbin as pb
from polarbin import oracle
from polarbin.errors import ConfigError, DimensionCapError
from polarbin.oracle import (
    ExplicitEnsemble,
    ExplicitLayout,
    apportion_molecules,
    build_explicit_hamiltonian,
    build_multibin_hamiltonian,
    compare_multibin_to_effective,
    compare_to_cute,
)

from conftest import block_slice, fig3_spec, hermiticity_defect


class TestApportionment:
    def test_exact_split(self):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.02), 2)
        np.testing.assert_array_equal(apportion_molecules(bins, 4), [2, 2])

    def test_single_molecule_two_bins(self):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.02), 2)
        counts = apportion_molecules(bins, 1)
        assert counts.sum() == 1
        assert counts[0] == 1  # tie resolves to the lower bin

    def test_counts_sum_to_total(self):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.03), 3)
        for n in (1, 2, 3, 4):
            assert apportion_molecules(bins, n).sum() == n


class TestExplicitHamiltonian:
    def test_single_molecule_polariton_doublet(self):
        # one molecule, no displacement: textbook single-emitter splitting
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, kappa=0.0, omega_c=0.10)
        bins = pb.discretize_disorder(spec, 1)
        ensemble = ExplicitEnsemble.from_bins(bins, 1, 4, spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        dense = ham.matrix.toarray()
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
        g = ensemble.g_single
        assert g == spec.coupling  # N = 1
        assert np.abs(eigs - (0.10 - g)).min() < 1e-12
        assert np.abs(eigs - (0.10 + g)).min() < 1e-12

    def test_hermitian_apart_from_photon_loss(self):
        # every photon-block diagonal entry carries the loss, not only the first
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        ensemble = ExplicitEnsemble.from_bins(bins, 2, 3, spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        assert spec.kappa > 0
        assert hermiticity_defect(ham) == 0.0

    def test_two_molecule_dark_state_decoupled(self):
        spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, kappa=0.0, omega_c=0.10)
        bins = pb.discretize_disorder(spec, 1)
        ensemble = ExplicitEnsemble.from_bins(bins, 2, 3, spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        layout = ham.layout
        dark = np.zeros(layout.dimension, dtype=complex)
        dark[layout.index(0, 0, 0)] = 1 / math.sqrt(2)
        dark[layout.index(0, 1, 0)] = -1 / math.sqrt(2)
        image = ham.matrix @ dark
        # antisymmetric vibrationless combination is an eigenstate at omega0
        np.testing.assert_allclose(image, bins.centers[0] * dark, atol=1e-14)

    def test_photon_coupling_is_full_vibrational_identity(self):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        ensemble = ExplicitEnsemble.from_bins(bins, 2, 3, spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        layout = ham.layout
        dense = ham.matrix.toarray()
        block = dense[: layout.photon_dim, block_slice(layout, 0, 0)]
        np.testing.assert_array_equal(
            block, ensemble.g_single * np.eye(layout.vib_dim)
        )

    def test_dimension_and_caps(self, monkeypatch):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        layout = ExplicitLayout([0, 0, 1, 1], 2, 5, 5**4)
        assert layout.dimension == (1 + 8) * 5**4
        with pytest.raises(ConfigError):
            build_explicit_hamiltonian(
                spec, ExplicitEnsemble.from_bins(bins, 5, 3, spec.coupling)
            )
        monkeypatch.setattr(oracle, "EXPLICIT_DIMENSION_CAP", 1000)
        with pytest.raises(DimensionCapError):
            build_explicit_hamiltonian(
                spec, ExplicitEnsemble.from_bins(bins, 4, 6, spec.coupling)
            )


class TestCompareToCute:
    def test_no_cavity_engines_identical(self):
        spec = fig3_spec(coupling=0.0, sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        report = compare_to_cute(spec, bins, 4, 2, 1.0, 50.0, tolerance=1e-9)
        assert report.p_e1_max < 1e-8
        assert report.p_e2_max < 1e-8
        assert report.autocorr_max < 1e-8

    def test_permutation_invariance(self):
        spec = fig3_spec(sigma=0.02, coupling=0.01)
        bins = pb.discretize_disorder(spec, 2)
        base = ExplicitEnsemble(bins=bins, molecule_bins=np.array([0, 0, 1, 1]),
                                n_vib=3, coupling=spec.coupling)
        permuted = ExplicitEnsemble(bins=bins,
                                    molecule_bins=np.array([1, 0, 1, 0]),
                                    n_vib=3, coupling=spec.coupling)
        results = []
        for ensemble in (base, permuted):
            ham = build_explicit_hamiltonian(spec, ensemble)
            traj = pb.propagate(
                ham, pb.photonic_state(ham.layout), 1.0, 40.0, 1e-10,
            )
            e1, e2, ph = pb.state_populations(traj.final_state, ham.layout)
            results.append((ph, e1, e2))
        (ph_a, e1_a, e2_a), (ph_b, e1_b, e2_b) = results
        assert ph_a == pytest.approx(ph_b, abs=1e-12)
        np.testing.assert_allclose(e1_a, e1_b, atol=1e-12)
        np.testing.assert_allclose(e2_a, e2_b, atol=1e-12)


class TestMultibinEquivalence:
    def test_single_bin_engines_agree(self):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        report = compare_multibin_to_effective(spec, bins, 8, 1.0, 100.0)
        assert report.p_e1_max < 1e-9
        assert report.autocorr_max < 1e-9

    def test_two_bins_bright_state(self):
        spec = fig3_spec(sigma=0.015)
        bins = pb.discretize_disorder(spec, 2)
        report = compare_multibin_to_effective(
            spec, bins, 6, 1.0, 100.0, initial_state="bright"
        )
        assert report.p_e1_max < 1e-9
        assert report.p_e2_max < 1e-9


def kron_reference(spec, omegas, links, n_vib, photon_dim):
    """Dense Kronecker-product assembly of a reference Hamiltonian.

    Coordinate j carries the displaced surfaces on its own mode, every
    other mode the undisplaced oscillator; the photon block keeps its first
    photon_dim configurations, each linked with links[j] to the same
    configuration of coordinate j's reactant block.
    """
    n = len(omegas)
    eye = np.eye(n_vib)
    number = np.diag(np.arange(n_vib, dtype=float))

    def embed(op, mode):
        return reduce(np.kron, [op if k == mode else eye for k in range(n)])

    identity = np.eye(n_vib**n)
    oscillators = sum(embed(spec.omega_nu * number, k) for k in range(n))
    zero = np.zeros_like(identity)
    excited = [[zero] * (2 * n) for _ in range(2 * n)]
    for j, omega in enumerate(omegas):
        for surface, (s, offset) in enumerate(((spec.s1, 0.0), (spec.s2, spec.delta2))):
            displaced = spec.omega_nu * pb.displaced_number_operator(s, n_vib)
            own = embed(displaced - spec.omega_nu * number, j)
            excited[surface * n + j][surface * n + j] = (
                (omega + offset) * identity + oscillators + own)
        excited[j][n + j] = excited[n + j][j] = spec.v12 * identity
    link_row = np.hstack([g * identity[:photon_dim] for g in links]
                         + [np.zeros((photon_dim, n * n_vib**n))])
    photon = ((spec.omega_c - 0.5j * spec.kappa) * np.eye(photon_dim)
              + oscillators[:photon_dim, :photon_dim])
    return np.block([[photon, link_row], [link_row.T, np.block(excited)]])


class TestTensorPlacement:
    """Index-arithmetic placement against dense Kronecker products."""

    @pytest.mark.parametrize("molecule_bins, n_vib", [
        ([0], 4), ([1, 0], 3), ([1, 0], 4), ([0, 1, 1], 3),
    ])
    def test_explicit_ensemble_matches_kron(self, molecule_bins, n_vib):
        spec = fig3_spec(sigma=0.02, delta2=0.004)
        bins = pb.discretize_disorder(spec, 2)
        ensemble = ExplicitEnsemble(bins=bins, molecule_bins=np.array(molecule_bins),
                                    n_vib=n_vib, coupling=spec.coupling)
        have = build_explicit_hamiltonian(spec, ensemble).matrix.toarray()
        n = len(molecule_bins)
        want = kron_reference(spec, bins.centers[molecule_bins], [ensemble.g_single] * n,
                              n_vib, n_vib**n)
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_bins", [1, 2])
    def test_multibin_matches_kron(self, n_bins):
        spec = fig3_spec(sigma=0.02, delta2=0.004)
        bins = pb.discretize_disorder(spec, n_bins)
        have = build_multibin_hamiltonian(spec, bins, 4).matrix.toarray()
        want = kron_reference(spec, bins.centers, spec.coupling * np.sqrt(bins.weights),
                              4, 1)
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda spec, bins: build_explicit_hamiltonian(
            spec, ExplicitEnsemble.from_bins(bins, 4, 6, spec.coupling)), id="explicit"),
        pytest.param(lambda spec, bins: build_multibin_hamiltonian(spec, bins, 6),
                     id="multibin"),
    ])
    def test_pattern_independent_of_parameter_values(self, build):
        # vanishing displacements and v12 keep their stored zeros
        values = fig3_spec(sigma=0.02)
        zeros = fig3_spec(sigma=0.02, s1=0.0, s2=0.0, v12=0.0)
        a = build(values, pb.discretize_disorder(values, 2)).matrix
        b = build(zeros, pb.discretize_disorder(zeros, 2)).matrix
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert np.count_nonzero(b.data) < b.nnz


def scipy_enclosure(matrix):
    """The plan's Gershgorin rectangle, by scipy's sparse arithmetic."""
    h = matrix.tocsr()
    adjoint = h.conj().T
    bounds = []
    for part in ((h + adjoint) * 0.5, (h - adjoint) * -0.5j):
        coo = part.tocoo()
        off = coo.row != coo.col
        radius = np.bincount(coo.row[off], np.abs(coo.data[off]), minlength=coo.shape[0])
        centre = part.diagonal().real
        bounds += [float((centre - radius).min()), float((centre + radius).max())]
    return tuple(bounds)


class TestEnclosure:
    """The rectangle taken from the CSR arrays equals scipy's, bit for bit."""

    @pytest.mark.parametrize("n_molecules", [1, 2, 4])
    def test_explicit_ensembles(self, n_molecules):
        spec = fig3_spec(sigma=0.02, delta2=0.004)
        bins = pb.discretize_disorder(spec, 2)
        ensemble = ExplicitEnsemble.from_bins(bins, n_molecules, 4, spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        assert ham.enclosure() == scipy_enclosure(ham.matrix)
