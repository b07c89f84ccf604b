import math
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest
import scipy.sparse

import polarbin as pb
from polarbin import oracle
from polarbin.errors import ConfigError, DimensionCapError
from polarbin.oracle import (
    CsrOperator,
    DeviationReport,
    ExplicitEnsemble,
    ExplicitLayout,
    _per_bin_record,
    apportion_molecules,
    build_explicit_hamiltonian,
    build_multibin_hamiltonian,
    compare_multibin_to_effective,
    compare_to_cute,
)

from conftest import binned_fock, block_slice, fig3_spec, hermiticity_defect, scipy_csr


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
        dense = scipy_csr(ham.matrix).toarray()
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
        image = ham.matrix.dot(dark)
        # antisymmetric vibrationless combination is an eigenstate at omega0
        np.testing.assert_allclose(image, bins.centers[0] * dark, atol=1e-14)

    def test_photon_coupling_is_full_vibrational_identity(self):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        ensemble = ExplicitEnsemble.from_bins(bins, 2, 3, spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        layout = ham.layout
        dense = scipy_csr(ham.matrix).toarray()
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
            record = _per_bin_record(pb.populations(traj), ham.layout)
            results.append((record.photon[-1], record.p_e1[-1], record.p_e2[-1]))
        (ph_a, e1_a, e2_a), (ph_b, e1_b, e2_b) = results
        assert ph_a == pytest.approx(ph_b, abs=1e-12)
        np.testing.assert_allclose(e1_a, e1_b, atol=1e-12)
        np.testing.assert_allclose(e2_a, e2_b, atol=1e-12)

    def test_molecule_columns_summed_per_bin(self):
        # four molecules, two a bin, listed out of bin order
        spec = fig3_spec(sigma=0.02, coupling=0.01)
        bins = pb.discretize_disorder(spec, 2)
        ensemble = ExplicitEnsemble(bins=bins, molecule_bins=np.array([1, 0, 1, 0]),
                                    n_vib=3, coupling=spec.coupling)
        ham = build_explicit_hamiltonian(spec, ensemble)
        traj = pb.propagate(ham, pb.photonic_state(ham.layout), 1.0, 40.0, 1e-10)
        assert traj.p_e1.shape == traj.p_e2.shape == (41, 4)
        record = pb.populations(traj)
        assert (record.p_e1[-1] > 0.0).all() and (record.p_e2[-1] > 0.0).all()
        binned = _per_bin_record(record, ham.layout)
        for name in ("p_e1", "p_e2"):
            molecules, per_bin = getattr(record, name), getattr(binned, name)
            assert per_bin.shape == (41, 2)
            np.testing.assert_array_equal(per_bin[:, 0], molecules[:, 1] + molecules[:, 3])
            np.testing.assert_array_equal(per_bin[:, 1], molecules[:, 0] + molecules[:, 2])
        for name in ("times", "photon", "norms2", "gamma"):
            assert getattr(binned, name) is getattr(record, name)


    def test_binned_engine_is_the_exact_arrowhead(self, monkeypatch):
        # the oracle checks the model as assembled, never a deflated one
        from polarbin.hamiltonian import EffectiveHamiltonian, deflate

        engines, propagate = [], oracle.propagate
        monkeypatch.setattr(oracle, "propagate",
                            lambda ham, *args: engines.append(ham) or propagate(ham, *args))
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        compare_to_cute(spec, bins, 30, 1, 10.0, 100.0, tolerance=1e-8)
        binned = engines[1]
        assert isinstance(binned, EffectiveHamiltonian)
        assert binned.matrix.shape[0] == binned.layout.dimension and binned.spent == 0.0
        # where the production runs would have dropped columns
        assert deflate(binned, spec, 100.0, 1e-8).basis.shape[1] < 60


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
        have = scipy_csr(build_explicit_hamiltonian(spec, ensemble).matrix).toarray()
        n = len(molecule_bins)
        want = kron_reference(spec, bins.centers[molecule_bins], [ensemble.g_single] * n,
                              n_vib, n_vib**n)
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_bins", [1, 2])
    def test_multibin_matches_kron(self, n_bins):
        spec = fig3_spec(sigma=0.02, delta2=0.004)
        bins = pb.discretize_disorder(spec, n_bins)
        have = scipy_csr(build_multibin_hamiltonian(spec, bins, 4).matrix).toarray()
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
    h = scipy_csr(matrix)
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


def built_with_triplets(monkeypatch, build):
    """build()'s FockHamiltonian, and the triplets it was assembled from."""
    triplets = []
    place = oracle._triplets

    def capture(*args):
        triplets.append(place(*args))
        return triplets[-1]

    monkeypatch.setattr(oracle, "_triplets", capture)
    ham = build()
    (values, rows, cols), = triplets
    return ham, values, rows, cols


class TestCsrOperator:
    """The numpy CSR operator against scipy's CSR of the same triplets."""

    @pytest.mark.parametrize("build", [
        *(pytest.param(lambda spec, bins, n=n: build_explicit_hamiltonian(
            spec, ExplicitEnsemble.from_bins(bins, n, 4, spec.coupling)), id=f"explicit N={n}")
          for n in (1, 2, 4)),
        pytest.param(lambda spec, bins: build_multibin_hamiltonian(spec, bins, 5),
                     id="multibin"),
        pytest.param(lambda spec, bins: binned_fock(spec, bins, 6), id="binned Fock"),
    ])
    def test_equals_scipy_csr(self, monkeypatch, build):
        spec = fig3_spec(sigma=0.02, delta2=0.004)
        bins = pb.discretize_disorder(spec, 2)
        ham, values, rows, cols = built_with_triplets(monkeypatch, lambda: build(spec, bins))
        want = scipy.sparse.csr_matrix((values, (rows, cols)), shape=ham.matrix.shape)
        # data bit-equal, so no two triplets shared a place for scipy to sum
        assert ham.matrix.data.tobytes() == want.data.tobytes()
        for name in ("indices", "indptr"):
            assert np.array_equal(getattr(ham.matrix, name), getattr(want, name)), name
        assert ham.matrix.nnz == want.nnz == len(values)
        scale = abs(want).sum(axis=1).max()  # |H| in the infinity norm
        rng = np.random.default_rng(len(values))
        for _ in range(3):
            x = rng.normal(size=ham.matrix.shape[0]) + 1j * rng.normal(size=ham.matrix.shape[0])
            error = np.linalg.norm(ham.matrix.dot(x) - want.dot(x))
            assert error <= 1e-15 * scale * np.linalg.norm(x)

    def test_dot_over_empty_and_long_rows(self):
        # fixed-width rows: the widest sets the width, and an empty row is zero
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        dense[rng.random((7, 7)) < 0.5] = 0.0
        dense[2] = 0.0
        dense[4] = rng.normal(size=7)
        rows, cols = np.nonzero(dense)
        matrix = CsrOperator.from_triplets(dense[rows, cols], rows, cols, 7)
        x = rng.normal(size=7) + 1j * rng.normal(size=7)
        assert matrix.nnz == len(rows)
        assert np.allclose(matrix.dot(x), dense @ x, rtol=0.0, atol=1e-14)

    def test_compare_to_cute_agrees_with_scipy_matvec(self, monkeypatch):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 2)
        args = (spec, bins, 4, 2, 1.0, 40.0)
        ours = compare_to_cute(*args)
        build, swapped = oracle.build_explicit_hamiltonian, []

        def with_scipy_csr(*build_args):
            ham = build(*build_args)
            swapped.append(replace(ham, matrix=scipy_csr(ham.matrix)))
            return swapped[-1]

        monkeypatch.setattr(oracle, "build_explicit_hamiltonian", with_scipy_csr)
        theirs = compare_to_cute(*args)
        assert len(swapped) == 1 and isinstance(swapped[0].matrix, scipy.sparse.csr_matrix)
        for field in fields(DeviationReport):
            assert abs(getattr(ours, field.name) - getattr(theirs, field.name)) <= 1e-13
