import math
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

import polarbin as pb
from polarbin import hamiltonian
from polarbin.errors import ConfigError
from polarbin.hamiltonian import vibronic_block
from polarbin.oracle import ExplicitLayout, build_multibin_hamiltonian

from conftest import binned_fock, block_slice, fig3_spec, hermiticity_defect, scipy_csr


def hermitian_part(fock):
    dense = scipy_csr(fock.matrix).toarray()
    return 0.5 * (dense + dense.conj().T)


def fc_overlap(s: float, level: int) -> float:
    """Overlap of the undisplaced ground state with displaced level l.

    <0|D(s)|l> = exp(-s^2/2) (-s)^l / sqrt(l!), the sign convention that
    matches displaced_number_operator (displaced eigenstates are D(s)|l>).
    """
    if s == 0.0:
        return 1.0 if level == 0 else 0.0
    sign = 1.0 if (level % 2 == 0 or s < 0) else -1.0
    log_mag = -0.5 * s * s + level * math.log(abs(s)) - 0.5 * math.lgamma(level + 1)
    return sign * math.exp(log_mag)


class TestDisplacedNumberOperator:
    def test_undisplaced_is_number_operator(self):
        op = pb.displaced_number_operator(0.0, 6)
        np.testing.assert_array_equal(op, np.diag(np.arange(6.0)))

    @pytest.mark.parametrize("s", [-4.0, -1.0, 0.3, 2.5])
    def test_ground_state_expectation(self, s):
        op = pb.displaced_number_operator(s, 12)
        assert op[0, 0] == pytest.approx(s * s, rel=1e-15)

    def test_tridiagonal_structure(self):
        op = pb.displaced_number_operator(-1.0, 8)
        np.testing.assert_array_equal(op, op.T)
        for n in range(7):
            assert op[n, n + 1] == pytest.approx(math.sqrt(n + 1))
        assert np.count_nonzero(op) == 8 + 2 * 7

    def test_spectrum_approaches_integers(self):
        # dense diagonalization oracle for the truncation quality
        eigs = np.linalg.eigvalsh(pb.displaced_number_operator(-1.0, 30))
        np.testing.assert_allclose(eigs[:5], np.arange(5.0), atol=1e-8)

    def test_too_small_truncation_rejected(self):
        with pytest.raises(ConfigError):
            pb.displaced_number_operator(0.5, 1)


class TestFranckCondonOverlap:
    def test_zero_displacement_is_delta(self):
        assert fc_overlap(0.0, 0) == 1.0
        assert all(fc_overlap(0.0, l) == 0.0 for l in range(1, 6))

    def test_ground_overlap_closed_form(self):
        assert fc_overlap(1.0, 0) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_completeness(self):
        total = sum(fc_overlap(-1.0, l) ** 2 for l in range(41))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        # <0|D(s)|l> carries (-s)^l
        assert fc_overlap(0.5, 1) < 0
        assert fc_overlap(-0.5, 1) > 0
        assert fc_overlap(0.5, 2) > 0

    def test_matches_truncated_eigenvectors(self):
        # ground row of the displaced-operator eigenbasis reproduces the
        # analytic overlaps once the truncation is converged
        s = -1.0
        _, vecs = np.linalg.eigh(pb.displaced_number_operator(s, 60))
        analytic = np.array([fc_overlap(s, l) for l in range(8)])
        # eigenvector columns have arbitrary sign; compare magnitudes and
        # sign-fixed values
        fixed = vecs[0, :8] * np.sign(vecs[0, :8]) * np.sign(analytic)
        np.testing.assert_allclose(fixed, analytic, atol=1e-10)


class TestEffectiveHamiltonian:
    """The binned model's Fock-basis matrix; TestArrowhead ties the stepped
    arrowhead to it."""

    def test_decoupled_limit_structure(self):
        spec = fig3_spec(coupling=0.0, kappa=0.0, v12=0.0)
        bins = pb.discretize_disorder(spec, 1)
        fock = binned_fock(spec, bins, 8)
        assert hermiticity_defect(fock) == 0.0
        assert scipy_csr(fock.matrix)[0, 0] == spec.omega_c
        dense = scipy_csr(fock.matrix).toarray()
        # no photon-matter or e1-e2 mixing beyond stored structural zeros
        assert np.all(dense[0, 1:] == 0)
        layout = fock.layout
        e1 = dense[block_slice(layout, 0, 0), block_slice(layout, 1, 0)]
        assert np.all(e1 == 0)

    def test_jaynes_cummings_block_eigenvalues(self):
        spec = fig3_spec(s1=0.0, v12=0.0, kappa=0.0, omega_c=0.10)
        bins = pb.discretize_disorder(spec, 1)
        fock = binned_fock(spec, bins, 4)
        sub = scipy_csr(fock.matrix).toarray()[np.ix_([0, 1], [0, 1])].real
        eigs = np.linalg.eigvalsh(sub)
        np.testing.assert_allclose(
            eigs, [0.10 - 0.03, 0.10 + 0.03], atol=1e-14
        )

    def test_fig3_structural_invariants(self):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        n_vib = 60
        fock = binned_fock(spec, bins, n_vib)
        n_bins = 1
        expected_nnz = (
            1 + 2 * n_bins * (3 * n_vib - 2) + 2 * n_bins + 2 * n_bins * n_vib
        )
        assert fock.matrix.nnz == expected_nnz
        scale = np.abs(fock.matrix.data).max()
        assert hermiticity_defect(fock) <= 1e-12 * scale
        assert scipy_csr(fock.matrix)[0, 0] == spec.omega_c - 0.5j * spec.kappa

    def test_photon_row_touches_only_fc_components(self):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 5)
        fock = binned_fock(spec, bins, 12)
        layout = fock.layout
        row = scipy_csr(fock.matrix).getrow(0).tocoo()
        allowed = {0} | {layout.index(0, i, 0) for i in range(5)}
        assert set(row.col) == allowed
        for i in range(5):
            assert scipy_csr(fock.matrix)[0, layout.index(0, i, 0)] == pytest.approx(
                spec.coupling * math.sqrt(bins.weights[i])
            )

    def test_gauge_translation_shifts_spectrum(self):
        spec = fig3_spec(sigma=0.01, kappa=0.0)
        bins = pb.discretize_disorder(spec, 2)
        delta = 0.013
        shifted_spec = fig3_spec(
            sigma=0.01, kappa=0.0,
            omega0=spec.omega0 + delta, omega_c=spec.omega_c + delta,
        )
        shifted_bins = pb.discretize_disorder(shifted_spec, 2)
        eigs = np.linalg.eigvalsh(hermitian_part(binned_fock(spec, bins, 10)))
        eigs_shifted = np.linalg.eigvalsh(
            hermitian_part(binned_fock(shifted_spec, shifted_bins, 10)))
        np.testing.assert_allclose(eigs_shifted, eigs + delta, atol=1e-12)

    def test_truncation_adequacy_at_production_size(self):
        spec = fig3_spec(sigma=0.0)
        bins = pb.discretize_disorder(spec, 1)
        eigs_60 = np.linalg.eigvalsh(hermitian_part(binned_fock(spec, bins, 60)))
        eigs_70 = np.linalg.eigvalsh(hermitian_part(binned_fock(spec, bins, 70)))
        np.testing.assert_allclose(eigs_70[:10], eigs_60[:10], atol=1e-8)

    def test_dimension_cap(self, monkeypatch):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 10)
        monkeypatch.setattr(hamiltonian, "DEFAULT_DIMENSION_CAP", 100)
        with pytest.raises(pb.DimensionCapError):
            pb.build_effective_hamiltonian(spec, bins, 60)


class TestArrowhead:
    """The arrowhead in the K' eigenbasis is the Fock-basis matrix, rotated."""

    @pytest.mark.parametrize("overrides, n_bins, n_vib", [
        pytest.param(dict(sigma=0.0), 1, 30, id="one bin"),
        pytest.param(dict(sigma=0.02), 24, 60, id="24 bins"),
        pytest.param(dict(sigma=0.02, delta2=0.02), 5, 12, id="delta2"),
        pytest.param(dict(sigma=0.02, s1=0.0, s2=0.0, v12=0.0), 3, 8, id="degenerate K'"),
    ])
    def test_operator_equals_fock_matrix(self, overrides, n_bins, n_vib):
        spec = fig3_spec(**overrides)
        bins = pb.discretize_disorder(spec, n_bins)
        ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
        fock = scipy_csr(binned_fock(spec, bins, n_vib).matrix)
        scale = abs(fock).sum(axis=1).max()  # |H| in the infinity norm
        rng = np.random.default_rng(n_bins)
        for _ in range(3):
            x = rng.normal(size=ham.layout.dimension) + 1j * rng.normal(size=ham.layout.dimension)
            x /= np.linalg.norm(x)
            have = ham.to_fock(ham.matrix.dot(ham.to_working(x)))
            assert np.linalg.norm(have - fock @ x) <= 1e-14 * scale
            assert np.linalg.norm(ham.to_fock(ham.to_working(x)) - x) <= 1e-14


class TestMultibinHamiltonian:
    def test_single_bin_matches_effective_spectrum(self):
        spec = fig3_spec(sigma=0.0, kappa=0.0)
        bins = pb.discretize_disorder(spec, 1)
        multi = build_multibin_hamiltonian(spec, bins, 9)
        effective = binned_fock(spec, bins, 9)
        eigs_multi = np.linalg.eigvalsh(hermitian_part(multi))
        eigs_eff = np.linalg.eigvalsh(hermitian_part(effective))
        np.testing.assert_allclose(eigs_multi, eigs_eff, atol=1e-12)

    def test_two_bins_no_cavity_spectator_decoupled(self):
        spec = fig3_spec(sigma=0.01, coupling=0.0, kappa=0.0)
        bins = pb.discretize_disorder(spec, 2)
        multi = build_multibin_hamiltonian(spec, bins, 5)
        layout = multi.layout
        assert isinstance(layout, ExplicitLayout)
        dense = scipy_csr(multi.matrix).toarray()
        # photon state touches nothing else
        assert np.all(dense[layout.PHOTON, 1:] == 0)
        # inside the bin-0 reactant block, the spectator coordinate only
        # contributes a diagonal ladder: states differing in the spectator
        # index are uncoupled
        block = dense[block_slice(layout, 0, 0), block_slice(layout, 0, 0)].reshape(5, 5, 5, 5)
        off_spectator = block.copy()
        for n2 in range(5):
            off_spectator[:, n2, :, n2] = 0
        assert np.abs(off_spectator).max() == 0

    def test_three_bins_rejected(self):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 3)
        with pytest.raises(ConfigError):
            build_multibin_hamiltonian(spec, bins, 4)


def entrywise_reference(spec, bins, n_vib):
    """Entry-by-entry assembly that the index arithmetic replaced."""
    layout = pb.BasisLayout(bins.n_bins, n_vib)
    entries = {(0, 0): spec.omega_c - 0.5j * spec.kappa}
    n1 = pb.displaced_number_operator(spec.s1, n_vib)
    n2 = pb.displaced_number_operator(spec.s2, n_vib)
    for i in range(bins.n_bins):
        for surface, op, shift in ((0, n1, bins.centers[i]),
                                   (1, n2, bins.centers[i] + spec.delta2)):
            at = partial(layout.index, surface)
            for n in range(n_vib):
                entries[at(i, n), at(i, n)] = shift + spec.omega_nu * op[n, n]
                if n + 1 < n_vib:
                    entries[at(i, n), at(i, n + 1)] = spec.omega_nu * op[n, n + 1]
                    entries[at(i, n + 1), at(i, n)] = spec.omega_nu * op[n + 1, n]
        for n in range(n_vib):
            entries[layout.index(0, i, n), layout.index(1, i, n)] = spec.v12
            entries[layout.index(1, i, n), layout.index(0, i, n)] = spec.v12
        fc = spec.coupling * math.sqrt(bins.weights[i])
        entries[0, layout.index(0, i, 0)] = entries[layout.index(0, i, 0), 0] = fc
    rows, cols = zip(*entries)
    return sp.csr_matrix((np.array(list(entries.values()), dtype=complex),
                          (rows, cols)), shape=(layout.dimension,) * 2)


class TestVibronicBlockAssembly:
    N_VIB = 7

    @pytest.mark.parametrize("overrides", [
        dict(sigma=0.02, delta2=0.02),
        dict(sigma=0.03, s1=0.0, s2=0.0, v12=0.0, coupling=0.0, kappa=0.0),
        dict(sigma=0.0),
    ])
    def test_bitwise_equal_to_entrywise_assembly(self, overrides):
        spec = fig3_spec(**overrides)
        bins = pb.discretize_disorder(spec, 1 if spec.sigma == 0 else 4)
        have = scipy_csr(binned_fock(spec, bins, self.N_VIB).matrix)
        want = entrywise_reference(spec, bins, self.N_VIB)
        for name in ("indptr", "indices", "data"):
            assert getattr(have, name).tobytes() == getattr(want, name).tobytes(), name

    def test_pattern_independent_of_parameter_values(self):
        # vanishing couplings keep their stored zeros; summing sparse
        # matrices would drop them and change indptr/indices
        values = fig3_spec(sigma=0.02, delta2=0.02)
        zeros = fig3_spec(sigma=0.02, s1=0.0, s2=0.0, v12=0.0, coupling=0.0,
                          kappa=0.0, delta2=0.0)
        a = binned_fock(values, pb.discretize_disorder(values, 3), self.N_VIB).matrix
        b = binned_fock(zeros, pb.discretize_disorder(zeros, 3), self.N_VIB).matrix
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert np.count_nonzero(b.data) < b.nnz

    def test_bin_blocks_are_the_shifted_vibronic_block(self):
        spec = fig3_spec(sigma=0.02, delta2=0.02)
        bins = pb.discretize_disorder(spec, 3)
        fock = binned_fock(spec, bins, self.N_VIB)
        dense = scipy_csr(fock.matrix).toarray()
        block = vibronic_block(spec, self.N_VIB)
        assert np.array_equal(block, block.T)
        for i in range(3):
            index = np.r_[block_slice(fock.layout, 0, i), block_slice(fock.layout, 1, i)]
            shift = np.repeat([bins.centers[i], bins.centers[i] + spec.delta2],
                              self.N_VIB)
            np.testing.assert_array_equal(
                dense[np.ix_(index, index)], block + np.diag(shift)
            )
