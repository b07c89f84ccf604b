import math

import numpy as np
import pytest
from scipy.integrate import quad

import polarbin as pb
from polarbin.errors import ConfigError, DegenerateDistributionError
from polarbin.oracle import ExplicitLayout

from conftest import fig3_spec

# conditional mean of the standard half-Gaussian on [0, 3], frozen from the
# quadrature oracle below
HALF_GAUSSIAN_MEAN = 0.7911568260634169


def describe(layout, flat):
    """Inverse of a layout's flat index: ('photon',) or (surface, coordinate, level)."""
    if flat < layout.photon_dim:
        return ("photon",)
    surface, coordinate, level = np.unravel_index(
        flat - layout.photon_dim, (2, layout.n_coords, layout.vib_dim))
    return (("e1", "e2")[surface], int(coordinate), int(level))


def gaussian_pdf(w, mu, sigma):
    return math.exp(-0.5 * ((w - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def quadrature_bins(mu, sigma, n_bins):
    """Independent oracle: bin weights and centroids by adaptive quadrature."""
    edges = np.linspace(mu - 3 * sigma, mu + 3 * sigma, n_bins + 1)
    weights = np.empty(n_bins)
    centers = np.empty(n_bins)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        w, _ = quad(gaussian_pdf, lo, hi, args=(mu, sigma),
                    epsabs=1e-15, epsrel=1e-13)
        m, _ = quad(lambda x: x * gaussian_pdf(x, mu, sigma), lo, hi,
                    epsabs=1e-15, epsrel=1e-13)
        weights[i] = w
        centers[i] = m / w
    return weights / weights.sum(), centers


class TestDiscretizeDisorder:
    def test_zero_sigma_single_bin(self):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.0), 1)
        assert bins.n_bins == 1
        assert bins.weights[0] == 1.0
        assert bins.centers[0] == 0.10

    def test_zero_sigma_rejects_multiple_bins(self):
        with pytest.raises(DegenerateDistributionError):
            pb.discretize_disorder(fig3_spec(sigma=0.0), 2)

    def test_single_bin_centroid_is_mean(self):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.02), 1)
        assert bins.weights[0] == 1.0
        assert bins.centers[0] == pytest.approx(0.10, abs=1e-15)

    def test_two_bins_half_gaussian_centroids(self):
        sigma = 0.02
        bins = pb.discretize_disorder(fig3_spec(sigma=sigma), 2)
        assert bins.weights == pytest.approx([0.5, 0.5], abs=1e-14)
        c = HALF_GAUSSIAN_MEAN
        assert bins.centers[0] == pytest.approx(0.10 - c * sigma, abs=1e-13)
        assert bins.centers[1] == pytest.approx(0.10 + c * sigma, abs=1e-13)

    def test_matches_quadrature_oracle(self):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.015), 7)
        weights, centers = quadrature_bins(0.10, 0.015, 7)
        np.testing.assert_allclose(bins.weights, weights, atol=1e-12)
        np.testing.assert_allclose(bins.centers, centers, atol=1e-12)

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 8, 24, 50])
    def test_weights_sum_to_one(self, n_bins):
        bins = pb.discretize_disorder(fig3_spec(sigma=0.03), n_bins)
        assert abs(bins.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(bins.centers) > 0) or n_bins == 1

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_merging_adjacent_bins(self, k):
        spec = fig3_spec(sigma=0.02)
        fine = pb.discretize_disorder(spec, 2 * k)
        coarse = pb.discretize_disorder(spec, k)
        merged_w = fine.weights[0::2] + fine.weights[1::2]
        merged_c = (
            fine.weights[0::2] * fine.centers[0::2]
            + fine.weights[1::2] * fine.centers[1::2]
        ) / merged_w
        np.testing.assert_allclose(merged_w, coarse.weights, atol=1e-14)
        np.testing.assert_allclose(merged_c, coarse.centers, atol=1e-12)

    def test_math_erf_within_ulps_of_scipy_erf(self, monkeypatch):
        # a bin's probability and first moment move by a few ulps of the
        # unit total only; a narrow tail bin turns that into thousands of
        # ulps of its own weight and conditional mean
        from scipy.special import erf

        import polarbin.model as model

        spec = fig3_spec(sigma=0.02)
        counts = range(1, 400)
        binsets = [pb.discretize_disorder(spec, n) for n in counts]
        monkeypatch.setattr(model, "_standard_normal_cdf",
                            lambda z: 0.5 * (1.0 + erf(z / math.sqrt(2.0))))
        eps = np.finfo(float).eps
        for n_bins, bins in zip(counts, binsets):
            reference = pb.discretize_disorder(spec, n_bins)
            np.testing.assert_array_equal(bins.edges, reference.edges)
            assert np.abs(bins.weights - reference.weights).max() <= 4 * eps
            moment = reference.weights * (bins.centers - reference.centers) / spec.sigma
            assert np.abs(moment).max() <= 4 * eps

    def test_edges_tile_domain(self):
        spec = fig3_spec(sigma=0.02)
        bins = pb.discretize_disorder(spec, 5)
        assert bins.edges[0] == pytest.approx(0.10 - 0.06)
        assert bins.edges[-1] == pytest.approx(0.10 + 0.06)
        assert np.all(np.diff(bins.edges) > 0)
        assert np.all((bins.edges[:-1] < bins.centers)
                      & (bins.centers < bins.edges[1:]))


class TestBinSetValidate:
    """A hand-built BinSet that breaks its invariants is a ConfigError for
    either builder that takes one."""

    GOOD = dict(weights=np.array([0.5, 0.5]), centers=np.array([0.09, 0.11]),
                edges=np.array([0.08, 0.10, 0.12]))

    def test_good_bin_set_builds(self):
        bins = pb.BinSet(**self.GOOD)
        for build in (pb.build_effective_hamiltonian, pb.build_multibin_hamiltonian):
            assert build(fig3_spec(), bins, 3).layout.n_bins == 2

    @pytest.mark.parametrize("change, message", [
        ({"weights": np.array([0.5, 0.4])}, "do not sum to 1"),
        ({"centers": np.array([0.11, 0.09])}, "centers must strictly increase"),
        ({"centers": np.array([0.09, 0.125])}, "strictly inside its bin"),
        ({"edges": np.array([0.12, 0.10, 0.08])}, "strictly inside its bin"),
        ({"edges": np.array([0.08, 0.12])}, "one more edge"),
        ({"centers": np.array([0.09])}, "as many centers as weights"),
    ], ids=["weight sum", "center order", "center outside", "decreasing edges",
            "edge count", "center count"])
    @pytest.mark.parametrize("build", [pb.build_effective_hamiltonian,
                                       pb.build_multibin_hamiltonian])
    def test_malformed_bin_set_is_a_config_error(self, change, message, build):
        bins = pb.BinSet(**{**self.GOOD, **change})
        with pytest.raises(ConfigError, match=message):
            build(fig3_spec(), bins, 3)


class TestBinCountRule:
    def test_no_disorder_needs_one_bin(self):
        assert pb.bin_count_rule(0.0, 1000.0) == 1

    def test_fig3_value(self):
        assert pb.bin_count_rule(0.02, pb.time_to_au(30, "fs")) == 24

    def test_figs1_value(self):
        assert pb.bin_count_rule(0.02, pb.time_to_au(40, "fs")) == 32

    def test_monotone_in_both_arguments(self):
        sigmas = np.linspace(0.0, 0.05, 11)
        times = np.linspace(100.0, 4000.0, 9)
        for t in times:
            counts = [pb.bin_count_rule(s, t) for s in sigmas]
            assert counts == sorted(counts)
        for s in sigmas:
            counts = [pb.bin_count_rule(s, t) for t in times]
            assert counts == sorted(counts)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            pb.bin_count_rule(-0.01, 100.0)
        with pytest.raises(ConfigError):
            pb.bin_count_rule(0.01, 0.0)


class TestTimeConvert:
    def test_zero(self):
        assert pb.time_to_au(0.0, "fs") == 0.0

    def test_one_fs(self):
        assert pb.time_to_au(1.0, "fs") == 41.341373335

    def test_thirty_fs(self):
        assert pb.time_to_au(30.0, "fs") == pytest.approx(1240.24, abs=0.01)

    def test_au_passthrough(self):
        assert pb.time_to_au(17.5, "au") == 17.5

    def test_unknown_unit(self):
        with pytest.raises(ConfigError):
            pb.time_to_au(1.0, "ps")

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            pb.time_to_au(-1.0, "fs")


class TestBasisLayout:
    def test_dimension(self):
        layout = pb.BasisLayout(n_bins=3, n_vib=7)
        assert layout.dimension == 1 + 2 * 3 * 7

    def test_photon_first_then_e1_then_e2(self):
        layout = pb.BasisLayout(n_bins=2, n_vib=4)
        assert layout.PHOTON == 0
        assert layout.index(0, 0, 0) == 1
        assert layout.index(0, 1, 0) == 5
        assert layout.index(1, 0, 0) == 9
        assert layout.index(1, 1, 3) == 16

    @pytest.mark.parametrize("layout", [
        pytest.param(pb.BasisLayout(1, 2), id="1-2"),
        pytest.param(pb.BasisLayout(2, 5), id="2-5"),
        pytest.param(pb.BasisLayout(4, 9), id="4-9"),
        pytest.param(ExplicitLayout([0, 0, 1, 1], 2, 3, 3**4), id="explicit"),
    ])
    def test_describe_is_inverse(self, layout):
        for flat in range(layout.dimension):
            desc = describe(layout, flat)
            if desc == ("photon",):
                assert flat < layout.photon_dim
            else:
                kind, i, n = desc
                back = layout.index(0 if kind == "e1" else 1, i, n)
                assert back == flat

    @pytest.mark.parametrize("layout", [
        pb.BasisLayout(3, 4), ExplicitLayout([0, 0, 1, 1], 2, 3, 3**4),
    ], ids=["binned", "explicit"])
    def test_blocks_and_index_agree(self, layout):
        # each entry of a flat arange is its own index
        photon, excited = layout.blocks(np.arange(layout.dimension))
        np.testing.assert_array_equal(photon, np.arange(layout.photon_dim))
        surface, coordinate, level = np.indices(excited.shape)
        np.testing.assert_array_equal(excited, layout.index(surface, coordinate, level))
