"""Generator tests: reproducible streams, ARMA/GARCH/fractional-noise samplers."""
import math

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter

from gvport.arma import ArmaSpec, NotAdmissibleError
from gvport.generators import (
    EmbeddingError,
    FractionalNoiseSpec,
    GarchSpec,
    RngStream,
    arma_burn_in,
    fn_autocorrelations,
    fn_variance,
    simulate_arma,
    simulate_arma_rows,
    simulate_fractional_noise,
    simulate_garch,
)


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(42, 3).generator().standard_normal(10)
        b = RngStream(42, 3).generator().standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(10)
        b = RngStream(42, 1).generator().standard_normal(10)
        assert not np.allclose(a, b)

    def test_substream_extends_key(self):
        s = RngStream(42, 3)
        assert s.substream(5).key == (3, 5)
        assert s.substream(5).substream(1).key == (3, 5, 1)

    def test_substream_independent_of_parent(self):
        a = RngStream(42, 3).generator().standard_normal(10)
        b = RngStream(42, 3).substream(0).generator().standard_normal(10)
        assert not np.allclose(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)


class TestSimulateArma:
    def test_white_noise_variance(self):
        x = simulate_arma(ArmaSpec(sigma2=2.0), 100_000, RngStream(0, 0))
        # sample-variance se for normal data: sigma2 * sqrt(2/n)
        assert np.var(x) == pytest.approx(2.0, abs=3 * 2.0 * np.sqrt(2 / 100_000))

    def test_ar1_lag1_autocorrelation(self):
        x = simulate_arma(ArmaSpec(ar=(0.8,)), 100_000, RngStream(1, 0))
        xc = x - x.mean()
        r1 = np.dot(xc[1:], xc[:-1]) / np.dot(xc, xc)
        assert r1 == pytest.approx(0.8, abs=3 * np.sqrt((1 - 0.64) / 100_000))

    def test_deterministic(self):
        spec = ArmaSpec(ar=(0.5,), ma=(0.2,), sigma2=1.5, mean=3.0)
        a = simulate_arma(spec, 500, RngStream(7, 2))
        b = simulate_arma(spec, 500, RngStream(7, 2))
        np.testing.assert_array_equal(a, b)

    def test_mean_added(self):
        x = simulate_arma(ArmaSpec(mean=10.0), 50_000, RngStream(2, 0))
        assert x.mean() == pytest.approx(10.0, abs=3 / np.sqrt(50_000))

    def test_rejects_inadmissible(self):
        with pytest.raises(NotAdmissibleError):
            simulate_arma(ArmaSpec(ar=(1.1,)), 100, RngStream(0, 0))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            simulate_arma(ArmaSpec(), 0, RngStream(0, 0))

    def test_block_rows_bit_identical_to_one_series_recursion(self):
        # each row is the one-series recipe: its own stream's innovations,
        # scaled, filtered alone, burn-in dropped, mean added
        spec = ArmaSpec(ar=(0.7, -0.2), ma=(-0.3,), sigma2=1.7, mean=-2.0)
        streams = [RngStream(41, i, parent_key=(3,)) for i in range(150)]
        block = simulate_arma_rows(spec, 90, streams)
        assert block.shape == (150, 90)
        burn = arma_burn_in(spec)
        for row, stream in zip(block, streams):
            a = stream.generator().standard_normal(90 + burn) * math.sqrt(spec.sigma2)
            want = lfilter([1.0, 0.3], [1.0, -0.7, 0.2], a)[burn:] + spec.mean
            np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(simulate_arma(spec, 90, streams[5]), block[5])

    def test_burn_in_grows_with_persistence(self):
        assert arma_burn_in(ArmaSpec()) == 200
        assert arma_burn_in(ArmaSpec(ar=(0.99,))) > arma_burn_in(ArmaSpec(ar=(0.5,)))

    @pytest.mark.parametrize("ma", [(), (0.4,)])
    def test_all_zero_ar_part_burns_as_no_ar_part(self, ma):
        # an all-zero AR part has no roots: it takes the p = 0 burn-in
        zero, none = ArmaSpec(ar=(0.0,), ma=ma), ArmaSpec(ma=ma)
        assert arma_burn_in(zero) == arma_burn_in(none) == 200
        np.testing.assert_allclose(simulate_arma(zero, 50, RngStream(1, 0)),
                                   simulate_arma(none, 50, RngStream(1, 0)), rtol=0, atol=1e-14)

    def test_matched_moments_vs_theory(self):
        from gvport.arma import theoretical_acvf

        spec = ArmaSpec(ar=(0.6,), ma=(-0.3,), sigma2=1.0)
        x = simulate_arma(spec, 200_000, RngStream(3, 0))
        gamma = theoretical_acvf(spec, 2)
        xc = x - x.mean()
        assert np.var(x) == pytest.approx(gamma[0], rel=0.02)
        assert np.dot(xc[1:], xc[:-1]) / x.size == pytest.approx(gamma[1], abs=0.02)


class TestSimulateGarch:
    def test_no_arch_terms_is_iid_normal(self):
        x = simulate_garch(GarchSpec(omega=1.0), 5000, RngStream(4, 0))
        _, p = stats.kstest(x, "norm")
        assert p > 0.001

    def test_unconditional_variance(self):
        spec = GarchSpec(omega=0.1, alpha=(0.2,), beta=(0.7,))
        assert spec.unconditional_variance == pytest.approx(1.0)
        x = simulate_garch(spec, 100_000, RngStream(5, 0))
        assert np.var(x) == pytest.approx(1.0, rel=0.10)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="covariance stationarity"):
            GarchSpec(omega=1.0, alpha=(0.3,), beta=(0.7,))

    def test_negative_coeff_rejected(self):
        with pytest.raises(ValueError):
            GarchSpec(omega=1.0, alpha=(-0.1,))
        with pytest.raises(ValueError):
            GarchSpec(omega=0.0)

    def test_levels_uncorrelated_squares_correlated(self):
        x = simulate_garch(GarchSpec(omega=0.1, alpha=(0.25,), beta=(0.65,)),
                           100_000, RngStream(6, 0))
        n = x.size
        xc = x - x.mean()
        r1 = np.dot(xc[1:], xc[:-1]) / np.dot(xc, xc)
        s = xc**2 - np.mean(xc**2)
        r1_sq = np.dot(s[1:], s[:-1]) / np.dot(s, s)
        # heavy tails inflate the acf variance of levels; 3/sqrt(n) is the
        # Gaussian band, use a wider but still tight bound for levels
        assert abs(r1) < 10 / np.sqrt(n)
        assert r1_sq > 3 / np.sqrt(n)

    def test_deterministic(self):
        spec = GarchSpec(omega=0.2, alpha=(0.1,), beta=(0.8,))
        a = simulate_garch(spec, 300, RngStream(7, 1))
        b = simulate_garch(spec, 300, RngStream(7, 1))
        np.testing.assert_array_equal(a, b)


class TestFnAutocorrelation:
    def test_d_zero(self):
        np.testing.assert_array_equal(fn_autocorrelations(0.0, 5), [1, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(fn_autocorrelations(0.0, 0), [1.0])

    def test_lag1(self):
        assert fn_autocorrelations(0.3, 1)[1] == pytest.approx(0.3 / 0.7)

    def test_lag2_recursion(self):
        assert fn_autocorrelations(0.2, 2)[2] == pytest.approx((0.2 / 0.8) * (1.2 / 1.8))
        assert fn_autocorrelations(0.2, 2)[2] == pytest.approx(1 / 6)

    def test_vector_matches_scalar(self):
        # reference: the ratio recursion one lag at a time
        d = 0.25
        rho = fn_autocorrelations(d, 10)
        want = 1.0
        for k in range(11):
            if k:
                want *= (k - 1 + d) / (k - d)
            assert rho[k] == pytest.approx(want, rel=1e-12)

    def test_gamma_ratio_closed_form(self):
        # rho(k) = Gamma(k+d) Gamma(1-d) / (Gamma(k-d+1) Gamma(d)) for d != 0
        from scipy.special import gammaln

        d = 0.3
        rho = fn_autocorrelations(d, 20)
        for k in (1, 2, 5, 20):
            want = np.exp(gammaln(k + d) + gammaln(1 - d) - gammaln(k - d + 1) - gammaln(d))
            assert rho[k] == pytest.approx(want, rel=1e-12)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            fn_autocorrelations(0.5, 1)
        with pytest.raises(ValueError):
            fn_autocorrelations(-0.6, 3)

    def test_negative_lag(self):
        with pytest.raises(ValueError, match="max_lag"):
            fn_autocorrelations(0.2, -1)

    def test_negative_d_alternates_start(self):
        assert fn_autocorrelations(-0.3, 1)[1] < 0


class TestSimulateFractionalNoise:
    def test_d_zero_is_white_noise(self):
        spec = FractionalNoiseSpec(d=0.0, sigma2=1.0)
        x = simulate_fractional_noise(spec, 10_000, RngStream(8, 0))
        y = simulate_arma(ArmaSpec(), 10_000, RngStream(9, 0))
        _, p = stats.ks_2samp(x, y)
        assert p > 0.01

    def test_deterministic(self):
        spec = FractionalNoiseSpec(d=0.3)
        a = simulate_fractional_noise(spec, 400, RngStream(10, 5))
        b = simulate_fractional_noise(spec, 400, RngStream(10, 5))
        np.testing.assert_array_equal(a, b)

    def test_variance_matches_theory(self):
        spec = FractionalNoiseSpec(d=0.2)
        x = simulate_fractional_noise(spec, 50_000, RngStream(11, 0))
        assert np.var(x) == pytest.approx(fn_variance(spec), rel=0.05)

    def test_sample_acf_short_lags(self):
        spec = FractionalNoiseSpec(d=0.25)
        x = simulate_fractional_noise(spec, 30_000, RngStream(12, 0))
        xc = x - x.mean()
        r1 = np.dot(xc[1:], xc[:-1]) / np.dot(xc, xc)
        # long memory biases the sample acf downward ~n^{2d-1}; allow for it
        assert r1 == pytest.approx(fn_autocorrelations(0.25, 1)[1], abs=0.03)

    def test_negative_embedding_eigenvalue_is_typed_error(self, monkeypatch):
        import gvport.generators as generators

        # the ring (1, 0.9, -0.9, 0.9) has eigenvalue 1 - 3 * 0.9 < 0
        monkeypatch.setattr(generators, "fn_autocorrelations",
                            lambda d, max_lag: np.array([1.0, 0.9, -0.9]))
        with pytest.raises(EmbeddingError, match="negative eigenvalue"):
            simulate_fractional_noise(FractionalNoiseSpec(d=0.3), 3, RngStream(0))

    def test_invariants(self):
        with pytest.raises(ValueError):
            FractionalNoiseSpec(d=0.5)
        with pytest.raises(ValueError):
            FractionalNoiseSpec(d=0.1, sigma2=0.0)

    def test_lag1_autocorrelation_large_sample(self):
        # band = |bias| + 3 sd measured at development time (bias ~ -0.006,
        # sd ~ 0.005 at n=1e5)
        x = simulate_fractional_noise(FractionalNoiseSpec(d=0.3), 100_000, RngStream(13, 0))
        xc = x - x.mean()
        r1 = np.dot(xc[1:], xc[:-1]) / np.dot(xc, xc)
        assert r1 == pytest.approx(0.428571, abs=0.021)


class TestCirculantEmbeddingOracle:
    """The sampler is linear in its normals z: x = A z.  Feeding the unit
    vectors e_i recovers A column by column, and A A' must be the exact
    covariance toeplitz(gamma(0..n-1))."""

    @pytest.mark.parametrize("d", [-0.45, -0.3, 0.0, 0.3, 0.45])
    @pytest.mark.parametrize("n", [2, 3, 60])
    def test_covariance_is_exact(self, monkeypatch, d, n):
        from scipy.linalg import toeplitz

        M = 2 * (n - 1)
        unit = {}

        class UnitNormals:
            def standard_normal(self, count):
                assert count == M
                return np.eye(M)[unit["i"]]

        monkeypatch.setattr(RngStream, "generator", lambda self: UnitNormals())
        spec = FractionalNoiseSpec(d=d, sigma2=1.3)
        columns = []
        for i in range(M):
            unit["i"] = i
            columns.append(simulate_fractional_noise(spec, n, RngStream(0)))
        A = np.column_stack(columns)
        want = toeplitz(fn_variance(spec) * fn_autocorrelations(d, n - 1))
        err = np.max(np.abs(A @ A.T - want)) / np.max(np.abs(want))
        assert err <= 1e-12

    def test_single_value(self):
        x = simulate_fractional_noise(FractionalNoiseSpec(d=0.3), 1, RngStream(14, 0))
        assert x.shape == (1,) and np.isfinite(x[0])


class TestCrossGeneratorReproducibility:
    def test_all_generators_pure(self):
        stream = RngStream(99, 7)
        pairs = [
            simulate_arma(ArmaSpec(ar=(0.4,)), 200, stream),
            simulate_arma(ArmaSpec(ar=(0.4,)), 200, stream),
            simulate_garch(GarchSpec(omega=0.5, alpha=(0.1,)), 200, stream),
            simulate_garch(GarchSpec(omega=0.5, alpha=(0.1,)), 200, stream),
            simulate_fractional_noise(FractionalNoiseSpec(d=0.1), 200, stream),
            simulate_fractional_noise(FractionalNoiseSpec(d=0.1), 200, stream),
        ]
        np.testing.assert_array_equal(pairs[0], pairs[1])
        np.testing.assert_array_equal(pairs[2], pairs[3])
        np.testing.assert_array_equal(pairs[4], pairs[5])
