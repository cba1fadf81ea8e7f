"""Asymptotic-law tests: X matrix, covariance, spectrum, Imhof CDF, gamma surrogate."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from gvport.arma import ArmaSpec
from gvport.asymptotic import (
    EIGENVALUE_FLOOR,
    EigenSpectrum,
    InfeasibleGammaError,
    RankDeficientError,
    acf_covariance,
    gamma_distortion,
    gamma_params,
    gamma_quantile,
    gamma_tail,
    imhof_cdf,
    imhof_quantile,
    information_matrix,
    lag_weights,
    lambda_spectrum,
    q_matrix,
    x_matrix,
)
from gvport.asymptotic import _truncation_point
from gvport.estimation import fit_arma
from gvport.generators import RngStream, simulate_arma

# a quadrature that loses accuracy must fail the test, not print a warning
imhof_strict = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
TAIL_TOL = 1e-9
GRID = (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)


def gamma_upper_tail_series(a: float, rate: float, x: float) -> float:
    """Series-expansion oracle for the regularized upper incomplete gamma.

    P(a, y) = y^a e^{-y} / Gamma(a) * sum_{n>=0} y^n / (a (a+1) ... (a+n));
    returns Q = 1 - P at y = rate * x.  Independent of scipy.stats.
    """
    y = rate * x
    if y == 0.0:
        return 1.0
    log_pref = a * math.log(y) - y - math.lgamma(a)
    term = 1.0 / a
    total = term
    k = 1
    while True:
        term *= y / (a + k)
        total += term
        k += 1
        if term < 1e-18 * total or k > 100000:
            break
    return 1.0 - math.exp(log_pref) * total


def reference_integral(x: float, lam, lo: float, hi: float) -> float:
    """int_lo^hi sin(theta(u)) / (u rho(u)) du by scalar adaptive quadrature.

    theta(u) = (1/2) sum arctan(lambda u) - x u/2, rho(u) = prod (1 + lambda^2
    u^2)^{1/4}.  hi = inf runs `quad` directly to 200 periods of the
    oscillation and a sin/cos-weighted Fourier integral beyond.
    """
    lam = np.asarray(lam, dtype=float)

    def phase(u):
        return 0.5 * float(np.sum(np.arctan(lam * u)))

    def rho(u):
        return math.exp(0.25 * float(np.sum(np.log1p((lam * u) ** 2))))

    def integrand(u):
        return math.sin(phase(u) - 0.5 * x * u) / (u * rho(u))

    omega = 0.5 * x
    direct_hi = min(hi, max(lo, 200.0 * 2.0 * math.pi / omega))
    total = 0.0
    if direct_hi > lo:
        total, _ = quad(integrand, lo, direct_hi, epsabs=1e-12, epsrel=1e-10, limit=2000)
    if direct_hi < hi:
        # sin(theta) = sin(phase)cos(omega u) - cos(phase)sin(omega u)
        ic, _ = quad(lambda u: math.sin(phase(u)) / (u * rho(u)), direct_hi, np.inf,
                     weight="cos", wvar=omega, epsabs=1e-12, limlst=300, limit=500)
        is_, _ = quad(lambda u: math.cos(phase(u)) / (u * rho(u)), direct_hi, np.inf,
                      weight="sin", wvar=omega, epsabs=1e-12, limlst=300, limit=500)
        total += ic - is_
    return total


def reference_upper_tail(x: float, lam) -> float:
    """P(sum lambda_r chi2_1 > x) by the scalar-quad inversion the package used to ship.

    Truncates at Imhof's bound over all K weights,
    [pi (K/2) U^{K/2} prod sqrt(lambda)]^{-1} = TAIL_TOL, unless U lies past
    200 periods, where reference_integral switches to its Fourier tail.
    """
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > EIGENVALUE_FLOOR]
    K = lam.size
    log_u = (2.0 / K) * -(math.log(math.pi) + math.log(K / 2.0)
                          + 0.5 * float(np.sum(np.log(lam))) + math.log(TAIL_TOL))
    U = math.exp(min(log_u, 700.0))
    hi = U if U <= 200.0 * 2.0 * math.pi / (0.5 * x) else np.inf
    return 0.5 + reference_integral(x, lam, 0.0, hi) / math.pi


def arma11_table_spectra():
    """The 30 ARMA(1,1) m=10 spectra of the published gamma-distortion table."""
    return {(phi, theta): lambda_spectrum(ArmaSpec(ar=(phi,), ma=(theta,)), 10).lambdas
            for phi in GRID for theta in GRID if phi != theta}


def fitted_arma11_spectra():
    """Spectra of an ARMA(1,1) CSS fit to one simulated n=200 series, m from 5 to 50."""
    x = simulate_arma(ArmaSpec(ar=(0.7,), ma=(-0.3,)), 200, RngStream(77, 0))
    spec = fit_arma(x, 1, 1).spec
    return {m: lambda_spectrum(spec, m).lambdas for m in (5, 10, 20, 35, 50)}


def random_spectra(count: int = 8):
    """Criterion-2-style spectra: m in 1..20 weights uniform on (0.02, 1)."""
    rng = np.random.default_rng(20241105)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 21))
        out.append(np.sort(rng.uniform(0.02, 1.0, size=m))[::-1])
    return out


def spectrum_from(lambdas):
    lam = np.sort(np.asarray(lambdas, float))[::-1]
    return EigenSpectrum(lam, lam.size, 0, 0)


class TestXMatrix:
    def test_empty(self):
        X = x_matrix(ArmaSpec(), 5)
        assert X.shape == (5, 0)

    def test_ar1(self):
        X = x_matrix(ArmaSpec(ar=(0.5,)), 3)
        np.testing.assert_allclose(X[:, 0], [1.0, 0.5, 0.25])

    def test_arma11(self):
        X = x_matrix(ArmaSpec(ar=(0.5,), ma=(0.3,)), 2)
        np.testing.assert_allclose(X, [[1.0, 1.0], [0.5, 0.3]])

    def test_shift_structure_ar2(self):
        X = x_matrix(ArmaSpec(ar=(0.4, 0.2)), 4)
        assert X[0, 1] == 0.0
        np.testing.assert_allclose(X[1:, 1], X[:-1, 0])

    def test_warns_below_fit_count(self):
        with pytest.warns(UserWarning, match="below the fitted parameter count"):
            x_matrix(ArmaSpec(ar=(0.5,), ma=(0.3,)), 1)


class TestQMatrix:
    def test_white_noise_identity(self):
        np.testing.assert_array_equal(q_matrix(np.zeros((4, 0)), 4), np.eye(4))

    def test_ar1_hand_worked(self):
        X = x_matrix(ArmaSpec(ar=(0.5,)), 2)
        Q = q_matrix(X, 2)
        np.testing.assert_allclose(Q, [[0.2, -0.4], [-0.4, 0.8]], atol=1e-14)

    def test_projection_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = ArmaSpec(ar=(float(rng.uniform(-0.9, 0.9)),),
                            ma=(float(rng.uniform(-0.9, 0.9)),))
            if abs(spec.ar[0] - spec.ma[0]) < 0.05:
                continue
            m = int(rng.integers(3, 15))
            Q = q_matrix(x_matrix(spec, m), m)
            np.testing.assert_allclose(Q @ Q, Q, atol=1e-12)
            np.testing.assert_allclose(Q, Q.T, atol=1e-14)
            assert np.trace(Q) == pytest.approx(m - 2, abs=1e-10)

    def test_common_factor_rejected(self):
        X = x_matrix(ArmaSpec(ar=(0.5,), ma=(0.5,)), 6)
        with pytest.raises(RankDeficientError, match="common factor"):
            q_matrix(X, 6)


class TestInformationMatrix:
    def test_arma11_closed_form(self):
        # classical ARMA(1,1): [[1/(1-phi^2), 1/(1-phi*theta)], [., 1/(1-theta^2)]]
        for phi, theta in [(0.3, -0.9), (-0.6, 0.3), (0.9, 0.6), (0.0, 0.5), (0.5, 0.0)]:
            J = information_matrix(ArmaSpec(ar=(phi,), ma=(theta,)))
            want = np.array([[1 / (1 - phi**2), 1 / (1 - phi * theta)],
                             [1 / (1 - phi * theta), 1 / (1 - theta**2)]])
            np.testing.assert_allclose(J, want, rtol=1e-12)

    def test_pure_ar(self):
        J = information_matrix(ArmaSpec(ar=(0.5,)))
        assert J[0, 0] == pytest.approx(1 / 0.75, rel=1e-12)


class TestLambdaSpectrum:
    def test_white_noise_identity(self):
        for m in (1, 5, 50):
            lam = lambda_spectrum(ArmaSpec(), m).lambdas
            np.testing.assert_array_equal(lam, lag_weights(m))

    def test_ar1_projection_mode(self):
        lam = lambda_spectrum(ArmaSpec(ar=(0.5,)), 2, covariance="projection").lambdas
        np.testing.assert_allclose(lam, [0.6, 0.0], atol=1e-12)

    def test_information_mode_differs_near_unit_circle(self):
        spec = ArmaSpec(ar=(0.9,))
        lam_i = lambda_spectrum(spec, 10).lambdas
        lam_p = lambda_spectrum(spec, 10, covariance="projection").lambdas
        assert not np.allclose(lam_i, lam_p, atol=1e-3)

    def test_trace_identity(self):
        # sum(lambda) = sum(w) - trace(J^{-1} X' W X)
        rng = np.random.default_rng(1)
        for _ in range(15):
            phi = float(rng.uniform(-0.9, 0.9))
            theta = float(rng.uniform(-0.9, 0.9))
            if abs(phi - theta) < 0.05:
                continue
            spec = ArmaSpec(ar=(phi,), ma=(theta,))
            m = int(rng.integers(4, 20))
            lam = lambda_spectrum(spec, m).lambdas
            X = x_matrix(spec, m)
            J = information_matrix(spec)
            W = np.diag(lag_weights(m))
            want = np.sum(lag_weights(m)) - np.trace(np.linalg.solve(J, X.T @ W @ X))
            assert np.sum(lam) == pytest.approx(want, abs=1e-10)

    def test_rank_structure(self):
        # exactly p+q eigen-directions depart from the white-noise weights
        spec = ArmaSpec(ar=(0.5,), ma=(-0.3,))
        m = 12
        lam = lambda_spectrum(spec, m).lambdas
        w = lag_weights(m)
        assert np.sum(lam) == pytest.approx(np.sum(w) - 2.0, abs=0.2)
        assert lam.min() >= 0.0 and lam.max() <= w.max() + 1e-12

    def test_bounds(self):
        lam = lambda_spectrum(ArmaSpec(ar=(0.7, -0.2), ma=(0.4,)), 15).lambdas
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0 + 1e-12)


@imhof_strict
class TestImhofCdf:
    def test_chi2_1_quantile(self):
        x = stats.chi2.ppf(0.95, 1)
        assert imhof_cdf(x, spectrum_from([1.0])) == pytest.approx(0.95, abs=1e-6)

    def test_chi2_2_quantile(self):
        x = stats.chi2.ppf(0.95, 2)
        assert imhof_cdf(x, spectrum_from([1.0, 1.0])) == pytest.approx(0.95, abs=1e-6)

    def test_zero(self):
        assert imhof_cdf(0.0, spectrum_from([1.0, 0.5])) == 0.0

    def test_scale_equivariance(self):
        lam = np.array([0.9, 0.4, 0.1])
        for c in (0.25, 3.0, 17.5):
            a = imhof_cdf(2.0, spectrum_from(lam))
            b = imhof_cdf(2.0 * c, spectrum_from(c * lam))
            assert a == pytest.approx(b, abs=1e-9)

    def test_monotone_and_bounded(self):
        lam = spectrum_from([1.0, 0.7, 0.4, 0.1])
        xs = np.linspace(0.0, 15.0, 40)
        vals = [imhof_cdf(x, lam) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_eigenvalues_dropped(self):
        a = imhof_cdf(3.0, spectrum_from([1.0, 0.5, 0.0, 0.0]))
        b = imhof_cdf(3.0, spectrum_from([1.0, 0.5]))
        assert a == pytest.approx(b, abs=1e-10)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all eigenvalues are zero"):
            imhof_cdf(1.0, spectrum_from([0.0, 0.0]))

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            imhof_cdf(-1.0, spectrum_from([1.0]))

    def test_against_sampling_oracle_small(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            k = int(rng.integers(1, 8))
            lam = rng.uniform(0.05, 1.0, size=k)
            draws = (rng.standard_normal((200_000, k)) ** 2) @ lam
            for q in (0.25, 0.5, 0.9):
                x = float(np.quantile(draws, q))
                emp = float(np.mean(draws <= x))
                assert imhof_cdf(x, spectrum_from(lam)) == pytest.approx(emp, abs=0.01)

    def test_quantile_inverts(self):
        lam = spectrum_from([1.0, 0.6, 0.3])
        for p in (0.05, 0.5, 0.95, 0.99):
            x = imhof_quantile(p, lam)
            assert imhof_cdf(x, lam) == pytest.approx(p, abs=1e-8)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            imhof_cdf(float("nan"), spectrum_from([1.0, 0.5]))

    def test_infinity_is_one(self):
        assert imhof_cdf(math.inf, spectrum_from([1.0, 0.5])) == 1.0
        assert imhof_cdf(np.inf, np.array([0.3])) == 1.0

    def test_unsorted_weights(self):
        lam = np.array([0.2, 1.0, 0.5])
        assert imhof_cdf(2.0, lam) == imhof_cdf(2.0, np.sort(lam)[::-1])

    def test_quantile_on_wide_range_spectrum(self):
        lam = spectrum_from([5.0, 1.0, 1e-3, 1e-6])
        for p in (0.01, 0.5, 0.99):
            assert imhof_cdf(imhof_quantile(p, lam), lam) == pytest.approx(p, abs=1e-9)


@imhof_strict
class TestImhofExactOracles:
    def test_hypoexponential_closed_form(self):
        # every weight twice: P(Q > x) = sum_i prod_{j!=i} l_i/(l_i - l_j) e^{-x/(2 l_i)}
        distinct = (2.0, 1.0, 0.5)
        lam = np.repeat(distinct, 2)
        for x in (1.0, 5.0, 15.0, 40.0):
            tail = sum(math.prod(li / (li - lj) for lj in distinct if lj != li)
                       * math.exp(-x / (2.0 * li)) for li in distinct)
            assert imhof_cdf(x, lam) == pytest.approx(1.0 - tail, abs=1e-10)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chi2_cdf(self, k):
        for p in (0.01, 0.05, 0.5, 0.95, 0.99):
            x = float(stats.chi2.ppf(p, k))
            assert imhof_cdf(x, np.ones(k)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chi2_quantile(self, k):
        for p in (0.01, 0.05, 0.5, 0.95, 0.99):
            want = float(stats.chi2.ppf(p, k))
            assert imhof_quantile(p, np.ones(k)) == pytest.approx(want, rel=1e-9)


@imhof_strict
class TestImhofAgainstReference:
    """The panel inversion against the scalar-quad reference, to 1e-9."""

    FRACTIONS = (0.05, 0.3, 1.0, 2.0, 4.0)

    def _assert_matches(self, lam):
        lam = np.asarray(lam, dtype=float)
        total = float(np.sum(lam))
        for f in self.FRACTIONS:
            x = f * total
            got = 1.0 - imhof_cdf(x, lam)
            assert got == pytest.approx(reference_upper_tail(x, lam), abs=1e-9), (lam, x)

    def test_published_table_spectra(self):
        for lam in arma11_table_spectra().values():
            self._assert_matches(lam)

    def test_fitted_arma11_spectra(self):
        for lam in fitted_arma11_spectra().values():
            self._assert_matches(lam)

    def test_random_spectra(self):
        for lam in random_spectra():
            self._assert_matches(lam)

    def test_integral_beyond_truncation_point(self):
        spectra = [*arma11_table_spectra().values(), *fitted_arma11_spectra().values(),
                   *random_spectra()]
        for lam in spectra:
            lam = np.sort(lam[lam > EIGENVALUE_FLOOR])[::-1]
            U = _truncation_point(lam, TAIL_TOL)
            for f in (0.05, 1.0, 4.0):
                x = f * float(np.sum(lam))
                beyond = reference_integral(x, lam, U, np.inf) / math.pi
                assert abs(beyond) <= TAIL_TOL, (lam, x, U)


class TestGammaParams:
    def test_m8_fit3(self):
        g = gamma_params(8, 3)
        assert g.alpha == pytest.approx(6.0)
        assert g.beta == pytest.approx(4.0)
        assert g.mean == pytest.approx(1.5)

    def test_m7_fit3_infeasible(self):
        with pytest.raises(InfeasibleGammaError, match="minimal feasible m is 8"):
            gamma_params(7, 3)

    def test_m1_white_noise(self):
        g = gamma_params(1, 0)
        assert (g.alpha, g.beta) == (pytest.approx(0.5), pytest.approx(0.5))
        assert g.mean == pytest.approx(1.0)

    def test_mean_identity_exact_rational(self):
        # alpha/beta = ((m+1) - 2(p+q))/2 for every feasible pair
        for fit_count in range(0, 6):
            for m in range(1, 40):
                num = Fraction(3 * m * ((m + 1) - 2 * fit_count) ** 2)
                den = Fraction(2 * (2 * (m + 1) * (2 * m + 1) - 12 * m * fit_count))
                bnum = Fraction(3 * m * ((m + 1) - 2 * fit_count))
                bden = Fraction(2 * (m + 1) * (2 * m + 1) - 12 * m * fit_count)
                if den <= 0 or bnum <= 0:
                    with pytest.raises(InfeasibleGammaError):
                        gamma_params(m, fit_count)
                    continue
                g = gamma_params(m, fit_count)
                assert (num / den) / (bnum / bden) == Fraction(m + 1 - 2 * fit_count, 2)
                assert g.mean == pytest.approx(((m + 1) - 2 * fit_count) / 2, rel=1e-12)


class TestGammaTail:
    def test_zero(self):
        assert gamma_tail(0.0, gamma_params(10, 0)) == pytest.approx(1.0)

    def test_mean_point_vs_series_oracle(self):
        # frozen from two independent oracles (series expansion here, and a
        # 1e7-draw sampling check): upper tail of Gamma(6, rate 4) at the
        # mean 1.5 is 0.44568; the 0.554 sometimes quoted is the lower tail
        g = gamma_params(8, 3)  # alpha=6, beta=4
        got = gamma_tail(1.5, g)
        want = gamma_upper_tail_series(6.0, 4.0, 1.5)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.44568, abs=5e-4)

    def test_chi2_special_case(self):
        # Gamma(1/2, rate 1/2) is exactly chi-squared with 1 df
        g = gamma_params(1, 0)
        assert gamma_tail(stats.chi2.ppf(0.95, 1), g) == pytest.approx(0.05, abs=1e-10)

    def test_random_points_vs_series_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 30))
            g = gamma_params(m, 0)
            x = float(rng.uniform(0.0, 3.0 * g.mean))
            assert gamma_tail(x, g) == pytest.approx(
                gamma_upper_tail_series(g.alpha, g.beta, x), abs=1e-9)


class TestGammaDistortion:
    def test_table_values_spot(self):
        assert gamma_distortion(ArmaSpec(ar=(0.3,), ma=(-0.9,)), 10) == pytest.approx(
            0.083, abs=0.002)
        assert gamma_distortion(ArmaSpec(ar=(-0.6,), ma=(-0.9,)), 10) == pytest.approx(
            0.105, abs=0.002)

    def test_white_noise_large_m(self):
        assert gamma_distortion(ArmaSpec(), 100) == pytest.approx(0.05, abs=0.005)

    def test_symmetry(self):
        # swapping the AR and MA coefficients swaps the X columns only
        for a, b in [(0.3, -0.9), (-0.6, 0.9), (0.6, 0.3)]:
            d1 = gamma_distortion(ArmaSpec(ar=(a,), ma=(b,)), 10)
            d2 = gamma_distortion(ArmaSpec(ar=(b,), ma=(a,)), 10)
            assert d1 == pytest.approx(d2, abs=1e-10)

    def test_ar2_strong_phi2_overstates(self):
        # phi2=0.9 leaves phi1 in (-0.1, 0.1) inside the stationarity triangle
        for phi1 in (-0.05, 0.0, 0.05):
            assert gamma_distortion(ArmaSpec(ar=(phi1, 0.9)), 10) > 0.05

    def test_gamma_quantile_roundtrip(self):
        g = gamma_params(10, 2)
        x = gamma_quantile(0.95, g)
        assert gamma_tail(x, g) == pytest.approx(0.05, abs=1e-12)


class TestCovarianceRouting:
    def test_projection_vs_information_white_noise_equal(self):
        a = acf_covariance(ArmaSpec(), 6, "information")
        b = acf_covariance(ArmaSpec(), 6, "projection")
        np.testing.assert_array_equal(a, b)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            acf_covariance(ArmaSpec(ar=(0.5,)), 5, "banana")
