"""Estimation tests: CSS recursion, PACF transform, optimizer behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.signal import lfilter

from gvport import estimation
from gvport.arma import ArmaSpec, NotAdmissibleError, check_admissible
from gvport.diagnostics import residual_acf
from gvport.estimation import (
    FitOptions,
    coeffs_to_pacf,
    css_residual_rows,
    css_residuals,
    fit_arma,
    fit_arma_rows,
    inverse_ma_rows,
    pacf_to_coeffs,
)
from gvport.generators import RngStream, simulate_arma, simulate_arma_rows


class TestCssResiduals:
    def test_white_noise_is_centered_series(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        spec = ArmaSpec(mean=float(x.mean()))
        np.testing.assert_allclose(css_residuals(x, spec), x - x.mean())

    def test_ar1_recursion(self):
        got = css_residuals([1.0, 2.0, 3.0], ArmaSpec(ar=(0.5,), mean=0.0))
        np.testing.assert_allclose(got, [1.0, 1.5, 2.0])

    def test_ma1_recursion(self):
        got = css_residuals([1.0, 0.0, 0.0], ArmaSpec(ma=(0.5,), mean=0.0))
        np.testing.assert_allclose(got, [1.0, 0.5, 0.25])

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            css_residuals([1.0, 2.0], ArmaSpec(ar=(0.5,), ma=(0.1,)))

    def test_true_spec_residuals_are_white(self):
        spec = ArmaSpec(ar=(0.7,), ma=(-0.3,))
        x = simulate_arma(spec, 10_000, RngStream(0, 0))
        resid = css_residuals(x, ArmaSpec(ar=spec.ar, ma=spec.ma, mean=0.0))
        acf = residual_acf(resid, 10)
        assert np.all(np.abs(acf.r) < 3 / np.sqrt(10_000))


class TestPacfTransform:
    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=6))
    def test_round_trip(self, pacf):
        coeffs = pacf_to_coeffs(pacf)
        back = coeffs_to_pacf(coeffs)
        np.testing.assert_allclose(back, pacf, atol=1e-9)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=6))
    def test_always_admissible(self, pacf):
        coeffs = pacf_to_coeffs(pacf)
        assert check_admissible(ArmaSpec(ar=tuple(coeffs)))

    def test_order_one_is_identity(self):
        np.testing.assert_allclose(pacf_to_coeffs([0.6]), [0.6])

    def test_step_down_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            coeffs_to_pacf([1.2])


class TestFitArma:
    def test_white_noise_order(self):
        rng = np.random.default_rng(1)
        x = 2.0 + 1.5 * rng.standard_normal(500)
        fit = fit_arma(x, 0, 0)
        assert fit.spec.ar == () and fit.spec.ma == ()
        assert fit.spec.mean == pytest.approx(x.mean())
        assert fit.spec.sigma2 == pytest.approx(np.mean((x - x.mean()) ** 2))
        assert fit.converged

    def test_ar1_recovery(self):
        x = simulate_arma(ArmaSpec(ar=(0.7,)), 2000, RngStream(2, 0))
        fit = fit_arma(x, 1, 0)
        se = np.sqrt((1 - 0.49) / 2000)
        assert fit.spec.ar[0] == pytest.approx(0.7, abs=3 * se)
        assert fit.converged

    def test_ma1_recovery(self):
        x = simulate_arma(ArmaSpec(ma=(0.6,)), 3000, RngStream(3, 0))
        fit = fit_arma(x, 0, 1)
        assert fit.spec.ma[0] == pytest.approx(0.6, abs=0.06)

    def test_arma21_recovery(self):
        spec = ArmaSpec(ar=(1.2, -0.5), ma=(0.4,))
        x = simulate_arma(spec, 4000, RngStream(4, 0))
        fit = fit_arma(x, 2, 1)
        np.testing.assert_allclose(fit.spec.ar, spec.ar, atol=0.1)
        np.testing.assert_allclose(fit.spec.ma, spec.ma, atol=0.12)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            fit_arma(np.ones(100), 1, 0)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="below the fitting minimum"):
            fit_arma(np.arange(20.0), 1, 0)

    def test_nonfinite_rejected(self):
        x = np.ones(100)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_arma(x, 0, 0)

    def test_fitted_always_admissible(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            x = rng.standard_normal(80)
            p, q = int(rng.integers(0, 3)), int(rng.integers(0, 2))
            fit = fit_arma(x, p, q)
            assert check_admissible(fit.spec)
            assert fit.residuals.size == 80

    def test_sigma2_is_css_over_n(self):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 400, RngStream(6, 0))
        fit = fit_arma(x, 1, 0)
        assert fit.spec.sigma2 == pytest.approx(fit.css / fit.n)

    def test_deterministic(self):
        x = simulate_arma(ArmaSpec(ar=(0.4,), ma=(0.2,)), 300, RngStream(7, 0))
        a = fit_arma(x, 1, 1)
        b = fit_arma(x, 1, 1)
        assert a.spec == b.spec

    def test_consistency_smoke(self):
        # median |phi_hat - phi| shrinks by ~sqrt(10) from n=200 to n=2000
        errs = {200: [], 2000: []}
        for n in errs:
            for rep in range(200):
                x = simulate_arma(ArmaSpec(ar=(0.6,)), n, RngStream(1000 + n, rep))
                fit = fit_arma(x, 1, 0)
                errs[n].append(abs(fit.spec.ar[0] - 0.6))
        ratio = np.median(errs[200]) / np.median(errs[2000])
        assert 2.0 <= ratio <= 5.0

    def test_options_restart_path(self):
        # tight iteration budget forces the restart loop to run
        x = simulate_arma(ArmaSpec(ar=(0.5,), ma=(-0.4,)), 200, RngStream(8, 0))
        opts = FitOptions(max_restarts=2, max_iter_factor=3)
        fit = fit_arma(x, 1, 1, opts)
        assert not fit.converged
        assert check_admissible(fit.spec)


def nelder_mead_css(x, p, q):
    """CSS at the point Nelder-Mead reaches on the tanh-of-partials parameterization.

    The search starts where fit_arma starts: the lag 1..p Yule-Walker
    partial autocorrelations (clipped to 0.95) for the AR block and zeros for
    the MA block.  Different starts can end in different local minima.
    """
    xc = x - x.mean()

    def css(z):
        g = np.clip(np.tanh(z), -0.99999, 0.99999)
        a = lfilter(np.r_[1.0, -pacf_to_coeffs(g[:p])], np.r_[1.0, -pacf_to_coeffs(g[p:])], xc)
        value = float(np.dot(a, a))
        return value if np.isfinite(value) else 1e300

    r = np.array([np.dot(xc[k:], xc[: xc.size - k]) for k in range(p + 1)]) / np.dot(xc, xc)
    yw = [np.linalg.solve(np.array([[r[abs(i - j)] for j in range(k)] for i in range(k)]),
                          r[1 : k + 1])[-1] for k in range(1, p + 1)]
    z0 = np.r_[np.arctanh(np.clip(yw, -0.95, 0.95)), np.zeros(q)]
    res = minimize(css, z0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20_000, "maxfev": 40_000})
    return res.fun


class TestLevenbergMarquardt:
    CORPUS = {
        (1, 0): ArmaSpec(ar=(0.6,)),
        (0, 1): ArmaSpec(ma=(-0.5,)),
        (1, 1): ArmaSpec(ar=(0.7,), ma=(-0.3,)),
        (2, 1): ArmaSpec(ar=(1.2, -0.5), ma=(0.4,)),
    }

    @pytest.mark.parametrize("order", sorted(CORPUS))
    def test_css_not_above_nelder_mead(self, order):
        p, q = order
        X = simulate_arma_rows(self.CORPUS[order], 200, [RngStream(4242, rep) for rep in range(15)])
        batched = fit_arma_rows(X, p, q)
        for i, x in enumerate(X):
            nelder_mead = nelder_mead_css(x, p, q) * (1.0 + 1e-10)
            fit = fit_arma(x, p, q)
            assert fit.converged and batched.converged[i]
            assert fit.css <= nelder_mead
            assert batched.css[i] <= nelder_mead

    def test_stops_at_the_clip_with_an_admissible_spec(self):
        # over-differenced white noise: the CSS MA(1) estimate often runs into
        # the partial clip, where the CSS is flat in the search coordinate
        rng = np.random.default_rng(3)
        clipped = 0
        for _ in range(20):
            fit = fit_arma(np.diff(rng.standard_normal(201)), 0, 1)
            assert fit.converged
            assert check_admissible(fit.spec)
            clipped += fit.spec.ma[0] == pytest.approx(0.99999, abs=1e-12)
        assert clipped >= 1

    def test_inadmissible_result_is_a_typed_value_error(self, monkeypatch):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 200, RngStream(9, 0))
        monkeypatch.setattr(estimation, "admissible_rows", lambda C: np.zeros(len(C), dtype=bool))
        with pytest.raises(NotAdmissibleError):
            fit_arma(x, 1, 0)
        assert issubclass(NotAdmissibleError, ValueError)

    def test_iterations_count_levenberg_marquardt_steps(self):
        x = simulate_arma(ArmaSpec(ar=(0.5,), ma=(-0.4,)), 200, RngStream(8, 0))
        fit = fit_arma(x, 1, 1)
        assert fit.converged and 1 <= fit.iterations <= 2 * 600
        capped = fit_arma(x, 1, 1, FitOptions(max_restarts=0, max_iter_factor=1))
        assert not capped.converged and capped.iterations == 2


def random_ma(rng, rows, q):
    """Admissible theta rows: step-up of partials drawn in (-0.95, 0.95)."""
    return np.array([pacf_to_coeffs(rng.uniform(-0.95, 0.95, q)) for _ in range(rows)])


class TestBatchedFit:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("rows", [3, 200])  # lfilter row by row, and the loop over t
    def test_inverse_ma_rows_bit_identical_to_lfilter(self, q, rows):
        rng = np.random.default_rng(100 + q)
        theta = random_ma(rng, rows, q)
        X = rng.standard_normal((rows, 150)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        Y = inverse_ma_rows(X, theta)
        assert Y.flags.c_contiguous
        for i in range(rows):
            np.testing.assert_array_equal(Y[i], lfilter([1.0], np.r_[1.0, -theta[i]], X[i]))

    def test_css_residual_rows_are_css_residuals(self):
        spec = ArmaSpec(ar=(0.6, -0.2), ma=(0.3,), mean=1.5)
        X = simulate_arma_rows(spec, 120, [RngStream(6, i) for i in range(9)])
        R = css_residual_rows(X, spec)
        for x, r in zip(X, R):
            np.testing.assert_array_equal(css_residuals(x, spec), r)

    def test_rows_bit_identical_to_fit_arma_including_restarts(self):
        # a tight iteration cap makes the slower rows restart, the others not
        opts = FitOptions(max_restarts=2, max_iter_factor=5)
        X = simulate_arma_rows(ArmaSpec(ar=(0.5,), ma=(-0.4,)), 200,
                               [RngStream(12, i) for i in range(60)])
        fits = fit_arma_rows(X, 1, 1, opts)
        cap = opts.max_iter_factor * 2
        restarted = fits.iterations > cap
        assert restarted.any() and (~restarted).any()
        assert (~fits.converged).any()
        for i, x in enumerate(X):
            one = fit_arma(x, 1, 1, opts)
            assert one.spec.ar == (fits.ar[i, 0],) and one.spec.ma == (fits.ma[i, 0],)
            assert one.css == fits.css[i]
            assert one.iterations == fits.iterations[i]
            assert one.converged == fits.converged[i]
            assert one.spec.mean == fits.mean[i]
            np.testing.assert_array_equal(one.residuals, fits.residuals[i])

    def test_rows_do_not_depend_on_the_block(self):
        X = simulate_arma_rows(ArmaSpec(ar=(0.3,), ma=(0.4, -0.2)), 150,
                               [RngStream(13, i) for i in range(40)])
        full = fit_arma_rows(X, 1, 2)
        for start in range(0, 40, 7):
            part = fit_arma_rows(X[start : start + 7], 1, 2)
            np.testing.assert_array_equal(part.residuals, full.residuals[start : start + 7])
            np.testing.assert_array_equal(part.iterations, full.iterations[start : start + 7])

    def test_failing_rows_carry_fit_arma_errors(self):
        X = simulate_arma_rows(ArmaSpec(ar=(0.5,)), 60, [RngStream(14, i) for i in range(4)])
        X[1] = 3.0
        X[2, 7] = np.inf
        fits = fit_arma_rows(X, 1, 0)
        assert fits.errors[0] is None and fits.errors[3] is None
        assert "constant" in str(fits.errors[1])
        assert "non-finite" in str(fits.errors[2])
        np.testing.assert_array_equal(fits.residuals[3], fit_arma(X[3], 1, 0).residuals)
        short = fit_arma_rows(X[:, :20], 1, 0)
        assert all("fitting minimum" in str(err) for err in short.errors)
