"""Diagnostics tests: residual ACF, portmanteau statistics, Toeplitz determinant."""
import numpy as np
import pytest
from scipy.linalg import toeplitz

from gvport.diagnostics import (
    NotPositiveDefinite,
    NotPositiveDefiniteError,
    ResidualAcf,
    acf_rows,
    box_pierce,
    d_hat,
    d_mod,
    durbin_levinson_partials,
    durbin_levinson_rows,
    ljung_box,
    portmanteau_rows,
    portmanteau_table,
    residual_acf,
    toeplitz_corr_det,
)


def dense_det_oracle(r):
    """Brute-force determinant of the (m+1) x (m+1) Toeplitz correlation matrix."""
    row = np.concatenate(([1.0], np.asarray(r, float)))
    return float(np.linalg.det(toeplitz(row)))


def acf_from_partials(partials):
    """Forward Durbin-Levinson: valid autocorrelation sequence from partials in (-1,1)."""
    partials = np.asarray(partials, float)
    m = partials.size
    rho = np.zeros(m)
    phi = np.zeros(m)
    v = 1.0
    for k in range(1, m + 1):
        pk = partials[k - 1]
        if k == 1:
            rho[0] = pk
        else:
            rho[k - 1] = pk * v + np.dot(phi[: k - 1], rho[k - 2 :: -1])
            phi[: k - 1] -= pk * phi[k - 2 :: -1]
        phi[k - 1] = pk
        v *= 1.0 - pk * pk
    return rho


class TestResidualAcf:
    def test_alternating(self):
        acf = residual_acf([1.0, -1.0, 1.0, -1.0], 1)
        assert acf.r[0] == pytest.approx(-0.75)

    def test_constant_nonzero(self):
        # no centering: numerator (n-1)c^2, denominator n c^2
        acf = residual_acf([2.0, 2.0, 2.0, 2.0], 1)
        assert acf.r[0] == pytest.approx(0.75)

    def test_zero_residuals_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            residual_acf(np.zeros(10), 2)

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            residual_acf(np.ones(5), 5)
        with pytest.raises(ValueError):
            residual_acf(np.ones(5), 0)

    def test_within_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(rng.integers(10, 200))
            acf = residual_acf(a, min(12, a.size - 1))
            assert np.all(np.abs(acf.r) <= 1.0)

    def test_toeplitz_nonneg_definite(self):
        # eq-(2)-style estimates always give a PSD correlation matrix
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal(60)
            acf = residual_acf(a, 12)
            row = np.concatenate(([1.0], acf.r))
            eig = np.linalg.eigvalsh(toeplitz(row))
            assert eig.min() >= -1e-10


class TestLjungBox:
    def test_zero_acf(self):
        value, p = ljung_box(ResidualAcf(np.zeros(3), 100, 3), 0)
        assert value.statistic == 0.0
        assert p == pytest.approx(1.0)

    def test_single_lag_value(self):
        value, _ = ljung_box(ResidualAcf(np.array([0.1]), 100, 1), 0)
        assert value.statistic == pytest.approx(100 * 102 * 0.01 / 99)

    def test_df_zero_error(self):
        acf = ResidualAcf(np.array([0.1, 0.05]), 100, 2)
        with pytest.raises(ValueError, match="m > fit_count"):
            ljung_box(acf, 2)
        value, p = ljung_box(acf, 2, pvalue=False)
        assert p is None and value.statistic > 0

    def test_box_pierce(self):
        acf = ResidualAcf(np.array([0.1, -0.2]), 50, 2)
        value, p = box_pierce(acf, 0)
        assert value.statistic == pytest.approx(50 * (0.01 + 0.04))
        assert 0 <= p <= 1


class TestToeplitzDet:
    def test_identity(self):
        det, partials = toeplitz_corr_det(ResidualAcf(np.zeros(4), 50, 4))
        assert det == pytest.approx(1.0)
        np.testing.assert_allclose(partials, 0.0)

    def test_single_lag(self):
        det, _ = toeplitz_corr_det(ResidualAcf(np.array([0.3]), 50, 1))
        assert det == pytest.approx(1 - 0.09)

    def test_hand_worked_m2(self):
        det, partials = toeplitz_corr_det(ResidualAcf(np.array([0.5, 0.25]), 50, 2))
        assert det == pytest.approx(0.5625)
        assert partials[1] == pytest.approx(0.0)

    def test_error_carries_lag_and_det(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            durbin_levinson_partials(np.array([0.9, 0.1]))
        assert exc.value.lag == 2
        assert exc.value.det_so_far == pytest.approx(1 - 0.81)

    def test_matches_dense_oracle_from_residuals(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(20, 120))
            m = int(rng.integers(1, 13))
            acf = residual_acf(a, m)
            det, _ = toeplitz_corr_det(acf)
            assert det == pytest.approx(dense_det_oracle(acf.r), rel=1e-10, abs=1e-13)

    def test_matches_dense_oracle_from_partials(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            r = acf_from_partials(rng.uniform(-0.95, 0.95, size=m))
            det, _ = toeplitz_corr_det(ResidualAcf(r, 500, m))
            assert det == pytest.approx(dense_det_oracle(r), rel=1e-10, abs=1e-13)


class TestDhat:
    def test_zero(self):
        assert d_hat(ResidualAcf(np.zeros(5), 100, 5)).statistic == 0.0

    def test_single_lag(self):
        got = d_hat(ResidualAcf(np.array([0.2]), 100, 1))
        assert got.statistic == pytest.approx(100 * (1 - 0.96))

    def test_hand_worked_m2(self):
        got = d_hat(ResidualAcf(np.array([0.5, 0.25]), 100, 2))
        assert got.statistic == pytest.approx(100 * (1 - 0.5625**0.5))
        assert got.statistic == pytest.approx(25.0)

    def test_never_fails_on_genuine_residuals(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = rng.standard_normal(rng.integers(15, 80))
            m = int(rng.integers(1, min(14, a.size)))
            value = d_hat(residual_acf(a, m))
            assert value.statistic >= 0.0


class TestDmod:
    def test_zero(self):
        got = d_mod(ResidualAcf(np.zeros(5), 100, 5))
        assert got.statistic == 0.0

    def test_single_lag_inflation(self):
        got = d_mod(ResidualAcf(np.array([0.2]), 100, 1))
        rdd2 = (102.0 / 99.0) * 0.04
        assert got.statistic == pytest.approx(100 * rdd2, rel=1e-12)
        assert got.statistic == pytest.approx(4.12121, abs=1e-5)

    def test_not_positive_definite_case(self):
        r = np.zeros(10)
        r[9] = 0.9  # inflation factor (n+2)/(n-k) = 14/2 = 7 at k=10
        got = d_mod(ResidualAcf(r, 12, 10))
        assert isinstance(got, NotPositiveDefinite)
        assert got.lag == 10

    def test_monotone_inflation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.standard_normal(40)
            acf = residual_acf(a, 10)
            k = np.arange(1, 11)
            inflated = np.abs(acf.r) * np.sqrt((acf.n + 2.0) / (acf.n - k))
            assert np.all(inflated >= np.abs(acf.r))
            assert np.all((inflated > np.abs(acf.r)) | (acf.r == 0.0))

    def test_failure_rate_substantial_for_short_series(self):
        # configured short-series setup: white-noise fit, n=30, m=24
        from gvport.arma import ArmaSpec
        from gvport.estimation import fit_arma
        from gvport.generators import RngStream, simulate_arma

        fails = 0
        trials = 300
        for t in range(trials):
            x = simulate_arma(ArmaSpec(), 30, RngStream(5150, t))
            fit = fit_arma(x, 0, 0)
            if isinstance(d_mod(residual_acf(fit.residuals, 24)), NotPositiveDefinite):
                fails += 1
        assert fails / trials > 0.10


class TestScaleInvariance:
    def test_exact_under_power_of_two_scaling(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(80)
        acf = residual_acf(a, 8)
        q0, _ = ljung_box(acf, 0)
        d0 = d_hat(acf)
        dd0 = d_mod(acf)
        for c in (2.0, 0.25, -4.0):
            acf_c = residual_acf(c * a, 8)
            np.testing.assert_array_equal(acf_c.r, acf.r)
            assert ljung_box(acf_c, 0)[0].statistic == q0.statistic
            assert d_hat(acf_c).statistic == d0.statistic
            assert d_mod(acf_c).statistic == dd0.statistic


class TestPortmanteauTable:
    KINDS = ("d_hat", "ljung_box", "box_pierce")

    def test_matches_single_m_statistics(self):
        # one pass up to M = 50 against one statistic per m; d_hat against a
        # dense determinant of the (m+1) x (m+1) Toeplitz matrix
        rng = np.random.default_rng(7)
        for n in (120, 300):
            acf = residual_acf(rng.standard_normal(n), 50)
            m_list = tuple(range(1, 51))
            table = portmanteau_table(acf, m_list, self.KINDS)
            assert table.shape == (50, 3)
            for row, m in enumerate(m_list):
                sub = acf.prefix(m)
                want = (n * (1.0 - dense_det_oracle(sub.r) ** (1.0 / m)),
                        ljung_box(sub, 0, pvalue=False)[0].statistic,
                        box_pierce(sub, 0, pvalue=False)[0].statistic)
                np.testing.assert_allclose(table[row], want, rtol=1e-12, atol=0.0)
                assert d_hat(sub).statistic == table[row, 0]

    def test_row_and_column_order_follow_inputs(self):
        acf = residual_acf(np.random.default_rng(8).standard_normal(100), 12)
        full = portmanteau_table(acf, (12, 3, 7), self.KINDS)
        swapped = portmanteau_table(acf, (7, 12), ("box_pierce", "d_hat"))
        np.testing.assert_array_equal(swapped, full[[2, 0]][:, [2, 0]])

    def test_not_positive_definite_beyond_smallest_m(self):
        # the partial at lag 2 leaves (-1, 1): d_hat at m = 1 alone is fine,
        # but a pass up to m = 3 raises, as one d_hat per m would at m = 3
        acf = ResidualAcf(np.array([0.9, 0.1, 0.0]), 50, 3)
        assert portmanteau_table(acf, (1,), ("d_hat",))[0, 0] == pytest.approx(50 * 0.81)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            portmanteau_table(acf, (1, 3), ("d_hat",))
        assert exc.value.lag == 2

    def test_chi_squared_kinds_skip_durbin_levinson(self):
        acf = ResidualAcf(np.array([0.9, 0.1, 0.0]), 50, 3)
        table = portmanteau_table(acf, (1, 3), ("ljung_box", "box_pierce"))
        assert table[1, 1] == pytest.approx(50 * (0.81 + 0.01))

    def test_rejects_bad_inputs(self):
        acf = ResidualAcf(np.array([0.1, 0.2]), 50, 2)
        with pytest.raises(ValueError):
            portmanteau_table(acf, (3,), ("d_hat",))
        with pytest.raises(ValueError):
            portmanteau_table(acf, (0,), ("d_hat",))
        with pytest.raises(ValueError):
            portmanteau_table(acf, (2,), ("d_mod",))

    def test_prefix(self):
        acf = ResidualAcf(np.array([0.1, 0.2, 0.3]), 50, 3)
        assert acf.prefix(3) is acf
        sub = acf.prefix(2)
        assert (sub.n, sub.m) == (50, 2)
        np.testing.assert_array_equal(sub.r, [0.1, 0.2])


class TestRowKernels:
    """The batched kernels compute each row from that row alone."""

    KINDS = ("d_hat", "ljung_box", "box_pierce")

    def test_rows_do_not_depend_on_the_block(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((130, 97)) * rng.uniform(0.1, 10.0, size=(130, 1))
        R, denom = acf_rows(A, 20)
        P, lag = durbin_levinson_rows(R)
        values, _ = portmanteau_rows(R, 97, (3, 20, 9), self.KINDS)
        for size in (1, 7):
            for start in range(0, 130, size):
                block = slice(start, start + size)
                R_b, denom_b = acf_rows(A[block], 20)
                np.testing.assert_array_equal(R_b, R[block])
                np.testing.assert_array_equal(denom_b, denom[block])
                np.testing.assert_array_equal(durbin_levinson_rows(R_b)[0], P[block])
                np.testing.assert_array_equal(
                    portmanteau_rows(R_b, 97, (3, 20, 9), self.KINDS)[0], values[block])
        assert not lag.any()

    def test_one_row_functions_are_rows_of_the_kernels(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((12, 80))
        R, _ = acf_rows(A, 15)
        P, _ = durbin_levinson_rows(R)
        values, _ = portmanteau_rows(R, 80, (5, 15), self.KINDS)
        for i, a in enumerate(A):
            acf = residual_acf(a, 15)
            np.testing.assert_array_equal(acf.r, R[i])
            np.testing.assert_array_equal(durbin_levinson_partials(acf.r), P[i])
            np.testing.assert_array_equal(portmanteau_table(acf, (5, 15), self.KINDS), values[i])

    def test_acf_matches_per_lag_dot_products(self):
        a = np.random.default_rng(11).standard_normal(150)
        want = [np.dot(a[k:], a[:-k]) / np.dot(a, a) for k in range(1, 11)]
        np.testing.assert_allclose(residual_acf(a, 10).r, want, rtol=1e-13, atol=1e-16)

    def test_failure_lag_per_row(self):
        # row 0 valid, row 1 fails at order 2, row 2 at order 1 (r = 1), row 3 nan
        R = np.array([[0.5, 0.25, 0.1], [0.9, 0.1, 0.0], [1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        _, lag = durbin_levinson_rows(R)
        np.testing.assert_array_equal(lag, [0, 2, 1, 1])
        values, lag_table = portmanteau_rows(R, 50, (1, 3), ("ljung_box", "d_hat"))
        np.testing.assert_array_equal(lag_table, lag)
        _, no_dl = portmanteau_rows(R, 50, (1, 3), ("ljung_box",))
        assert not no_dl.any()
        one = portmanteau_table(ResidualAcf(R[0], 50, 3), (3,), ("d_hat",))
        assert values[0, 1, 1] == one[0, 0]

    def test_zero_rows_flagged_by_denominator(self):
        A = np.zeros((2, 10))
        A[1, 0] = 1.0
        R, denom = acf_rows(A, 3)
        np.testing.assert_array_equal(denom, [0.0, 1.0])
        assert np.all(np.isnan(R[0]))
        np.testing.assert_array_equal(R[1], 0.0)
