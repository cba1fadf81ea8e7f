"""Model-core tests: admissibility, reciprocal weights, autocovariances."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvport.arma import (
    ArmaSpec,
    NotAdmissibleError,
    admissible_rows,
    arma_psi_weights,
    check_admissible,
    is_admissible_poly,
    pacf_to_coeffs,
    poly_root_moduli,
    psi_weights_reciprocal,
    step_up_jacobian,
    theoretical_acvf,
)


def random_admissible_coeffs(rng, k, scale=0.9):
    """Random admissible polynomial via partial-autocorrelation coordinates."""
    return pacf_to_coeffs(rng.uniform(-scale, scale, size=k))


class TestAdmissibility:
    def test_ar1_inside(self):
        assert check_admissible(ArmaSpec(ar=(0.5,)))

    def test_ar1_outside(self):
        assert not check_admissible(ArmaSpec(ar=(1.2,)))

    def test_ar2_one_root_inside(self):
        # roots of 1 - 0.5 z - 0.6 z^2 are ~0.9399 and ~-1.7733
        moduli = np.sort(poly_root_moduli((0.5, 0.6)))
        assert moduli[0] == pytest.approx(0.93990, abs=1e-4)
        assert moduli[1] == pytest.approx(1.77324, abs=1e-4)
        assert not check_admissible(ArmaSpec(ar=(0.5, 0.6)))

    def test_ma_side_checked(self):
        assert not check_admissible(ArmaSpec(ma=(1.5,)))
        assert check_admissible(ArmaSpec(ar=(0.5,), ma=(0.5,)))

    def test_boundary_margin(self):
        assert not check_admissible(ArmaSpec(ar=(1.0,)))
        assert check_admissible(ArmaSpec(ar=(0.999999,)))

    def test_empty_is_admissible(self):
        assert check_admissible(ArmaSpec())

    def test_degree_three_companion(self):
        # well inside: pacf coords (0.3, 0.2, 0.1)
        c = pacf_to_coeffs([0.3, 0.2, 0.1])
        assert check_admissible(ArmaSpec(ar=tuple(c)))
        assert not check_admissible(ArmaSpec(ar=(0.4, 0.4, 0.4)))

    def test_trailing_zeros_ignored(self):
        assert check_admissible(ArmaSpec(ar=(0.5, 0.0)))

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_rows_agree_with_one_polynomial(self, k):
        rng = np.random.default_rng(k)
        C = rng.uniform(-1.6, 1.6, size=(400, k)) * rng.uniform(0.2, 1.0, size=(400, 1))
        C[:5] = pacf_to_coeffs(np.full(k, 1.0 - 5e-9)) if k else C[:5]  # inside the margin
        got = admissible_rows(C)
        assert got.tolist() == [is_admissible_poly(c) for c in C]
        assert 0 < got.sum() < 400 or k == 0

    def test_step_up_output_with_root_pair_near_unit_circle(self):
        # stationary by construction, yet a root pair sits within 1e-8 of the
        # unit circle, where companion-matrix roots cannot decide the question
        pacf = [0.5, -0.5, -0.96875, -0.96875, -0.984375, -0.984375]
        c = pacf_to_coeffs(pacf)
        assert float(np.min(poly_root_moduli(c))) < 1.0 + 1e-7
        assert is_admissible_poly(c)
        assert check_admissible(ArmaSpec(ar=tuple(c), ma=tuple(c)))

    def test_margin_is_on_the_partials(self):
        assert is_admissible_poly(pacf_to_coeffs([0.3, 1.0 - 2e-8]))
        assert not is_admissible_poly(pacf_to_coeffs([0.3, 1.0 - 5e-9]))
        assert not is_admissible_poly(pacf_to_coeffs([0.3, -0.999]), margin=0.01)

    def test_step_up_jacobian_matches_central_differences(self):
        g = np.array([0.5, -0.3, 0.7, 0.2])
        a, D = step_up_jacobian(g)
        np.testing.assert_array_equal(a, pacf_to_coeffs(g))
        h = 1e-6
        for j in range(g.size):
            e = np.zeros(g.size)
            e[j] = h
            fd = (pacf_to_coeffs(g + e) - pacf_to_coeffs(g - e)) / (2 * h)
            np.testing.assert_allclose(D[:, j], fd, atol=1e-9)

    def test_step_down_matches_root_moduli_away_from_the_boundary(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 5)))
            r = float(np.min(poly_root_moduli(c)))
            if abs(r - 1.0) > 1e-6:
                assert is_admissible_poly(c) == (r > 1.0)


class TestPsiWeights:
    def test_geometric(self):
        assert psi_weights_reciprocal((0.5,), 3) == pytest.approx([1.0, 0.5, 0.25])

    def test_empty_polynomial(self):
        assert psi_weights_reciprocal((), 3) == pytest.approx([1.0, 0.0, 0.0])

    def test_order_two(self):
        got = psi_weights_reciprocal((0.5, 0.2), 4)
        assert got == pytest.approx([1.0, 0.5, 0.45, 0.325])

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissibleError):
            psi_weights_reciprocal((1.2,), 5)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            psi_weights_reciprocal((0.5,), 0)
        with pytest.raises(ValueError):
            arma_psi_weights(ArmaSpec(ar=(0.5,)), 0)

    def test_transfer_function_weights(self):
        # pure MA: the weights are the MA polynomial, then zeros
        np.testing.assert_array_equal(arma_psi_weights(ArmaSpec(ma=(0.4, -0.2)), 5),
                                      [1.0, -0.4, 0.2, 0.0, 0.0])
        np.testing.assert_array_equal(arma_psi_weights(ArmaSpec(ma=(0.4, -0.2)), 2), [1.0, -0.4])
        # ARMA(1,1): psi_j = (phi - theta) phi^(j-1) for j >= 1
        phi, theta = 0.7, 0.3
        got = arma_psi_weights(ArmaSpec(ar=(phi,), ma=(theta,)), 8)
        want = np.concatenate(([1.0], (phi - theta) * phi ** np.arange(7)))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=5), st.integers(5, 40))
    def test_convolution_identity(self, pacf, count):
        # (1 - sum c_i B^i) * psi(B) = 1, coefficient-wise to 1e-12
        c = pacf_to_coeffs(pacf)
        psi = psi_weights_reciprocal(c, count)
        poly = np.concatenate(([1.0], -c))
        conv = np.convolve(poly, psi)[:count]
        expect = np.zeros(count)
        expect[0] = 1.0
        np.testing.assert_allclose(conv, expect, atol=1e-12)

    def test_decay_bound(self):
        # |psi_j| <= C / (r - eps)^j with C fitted on the first few weights
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = rng.integers(1, 5)
            c = random_admissible_coeffs(rng, k)
            r = float(np.min(poly_root_moduli(c)))
            psi = np.abs(psi_weights_reciprocal(c, 60))
            rate = 1.0 / (r - 1e-9)
            bound = rate ** np.arange(60)
            C = 2.0 * max(np.max(psi[:10] / bound[:10]), 1.0)
            assert np.all(psi <= C * bound + 1e-30)


class TestTheoreticalAcvf:
    def test_white_noise(self):
        np.testing.assert_allclose(theoretical_acvf(ArmaSpec(), 2), [1.0, 0.0, 0.0])

    def test_ar1(self):
        got = theoretical_acvf(ArmaSpec(ar=(0.5,)), 3)
        g0 = 1.0 / (1.0 - 0.25)
        np.testing.assert_allclose(got, [g0, 0.5 * g0, 0.25 * g0, 0.125 * g0])

    def test_ma1_sign_convention(self):
        got = theoretical_acvf(ArmaSpec(ma=(0.4,)), 2)
        np.testing.assert_allclose(got, [1.16, -0.4, 0.0], atol=1e-14)

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissibleError):
            theoretical_acvf(ArmaSpec(ar=(1.2,)), 2)

    def test_sigma2_scaling(self):
        base = theoretical_acvf(ArmaSpec(ar=(0.3,), ma=(0.2,)), 5)
        scaled = theoretical_acvf(ArmaSpec(ar=(0.3,), ma=(0.2,), sigma2=4.0), 5)
        np.testing.assert_allclose(scaled, 4.0 * base)

    def test_against_psi_convolution_oracle(self):
        # independent route: gamma(k) = sigma2 * sum_i psi_i psi_{i+k}, truncated long
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = int(rng.integers(0, 4))
            q = int(rng.integers(0, 4))
            spec = ArmaSpec(
                ar=tuple(random_admissible_coeffs(rng, p, scale=0.8)) if p else (),
                ma=tuple(random_admissible_coeffs(rng, q, scale=0.8)) if q else (),
                sigma2=float(rng.uniform(0.5, 2.0)),
            )
            L = 4000
            psi = arma_psi_weights(spec, L)
            want = [spec.sigma2 * float(np.dot(psi[: L - k], psi[k:])) for k in range(6)]
            got = theoretical_acvf(spec, 5)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_nonnegative_definite_sequence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = int(rng.integers(0, 3))
            q = int(rng.integers(0, 3))
            spec = ArmaSpec(
                ar=tuple(random_admissible_coeffs(rng, p)) if p else (),
                ma=tuple(random_admissible_coeffs(rng, q)) if q else (),
            )
            gamma = theoretical_acvf(spec, 20)
            for L in (5, 10, 20):
                toep = np.array([[gamma[abs(i - j)] for j in range(L + 1)] for i in range(L + 1)])
                eig = np.linalg.eigvalsh(toep)
                assert eig.min() >= -1e-9 * max(1.0, gamma[0])


class TestArmaSpecType:
    def test_invalid_sigma2(self):
        with pytest.raises(ValueError):
            ArmaSpec(sigma2=0.0)
        with pytest.raises(ValueError):
            ArmaSpec(sigma2=-1.0)

    def test_non_finite_coeffs(self):
        with pytest.raises(ValueError):
            ArmaSpec(ar=(np.nan,))

    def test_orders(self):
        spec = ArmaSpec(ar=(0.5, 0.1), ma=(0.2,))
        assert spec.order == (2, 1)
