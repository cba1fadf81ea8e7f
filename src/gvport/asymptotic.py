"""Asymptotic null distribution of the generalized-variance statistic.

The statistic converges to sum_i lambda_i chi2_{1,i} where the lambda_i are
the eigenvalues of C_m W_m: W_m = diag((m-i+1)/m) and C_m the asymptotic
covariance matrix of the normalized residual autocorrelations,

    C_m = I_m - X_m J^{-1} X_m',

with X_m holding the reciprocal-polynomial weights of 1/phi(B) and
1/theta(B) and J the full-series information matrix lim X_L' X_L.  The
m-truncated surrogate J ~ X_m' X_m (an exact projection) is also provided;
it agrees closely once the weights have died out within m lags but visibly
distorts tail probabilities for parameters near the unit circle, so the
information-matrix form is the default everywhere.

The CDF of the weighted chi-squared sum is evaluated by numerically
inverting its characteristic function:

    P(Q > x) = 1/2 + (1/pi) * int_0^inf sin(theta(u)) / (u rho(u)) du,
    theta(u) = (1/2) sum_r arctan(lambda_r u) - x u / 2,
    rho(u)   = prod_r (1 + lambda_r^2 u^2)^{1/4}.

A two-moment gamma surrogate with shape alpha and RATE beta is provided for
comparison, together with the size distortion a nominal-level gamma test
suffers relative to the exact asymptotic law.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.integrate import quad

from .arma import ArmaSpec, poly_root_moduli, psi_weights_reciprocal, require_admissible

# eigenvalues this small contribute nothing and break the truncation bound
EIGENVALUE_FLOOR = 1e-12
_INFO_SERIES_CAP = 500_000


class RankDeficientError(ValueError):
    """The regression matrix X lost column rank (e.g. common AR/MA factors)."""


class InfeasibleGammaError(ValueError):
    """The two-moment gamma surrogate has nonpositive shape or rate."""


@dataclass(frozen=True)
class EigenSpectrum:
    """Weights lambda_1 >= ... >= lambda_m >= 0 of the asymptotic chi-squared mixture."""

    lambdas: np.ndarray
    m: int
    p: int
    q: int

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.size != self.m:
            raise ValueError("need exactly m eigenvalues")
        if np.any(lam < 0) or np.any(lam[1:] > lam[:-1] + 1e-12):
            raise ValueError("eigenvalues must be nonnegative and sorted descending")


@dataclass(frozen=True)
class GammaApprox:
    """Two-moment gamma surrogate: shape alpha, rate beta."""

    alpha: float
    beta: float
    m: int
    fit_count: int

    @property
    def mean(self) -> float:
        return self.alpha / self.beta


def x_matrix(spec: ArmaSpec, m: int) -> np.ndarray:
    """m x (p+q) matrix of reciprocal-polynomial weights.

    AR column j holds the weights of 1/phi(B) shifted down by j-1 rows; MA
    columns hold the weights of 1/theta(B) likewise.  Entries above the
    shift are zero.
    """
    require_admissible(spec)
    k = spec.p + spec.q
    if m < k:
        warnings.warn(f"m={m} is below the fitted parameter count p+q={k}", stacklevel=2)
    return _weight_columns(spec, m)


def _weight_columns(spec: ArmaSpec, rows: int) -> np.ndarray:
    """The x_matrix layout with any number of rows (information_matrix uses L)."""
    X = np.zeros((rows, spec.p + spec.q))
    for offset, coeffs in ((0, spec.ar), (spec.p, spec.ma)):
        if len(coeffs):
            w = psi_weights_reciprocal(coeffs, rows)
            for j in range(len(coeffs)):
                X[j:, offset + j] = w[: rows - j]
    return X


def q_matrix(X: np.ndarray, m: int) -> np.ndarray:
    """Projection complement I_m - X (X'X)^{-1} X'.

    This is the m-truncated surrogate for the residual-autocorrelation
    covariance: exact for white noise, close once the weights decay within
    m lags.  X must have full column rank; common factors between the AR
    and MA polynomials collapse columns and are rejected.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != m:
        raise ValueError(f"X must have m={m} rows, got {X.shape[0]}")
    k = X.shape[1]
    if k == 0:
        return np.eye(m)
    rank = np.linalg.matrix_rank(X)
    if rank < k:
        raise RankDeficientError(
            f"X has rank {rank} < {k} columns; the AR and MA polynomials share "
            f"a common factor, so the model is not identifiable"
        )
    Qfac, _ = np.linalg.qr(X)
    return np.eye(m) - Qfac @ Qfac.T


def information_matrix(spec: ArmaSpec) -> np.ndarray:
    """Full-series Gram matrix J = lim_L X_L' X_L of the reciprocal weights.

    Entries are the lagged cross-products of the 1/phi(B) and 1/theta(B)
    expansions, summed until the geometric tail is below 1e-14 relative
    (truncation length set by the smallest root modulus, capped).
    """
    require_admissible(spec)
    k = spec.p + spec.q
    if k == 0:
        return np.zeros((0, 0))
    moduli = [np.min(poly_root_moduli(c)) for c in (spec.ar, spec.ma) if len(c)]
    r = min(moduli)
    # |psi_l| ~ r^{-l}; products decay like r^{-2l}
    L = int(math.ceil(-0.5 * math.log(1e-16) / math.log(r))) + 64
    if L > _INFO_SERIES_CAP:
        warnings.warn(
            f"information-matrix series truncated at {_INFO_SERIES_CAP} terms "
            f"(root modulus {r:.3e} is nearly on the unit circle)",
            stacklevel=2,
        )
        L = _INFO_SERIES_CAP
    Xb = _weight_columns(spec, L)
    J = Xb.T @ Xb
    if np.linalg.matrix_rank(J) < k:
        raise RankDeficientError(
            "information matrix is singular; the AR and MA polynomials share "
            "a common factor, so the model is not identifiable"
        )
    return J


def acf_covariance(spec: ArmaSpec, m: int, covariance: str = "information") -> np.ndarray:
    """Asymptotic covariance of the normalized residual autocorrelations."""
    X = x_matrix(spec, m)
    if covariance == "projection":
        return q_matrix(X, m)
    if covariance != "information":
        raise ValueError("covariance must be 'information' or 'projection'")
    if X.shape[1] == 0:
        return np.eye(m)
    J = information_matrix(spec)
    return np.eye(m) - X @ np.linalg.solve(J, X.T)


def lag_weights(m: int) -> np.ndarray:
    """Diagonal of W_m: w_i = (m - i + 1)/m."""
    return (m - np.arange(1, m + 1) + 1.0) / m


def lambda_spectrum(spec: ArmaSpec, m: int, covariance: str = "information") -> EigenSpectrum:
    """Eigenvalues of C_m W_m via the symmetric form W^{1/2} C_m W^{1/2}.

    Sorted descending; roundoff negatives above -1e-10 are clamped to zero.
    `covariance="projection"` selects the m-truncated surrogate (see module
    docstring); the default matches the exact asymptotic law.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if spec.p + spec.q == 0:
        # covariance is the identity; the spectrum is the weight diagonal, exactly
        require_admissible(spec)
        return EigenSpectrum(lambdas=lag_weights(m), m=m, p=0, q=0)
    C = acf_covariance(spec, m, covariance)
    sw = np.sqrt(lag_weights(m))
    S = sw[:, None] * C * sw[None, :]
    lam = np.linalg.eigvalsh(S)[::-1].copy()
    bad = lam < -1e-10
    if np.any(bad):
        raise ArithmeticError(f"eigenvalue {lam[bad][0]:.3e} below roundoff tolerance")
    lam[lam < 0] = 0.0
    return EigenSpectrum(lambdas=lam, m=m, p=spec.p, q=spec.q)


def _imhof_upper_tail(x: float, lam: np.ndarray, tail_tol: float = 1e-9) -> float:
    """P(sum lambda_r chi2_1 > x) by characteristic-function inversion.

    Direct adaptive quadrature runs to min(truncation bound, 200 cycles of
    the oscillation); any remaining tail is handled as a Fourier integral
    with sin/cos weights (extrapolated semi-infinite rule), which stays
    accurate even for one or two eigenvalues where the amplitude decays
    like u^{-3/2}.
    """

    def theta_over(u):
        return 0.5 * float(np.sum(np.arctan(lam * u))) - 0.5 * x * u

    def rho(u):
        return math.exp(0.25 * float(np.sum(np.log1p((lam * u) ** 2))))

    def integrand(u):
        return math.sin(theta_over(u)) / (u * rho(u))

    K = lam.size
    # Truncation bound: tail beyond U is <= [pi (K/2) U^{K/2} prod sqrt(lam)]^{-1}
    log_prod_sqrt = 0.5 * float(np.sum(np.log(lam)))
    logU = (2.0 / K) * -(math.log(math.pi) + math.log(K / 2.0) + log_prod_sqrt + math.log(tail_tol))
    U_bound = math.exp(min(logU, 700.0))

    omega = 0.5 * x
    U_direct = min(U_bound, 200.0 * 2.0 * math.pi / omega)

    total, _ = quad(integrand, 0.0, U_direct, epsabs=1e-12, epsrel=1e-10, limit=2000)
    if U_direct < U_bound:
        # sin(theta) = sin(phase)cos(omega u) - cos(phase)sin(omega u)
        def phase(u):
            return 0.5 * float(np.sum(np.arctan(lam * u)))

        def amp_cos(u):
            return math.sin(phase(u)) / (u * rho(u))

        def amp_sin(u):
            return math.cos(phase(u)) / (u * rho(u))

        ic, _ = quad(amp_cos, U_direct, np.inf, weight="cos", wvar=omega,
                     epsabs=1e-12, limlst=300, limit=500)
        is_, _ = quad(amp_sin, U_direct, np.inf, weight="sin", wvar=omega,
                      epsabs=1e-12, limlst=300, limit=500)
        total += ic - is_
    return 0.5 + total / math.pi


def imhof_cdf(x: float, spectrum: EigenSpectrum | np.ndarray) -> float:
    """F(x) = P(sum lambda_r chi2_{1,r} <= x), clipped to [0, 1].

    Zero eigenvalues are dropped before integration; an all-zero spectrum
    is rejected.  Absolute accuracy is ~1e-8 or better.
    """
    lam = spectrum.lambdas if isinstance(spectrum, EigenSpectrum) else np.asarray(spectrum, float)
    lam = lam[lam > EIGENVALUE_FLOOR]
    if lam.size == 0:
        raise ValueError("all eigenvalues are zero; the asymptotic law is degenerate")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x <= 0.0:
        return 0.0
    upper = _imhof_upper_tail(float(x), lam)
    return min(max(1.0 - upper, 0.0), 1.0)


def imhof_quantile(prob: float, spectrum: EigenSpectrum | np.ndarray) -> float:
    """Inverse of imhof_cdf by bracketing bisection (Brent)."""
    from scipy.optimize import brentq

    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly between 0 and 1")
    lam = spectrum.lambdas if isinstance(spectrum, EigenSpectrum) else np.asarray(spectrum, float)
    hi = float(np.sum(lam)) + 1.0
    while imhof_cdf(hi, spectrum) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("quantile bracket exploded")
    return float(brentq(lambda x: imhof_cdf(x, spectrum) - prob, 0.0, hi, xtol=1e-10))


def gamma_params(m: int, fit_count: int = 0) -> GammaApprox:
    """Two-moment gamma surrogate parameters (shape alpha, RATE beta).

    alpha = 3m[(m+1) - 2(p+q)]^2 / (2 D),  beta = 3m[(m+1) - 2(p+q)] / D,
    D = 2(m+1)(2m+1) - 12m(p+q).  Either quantity nonpositive means the
    surrogate does not exist at this m; the error names the smallest m
    that works for this fit_count.
    """
    if m < 1 or fit_count < 0:
        raise ValueError("need m >= 1 and fit_count >= 0")
    den = 2.0 * (m + 1) * (2 * m + 1) - 12.0 * m * fit_count
    num = (m + 1) - 2.0 * fit_count
    if den <= 0 or num <= 0:
        m_ok = m + 1
        while m_ok < 100 * (fit_count + 1):
            d2 = 2.0 * (m_ok + 1) * (2 * m_ok + 1) - 12.0 * m_ok * fit_count
            if d2 > 0 and (m_ok + 1) - 2.0 * fit_count > 0:
                break
            m_ok += 1
        raise InfeasibleGammaError(
            f"gamma approximation infeasible at m={m} with p+q={fit_count}; "
            f"minimal feasible m is {m_ok}"
        )
    alpha = 3.0 * m * num**2 / (2.0 * den)
    beta = 3.0 * m * num / den
    return GammaApprox(alpha=alpha, beta=beta, m=m, fit_count=fit_count)


def gamma_tail(value: float, g: GammaApprox) -> float:
    """Upper-tail p-value of Gamma(shape=alpha, rate=beta) at the statistic value."""
    if value < 0:
        raise ValueError("statistic must be >= 0")
    return float(stats.gamma.sf(value, g.alpha, scale=1.0 / g.beta))


def gamma_quantile(prob: float, g: GammaApprox) -> float:
    """Gamma quantile at probability `prob` (rate parameterization)."""
    return float(stats.gamma.ppf(prob, g.alpha, scale=1.0 / g.beta))


def gamma_distortion(spec: ArmaSpec, m: int, nominal: float = 0.05,
                     covariance: str = "information") -> float:
    """True asymptotic size of a nominal-level test run off the gamma surrogate.

    Computes the gamma upper quantile at the nominal level, then evaluates
    the exact asymptotic law there: values above `nominal` mean the gamma
    test rejects more often than advertised.
    """
    if not 0.0 < nominal < 1.0:
        raise ValueError("nominal level must lie in (0, 1)")
    g = gamma_params(m, spec.p + spec.q)
    xq = gamma_quantile(1.0 - nominal, g)
    spectrum = lambda_spectrum(spec, m, covariance)
    return 1.0 - imhof_cdf(xq, spectrum)
