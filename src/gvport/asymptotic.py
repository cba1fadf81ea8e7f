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

The integral is truncated at Imhof's (1961) bound applied to the k largest
weights, with the k that gives the smallest truncation point; dropping
factors of rho only loosens the bound, so it stays rigorous while tiny
weights no longer push it out.  theta and rho are evaluated as numpy
arrays on fixed 20-node Gauss-Legendre panels: the first is 1/||lambda||
wide, widths double up to two periods 4 pi/x of the oscillation and then
stay there.  The panels stop at the truncation point or after 200 periods;
only in the second case, in practice for spectra with very few weights,
does the rest run as a sin/cos-weighted Fourier integral (scalar `quad`).
Quantiles come from a safeguarded Newton iteration started at the quantile
of the gamma law with the mixture's mean and variance; its density,
(1/2 pi) int_0^inf cos(theta(u)) / rho(u) du, uses the same panels.

A two-moment gamma surrogate with shape alpha and RATE beta is provided for
comparison, together with the size distortion a nominal-level gamma test
suffers relative to the exact asymptotic law.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.integrate import quad

from .arma import ArmaSpec, poly_root_moduli, psi_weights_reciprocal, require_admissible

# eigenvalues this small contribute nothing and break the truncation bound
EIGENVALUE_FLOOR = 1e-12
# Imhof inversion: bound on the truncated tail, Gauss-Legendre nodes per
# panel, widest panel and direct range in periods of cos(x u/2), values per
# temporary, Newton stopping rule
_TAIL_TOL = 1e-9
_GL_ORDER = 20
_PANEL_PERIODS = 2.0
_DIRECT_PERIODS = 200.0
_BLOCK_ELEMENTS = 1 << 16
_QUANTILE_RTOL = 1e-11
_NEWTON_MAX_STEPS = 100
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
    moduli = [poly_root_moduli(c) for c in (spec.ar, spec.ma) if len(c)]
    # an all-zero coefficient tuple has no roots and finitely many weights
    r = min((m.min() for m in moduli if len(m)), default=math.inf)
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


def _truncation_point(lam: np.ndarray, tail_tol: float) -> float:
    """Imhof's truncation point for weights sorted descending, over the k largest.

    Beyond U the integrand is at most 1/(u rho(u)) <= u^{-1-k/2} / prod_{r<=k}
    sqrt(lambda_r) for any k (the dropped factors of rho are >= 1), so the
    tail is <= [pi (k/2) U^{k/2} prod_{r<=k} sqrt(lambda_r)]^{-1}.  Setting
    that to tail_tol gives one U per k; the smallest is returned.
    """
    k = np.arange(1.0, lam.size + 1.0)
    log_u = (2.0 / k) * -(math.log(math.pi * tail_tol) + np.log(0.5 * k)
                          + 0.5 * np.cumsum(np.log(lam)))
    return math.exp(min(float(np.min(log_u)), 700.0))


def _panel_edges(x: float, lam: np.ndarray, stop: float) -> np.ndarray:
    """Edges of the Gauss-Legendre panels on [0, stop].

    The first panel is 1/||lambda|| wide (the scale on which 1/rho falls off
    near 0; 1/lambda_max for a single weight); widths then double, up to
    _PANEL_PERIODS periods 4 pi/x of the oscillation, and stay there.
    """
    cap = min(_PANEL_PERIODS * 4.0 * math.pi / x, stop)
    first = min(1.0 / math.sqrt(float(np.dot(lam, lam))), cap)
    widths = np.minimum(first * 2.0 ** np.arange(math.ceil(math.log2(cap / first)) + 1), cap)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    if edges[-1] < stop:
        extra = math.ceil((stop - edges[-1]) / cap)
        edges = np.concatenate((edges, edges[-1] + cap * np.arange(1.0, extra + 1.0)))
    return np.append(edges[edges < stop], stop)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_ORDER-point rule on [-1, 1], built on first use.

    Built lazily because leggauss solves an eigenproblem, whose first LAPACK
    call grows the process by about 0.7 MB even where no CDF is computed.
    """
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _direct_range(x: float, lam: np.ndarray, stop: float) -> tuple[float, float]:
    """Integrals over [0, stop] of sin theta(u)/(u rho(u)) and of cos theta(u)/rho(u).

    Fixed Gauss-Legendre panels (_panel_edges); theta and rho are evaluated on
    blocks of nodes so that each temporary holds at most _BLOCK_ELEMENTS values.
    """
    nodes, weights = _gauss_legendre()
    edges = _panel_edges(x, lam, stop)
    half = 0.5 * np.diff(edges)
    u = (edges[:-1, None] + half[:, None] * (1.0 + nodes)).ravel()
    w = (half[:, None] * weights).ravel()
    sin_sum = cos_sum = 0.0
    step = max(1, _BLOCK_ELEMENTS // lam.size)
    for lo in range(0, u.size, step):
        ub = u[lo : lo + step]
        z = np.multiply.outer(ub, lam)
        theta = 0.5 * np.sum(np.arctan(z), axis=1) - 0.5 * x * ub
        z *= z
        z += 1.0
        # 1/rho = prod (1 + z^2)^{-1/4}; the reciprocals can only underflow
        wa = w[lo : lo + step] * np.sqrt(np.sqrt(np.prod(np.reciprocal(z, out=z), axis=1)))
        sin_sum += float(np.dot(wa, np.sin(theta) / ub))
        cos_sum += float(np.dot(wa, np.cos(theta)))
    return sin_sum, cos_sum


def _fourier_tail(x: float, lam: np.ndarray, start: float) -> float:
    """Integral over [start, inf) of sin theta(u)/(u rho(u)) as two Fourier integrals.

    sin theta = sin(phase) cos(x u/2) - cos(phase) sin(x u/2), phase =
    (1/2) sum arctan(lambda u); each part runs through quad's weighted
    semi-infinite rule, which stays accurate for one or two weights, where
    the amplitude decays only like u^{-3/2} or u^{-2}.
    """

    def amplitude(trig):
        def f(u):
            z = lam * u
            return (trig(0.5 * float(np.sum(np.arctan(z))))
                    * math.exp(-0.25 * float(np.sum(np.log1p(z * z)))) / u)
        return f

    options = dict(wvar=0.5 * x, epsabs=1e-12, limlst=300, limit=500)
    ic, _ = quad(amplitude(math.sin), start, np.inf, weight="cos", **options)
    is_, _ = quad(amplitude(math.cos), start, np.inf, weight="sin", **options)
    return ic - is_


def _direct_stop(x: float, lam: np.ndarray, tail_tol: float) -> tuple[float, float]:
    """(truncation point, end of the panel range): the panels stop after 200 periods."""
    bound = _truncation_point(lam, tail_tol)
    return bound, min(bound, _DIRECT_PERIODS * 4.0 * math.pi / x)


def _imhof_upper_tail(x: float, lam: np.ndarray, tail_tol: float = _TAIL_TOL) -> float:
    """P(sum lambda_r chi2_1 > x) by characteristic-function inversion.

    lam holds positive weights sorted descending.  The integral is truncated
    at the smallest Imhof bound over the k largest weights
    (_truncation_point), so tiny weights do not push it out.  Fixed
    Gauss-Legendre panels (_direct_range: 20 nodes, widths from 1/||lambda||
    doubling up to two periods of the oscillation) cover
    [0, min(bound, 200 periods)].  Only when the bound lies beyond 200
    periods, in practice for spectra with very few weights, does the rest
    run as a weighted Fourier integral (_fourier_tail).
    """
    bound, stop = _direct_stop(x, lam, tail_tol)
    total, _ = _direct_range(x, lam, stop)
    if stop < bound:
        total += _fourier_tail(x, lam, stop)
    return 0.5 + total / math.pi


def _imhof_density(x: float, lam: np.ndarray) -> float:
    """Density (1/2 pi) int_0^inf cos theta(u)/rho(u) du over the panels of the CDF.

    Without the Fourier tail the value is approximate for one or two weights,
    which only slows the Newton steps that use it.
    """
    _, stop = _direct_stop(x, lam, _TAIL_TOL)
    return _direct_range(x, lam, stop)[1] / (2.0 * math.pi)


def _positive_weights(spectrum: EigenSpectrum | np.ndarray) -> np.ndarray:
    """Weights above EIGENVALUE_FLOOR, sorted descending; an all-zero spectrum is rejected."""
    lam = spectrum.lambdas if isinstance(spectrum, EigenSpectrum) else np.asarray(spectrum, float)
    lam = np.sort(lam[lam > EIGENVALUE_FLOOR])[::-1]
    if lam.size == 0:
        raise ValueError("all eigenvalues are zero; the asymptotic law is degenerate")
    return lam


def imhof_cdf(x: float, spectrum: EigenSpectrum | np.ndarray) -> float:
    """F(x) = P(sum lambda_r chi2_{1,r} <= x), clipped to [0, 1].

    Zero eigenvalues are dropped before integration; an all-zero spectrum
    and a NaN or negative x are rejected, and F(+inf) = 1.  Absolute
    accuracy is ~1e-10 (truncation bound 1e-9).
    """
    lam = _positive_weights(spectrum)
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    upper = _imhof_upper_tail(x, lam)
    return min(max(1.0 - upper, 0.0), 1.0)


def imhof_quantile(prob: float, spectrum: EigenSpectrum | np.ndarray) -> float:
    """Inverse of imhof_cdf by safeguarded Newton iteration.

    Starts from the quantile of the gamma law with the mean sum(lambda) and
    variance 2 sum(lambda^2) of the mixture; each step takes F from
    imhof_cdf and the density from _imhof_density, and keeps a bracket
    [lo, hi] around the root: a step that leaves it bisects (or doubles x
    while no upper end is known).  Stops when a step moves x by at most
    1e-11 relative.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly between 0 and 1")
    lam = _positive_weights(spectrum)
    mean, var = float(np.sum(lam)), 2.0 * float(np.dot(lam, lam))
    x = float(stats.gamma.ppf(prob, mean * mean / var, scale=var / mean))
    if not x > 0.0:
        x = mean
    lo, hi = 0.0, math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        F = imhof_cdf(x, lam)
        if F < prob:
            lo = x
        elif F > prob:
            hi = x
        else:
            return x
        density = _imhof_density(x, lam)
        nxt = x + (prob - F) / density if density > 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        if abs(nxt - x) <= _QUANTILE_RTOL * nxt:
            return nxt
        x = nxt
    raise ArithmeticError(f"quantile iteration did not converge (bracket [{lo!r}, {hi!r}])")


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
    return gamma_test_size(g, lambda_spectrum(spec, m, covariance), nominal)


def gamma_test_size(g: GammaApprox, spectrum, nominal: float = 0.05) -> float:
    """gamma_distortion from an already computed surrogate and spectrum.

    The exact asymptotic upper tail at the gamma quantile of 1 - nominal,
    for nominal in (0, 1).
    """
    return 1.0 - imhof_cdf(gamma_quantile(1.0 - nominal, g), spectrum)
