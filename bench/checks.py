"""Correctness checks computed apart from gvport.

Every reference value here comes from the defining formula itself (plain
recursions, dense matrices, closed forms, numpy/scipy primitives) and never
from a gvport function, so a fault in the program cannot hide in its own
oracle.  Each check returns a list of error messages; an empty list passes.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import linalg, optimize, stats

# Published ARMA(1,1) gamma-distortion table (m=10, nominal 5%): rows are
# theta, columns phi over GRID; the diagonal (common factor) is empty.
GRID = (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)
PUBLISHED_DISTORTION = {
    -0.9: (None, 0.105, 0.091, 0.083, 0.085, 0.109),
    -0.6: (0.105, None, 0.069, 0.063, 0.065, 0.085),
    -0.3: (0.091, 0.692, None, 0.060, 0.063, 0.083),
    0.3: (0.083, 0.063, 0.060, None, 0.069, 0.091),
    0.6: (0.085, 0.065, 0.063, 0.069, None, 0.105),
    0.9: (0.108, 0.085, 0.083, 0.091, 0.105, None),
}
# The (phi=-0.6, theta=-0.3) cell prints 0.692, a transposition of its
# symmetric partner's 0.069; it is compared with the partner's value.
TRANSPOSED_CELL = (-0.6, -0.3)
TABLE_TOLERANCE = 0.002


def published_cells() -> dict:
    """(phi, theta) -> published distortion, for the 30 off-diagonal cells."""
    cells = {}
    for theta, row in PUBLISHED_DISTORTION.items():
        for phi, value in zip(GRID, row):
            if value is not None:
                cells[(phi, theta)] = value
    return cells


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# estimation and statistics (mc_test)

def css_residuals(x, ar, ma, mean) -> np.ndarray:
    """a_t = (x_t - mu) - sum phi_i (x_{t-i} - mu) + sum theta_j a_{t-j}, zero presample."""
    xc = [float(v) - mean for v in x]
    a = []
    for t, v in enumerate(xc):
        for i, c in enumerate(ar, start=1):
            if t >= i:
                v -= c * xc[t - i]
        for j, c in enumerate(ma, start=1):
            if t >= j:
                v += c * a[t - j]
        a.append(v)
    return np.array(a)


def autocorrelations(a, m: int) -> np.ndarray:
    """r(k) = sum_{t>k} a_t a_{t-k} / sum_t a_t^2, k = 1..m."""
    denom = float(np.dot(a, a))
    return np.array([np.dot(a[k:], a[:-k]) / denom for k in range(1, m + 1)])


def check_residuals(x, fitted: dict) -> list:
    """The reported fit's residual sum of squares must equal n * sigma2."""
    a = css_residuals(x, fitted["ar"], fitted["ma"], fitted["mean"])
    css = float(np.dot(a, a))
    want = len(x) * fitted["sigma2"]
    if _rel(css, want) > 1e-9:
        return [f"residual sum of squares {css!r} != n*sigma2 {want!r}"]
    return []


def check_ljung_box(x, fitted: dict, results: list, fit_count: int) -> list:
    """Ljung-Box statistic and chi-squared p-value recomputed from the residuals."""
    a = css_residuals(x, fitted["ar"], fitted["ma"], fitted["mean"])
    n = len(x)
    errors = []
    for row in results:
        m = row["m"]
        r = autocorrelations(a, m)
        q = n * (n + 2.0) * float(np.sum(r**2 / (n - np.arange(1, m + 1))))
        got = row["ljung_box"]
        if _rel(got["statistic"], q) > 1e-9:
            errors.append(f"m={m}: Ljung-Box {got['statistic']!r} != {q!r}")
        if m > fit_count:
            p = float(stats.chi2.sf(q, m - fit_count))
            if abs(got.get("p_value", math.nan) - p) > 1e-9:
                errors.append(f"m={m}: Ljung-Box p-value {got.get('p_value')!r} != {p!r}")
    return errors


def check_d_hat(x, fitted: dict, results: list) -> list:
    """D_m = n(1 - det^{1/m}) with det a dense (m+1)x(m+1) Toeplitz determinant."""
    a = css_residuals(x, fitted["ar"], fitted["ma"], fitted["mean"])
    n = len(x)
    errors = []
    for row in results:
        m = row["m"]
        det = np.linalg.det(linalg.toeplitz(np.concatenate(([1.0], autocorrelations(a, m)))))
        want = n * (1.0 - det ** (1.0 / m))
        got = row["d_hat"]["statistic"]
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            errors.append(f"m={m}: d_hat {got!r} != dense-determinant value {want!r}")
    return errors


def check_mc_p_values(results: list, N: int) -> list:
    """Every Monte-Carlo p-value must be (k+1)/(N+1) for an integer k in 0..N."""
    errors = []
    for row in results:
        k, p = row["mc"]["k"], row["mc"]["p_value"]
        if not (isinstance(k, int) and 0 <= k <= N) or abs(p - (k + 1) / (N + 1)) > 1e-12:
            errors.append(f"m={row['m']}: Monte-Carlo p-value {p!r} with k={k!r} is not "
                          f"(k+1)/(N+1) for N={N}")
    return errors


# Box bounds of the independent minimiser: for ARMA(1,1) they are the
# stationary and invertible region less a margin.
_COEFF_BOUND = 0.9999
_MINIMUM_STARTS = ((0.0, 0.0), (0.6, -0.6), (-0.6, 0.6))


def check_css_minimum(x, fitted: dict, rel_tol: float = 1e-9) -> list:
    """No bounded least-squares search on an ARMA(1,1) may find a lower CSS than the fit."""
    (phi,), (theta,), mean = fitted["ar"], fitted["ma"], fitted["mean"]
    a = css_residuals(x, (phi,), (theta,), mean)
    reported = float(np.dot(a, a))
    best = math.inf
    for z0 in ((phi, theta),) + _MINIMUM_STARTS:
        res = optimize.least_squares(
            lambda z: css_residuals(x, z[:1], z[1:], mean), np.clip(z0, -0.99, 0.99),
            bounds=(-_COEFF_BOUND, _COEFF_BOUND), xtol=1e-12, ftol=1e-12, gtol=1e-12)
        best = min(best, 2.0 * res.cost)
    if best < reported * (1.0 - rel_tol):
        return [f"fit is not the CSS minimum: reported CSS {reported!r}, "
                f"independent minimiser found {best!r}"]
    return []


# ---------------------------------------------------------------------------
# asymptotic law (asymptotic)

def arma_spectrum(ar, ma, m: int) -> np.ndarray:
    """Closed-form asymptotic weights for AR(1), MA(1) or ARMA(1,1), descending.

    X holds phi^i and theta^i (i = 0..m-1), J the full-series Gram matrix
    with entries 1/(1-phi^2), 1/(1-phi*theta), 1/(1-theta^2); the weights
    are the eigenvalues of W^{1/2} (I - X J^{-1} X') W^{1/2}, W = diag((m-i)/m).
    """
    coeffs = [float(c) for c in (*ar, *ma)]
    if len(ar) > 1 or len(ma) > 1:
        raise ValueError("closed form covers orders up to (1, 1)")
    i = np.arange(m)
    X = np.column_stack([c**i for c in coeffs]) if coeffs else np.zeros((m, 0))
    J = np.array([[1.0 / (1.0 - u * v) for v in coeffs] for u in coeffs])
    C = np.eye(m) - (X @ np.linalg.solve(J, X.T) if coeffs else 0.0)
    sw = np.sqrt((m - i) / m)
    return np.linalg.eigvalsh(sw[:, None] * C * sw[None, :])[::-1]


def check_spectrum(lambdas, ar, ma, m: int, tol: float = 1e-10) -> list:
    want = arma_spectrum(ar, ma, m)
    got = np.asarray(lambdas, dtype=float)
    if got.shape != want.shape:
        return [f"spectrum has {got.size} weights, want {want.size}"]
    err = float(np.max(np.abs(got - want)))
    if err > tol:
        return [f"spectrum of ar={tuple(ar)} ma={tuple(ma)} m={m} differs from the "
                f"closed form by {err:.3e}"]
    return []


def check_table(values: dict) -> list:
    """Each (phi, theta) distortion within the table tolerance of the published cell."""
    published = published_cells()
    errors = []
    for (phi, theta), got in values.items():
        want = published[(theta, phi) if (phi, theta) == TRANSPOSED_CELL else (phi, theta)]
        if abs(got - want) > TABLE_TOLERANCE:
            errors.append(f"distortion at phi={phi} theta={theta} is {got:.4f}, "
                          f"published {want:.3f}")
    return errors


def check_symmetry(values: dict, tol: float = 1e-8) -> list:
    """gamma distortion must be unchanged when phi and theta are swapped."""
    errors = []
    for (phi, theta), got in values.items():
        partner = values.get((theta, phi))
        if partner is not None and abs(got - partner) > tol:
            errors.append(f"distortion at phi={phi} theta={theta} is {got!r}, "
                          f"at the swapped cell {partner!r}")
    return errors


def sample_weighted_chi2(lambdas, draws: int, rng, chunk: int = 20_000) -> np.ndarray:
    """Sorted draws of sum_i lambda_i chi2_1."""
    lam = np.asarray(lambdas, dtype=float)
    out = np.empty(draws)
    for lo in range(0, draws, chunk):
        hi = min(lo + chunk, draws)
        out[lo:hi] = (rng.standard_normal((hi - lo, lam.size)) ** 2) @ lam
    out.sort()
    return out


def check_quantiles(probs, quantiles, sorted_draws, z: float = 5.0) -> list:
    """Empirical CDF of the draws at each quantile must lie within z standard errors of p."""
    M = sorted_draws.size
    errors = []
    for p, q in zip(probs, quantiles):
        f = np.searchsorted(sorted_draws, q, side="right") / M
        band = z * math.sqrt(p * (1.0 - p) / M)
        if abs(f - p) > band:
            errors.append(f"quantile {q!r} at p={p}: empirical CDF {f:.5f} outside "
                          f"p +- {band:.5f}")
    return errors


# Spectra in which every weight appears twice: the law is a sum of
# exponentials with a closed-form tail.
PAIRED_SPECTRA = ((1.0, 1.0), (1.0, 1.0, 0.5, 0.5), (0.9, 0.9, 0.6, 0.6, 0.3, 0.3, 0.1, 0.1))


def hypoexponential_tail(x: float, distinct) -> float:
    """P(sum_i lambda_i chi2_2 > x) = sum_i prod_{j!=i} lambda_i/(lambda_i-lambda_j) e^{-x/(2 lambda_i)}."""
    total = 0.0
    for i, li in enumerate(distinct):
        w = math.prod(li / (li - lj) for j, lj in enumerate(distinct) if j != i)
        total += w * math.exp(-x / (2.0 * li))
    return total


def check_imhof_hypoexponential(cdf, tol: float = 1e-8) -> list:
    errors = []
    for lam in PAIRED_SPECTRA:
        distinct = lam[::2]
        mean = sum(lam)
        for x in (0.25 * mean, 0.5 * mean, mean, 2.0 * mean, 4.0 * mean):
            want = 1.0 - hypoexponential_tail(x, distinct)
            got = cdf(x, np.array(lam))
            if abs(got - want) > tol:
                errors.append(f"imhof_cdf({x:.4g}, {lam}) = {got!r}, closed form {want!r}")
    return errors


CHI2_DOF = (1, 3, 10)
# (degrees of freedom, probability) of the quantile checks; few weights mean
# slow Fourier-tail integrals, so one such quantile is checked.
CHI2_QUANTILES = ((1, 0.95), (10, 0.05), (10, 0.95))


def check_imhof_chi2(cdf, quantile, tol: float = 1e-8) -> list:
    """Equal unit weights: the law is chi-squared with len(weights) degrees of freedom."""
    errors = []
    for k in CHI2_DOF:
        for p in (0.05, 0.5, 0.95):
            got = cdf(float(stats.chi2.ppf(p, k)), np.ones(k))
            if abs(got - p) > tol:
                errors.append(f"imhof_cdf at the chi2_{k} {p}-quantile = {got!r}")
    for k, p in CHI2_QUANTILES:
        want = float(stats.chi2.ppf(p, k))
        got = quantile(p, np.ones(k))
        if _rel(got, want) > tol:
            errors.append(f"imhof_quantile({p}) for chi2_{k} = {got!r}, want {want!r}")
    return errors


# ---------------------------------------------------------------------------
# Monte-Carlo size (oracle_size)

def parse_study_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def exact_mc_size(alpha: float, N: int) -> float:
    """floor(alpha (N+1)) / (N+1): the size of an MC test with known parameters."""
    return math.floor(alpha * (N + 1) + 1e-9) / (N + 1)


def check_pooled_size(rows: list, levels, N: int, series: int, z: float = 4.5) -> list:
    """Pooled rejection rate at each level within a binomial band around the exact size.

    The band uses `series`, the number of independent outer series, as the
    trial count: cells that share a series (other m, other statistic) are
    correlated, so this is the conservative choice.
    """
    errors = []
    for alpha in levels:
        est = [float(r["estimate"]) for r in rows if math.isclose(float(r["alpha"]), alpha)]
        if not est:
            errors.append(f"no rows at level {alpha}")
            continue
        rate = float(np.mean(est))
        size = exact_mc_size(alpha, N)
        band = z * math.sqrt(size * (1.0 - size) / series)
        if abs(rate - size) > band:
            errors.append(f"pooled rejection rate {rate:.4f} at level {alpha} outside "
                          f"{size:.4f} +- {band:.4f}")
    return errors


def check_identical(a: bytes, b: bytes, what: str) -> list:
    return [] if a == b else [f"{what}: outputs differ"]
