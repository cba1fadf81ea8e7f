"""Residual autocorrelations and portmanteau statistics.

Four statistics share the ResidualAcf input: the Ljung-Box and Box-Pierce
statistics, the generalized-variance statistic n(1 - |R_m|^{1/m}) built on
the determinant of the (m+1) x (m+1) residual autocorrelation matrix, and
its small-sample variant built on inflated autocorrelations.  The
determinant is computed by the Durbin-Levinson recursion, which detects
loss of positive definiteness for free via the partial autocorrelations.
portmanteau_rows holds the one formula of each statistic and computes every
lag count m from one pass up to the largest m; the one-series functions
(ljung_box, box_pierce, d_hat, and d_mod on its inflated autocorrelations)
read their values from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

STATISTIC_KINDS = ("ljung_box", "box_pierce", "d_hat", "d_mod")
# roundoff allowance on |r(k)| <= 1
ACF_SLACK = 1e-12


@dataclass(frozen=True)
class ResidualAcf:
    """Residual autocorrelations r(1..m) with the originating series length."""

    r: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or r.size != self.m:
            raise ValueError("r must be a vector of length m")
        if not (1 <= self.m < self.n):
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if np.any(np.abs(r) > 1.0 + ACF_SLACK):
            raise ValueError("autocorrelations must lie in [-1, 1]")

    def prefix(self, m: int) -> "ResidualAcf":
        """The lag 1..m autocorrelations of the same series (m <= self.m)."""
        return self if m == self.m else ResidualAcf(self.r[:m], self.n, m)


@dataclass(frozen=True)
class PortmanteauValue:
    """A portmanteau statistic value plus the bookkeeping its reference law needs."""

    statistic: float
    kind: str
    m: int
    fit_count: int

    def __post_init__(self):
        if self.kind not in STATISTIC_KINDS:
            raise ValueError(f"kind must be one of {STATISTIC_KINDS}")
        if not (np.isfinite(self.statistic) and self.statistic >= 0):
            raise ValueError(f"statistic must be finite and nonnegative, got {self.statistic}")


@dataclass(frozen=True)
class NotPositiveDefinite:
    """Result marker: the inflated autocorrelation matrix is not positive definite.

    `lag` is the first offending lag (inflated |r| >= 1 there, or the
    Durbin-Levinson partial left (-1, 1) at that order).
    """

    lag: int
    kind: str = "d_mod"


class NotPositiveDefiniteError(ValueError):
    """Raised by toeplitz_corr_det when the correlation matrix is not PD."""

    def __init__(self, lag: int, det_so_far: float):
        self.lag = lag
        self.det_so_far = det_so_far
        super().__init__(
            f"correlation matrix not positive definite: partial autocorrelation "
            f"at lag {lag} outside (-1, 1); determinant through lag {lag - 1} = {det_so_far:.6g}"
        )


def acf_rows(A, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag 1..m autocorrelations of every row of A (rows, n), and each row's sum of squares.

    r_i(k) = sum_{t>k} a_it a_i,t-k / sum_t a_it^2, one row-wise einsum per
    lag; a row whose sum of squares is zero gets nan.
    """
    denom = np.einsum("ij,ij->i", A, A)
    R = np.empty((A.shape[0], m))
    for k in range(1, m + 1):
        R[:, k - 1] = np.einsum("ij,ij->i", A[:, k:], A[:, :-k])
    with np.errstate(divide="ignore", invalid="ignore"):
        R /= denom[:, None]
    return R, denom


def acf_rows_valid(R, denom) -> np.ndarray:
    """Rows of acf_rows output that residual_acf would accept."""
    return (denom != 0.0) & ~np.any(np.abs(R) > 1.0 + ACF_SLACK, axis=1)


def residual_acf(residuals, m: int) -> ResidualAcf:
    """Lag 1..m autocorrelations r(k) = sum_{t>k} a_t a_{t-k} / sum_t a_t^2.

    The residuals enter as-is (no re-centering), so the estimate matches the
    fitted-residual convention rather than the generic sample ACF.  The
    one-row case of acf_rows.
    """
    a = np.asarray(residuals, dtype=float)
    if a.ndim != 1:
        raise ValueError("residuals must be a one-dimensional series")
    n = a.size
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    R, denom = acf_rows(a[None], m)
    if denom[0] == 0.0:
        raise ValueError("residuals are identically zero; autocorrelation undefined")
    return ResidualAcf(r=R[0], n=n, m=m)


def ljung_box(acf: ResidualAcf, fit_count: int, pvalue: bool = True):
    """Ljung-Box statistic n(n+2) sum (n-k)^{-1} r(k)^2 and its chi-squared p-value.

    The p-value uses m - fit_count degrees of freedom and requires
    m > fit_count; pass pvalue=False to get the statistic alone.
    """
    value = portmanteau_statistic(acf, "ljung_box", fit_count)
    return value, _chi2_pvalue(value) if pvalue else None


def box_pierce(acf: ResidualAcf, fit_count: int, pvalue: bool = True):
    """Box-Pierce statistic n sum r(k)^2 with the same chi-squared reference."""
    value = portmanteau_statistic(acf, "box_pierce", fit_count)
    return value, _chi2_pvalue(value) if pvalue else None


def _chi2_pvalue(value: PortmanteauValue) -> float:
    """Upper chi-squared tail on m - fit_count degrees of freedom (needs m > fit_count)."""
    df = value.m - value.fit_count
    if df <= 0:
        raise ValueError(f"p-value needs m > fit_count; got m={value.m}, "
                         f"fit_count={value.fit_count}")
    return float(stats.chi2.sf(value.statistic, df))


def durbin_levinson_rows(R) -> tuple[np.ndarray, np.ndarray]:
    """Partial autocorrelations of every row of R (rows, m): one Durbin-Levinson pass over rows.

    Returns (partials, lag): lag[i] is the first order whose partial leaves
    (-1, 1) (nan included), 0 when there is none; the partials of row i
    past lag[i] are meaningless.
    """
    R = np.asarray(R, dtype=float)
    rows, m = R.shape
    # reversed, contiguous: R_rev[:, m-k:] is r(k), ..., r(1)
    R_rev = R[:, ::-1].copy()
    partials = np.empty((rows, m))
    phi = np.empty((rows, m))  # order-k prediction coefficients in phi[:, :k]
    v = np.ones(rows)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m):
            if k == 0:
                pk = R[:, 0]
            else:
                pk = (R[:, k] - np.einsum("ij,ij->i", phi[:, :k], R_rev[:, m - k:])) / v
                phi[:, :k] -= pk[:, None] * phi[:, k - 1 :: -1]
            phi[:, k] = partials[:, k] = pk
            v = v * (1.0 - pk * pk)
    # every partial before a row's first bad one is valid, so that one is its failure
    valid = np.logical_and.accumulate(np.abs(partials) < 1.0, axis=1).sum(axis=1)
    return partials, np.where(valid < m, valid + 1, 0)


def durbin_levinson_partials(r) -> np.ndarray:
    """Partial autocorrelations from r(1..m): the one-row case of durbin_levinson_rows.

    Raises NotPositiveDefiniteError at the first order whose partial leaves
    (-1, 1), reporting the determinant accumulated so far.
    """
    partials, lag = durbin_levinson_rows(np.asarray(r, dtype=float)[None])
    lag = int(lag[0])
    if lag:
        det_so_far = np.prod(np.cumprod(1.0 - partials[0, : lag - 1] ** 2))
        raise NotPositiveDefiniteError(lag=lag, det_so_far=float(det_so_far))
    return partials[0]


def toeplitz_corr_det(acf: ResidualAcf) -> tuple[float, np.ndarray]:
    """Determinant of the (m+1) x (m+1) Toeplitz correlation matrix, plus partials.

    det = prod_{k=1..m} (1 - partial_k^2)^(m+1-k), accumulated from the
    Durbin-Levinson recursion in O(m^2).  Positive definiteness is
    equivalent to every partial lying strictly inside (-1, 1).
    """
    partials = durbin_levinson_partials(acf.r)
    m = acf.m
    powers = m + 1 - np.arange(1, m + 1)
    det = float(np.prod((1.0 - partials**2) ** powers))
    return det, partials


def d_hat(acf: ResidualAcf, fit_count: int = 0) -> PortmanteauValue:
    """Generalized-variance statistic n(1 - det^{1/m}).

    The determinant is that of the (m+1)-dimensional residual
    autocorrelation matrix; the exponent is 1/m (not 1/(m+1)).
    """
    return portmanteau_statistic(acf, "d_hat", fit_count)


def d_mod(acf: ResidualAcf, fit_count: int = 0):
    """Small-sample variant with inflated correlations; may be undefined.

    Each r(k) is replaced by sign-preserving sqrt((n+2)/(n-k)) * r(k) and
    the inflated sequence scored as d_hat is; it need not be a valid
    autocorrelation function, in which case a NotPositiveDefinite marker
    (first offending lag) is returned instead of a statistic.
    """
    n, m = acf.n, acf.m
    k = np.arange(1, m + 1)
    r_dd = acf.r * np.sqrt((n + 2.0) / (n - k))
    over = np.nonzero(np.abs(r_dd) >= 1.0)[0]
    if over.size:
        return NotPositiveDefinite(lag=int(over[0] + 1))
    values, lag = portmanteau_rows(r_dd[None], n, (m,), ("d_hat",))
    if lag[0]:
        return NotPositiveDefinite(lag=int(lag[0]))
    return PortmanteauValue(statistic=float(values[0, 0, 0]), kind="d_mod", m=m,
                            fit_count=fit_count)


def portmanteau_statistic(acf: ResidualAcf, kind: str, fit_count: int = 0) -> PortmanteauValue:
    """One statistic ("d_hat", "ljung_box" or "box_pierce") of one residual ACF.

    Read from portmanteau_table at m = acf.m; d_mod is excluded (it can be
    undefined).
    """
    stat = portmanteau_table(acf, (acf.m,), (kind,))[0, 0]
    return PortmanteauValue(statistic=float(stat), kind=kind, m=acf.m, fit_count=fit_count)


def portmanteau_rows(R, n: int, m_list, kinds) -> tuple[np.ndarray, np.ndarray]:
    """Every (m, kind) statistic of every row of R (rows, >= max m), one pass up to M = max(m_list).

    Returns (values, lag): values[i] has one row per entry of m_list and one
    column per entry of kinds ("d_hat", "ljung_box", "box_pierce"); lag is
    durbin_levinson_rows' failure lag (all 0 unless d_hat is requested),
    and a row with lag > 0 has no valid d_hat.  Ljung-Box and Box-Pierce
    are cumulative sums of their per-lag terms.  The Durbin-Levinson
    partials of r(1..m) are a prefix of those of r(1..M), so
    log det_m = sum_{k<=m} log v_k with v_k = prod_{j<=k} (1 - partial_j^2),
    and D_m = -n expm1(log det_m / m).
    """
    R = np.asarray(R, dtype=float)
    idx = np.asarray(m_list, dtype=int) - 1
    M = int(idx.max()) + 1
    if idx.min() < 0 or M > R.shape[1]:
        raise ValueError(f"lag counts must lie in 1..{R.shape[1]}, got {tuple(m_list)}")
    r = R[:, :M]
    lags = np.arange(1, M + 1)
    out = np.empty((R.shape[0], idx.size, len(kinds)))
    lag = np.zeros(R.shape[0], dtype=int)
    for col, kind in enumerate(kinds):
        if kind == "d_hat":
            partials, lag = durbin_levinson_rows(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_det = np.cumsum(np.cumsum(np.log1p(-partials * partials), axis=1), axis=1)
            # roundoff can leave a tiny negative when det ~ 1
            values = np.maximum(-n * np.expm1(log_det / lags), 0.0)
        elif kind == "ljung_box":
            values = n * (n + 2.0) * np.cumsum(r * r / (n - lags), axis=1)
        elif kind == "box_pierce":
            values = n * np.cumsum(r * r, axis=1)
        else:
            raise ValueError(f"unsupported statistic kind {kind!r}")
        out[:, :, col] = values[:, idx]
    return out, lag


def portmanteau_table(acf: ResidualAcf, m_list, kinds) -> np.ndarray:
    """Every (m, kind) statistic of one residual ACF: the one-row case of portmanteau_rows.

    Returns an array with one row per entry of m_list and one column per
    entry of kinds.  The Durbin-Levinson pass runs only when d_hat is
    requested; it raises NotPositiveDefiniteError when a partial at any
    lag <= max(m_list) leaves (-1, 1).
    """
    values, lag = portmanteau_rows(acf.r[None], acf.n, m_list, kinds)
    if lag[0]:
        durbin_levinson_partials(acf.r[: lag[0]])  # raises, with the determinant so far
    return values[0]
