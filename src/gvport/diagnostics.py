"""Residual autocorrelations and portmanteau statistics.

Three statistics share the ResidualAcf input: the Ljung-Box statistic, the
generalized-variance statistic n(1 - |R_m|^{1/m}) built on the determinant
of the (m+1) x (m+1) residual autocorrelation matrix, and its small-sample
variant built on inflated autocorrelations.  The determinant is computed by
the Durbin-Levinson recursion, which detects loss of positive definiteness
for free via the partial autocorrelations.  portmanteau_table computes the
first three for every lag count m from one pass up to the largest m.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

STATISTIC_KINDS = ("ljung_box", "box_pierce", "d_hat", "d_mod")


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
        if np.any(np.abs(r) > 1.0 + 1e-12):
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


def residual_acf(residuals, m: int) -> ResidualAcf:
    """Lag 1..m autocorrelations r(k) = sum_{t>k} a_t a_{t-k} / sum_t a_t^2.

    The residuals enter as-is (no re-centering), so the estimate matches the
    fitted-residual convention rather than the generic sample ACF.
    """
    a = np.asarray(residuals, dtype=float)
    if a.ndim != 1:
        raise ValueError("residuals must be a one-dimensional series")
    n = a.size
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    denom = np.dot(a, a)
    if denom == 0.0:
        raise ValueError("residuals are identically zero; autocorrelation undefined")
    r = np.empty(m)
    for k in range(1, m + 1):
        r[k - 1] = np.dot(a[k:], a[:-k]) / denom
    return ResidualAcf(r=r, n=n, m=m)


def ljung_box(acf: ResidualAcf, fit_count: int, pvalue: bool = True):
    """Ljung-Box statistic n(n+2) sum (n-k)^{-1} r(k)^2 and its chi-squared p-value.

    The p-value uses m - fit_count degrees of freedom and requires
    m > fit_count; pass pvalue=False to get the statistic alone.
    """
    n, m, r = acf.n, acf.m, acf.r
    k = np.arange(1, m + 1)
    q = n * (n + 2.0) * np.sum(r**2 / (n - k))
    value = PortmanteauValue(statistic=float(q), kind="ljung_box", m=m, fit_count=fit_count)
    return value, _chi2_pvalue(value) if pvalue else None


def box_pierce(acf: ResidualAcf, fit_count: int, pvalue: bool = True):
    """Box-Pierce statistic n sum r(k)^2 with the same chi-squared reference."""
    n, m, r = acf.n, acf.m, acf.r
    q = n * np.sum(r**2)
    value = PortmanteauValue(statistic=float(q), kind="box_pierce", m=m, fit_count=fit_count)
    return value, _chi2_pvalue(value) if pvalue else None


def _chi2_pvalue(value: PortmanteauValue) -> float:
    """Upper chi-squared tail on m - fit_count degrees of freedom (needs m > fit_count)."""
    df = value.m - value.fit_count
    if df <= 0:
        raise ValueError(f"p-value needs m > fit_count; got m={value.m}, "
                         f"fit_count={value.fit_count}")
    return float(stats.chi2.sf(value.statistic, df))


def durbin_levinson_partials(r) -> np.ndarray:
    """Partial autocorrelations from r(1..m).

    Raises NotPositiveDefiniteError at the first order whose partial leaves
    (-1, 1), reporting the determinant accumulated so far.  The recursion
    runs on Python floats: for the short vectors here that is cheaper than
    one numpy call per order.
    """
    rho = np.asarray(r, dtype=float).tolist()
    m = len(rho)
    partials = np.zeros(m)
    det_so_far = 1.0
    phi = []  # order-k prediction coefficients
    prev_v = 1.0
    for k in range(m):
        pk = rho[0] if k == 0 else (
            rho[k] - sum([c * rj for c, rj in zip(phi, rho[k - 1 :: -1])])) / prev_v
        if not abs(pk) < 1.0:  # also rejects nan
            raise NotPositiveDefiniteError(lag=k + 1, det_so_far=det_so_far)
        phi = [c - pk * d for c, d in zip(phi, phi[::-1])]
        phi.append(pk)
        partials[k] = pk
        prev_v *= 1.0 - pk * pk
        det_so_far *= prev_v
    return partials


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
    stat = portmanteau_table(acf, (acf.m,), ("d_hat",))[0, 0]
    return PortmanteauValue(statistic=float(stat), kind="d_hat", m=acf.m, fit_count=fit_count)


def d_mod(acf: ResidualAcf, fit_count: int = 0):
    """Small-sample variant with inflated correlations; may be undefined.

    Each r(k) is replaced by sign-preserving sqrt((n+2)/(n-k)) * r(k); the
    inflated sequence need not be a valid autocorrelation function, in which
    case a NotPositiveDefinite marker (first offending lag) is returned
    instead of a statistic.
    """
    n, m = acf.n, acf.m
    k = np.arange(1, m + 1)
    inflate = np.sqrt((n + 2.0) / (n - k))
    r_dd = acf.r * inflate
    over = np.nonzero(np.abs(r_dd) >= 1.0)[0]
    if over.size:
        return NotPositiveDefinite(lag=int(over[0] + 1))
    try:
        det, _ = toeplitz_corr_det(ResidualAcf(r_dd, n, m))
    except NotPositiveDefiniteError as err:
        return NotPositiveDefinite(lag=err.lag)
    stat = n - n * det ** (1.0 / m)
    return PortmanteauValue(statistic=max(float(stat), 0.0), kind="d_mod", m=m, fit_count=fit_count)


def portmanteau_statistic(acf: ResidualAcf, kind: str, fit_count: int = 0) -> PortmanteauValue:
    """Dispatch by statistic kind; d_mod is excluded (it can be undefined)."""
    if kind == "d_hat":
        return d_hat(acf, fit_count)
    if kind == "ljung_box":
        return ljung_box(acf, fit_count, pvalue=False)[0]
    if kind == "box_pierce":
        return box_pierce(acf, fit_count, pvalue=False)[0]
    raise ValueError(f"unsupported statistic kind {kind!r}")


def portmanteau_table(acf: ResidualAcf, m_list, kinds) -> np.ndarray:
    """Every (m, kind) statistic of one residual ACF in one pass up to M = max(m_list).

    Returns an array with one row per entry of m_list and one column per
    entry of kinds ("d_hat", "ljung_box", "box_pierce").  Ljung-Box and
    Box-Pierce are cumulative sums of their per-lag terms.  The
    Durbin-Levinson partials of r(1..m) are a prefix of those of r(1..M),
    so log det_m = sum_{k<=m} log v_k with v_k = prod_{j<=k} (1 - partial_j^2),
    and D_m = -n expm1(log det_m / m).  The Durbin-Levinson pass runs only
    when d_hat is requested; it raises NotPositiveDefiniteError when a
    partial at any lag <= M leaves (-1, 1).
    """
    rows = np.asarray(m_list, dtype=int) - 1
    M = int(rows.max()) + 1
    if rows.min() < 0 or M > acf.m:
        raise ValueError(f"lag counts must lie in 1..{acf.m}, got {tuple(m_list)}")
    n = acf.n
    r = acf.r[:M]
    out = np.empty((rows.size, len(kinds)))
    for col, kind in enumerate(kinds):
        if kind == "d_hat":
            partials = durbin_levinson_partials(r)
            log_det = np.cumsum(np.cumsum(np.log1p(-partials * partials)))
            # roundoff can leave a tiny negative when det ~ 1
            values = np.maximum(-n * np.expm1(log_det / np.arange(1, M + 1)), 0.0)
        elif kind == "ljung_box":
            values = n * (n + 2.0) * np.cumsum(r * r / (n - np.arange(1, M + 1)))
        elif kind == "box_pierce":
            values = n * np.cumsum(r * r)
        else:
            raise ValueError(f"unsupported statistic kind {kind!r}")
        out[:, col] = values[rows]
    return out
