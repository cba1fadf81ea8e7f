"""ARMA model specification, admissibility checks, and linear-process algebra.

Sign convention used throughout the package: both lag polynomials carry
minus signs,

    (1 - phi_1 B - ... - phi_p B^p) (X_t - mu) = (1 - theta_1 B - ... - theta_q B^q) a_t,

so an MA(1) with theta_1 = 0.4 has lag-1 autocovariance -0.4 * sigma2.
Ecosystems differ on the MA sign; everything here (simulation, residual
recursions, autocovariances, asymptotic matrices) assumes this one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, lfiltic

# Margin on the step-down partial autocorrelations: a polynomial counts as
# admissible when every partial lies in (-1 + PACF_MARGIN, 1 - PACF_MARGIN).
# Boundary-hugging polynomials degrade burn-in and the CSS recursion.
PACF_MARGIN = 1e-8


class NotAdmissibleError(ValueError):
    """A coefficient polynomial has a root on or inside the unit circle."""


def _as_coeff_array(x) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 1:
        raise ValueError("coefficient vector must be one-dimensional")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("coefficient vector must be finite")
    return a


@dataclass(frozen=True)
class ArmaSpec:
    """ARMA(p, q) parameter set: AR and MA coefficients, innovation variance, mean."""

    ar: tuple = ()
    ma: tuple = ()
    sigma2: float = 1.0
    mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(v) for v in _as_coeff_array(self.ar)))
        object.__setattr__(self, "ma", tuple(float(v) for v in _as_coeff_array(self.ma)))
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")

    @property
    def p(self) -> int:
        return len(self.ar)

    @property
    def q(self) -> int:
        return len(self.ma)

    @property
    def order(self) -> tuple[int, int]:
        return (self.p, self.q)


def poly_root_moduli(coeffs) -> np.ndarray:
    """Moduli of the roots of 1 - c1 z - ... - ck z^k.

    Degree 1 and 2 use closed forms; higher degrees use companion-matrix
    eigenvalues (trailing zero coefficients are trimmed first).  Used only
    where a decay rate is needed (burn-in length, series truncation);
    admissibility is decided by is_admissible_poly.
    """
    c = _as_coeff_array(coeffs)
    # trailing zeros lower the effective degree
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.array([])
    c = c[: nz[-1] + 1]
    k = c.size
    if k == 1:
        return np.array([abs(1.0 / c[0])])
    if k == 2:
        # roots of c2 z^2 + c1 z - 1 = 0; the cancellation-free form keeps the
        # large root accurate when c2 is tiny
        c1, c2 = c
        disc = c1 * c1 + 4.0 * c2
        if disc >= 0.0:
            sq = math.sqrt(disc)
            qq = -0.5 * (c1 + math.copysign(sq, c1) if c1 != 0.0 else sq)
            return np.abs(np.array([qq / c2, -1.0 / qq]))
        # complex pair: |root|^2 = |product of roots| = 1/|c2|
        mod = math.sqrt(1.0 / abs(c2))
        return np.array([mod, mod])
    # Companion-matrix eigenvalues of the REVERSED polynomial
    # w^k - c1 w^{k-1} - ... - ck, which is monic and therefore stable even
    # when the trailing coefficient ck is tiny (w = 1/z; w -> 0 is a root at
    # infinity).
    rev = np.concatenate(([1.0], -c))
    w = np.abs(np.roots(rev))
    with np.errstate(divide="ignore"):
        return np.where(w > 0.0, 1.0 / w, np.inf)


def pacf_to_coeffs(pacf) -> np.ndarray:
    """Levinson step-up: partial autocorrelations in (-1,1) to coefficients.

    The result is always an admissible polynomial vector (all roots outside
    the unit circle).
    """
    return step_up_jacobian(np.asarray(pacf, dtype=float))[0]


def step_up_jacobian(g) -> tuple[np.ndarray, np.ndarray]:
    """pacf_to_coeffs(g) and its Jacobian d coeffs / d g, by forward differentiation.

    g may carry leading batch axes (..., k); each vector is stepped up alone.
    """
    k = g.shape[-1]
    a = np.zeros(g.shape)
    D = np.zeros(g.shape + (k,))
    for j in range(k):
        if j:
            rev = a[..., j - 1 :: -1].copy()
            D[..., :j, :] = D[..., :j, :] - g[..., j, None, None] * D[..., j - 1 :: -1, :]
            D[..., :j, j] -= rev
            a[..., :j] -= g[..., j, None] * rev
        a[..., j] = g[..., j]
        D[..., j, j] = 1.0
    return a, D


def _step_down_rows(C) -> np.ndarray:
    """Levinson step-down (the Schur-Cohn test) of every row of C (rows, k).

    Returns the partials of each row.  Once a row's stage leaves (-1, 1)
    its lower stages are meaningless and may be non-finite.
    """
    a = np.array(C, dtype=float)
    for j in range(a.shape[1] - 1, 0, -1):
        # stage j leaves a[:, j] as its partial and steps the lower coefficients down
        pj = a[:, j, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a[:, :j] = (a[:, :j] + pj * a[:, j - 1 :: -1]) / (1.0 - pj * pj)
    return a


def coeffs_to_pacf(coeffs) -> np.ndarray:
    """Inverse of pacf_to_coeffs (Levinson step-down, the Schur-Cohn test).

    Requires an admissible coefficient vector; raises ValueError when a
    step-down stage leaves (-1, 1).
    """
    pacf = _step_down_rows(np.asarray(coeffs, dtype=float).reshape(1, -1))[0]
    bad = np.flatnonzero(~(np.abs(pacf) < 1.0))
    if bad.size:
        # stages run from the highest order down; the highest bad one failed first
        raise ValueError(f"coefficient vector is not admissible (stage {bad[-1] + 1})")
    return pacf


def admissible_rows(C, margin: float = PACF_MARGIN) -> np.ndarray:
    """is_admissible_poly of every row of C (rows, k)."""
    return (np.abs(_step_down_rows(C)) < 1.0 - margin).all(axis=1)


def is_admissible_poly(coeffs, margin: float = PACF_MARGIN) -> bool:
    """True iff every step-down partial of 1 - c1 z - ... - ck z^k has |partial| < 1 - margin.

    All partials inside (-1, 1) is equivalent to all roots outside the unit
    circle, so this decides admissibility exactly, without root finding.
    """
    try:
        c = _as_coeff_array(coeffs)
    except ValueError:
        return False
    return bool(admissible_rows(c[None], margin)[0])


def check_admissible(spec: ArmaSpec) -> bool:
    """True iff the spec is stationary (AR roots) and invertible (MA roots)."""
    return is_admissible_poly(spec.ar) and is_admissible_poly(spec.ma)


def require_admissible(spec: ArmaSpec) -> None:
    if not is_admissible_poly(spec.ar):
        raise NotAdmissibleError(f"AR polynomial is not stationary: phi={spec.ar}")
    if not is_admissible_poly(spec.ma):
        raise NotAdmissibleError(f"MA polynomial is not invertible: theta={spec.ma}")


def psi_weights_reciprocal(coeffs, count: int) -> np.ndarray:
    """First `count` series coefficients of 1 / (1 - c1 B - ... - ck B^k).

    psi_0 = 1, psi_j = sum_{i=1}^{min(j,k)} c_i psi_{j-i}.  The polynomial
    must have all roots outside the unit circle.
    """
    return arma_psi_weights(ArmaSpec(ar=coeffs), count)


def arma_psi_weights(spec: ArmaSpec, count: int) -> np.ndarray:
    """MA(infinity) weights of the full transfer function theta(B)/phi(B):
    its first `count` impulse-response values, from one lfilter call."""
    if count < 1:
        raise ValueError("count must be >= 1")
    require_admissible(spec)
    impulse = np.zeros(count)
    impulse[0] = 1.0
    return lfilter(np.concatenate(([1.0], -np.asarray(spec.ma))),
                   np.concatenate(([1.0], -np.asarray(spec.ar))), impulse)


def theoretical_acvf(spec: ArmaSpec, max_lag: int) -> np.ndarray:
    """Autocovariances gamma(0..max_lag) of the stationary ARMA process.

    Solves the (p+1)-dimensional linear system tying gamma(0..p) to the
    transfer-function weights and sigma2, then extends by the AR recursion
    (one lfilter call started from gamma(p..1)).
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    require_admissible(spec)
    p, q, s2 = spec.p, spec.q, spec.sigma2
    phi = np.asarray(spec.ar)
    eta = np.concatenate(([1.0], -np.asarray(spec.ma)))  # eta_0..eta_q
    psi = arma_psi_weights(spec, q + 1)

    # b_k = sigma2 * sum_{j=k}^{q} eta_j psi_{j-k},  k = 0..q
    b = np.array([s2 * np.dot(eta[k:], psi[: q + 1 - k]) for k in range(q + 1)])

    # equations k = 0..p:  gamma(k) - sum_i phi_i gamma(|k-i|) = b_k (0 for k > q)
    A = np.zeros((p + 1, p + 1))
    rhs = np.zeros(p + 1)
    for k in range(p + 1):
        A[k, k] += 1.0
        for i in range(1, p + 1):
            A[k, abs(k - i)] -= phi[i - 1]
        rhs[k] = b[k] if k <= q else 0.0
    head = np.linalg.solve(A, rhs)

    if max_lag <= p:
        return head[: max_lag + 1]
    # gamma(k) = sum_i phi_i gamma(k-i) + b_k for k > p, with b_k = 0 past q
    drive = np.zeros(max_lag + 1)
    drive[: min(q, max_lag) + 1] = b[: max_lag + 1]
    ar_poly = np.concatenate(([1.0], -phi))
    tail, _ = lfilter([1.0], ar_poly, drive[p + 1 :], zi=lfiltic([1.0], ar_poly, head[:0:-1]))
    return np.concatenate((head, tail))
