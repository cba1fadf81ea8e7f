"""ARMA fitting by conditional sum of squares (CSS), searched by Levenberg-Marquardt.

Parameterization: each coefficient block (AR, MA) is given by partial
autocorrelations g = tanh(z), clipped to [-0.99999, 0.99999], and mapped to
polynomial coefficients by the Levinson step-up recursion.  Every point the
search can reach is stationary and invertible, so no penalty terms or
constraint handling are needed.  The mean is the sample mean (plug-in), not
jointly estimated.

Search: Levenberg-Marquardt on the residual vector a(z) (Marquardt 1963),
with the damping update of Nielsen (1999).  The residual Jacobian is exact
(Box & Jenkins, *Time Series Analysis*, ch. 7) and costs two lfilter calls
per point:

    da_t/dphi_i = -[theta(B)^{-1} x]_{t-i},    da_t/dtheta_j = [theta(B)^{-1} a]_{t-j},

chained through the derivative of the step-up recursion and of the clipped
tanh; no finite differences are taken.

Stopping rule: the search has converged when the next computed step is no
longer than xatol * (1 + max|z|) in every coordinate and the model predicts
it to lower the CSS by at most fatol relative.  It is cut after
max_iter_factor * (p + q) iterations (rejected trial steps count) and then
restarted from a perturbed start.  Beyond |z| ~ 6.1 the clip makes the CSS
flat in z: that coordinate's Jacobian column is zero, it receives no step,
and the search stops there with the clipped partial, which is admissible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

# pacf_to_coeffs and coeffs_to_pacf live in arma; they are re-exported here.
from .arma import (  # noqa: F401
    ArmaSpec,
    NotAdmissibleError,
    check_admissible,
    coeffs_to_pacf,
    pacf_to_coeffs,
    require_admissible,
    step_up_jacobian,
)
from .diagnostics import durbin_levinson_partials, residual_acf

# Partials are clipped here so the implied roots stay off the unit circle.
_PACF_CLIP = 0.99999


@dataclass(frozen=True)
class FittedModel:
    """CSS fit: estimated spec, residuals, objective value, optimizer status.

    `iterations` counts Levenberg-Marquardt iterations over all restarts,
    rejected trial steps included.
    """

    spec: ArmaSpec
    residuals: np.ndarray
    css: float
    converged: bool
    iterations: int
    n: int


@dataclass(frozen=True)
class FitOptions:
    """Knobs for fit_arma; defaults match the package-wide conventions.

    xatol is the step tolerance and fatol the relative objective tolerance
    of the search; max_iter_factor * (p + q) caps its iterations.
    """

    max_restarts: int = 3
    restart_seed: int = 20060619
    xatol: float = 1e-8
    fatol: float = 1e-10
    max_iter_factor: int = 600


def css_residuals(series, spec: ArmaSpec) -> np.ndarray:
    """Conditional-sum-of-squares residual recursion.

    a_t = x_t - sum phi_i x_{t-i} + sum theta_j a_{t-j} on the mean-centered
    series, with zero presample values; all n residuals are returned,
    including the presample-contaminated leading ones.
    """
    require_admissible(spec)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if x.size <= spec.p + spec.q:
        raise ValueError(f"series length {x.size} too short for ARMA({spec.p},{spec.q})")
    b = np.concatenate(([1.0], -np.asarray(spec.ar)))
    den = np.concatenate(([1.0], -np.asarray(spec.ma)))
    return lfilter(b, den, x - spec.mean)


def _sample_pacf(xc, p: int) -> np.ndarray:
    """First p sample partial autocorrelations of the centered series (Yule-Walker start values)."""
    r = residual_acf(xc, p).r
    try:
        partials = durbin_levinson_partials(r)
    except ValueError:
        partials = np.clip(r, -0.9, 0.9)
    return np.clip(partials, -0.95, 0.95)


class _CssProblem:
    """CSS residuals a(z) of the centered series and their Jacobian da/dz."""

    def __init__(self, xc: np.ndarray, p: int, q: int):
        self.xc, self.p, self.q = xc, p, q

    def point(self, z) -> tuple[np.ndarray, tuple]:
        """Residuals a(z) = phi(B) u, u = theta(B)^{-1} x, and the state jacobian() reuses.

        The state starts with the coefficient vectors phi and theta.
        """
        p, q, xc = self.p, self.q, self.xc
        t = np.tanh(z)
        g = np.clip(t, -_PACF_CLIP, _PACF_CLIP)
        phi, dphi = step_up_jacobian(g[:p])
        theta, dtheta = step_up_jacobian(g[p:])
        den = np.concatenate(([1.0], -theta))
        u = lfilter([1.0], den, xc) if q else xc
        a = u.copy()
        for i in range(1, p + 1):
            a[i:] -= phi[i - 1] * u[:-i]
        # the clip is flat: a clipped partial has zero derivative
        dg = np.where(np.abs(t) < _PACF_CLIP, 1.0 - t * t, 0.0)
        return a, (phi, theta, den, u, dphi * dg[:p], dtheta * dg[p:])

    def jacobian(self, a, state) -> np.ndarray:
        """The n x (p+q) matrix da/dz at the point that returned (a, state)."""
        p, q = self.p, self.q
        _, _, den, u, dphi, dtheta = state
        w = lfilter([1.0], den, a) if q else a  # theta(B)^{-1} a
        J = np.zeros((a.size, p + q))
        for i in range(1, p + 1):
            J[i:, i - 1] = -u[:-i]
        for j in range(1, q + 1):
            J[j:, p + j - 1] = w[:-j]
        if p:
            J[:, :p] = J[:, :p] @ dphi
        if q:
            J[:, p:] = J[:, p:] @ dtheta
        return J


def _levenberg_marquardt(problem: _CssProblem, z, max_iter: int, xatol: float,
                         fatol: float) -> tuple[np.ndarray, float, int, bool]:
    """Minimize |a(z)|^2 from z; returns (z, CSS, iterations, converged)."""
    a, state = problem.point(z)
    css = float(np.dot(a, a))
    J = problem.jacobian(a, state)
    A, grad = J.T @ J, J.T @ a
    mu = 1e-3 * (float(np.max(np.diag(A))) or 1.0)
    nu = 2.0
    eye = np.eye(z.size)
    for it in range(1, max_iter + 1):
        try:
            h = np.linalg.solve(A + mu * eye, -grad)
        except np.linalg.LinAlgError:
            h = np.full(z.size, np.nan)
        # reduction of the CSS predicted by the damped Gauss-Newton model
        predicted = float(np.dot(h, mu * h - grad))
        if (np.max(np.abs(h)) <= xatol * (1.0 + np.max(np.abs(z)))
                and predicted <= fatol * css):
            return z, css, it, True
        z_new = z + h
        a_new, state_new = problem.point(z_new)
        css_new = float(np.dot(a_new, a_new))
        gain = (css - css_new) / predicted if predicted > 0.0 else -1.0
        if np.isfinite(css_new) and gain > 0.0:
            z, a, css = z_new, a_new, css_new
            J = problem.jacobian(a, state_new)
            A, grad = J.T @ J, J.T @ a
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return z, css, max_iter, False


def fit_arma(series, p: int, q: int, options: FitOptions = FitOptions()) -> FittedModel:
    """Minimize the conditional sum of squares over the admissible region.

    Start values: Yule-Walker partials for the AR block, zeros for the MA
    block; on non-convergence the start is perturbed and the search rerun
    (up to options.max_restarts), keeping the best objective seen.  The
    innovation variance estimate is CSS/n.  Raises NotAdmissibleError (a
    ValueError) if roundoff carries the fitted spec out of the admissible
    region.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    if p < 0 or q < 0:
        raise ValueError("orders must be nonnegative")
    if n < max(30, 5 * (p + q)):
        raise ValueError(f"series length {n} below the fitting minimum {max(30, 5 * (p + q))}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    mu = float(np.mean(x))
    xc = x - mu
    if np.dot(xc, xc) == 0.0:
        raise ValueError("series is constant; nothing to fit")

    if p + q == 0:
        sigma2 = float(np.dot(xc, xc) / n)
        spec = ArmaSpec(ar=(), ma=(), sigma2=sigma2, mean=mu)
        return FittedModel(spec=spec, residuals=xc.copy(), css=float(np.dot(xc, xc)),
                           converged=True, iterations=0, n=n)

    problem = _CssProblem(xc, p, q)
    start = np.zeros(p + q)
    if p:
        start[:p] = np.arctanh(_sample_pacf(xc, p))
    max_iter = options.max_iter_factor * (p + q)

    best = None
    iterations = 0
    for attempt in range(1 + options.max_restarts):
        if attempt == 1:  # most fits converge without a restart and need no generator
            rng = np.random.default_rng(options.restart_seed)
        z0 = start if attempt == 0 else start + rng.normal(0.0, 0.5, size=p + q)
        z, css, used, converged = _levenberg_marquardt(problem, z0, max_iter,
                                                       options.xatol, options.fatol)
        iterations += used
        if best is None or css < best[1]:
            best = (z, css, converged)
        if converged:
            break
    z, _, converged = best

    resid, (phi, theta, *_) = problem.point(z)
    css = float(np.dot(resid, resid))
    spec = ArmaSpec(ar=tuple(phi), ma=tuple(theta), sigma2=max(css / n, 1e-300), mean=mu)
    # the clip keeps every point of the search admissible; only roundoff in
    # the step-up can leave the region, and that is a recoverable error
    if not check_admissible(spec):
        raise NotAdmissibleError(f"fit produced an inadmissible spec: {spec}")
    return FittedModel(spec=spec, residuals=resid, css=css,
                       converged=converged, iterations=int(iterations), n=n)
