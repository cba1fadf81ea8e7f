"""ARMA fitting by conditional sum of squares (CSS), searched by Levenberg-Marquardt.

Parameterization: each coefficient block (AR, MA) is given by partial
autocorrelations g = tanh(z), clipped to [-0.99999, 0.99999], and mapped to
polynomial coefficients by the Levinson step-up recursion.  Every point the
search can reach is stationary and invertible, so no penalty terms or
constraint handling are needed.  The mean is the sample mean (plug-in), not
jointly estimated.

Search: Levenberg-Marquardt on the residual vector a(z) (Marquardt 1963),
with the damping update of Nielsen (1999).  The residual Jacobian is exact
(Box & Jenkins, *Time Series Analysis*, ch. 7) and costs two theta(B)^{-1}
filters per point:

    da_t/dphi_i = -[theta(B)^{-1} x]_{t-i},    da_t/dtheta_j = [theta(B)^{-1} a]_{t-j},

chained through the derivative of the step-up recursion and of the clipped
tanh; no finite differences are taken.

Rows: fit_arma_rows runs one search over the rows of a (rows, n) array,
and fit_arma is its one-row case.  Each row has its own damping,
acceptance and stopping, and leaves the active set when it stops; rows
still unconverged restart together.  theta(B)^{-1} with per-row
coefficients is inverse_ma_rows, bit-identical to lfilter: a loop over t
vectorized over rows, or lfilter row by row when few rows are active
(LFILTER_STEPS).  Every step computes a row from that row alone, with the
same operations in the same order for any number of rows (row-wise
einsum for every sum over t, never a reduction across rows), so a row's
fit does not depend on the rows fitted with it.

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
    admissible_rows,
    coeffs_to_pacf,
    pacf_to_coeffs,
    require_admissible,
    step_up_jacobian,
)
from .diagnostics import acf_rows, acf_rows_valid, durbin_levinson_rows

# Partials are clipped here so the implied roots stay off the unit circle.
_PACF_CLIP = 0.99999
# One lfilter call on one row costs about as much as LFILTER_STEPS steps of
# inverse_ma_rows' loop over t per MA coefficient (measured for n = 200 and
# 512, q = 1 and 2: about 13 us against 2 us), so the loop pays off only
# above n * q / LFILTER_STEPS rows.
LFILTER_STEPS = 6


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


@dataclass(frozen=True)
class RowFits:
    """fit_arma_rows output: one fit per row of the input.

    errors[i] is the ValueError fit_arma raises for row i, or None; the
    other fields of a failed row are meaningless.
    """

    ar: np.ndarray  # (rows, p)
    ma: np.ndarray  # (rows, q)
    mean: np.ndarray
    residuals: np.ndarray  # (rows, n)
    css: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    errors: list


def _rowdot(a, b) -> np.ndarray:
    """sum_j a_ij b_ij for each row i; a row's value does not depend on the other rows."""
    return np.einsum("ij,ij->i", a, b)


def inverse_ma_rows(X, theta) -> np.ndarray:
    """theta_i(B)^{-1} applied to row i of X (rows, n), zero presample, for q = theta.shape[1] >= 1.

    Row i equals lfilter([1], [1, -theta_i], X[i]) bit for bit.  With more
    than n * q / LFILTER_STEPS rows one loop over t serves all rows, adding
    the terms in lfilter's order (theta_q y_{t-q} first, x_t last);
    otherwise lfilter runs row by row.
    """
    rows, q = theta.shape
    n = X.shape[1]
    if rows * LFILTER_STEPS <= n * q:
        Y = np.empty_like(X)
        for i in range(rows):
            Y[i] = lfilter([1.0], np.concatenate(([1.0], -theta[i])), X[i])
        return Y
    XT = X.T.copy()  # x_t of every row is contiguous
    YT = np.empty_like(XT)
    x_t, y_t, th = list(XT), list(YT), list(theta.T.copy())
    s, term = np.empty(rows), np.empty(rows)
    y_t[0][:] = x_t[0]
    for t in range(1, n):
        top = t if t < q else q
        np.multiply(th[top - 1], y_t[t - top], out=s)
        for j in range(top - 1, 0, -1):
            np.multiply(th[j - 1], y_t[t - j], out=term)
            np.add(s, term, out=s)
        np.add(s, x_t[t], out=y_t[t])
    return np.ascontiguousarray(YT.T)


def css_residual_rows(X, spec: ArmaSpec) -> np.ndarray:
    """css_residuals of every row of X (rows, n) under one admissible spec, by one lfilter."""
    b = np.concatenate(([1.0], -np.asarray(spec.ar)))
    den = np.concatenate(([1.0], -np.asarray(spec.ma)))
    return lfilter(b, den, X - spec.mean, axis=1)


def css_residuals(series, spec: ArmaSpec) -> np.ndarray:
    """Conditional-sum-of-squares residual recursion.

    a_t = x_t - sum phi_i x_{t-i} + sum theta_j a_{t-j} on the mean-centered
    series, with zero presample values; all n residuals are returned,
    including the presample-contaminated leading ones.  The one-row case
    of css_residual_rows.
    """
    require_admissible(spec)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if x.size <= spec.p + spec.q:
        raise ValueError(f"series length {x.size} too short for ARMA({spec.p},{spec.q})")
    return css_residual_rows(x[None], spec)[0]


class _CssRows:
    """CSS residuals a(z) of centered rows and their Jacobians da/dz, one row of z per row."""

    def __init__(self, xc: np.ndarray, p: int, q: int):
        self.xc, self.p, self.q = xc, p, q

    def point(self, z, rows) -> tuple[np.ndarray, tuple]:
        """Residuals a(z) = phi(B) u, u = theta(B)^{-1} x, of xc[rows]; the state jacobian() reuses.

        The state starts with the coefficient arrays phi and theta.
        """
        p, q = self.p, self.q
        t = np.tanh(z)
        g = np.clip(t, -_PACF_CLIP, _PACF_CLIP)
        phi, dphi = step_up_jacobian(g[:, :p])
        theta, dtheta = step_up_jacobian(g[:, p:])
        u = inverse_ma_rows(self.xc[rows], theta) if q else self.xc[rows]
        a = u.copy()
        for i in range(1, p + 1):
            a[:, i:] -= phi[:, i - 1, None] * u[:, :-i]
        # the clip is flat: a clipped partial has zero derivative
        dg = np.where(np.abs(t) < _PACF_CLIP, 1.0 - t * t, 0.0)[:, None, :]
        return a, (phi, theta, u, dphi * dg[..., :p], dtheta * dg[..., p:])

    def jacobian(self, a, state) -> np.ndarray:
        """da/dz at the points that returned (a, state): (rows, p+q, n), one column per z.

        da/dg_i is -u lagged i steps for an AR partial and w = theta(B)^{-1} a
        lagged i steps for an MA partial; the chain rule through the step-up
        adds those terms one at a time, so every row sums alike.
        """
        p, q = self.p, self.q
        _, theta, u, dphi, dtheta = state
        w = inverse_ma_rows(a, theta) if q else a
        J = np.zeros((a.shape[0], p + q, a.shape[1]))
        for off, D, src in ((0, -dphi, u), (p, dtheta, w)):
            for c in range(D.shape[-1]):
                for i in range(1, D.shape[-1] + 1):
                    J[:, off + c, i:] += src[:, :-i] * D[:, i - 1, c, None]
        return J


def _normal_equations(J, a) -> tuple[np.ndarray, np.ndarray]:
    """J_i^T J_i and J_i^T a_i for every row i, one row-wise dot per entry."""
    k = J.shape[1]
    A = np.empty((J.shape[0], k, k))
    for i in range(k):
        for j in range(i, k):
            A[:, i, j] = A[:, j, i] = _rowdot(J[:, i], J[:, j])
    grad = np.stack([_rowdot(J[:, i], a) for i in range(k)], axis=1)
    return A, grad


def _solve_rows(M, b) -> np.ndarray:
    """x_i = M_i^{-1} b_i for every row; nan for a singular M_i."""
    try:
        return np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for i in range(b.shape[0]):
            try:
                x[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _levenberg_marquardt(problem: _CssRows, rows, z, max_iter: int, xatol: float,
                         fatol: float):
    """Minimize |a_i(z_i)|^2 over the problem's rows `rows`, row i from z[i].

    Returns (z, css, iterations, converged) arrays aligned with `rows`.
    Each row keeps its own damping, gain-ratio acceptance and stopping
    rule, and leaves the active set when it stops.
    """
    count, k = z.shape
    z_out, css_out = z.copy(), np.empty(count)
    used, converged = np.full(count, max_iter), np.zeros(count, dtype=bool)
    act = np.arange(count)  # active positions in the outputs
    z = z.copy()
    a, state = problem.point(z, rows)
    css = _rowdot(a, a)
    A, grad = _normal_equations(problem.jacobian(a, state), a)
    del a, state
    diag_max = np.max(np.diagonal(A, axis1=1, axis2=2), axis=1)
    mu = 1e-3 * np.where(diag_max == 0.0, 1.0, diag_max)
    nu = np.full(count, 2.0)
    eye = np.eye(k)
    for it in range(1, max_iter + 1):
        h = _solve_rows(A + mu[:, None, None] * eye, -grad)
        # reduction of the CSS predicted by the damped Gauss-Newton model
        predicted = _rowdot(h, mu[:, None] * h - grad)
        stop = ((np.max(np.abs(h), axis=1) <= xatol * (1.0 + np.max(np.abs(z), axis=1)))
                & (predicted <= fatol * css))
        if stop.any():
            done = act[stop]
            z_out[done], css_out[done], used[done], converged[done] = z[stop], css[stop], it, True
            keep = ~stop
            act, z, css, A, grad, mu, nu, h, predicted = (
                v[keep] for v in (act, z, css, A, grad, mu, nu, h, predicted))
            if act.size == 0:
                break
        z_new = z + h
        a_new, state_new = problem.point(z_new, rows[act])
        css_new = _rowdot(a_new, a_new)
        gain = np.divide(css - css_new, predicted, out=np.full(act.size, -1.0),
                         where=predicted > 0.0)
        accept = np.isfinite(css_new) & (gain > 0.0)
        if accept.any():
            z[accept], css[accept] = z_new[accept], css_new[accept]
            J = problem.jacobian(a_new[accept], tuple(s[accept] for s in state_new))
            A[accept], grad[accept] = _normal_equations(J, a_new[accept])
            g = 2.0 * gain[accept] - 1.0
            mu[accept] *= np.maximum(1.0 / 3.0, 1.0 - g * g * g)
            nu[accept] = 2.0
        reject = ~accept
        mu[reject] *= nu[reject]
        nu[reject] *= 2.0
    z_out[act], css_out[act] = z, css
    return z_out, css_out, used, converged


def fit_arma_rows(X, p: int, q: int, options: FitOptions = FitOptions()) -> RowFits:
    """fit_arma on every row of X (rows, n) at once; see fit_arma.

    One Levenberg-Marquardt search runs over all rows, each row with its
    own damping, acceptance, stopping rule and iteration cap.  Rows still
    unconverged restart together: restart j perturbs every row's start by
    the same draw, the j-th from default_rng(options.restart_seed), so each
    row is fitted exactly as it would be alone.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be two-dimensional (rows, n)")
    if p < 0 or q < 0:
        raise ValueError("orders must be nonnegative")
    rows, n = X.shape
    k = p + q
    errors = [None] * rows
    if n < max(30, 5 * k):
        short = ValueError(f"series length {n} below the fitting minimum {max(30, 5 * k)}")
        errors = [short] * rows
    finite = np.all(np.isfinite(X), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        mean = X.mean(axis=1)
        xc = X - mean[:, None]
        css0 = _rowdot(xc, xc)
    for i in np.flatnonzero(~finite | (css0 == 0.0)):
        errors[i] = errors[i] or ValueError("series contains non-finite values" if not finite[i]
                                            else "series is constant; nothing to fit")
    start = np.zeros((rows, k))
    if p and n > p:
        # Yule-Walker partials of each centered row as AR start values
        r, denom = acf_rows(xc, p)
        partials, lag = durbin_levinson_rows(r)
        partials = np.where(lag[:, None] > 0, np.clip(r, -0.9, 0.9), partials)
        start[:, :p] = np.arctanh(np.clip(partials, -0.95, 0.95))
        for i in np.flatnonzero(~acf_rows_valid(r, denom)):
            errors[i] = errors[i] or ValueError("autocorrelations must lie in [-1, 1]")

    z = np.zeros((rows, k))
    css = css0.copy()
    converged = np.ones(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    pending = np.array([i for i in range(rows) if errors[i] is None and k], dtype=int)
    best = np.full(rows, np.inf)
    problem = _CssRows(xc, p, q)
    for attempt in range(1 + options.max_restarts):
        if pending.size == 0:
            break
        if attempt == 1:  # most fits converge without a restart and need no generator
            rng = np.random.default_rng(options.restart_seed)
        z0 = start[pending] if attempt == 0 else start[pending] + rng.normal(0.0, 0.5, size=k)
        z_a, css_a, used, conv = _levenberg_marquardt(
            problem, pending, z0, options.max_iter_factor * k, options.xatol, options.fatol)
        iterations[pending] += used
        better = (css_a < best[pending]) | (attempt == 0)
        kept = pending[better]
        z[kept], best[kept], converged[kept] = z_a[better], css_a[better], conv[better]
        pending = pending[~conv]

    ok = np.array([e is None for e in errors], dtype=bool)
    residuals = np.full((rows, n), np.nan)
    residuals[ok] = xc[ok]
    ar, ma = np.zeros((rows, p)), np.zeros((rows, q))
    if k and ok.any():
        resid, (phi, theta, *_) = problem.point(z[ok], np.flatnonzero(ok))
        residuals[ok], ar[ok], ma[ok], css[ok] = resid, phi, theta, _rowdot(resid, resid)
        # the clip keeps every point of the search admissible; only roundoff in
        # the step-up can leave the region, and that is a recoverable error
        for i in np.flatnonzero(ok & ~(admissible_rows(ar) & admissible_rows(ma))):
            errors[i] = NotAdmissibleError(f"fit produced an inadmissible spec: "
                                           f"ar={tuple(ar[i])}, ma={tuple(ma[i])}")
    return RowFits(ar=ar, ma=ma, mean=mean, residuals=residuals, css=css,
                   converged=converged, iterations=iterations, errors=errors)


def fit_arma(series, p: int, q: int, options: FitOptions = FitOptions()) -> FittedModel:
    """Minimize the conditional sum of squares over the admissible region.

    Start values: Yule-Walker partials for the AR block, zeros for the MA
    block; on non-convergence the start is perturbed and the search rerun
    (up to options.max_restarts), keeping the best objective seen.  The
    innovation variance estimate is CSS/n.  Raises NotAdmissibleError (a
    ValueError) if roundoff carries the fitted spec out of the admissible
    region.  The one-row case of fit_arma_rows.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    fit = fit_arma_rows(x[None], p, q, options)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    css = float(fit.css[0])
    spec = ArmaSpec(ar=tuple(fit.ar[0]), ma=tuple(fit.ma[0]), sigma2=max(css / x.size, 1e-300),
                    mean=float(fit.mean[0]))
    return FittedModel(spec=spec, residuals=fit.residuals[0], css=css,
                       converged=bool(fit.converged[0]), iterations=int(fit.iterations[0]),
                       n=x.size)
