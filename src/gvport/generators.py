"""Random-series generation: null-model ARMA plus the power-study alternatives.

Every generator takes an RngStream, a deterministic (master_seed, key)
handle on an independent substream, so replicates can run on any number of
workers and still produce identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import gammaln

from .arma import ArmaSpec, poly_root_moduli, require_admissible

# Burn-in: long enough that start-up transients sit below numerical noise.
BURN_IN_FLOOR = 200
BURN_IN_TOL = 1e-10
BURN_IN_CAP = 100_000


@dataclass(frozen=True)
class RngStream:
    """Deterministic handle on one independent random substream.

    Streams are keyed by (master_seed, spawn path); distinct keys give
    statistically independent PCG64DXSM substreams.  `substream(j)` extends
    the path, which is how nested simulation (outer replicate, inner
    replicate, retry) stays deterministic under any scheduling.
    """

    master_seed: int
    stream_index: int = 0
    parent_key: tuple = ()

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    @property
    def key(self) -> tuple:
        return self.parent_key + (self.stream_index,)

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, index, parent_key=self.key)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64DXSM(ss))


@dataclass(frozen=True)
class GarchSpec:
    """GARCH(r, s) parameters: variance intercept, ARCH and GARCH coefficients."""

    omega: float
    alpha: tuple = ()
    beta: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(v) for v in np.atleast_1d(self.alpha)))
        object.__setattr__(self, "beta", tuple(float(v) for v in np.atleast_1d(self.beta)))
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError("omega must be positive")
        if any(v < 0 for v in self.alpha) or any(v < 0 for v in self.beta):
            raise ValueError("alpha and beta coefficients must be nonnegative")
        if self.persistence >= 1.0:
            raise ValueError(
                f"sum(alpha) + sum(beta) = {self.persistence} must be < 1 "
                f"for covariance stationarity"
            )

    @property
    def persistence(self) -> float:
        return float(sum(self.alpha) + sum(self.beta))

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.persistence)


@dataclass(frozen=True)
class FractionalNoiseSpec:
    """Long-memory Gaussian noise with memory parameter d, |d| < 1/2."""

    d: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.d) and abs(self.d) < 0.5):
            raise ValueError(f"need |d| < 0.5, got d={self.d}")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be positive")


def _geometric_burn_in(decay: float, floor_extra: int = 0) -> int:
    """Burn-in long enough that decay^M < BURN_IN_TOL, floored and capped."""
    if decay <= 0.0:
        m = 0
    else:
        m = int(math.ceil(math.log(BURN_IN_TOL) / math.log(decay)))
    return min(max(BURN_IN_FLOOR, m, floor_extra), BURN_IN_CAP)


def arma_burn_in(spec: ArmaSpec) -> int:
    """Burn-in of the slowest AR root; an AR part without roots (all zero) burns as p = 0."""
    moduli = poly_root_moduli(spec.ar) if spec.p else ()
    decay = 1.0 / float(np.min(moduli)) if len(moduli) else 0.0
    return _geometric_burn_in(decay, floor_extra=spec.q + 1)


def simulate_arma_rows(spec: ArmaSpec, n: int, streams) -> np.ndarray:
    """One Gaussian realization of the ARMA spec per stream: rows of length n, mean added.

    Each row draws its innovations from its own stream; one lfilter over
    the rows then applies the spec.  A stationary start is approximated by
    discarding a burn-in segment sized from the slowest AR root (transient
    below 1e-10).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require_admissible(spec)
    burn = arma_burn_in(spec)
    a = np.empty((len(streams), n + burn))
    for row, stream in zip(a, streams):
        stream.generator().standard_normal(out=row)
    a *= math.sqrt(spec.sigma2)
    b = np.concatenate(([1.0], -np.asarray(spec.ma)))
    den = np.concatenate(([1.0], -np.asarray(spec.ar)))
    x = lfilter(b, den, a, axis=1)
    return x[:, burn:] + spec.mean


def simulate_arma(spec: ArmaSpec, n: int, rng: RngStream) -> np.ndarray:
    """Gaussian realization of the ARMA spec, length n, mean added.

    The one-row case of simulate_arma_rows.
    """
    return simulate_arma_rows(spec, n, [rng])[0]


def simulate_garch(spec: GarchSpec, n: int, rng: RngStream) -> np.ndarray:
    """GARCH recursion sigma2_t = omega + sum a_i e2_{t-i} + sum b_j s2_{t-j}.

    Presample squared shocks and variances start at the unconditional
    variance; burn-in length follows the persistence sum(alpha)+sum(beta).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    burn = _geometric_burn_in(spec.persistence)
    r, s = len(spec.alpha), len(spec.beta)
    alpha = np.asarray(spec.alpha)
    beta = np.asarray(spec.beta)
    total = n + burn
    z = rng.generator().standard_normal(total)
    if r == 0 and s == 0:
        return math.sqrt(spec.omega) * z[burn:]
    v0 = spec.unconditional_variance
    lead = max(r, s)
    eps2 = np.full(total + lead, v0)
    sig2 = np.full(total + lead, v0)
    eps = np.empty(total + lead)
    for t in range(lead, total + lead):
        v = spec.omega
        if r:
            v += np.dot(alpha, eps2[t - r : t][::-1])
        if s:
            v += np.dot(beta, sig2[t - s : t][::-1])
        sig2[t] = v
        eps[t] = math.sqrt(v) * z[t - lead]
        eps2[t] = eps[t] * eps[t]
    return eps[lead + burn :]


def fn_autocorrelations(d: float, max_lag: int) -> np.ndarray:
    """Autocorrelations rho(0..max_lag) of the long-memory noise: rho(0) = 1,
    rho(k) = rho(k-1) (k-1+d)/(k-d), as one cumulative product."""
    if abs(d) >= 0.5:
        raise ValueError(f"need |d| < 0.5, got d={d}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    j = np.arange(1, max_lag + 1)
    return np.concatenate(([1.0], np.cumprod((j - 1 + d) / (j - d))))


def fn_variance(spec: FractionalNoiseSpec) -> float:
    """Process variance sigma2 * Gamma(1-2d) / Gamma(1-d)^2."""
    d = spec.d
    return spec.sigma2 * math.exp(gammaln(1.0 - 2.0 * d) - 2.0 * gammaln(1.0 - d))


class EmbeddingError(ValueError):
    """The circulant embedding of an autocovariance has a negative eigenvalue."""


def simulate_fractional_noise(spec: FractionalNoiseSpec, n: int, rng: RngStream) -> np.ndarray:
    """Exact Gaussian sample by circulant embedding (Davies & Harte 1987).

    gamma(0..n-1) is embedded in the ring (gamma(0..n-1), gamma(n-2..1)) of
    length M = 2(n-1), whose circulant matrix has eigenvalues rfft(ring).
    The first n values of an irfft of M standard normals, each scaled by the
    square root of its eigenvalue, have covariance exactly
    toeplitz(gamma(0..n-1)).  The eigenvalues are nonnegative for |d| < 1/2
    (Craigmile 2003); a negative one raises EmbeddingError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma = fn_variance(spec) * fn_autocorrelations(spec.d, n - 1)
    ring = np.concatenate((gamma, gamma[-2:0:-1]))
    lam = np.fft.rfft(ring).real
    if lam.min() < 0.0:
        raise EmbeddingError(f"circulant embedding of d={spec.d}, n={n} has a negative "
                             f"eigenvalue {lam.min():.3e}")
    z = rng.generator().standard_normal(ring.size)
    # Hermitian spectrum: real parts z[:k], imaginary parts z[k:] for the
    # interior frequencies, whose real and imaginary parts share the variance
    k = lam.size
    w = z[:k].astype(complex)
    w[1 : k - 1] += 1j * z[k:]
    var = lam / 2.0
    var[[0, -1]] = lam[[0, -1]]
    return np.fft.irfft(np.sqrt(var) * w, ring.size, norm="ortho")[:n]
