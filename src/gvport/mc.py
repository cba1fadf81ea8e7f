"""Monte-Carlo (parametric bootstrap) portmanteau test.

Protocol: fit the null ARMA order, compute the observed statistic on the
residuals, then N times simulate the fitted model at the original length,
refit, and recompute.  With k the count of replicate statistics >= the
observed one (ties count), the p-value is (k+1)/(N+1).

Each replicate owns one substream of the master seed and any refit-failure
redraw owns a (replicate, attempt) substream, so the result is a pure
function of (series, orders, m, N, statistic kind, master seed) regardless
of how many workers execute the replicates.

The grid runner computes several (m, statistic) pairs from one shared set
of replicates; comparisons across statistics or lag counts are then paired,
which is also how the power studies keep their differences free of
independent simulation noise.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arma import ArmaSpec
from .diagnostics import PortmanteauValue, portmanteau_table, residual_acf
from .estimation import FitOptions, FittedModel, css_residuals, fit_arma
from .generators import RngStream, simulate_arma

MC_STATISTICS = ("d_hat", "ljung_box", "box_pierce")


@dataclass(frozen=True)
class McTestResult:
    """Observed statistic, replicate exceedance count, and the MC p-value."""

    observed: PortmanteauValue
    N: int
    k: int
    p_value: float
    failed_replicates: int
    statistic_kind: str
    master_seed: int


@dataclass(frozen=True)
class McGridResult:
    """Shared-replicate results for a grid of (m, statistic) pairs."""

    cells: dict  # (m, kind) -> McTestResult
    fitted: FittedModel
    N: int
    failed_replicates: int


def _observed_fit(series, p, q, known_spec, fit_options) -> FittedModel:
    if known_spec is None:
        return fit_arma(series, p, q, fit_options)
    x = np.asarray(series, dtype=float)
    resid = css_residuals(x, known_spec)
    return FittedModel(spec=known_spec, residuals=resid, css=float(np.dot(resid, resid)),
                       converged=True, iterations=0, n=x.size)


def _replicate_stats(spec: ArmaSpec, n: int, m_list, kinds, p: int, q: int,
                     stream: RngStream, known_spec, fit_options,
                     max_attempts: int = 10) -> tuple[np.ndarray, int]:
    """One replicate: simulate, refit, statistics for every (m, kind) pair."""
    failures = 0
    for attempt in range(max_attempts):
        sub = stream if attempt == 0 else stream.substream(attempt)
        sim = simulate_arma(spec, n, sub)
        try:
            if known_spec is None:
                resid = fit_arma(sim, p, q, fit_options).residuals
            else:
                resid = css_residuals(sim, known_spec)
            acf = residual_acf(resid, max(m_list))
            return portmanteau_table(acf, m_list, kinds).ravel(), failures
        except ValueError:
            failures += 1
    raise RuntimeError(f"replicate failed {max_attempts} times in a row; "
                       f"fitted model {spec} appears pathological")


def _replicate_batch(args):
    spec, n, m_list, kinds, p, q, master_seed, parent_key, indices, known_spec, fit_options = args
    out = np.empty((len(indices), len(m_list) * len(kinds)))
    failures = 0
    for j, i in enumerate(indices):
        stream = RngStream(master_seed, i, parent_key=parent_key)
        stats, f = _replicate_stats(spec, n, m_list, kinds, p, q, stream,
                                    known_spec, fit_options)
        out[j] = stats
        failures += f
    return out, failures


def _run_replicates(spec, n, m_list, kinds, p, q, N, master_seed, parent_key,
                    known_spec, fit_options, threads) -> tuple[np.ndarray, int]:
    indices = np.arange(1, N + 1)
    if threads <= 1 or N < 8:
        return _replicate_batch((spec, n, m_list, kinds, p, q, master_seed,
                                 parent_key, list(indices), known_spec, fit_options))
    chunks = [list(c) for c in np.array_split(indices, min(threads * 4, N)) if len(c)]
    args = [(spec, n, m_list, kinds, p, q, master_seed, parent_key, c, known_spec, fit_options)
            for c in chunks]
    stats = np.empty((N, len(m_list) * len(kinds)))
    failures = 0
    pos = 0
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for out, f in pool.map(_replicate_batch, args):
            stats[pos : pos + out.shape[0]] = out
            failures += f
            pos += out.shape[0]
    return stats, failures


def mc_portmanteau_grid(series, p: int, q: int, m_list, N: int,
                        kinds=("d_hat",), master_seed: int = 0,
                        base_stream: RngStream | None = None,
                        known_spec: ArmaSpec | None = None,
                        fit_options: FitOptions = FitOptions(),
                        threads: int = 1) -> McGridResult:
    """Monte-Carlo test over a grid of lag counts and statistic kinds.

    All cells share the same fitted model and the same N simulated/refitted
    replicates (paired design).  Replicate i draws from substream i of the
    master seed, or of `base_stream` when nesting inside an outer
    simulation loop.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    m_list = tuple(int(m) for m in m_list)
    kinds = tuple(kinds)
    if not m_list or not kinds:
        raise ValueError("need at least one m and one statistic kind")
    for kind in kinds:
        if kind not in MC_STATISTICS:
            raise ValueError(f"statistic kind must be one of {MC_STATISTICS}, got {kind!r}")
    x = np.asarray(series, dtype=float)
    if max(m_list) >= x.size:
        raise ValueError(f"need m < n, got m={max(m_list)}, n={x.size}")

    if base_stream is not None:
        master_seed = base_stream.master_seed
        parent_key = base_stream.key
    else:
        parent_key = ()

    fitted = _observed_fit(x, p, q, known_spec, fit_options)
    table = portmanteau_table(residual_acf(fitted.residuals, max(m_list)), m_list, kinds)
    observed = {(m, kind): PortmanteauValue(statistic=float(table[i, j]), kind=kind, m=m,
                                            fit_count=p + q)
                for i, m in enumerate(m_list) for j, kind in enumerate(kinds)}

    stats, failures = _run_replicates(fitted.spec, x.size, m_list, kinds, p, q, N,
                                      master_seed, parent_key, known_spec,
                                      fit_options, threads)
    if failures > N:
        raise RuntimeError(f"{failures} replicate failures exceeded N={N}; aborting")

    cells = {}
    idx = 0
    for m in m_list:
        for kind in kinds:
            k = int(np.sum(stats[:, idx] >= observed[(m, kind)].statistic))
            cells[(m, kind)] = McTestResult(
                observed=observed[(m, kind)], N=N, k=k, p_value=(k + 1) / (N + 1),
                failed_replicates=failures, statistic_kind=kind, master_seed=master_seed)
            idx += 1
    return McGridResult(cells=cells, fitted=fitted, N=N, failed_replicates=failures)


def mc_portmanteau_test(series, p: int, q: int, m: int, N: int,
                        statistic_kind: str = "d_hat", master_seed: int = 0,
                        base_stream: RngStream | None = None,
                        known_spec: ArmaSpec | None = None,
                        fit_options: FitOptions = FitOptions(),
                        threads: int = 1) -> McTestResult:
    """Monte-Carlo portmanteau test of an ARMA(p, q) null on `series`.

    Parameters
    ----------
    series : array_like
        Observed series; must satisfy the fitting preconditions.
    p, q : int
        Null model order.
    m : int
        Number of residual autocorrelations entering the statistic.
    N : int
        Replicate count (p-value granularity 1/(N+1)); typically 99-999.
    statistic_kind : {"d_hat", "ljung_box", "box_pierce"}
    master_seed : int
        Replicate i draws from substream i of this seed.
    known_spec : ArmaSpec, optional
        Oracle mode: skip estimation everywhere and compute residuals with
        this fixed spec (used to verify the exact finite-N null property).
    threads : int
        Worker processes for the replicate loop; the result is identical
        for any value.

    Replicates whose refit raises are redrawn on a fresh substream and
    counted in failed_replicates; the run aborts if failures exceed N.
    """
    grid = mc_portmanteau_grid(series, p, q, (m,), N, kinds=(statistic_kind,),
                               master_seed=master_seed, base_stream=base_stream,
                               known_spec=known_spec, fit_options=fit_options,
                               threads=threads)
    return grid.cells[(m, statistic_kind)]


def mc_test_batch(configs, parallelism: int = 1) -> list:
    """Run many independent MC tests; each config is a kwargs dict.

    Results arrive in config order; per-config errors are returned in place
    (as the exception object) without aborting the batch.  Output is
    independent of `parallelism` because every config carries its own
    master seed.
    """
    if parallelism <= 1 or len(configs) < 2:
        return [_safe_test(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(_safe_test, cfg) for cfg in configs]
        return [f.result() for f in futures]


def _safe_test(cfg):
    try:
        return mc_portmanteau_test(**cfg)
    except Exception as err:  # noqa: BLE001 - aggregated per contract
        return err
