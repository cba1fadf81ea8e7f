"""Monte-Carlo (parametric bootstrap) portmanteau test.

Protocol: fit the null ARMA order, compute the observed statistic on the
residuals, then N times simulate the fitted model at the original length,
refit, and recompute.  With k the count of replicate statistics >= the
observed one (ties count), the p-value is (k+1)/(N+1).

Each replicate owns one substream of the master seed and any refit-failure
redraw owns a (replicate, attempt) substream, so the result is a pure
function of (series, orders, m, N, statistic kind, master seed) regardless
of how many workers execute the replicates.  `redraw` is that rule for
every replicate loop, here and in the study runners, and `map_chunks` is
the one place replicates are spread over worker processes.

The grid runner computes several (m, statistic) pairs from one shared set
of replicates; comparisons across statistics or lag counts are then paired,
which is also how the power studies keep their differences free of
independent simulation noise.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arma import ArmaSpec
from .diagnostics import PortmanteauValue, ResidualAcf, portmanteau_table, residual_acf
from .estimation import FitOptions, FittedModel, css_residuals, fit_arma
from .generators import RngStream, simulate_arma

MC_STATISTICS = ("d_hat", "ljung_box", "box_pierce")
REDRAW_ATTEMPTS = 10


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
    observed_acf: ResidualAcf  # of fitted.residuals, lags 1..max(m)


def _observed_fit(x: np.ndarray, p, q, known_spec, fit_options) -> FittedModel:
    if known_spec is None:
        return fit_arma(x, p, q, fit_options)
    resid = css_residuals(x, known_spec)
    return FittedModel(spec=known_spec, residuals=resid, css=float(np.dot(resid, resid)),
                       converged=True, iterations=0, n=x.size)


class ReplicateFailedError(RuntimeError):
    """Replicates could not be drawn: a stream failed on every redraw, or
    the redraws of one MC test outnumbered its N replicates."""


def redraw(stream: RngStream, simulate, score, errors=ValueError):
    """Draw on `stream`, then on stream.substream(1), (2), ... until `score` succeeds.

    `simulate(stream)` makes the candidate outside the `try`, so its errors
    propagate; `score(candidate)` raising one of `errors` fails the attempt.
    Returns (score value, failed attempts).  Raises ReplicateFailedError
    when all REDRAW_ATTEMPTS attempts fail.
    """
    for attempt in range(REDRAW_ATTEMPTS):
        candidate = simulate(stream if attempt == 0 else stream.substream(attempt))
        try:
            return score(candidate), attempt
        except errors:
            pass
    raise ReplicateFailedError(f"replicate on stream {stream.key} of seed {stream.master_seed} "
                               f"failed {REDRAW_ATTEMPTS} times in a row")


def map_chunks(worker, items, threads: int) -> tuple[list, int]:
    """Run `worker(chunk) -> (rows, failures)` over contiguous chunks of `items`.

    With threads > 1 the min(4 * threads, len(items)) chunks run in a
    process pool (the worker must pickle); otherwise one chunk runs in
    process.  Rows are joined in item order and failures summed, so the
    result does not depend on `threads`.
    """
    items = list(items)
    if threads <= 1 or len(items) < 2:
        results = [worker(items)]
    else:
        k = min(4 * threads, len(items))
        bounds = [len(items) * j // k for j in range(k + 1)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, [items[a:b] for a, b in zip(bounds, bounds[1:])]))
    return [row for rows, _ in results for row in rows], sum(f for _, f in results)


def redraw_rows(simulate, score, streams) -> tuple[list, int]:
    """`redraw` on each stream in turn: (values, total failed attempts)."""
    rows, failures = [], 0
    for stream in streams:
        row, failed = redraw(stream, simulate, score)
        rows.append(row)
        failures += failed
    return rows, failures


def replicate_score(m_list, kinds, p: int, q: int, known_spec, fit_options, sim) -> np.ndarray:
    """Refit one simulated series (or filter it with `known_spec`); every (m, kind) statistic."""
    if known_spec is None:
        resid = fit_arma(sim, p, q, fit_options).residuals
    else:
        resid = css_residuals(sim, known_spec)
    return portmanteau_table(residual_acf(resid, max(m_list)), m_list, kinds).ravel()


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
    observed_acf = residual_acf(fitted.residuals, max(m_list))
    table = portmanteau_table(observed_acf, m_list, kinds)
    # one observed value per replicate column, in the (m, kind) order of the table's rows
    observed = [PortmanteauValue(statistic=float(table[i, j]), kind=kind, m=m, fit_count=p + q)
                for i, m in enumerate(m_list) for j, kind in enumerate(kinds)]

    worker = partial(redraw_rows, partial(simulate_arma, fitted.spec, x.size),
                     partial(replicate_score, m_list, kinds, p, q, known_spec, fit_options))
    streams = [RngStream(master_seed, i, parent_key=parent_key) for i in range(1, N + 1)]
    rows, failures = map_chunks(worker, streams, threads)
    if failures > N:
        raise ReplicateFailedError(f"{failures} replicate failures exceeded N={N}; aborting")
    stats = np.array(rows)

    cells = {}
    for col, obs in enumerate(observed):
        k = int(np.sum(stats[:, col] >= obs.statistic))
        cells[(obs.m, obs.kind)] = McTestResult(
            observed=obs, N=N, k=k, p_value=(k + 1) / (N + 1),
            failed_replicates=failures, statistic_kind=obs.kind, master_seed=master_seed)
    return McGridResult(cells=cells, fitted=fitted, N=N, failed_replicates=failures,
                        observed_acf=observed_acf)


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
    results, _ = map_chunks(_test_rows, configs, parallelism)
    return results


def _test_rows(configs) -> tuple[list, int]:
    results = []
    for cfg in configs:
        try:
            results.append(mc_portmanteau_test(**cfg))
        except Exception as err:  # noqa: BLE001 - aggregated per contract
            results.append(err)
    return results, 0
