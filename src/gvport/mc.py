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

`replicate_rows` scores replicates in two phases.  Phase one takes blocks
of at most BLOCK_ROWS consecutive streams (fewer when a block would hold
more than BLOCK_VALUES simulated values) and runs attempt 0 of every row
as arrays: one simulation, one batched refit (or one residual filter for a
known spec), one autocorrelation pass and one Durbin-Levinson pass.  A row
fails where the one-series path would raise ValueError: an inadmissible or
impossible fit, zero residuals, an autocorrelation outside [-1, 1], or a
partial outside (-1, 1).  Phase two redraws each failed row alone through
`redraw`, from its stream's substream(1) on.  Every kernel computes a row
from that row alone, with the same operations in the same order for any
number of rows, so a row's statistics are bit-identical whether it is
scored alone, in a short block or in a full one: results do not depend on
block boundaries or on the number of workers.

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
from .diagnostics import (
    PortmanteauValue,
    ResidualAcf,
    acf_rows,
    acf_rows_valid,
    portmanteau_rows,
    portmanteau_table,
    residual_acf,
)
from .estimation import (
    FitOptions,
    FittedModel,
    css_residual_rows,
    css_residuals,
    fit_arma,
    fit_arma_rows,
)
from .generators import RngStream, arma_burn_in, simulate_arma, simulate_arma_rows

MC_STATISTICS = ("d_hat", "ljung_box", "box_pierce")
REDRAW_ATTEMPTS = 10
# Phase-one blocks: at most BLOCK_ROWS replicates and BLOCK_VALUES simulated
# values (burn-in included), which bounds the memory of a block's arrays.
BLOCK_ROWS = 128
BLOCK_VALUES = 2**17


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
    nonconverged_refits: int  # scored replicates whose refit never converged


def _observed_fit(x: np.ndarray, p, q, known_spec, fit_options) -> FittedModel:
    if known_spec is None:
        return fit_arma(x, p, q, fit_options)
    resid = css_residuals(x, known_spec)
    return FittedModel(spec=known_spec, residuals=resid, css=float(np.dot(resid, resid)),
                       converged=True, iterations=0, n=x.size)


class ReplicateFailedError(RuntimeError):
    """Replicates could not be drawn: a stream failed on every redraw, or
    the redraws of one MC test outnumbered its N replicates."""


def redraw(stream: RngStream, simulate, score, errors=ValueError, first: int = 0):
    """Draw on `stream`, then on stream.substream(1), (2), ... until `score` succeeds.

    `simulate(stream)` makes the candidate outside the `try`, so its errors
    propagate; `score(candidate)` raising one of `errors` fails the attempt.
    Attempts before `first` count as already failed.  Returns (score value,
    failed attempts).  Raises ReplicateFailedError when all REDRAW_ATTEMPTS
    attempts fail.
    """
    for attempt in range(first, REDRAW_ATTEMPTS):
        candidate = simulate(stream if attempt == 0 else stream.substream(attempt))
        try:
            return score(candidate), attempt
        except errors:
            pass
    raise ReplicateFailedError(f"replicate on stream {stream.key} of seed {stream.master_seed} "
                               f"failed {REDRAW_ATTEMPTS} times in a row")


def map_chunks(worker, items, threads: int) -> tuple[list, int]:
    """Run `worker(chunk) -> (rows, counts)` over contiguous chunks of `items`.

    With threads > 1 the min(4 * threads, len(items)) chunks run in a
    process pool (the worker must pickle); otherwise one chunk runs in
    process.  Rows are joined in item order and the counts (an int or an
    array of counts) summed, so the result does not depend on `threads`.
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


def _score_rows(m_list, kinds, p: int, q: int, known_spec, fit_options, X):
    """Every (m, kind) statistic of each row of X, refitted (or filtered with `known_spec`).

    Returns (statistics, nonconverged, ok): one statistics row per row of X
    in (m, kind) order, whether its refit ended unconverged, and whether the
    row could be scored at all.
    """
    if known_spec is None:
        fits = fit_arma_rows(X, p, q, fit_options)
        resid, nonconverged = fits.residuals, ~fits.converged
        ok = np.array([err is None for err in fits.errors], dtype=bool)
    else:
        resid = css_residual_rows(X, known_spec)
        nonconverged, ok = np.zeros(len(X), dtype=bool), np.ones(len(X), dtype=bool)
    R, denom = acf_rows(resid, max(m_list))
    values, lag = portmanteau_rows(R, X.shape[1], m_list, kinds)
    ok &= acf_rows_valid(R, denom) & (lag == 0)
    return values.reshape(len(X), -1), nonconverged, ok


def _score_one(score, x):
    """`score` on the one-row block x; ValueError when the row fails."""
    stats, nonconverged, ok = score(x[None])
    if not ok[0]:
        raise ValueError("replicate could not be scored")
    return stats[0], bool(nonconverged[0])


def replicate_rows(spec: ArmaSpec, n: int, m_list, kinds, p: int, q: int, known_spec,
                   fit_options, streams) -> tuple[np.ndarray, np.ndarray]:
    """Statistics of the replicates drawn from `spec` on `streams`, in stream order.

    Phase one scores attempt 0 of blocks of streams with _score_rows; phase
    two redraws each failed row alone from substream(1) on.  Returns (one
    statistics row per stream, [failed attempts, nonconverged refits]).
    """
    score = partial(_score_rows, tuple(m_list), tuple(kinds), p, q, known_spec, fit_options)
    size = max(1, min(BLOCK_ROWS, BLOCK_VALUES // (n + arma_burn_in(spec))))
    out = np.empty((len(streams), len(m_list) * len(kinds)))
    failures = nonconverged = 0
    for start in range(0, len(streams), size):
        block = streams[start : start + size]
        stats, unconverged, ok = score(simulate_arma_rows(spec, n, block))
        out[start : start + len(block)] = stats
        nonconverged += int(np.sum(unconverged & ok))
        for i in np.flatnonzero(~ok):
            (out[start + i], unconverged_i), failed = redraw(
                block[i], partial(simulate_arma, spec, n), partial(_score_one, score), first=1)
            failures += failed
            nonconverged += unconverged_i
    return out, np.array([failures, nonconverged])


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

    worker = partial(replicate_rows, fitted.spec, x.size, m_list, kinds, p, q, known_spec,
                     fit_options)
    streams = [RngStream(master_seed, i, parent_key=parent_key) for i in range(1, N + 1)]
    rows, counts = map_chunks(worker, streams, threads)
    failures, nonconverged = (int(c) for c in counts)
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
                        observed_acf=observed_acf, nonconverged_refits=nonconverged)


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
