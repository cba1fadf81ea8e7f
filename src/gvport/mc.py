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

Replicates are scored in two phases (`_score_block`).  Phase one takes
blocks of at most BLOCK_ROWS consecutive streams (fewer when a block would
hold more than BLOCK_VALUES simulated values) and runs attempt 0 of every
row as arrays: one simulation, one batched refit (or one residual filter
for a known spec), one autocorrelation pass and one Durbin-Levinson pass.
A row fails where the one-series path would raise ValueError: an
inadmissible or impossible fit, zero residuals, an autocorrelation outside
[-1, 1], or a partial outside (-1, 1).  Phase two redraws each failed row
alone through `redraw`, from its stream's substream(1) on.  Every kernel
computes a row from that row alone, with the same operations in the same
order for any number of rows, so a row's statistics are bit-identical
whether it is scored alone, in a short block or in a full one: results do
not depend on block boundaries or on the number of workers.

`mc_grid_rows` runs many MC tests at once, one per row of a block of
observed series (a study's outer replicates), and `mc_portmanteau_grid` is
its one-series case.  The observed fits, ACFs and statistics of all rows
form one block.  The replicates of all series are pooled, so a block spans
series boundaries and stays full: each row is simulated from its own
series' replicate spec (one simulation per distinct spec in a block) and
the refits, ACFs and statistics of the block run as one.  Each series'
exceedance counts are accumulated block by block.  A series whose test
would raise gets that error in place of its result.  `replicate_rows`
keeps every statistics row, for the convergence study.

Given significance levels, `mc_grid_rows` returns only the decisions
p <= level, and curtails each series' replicates (Besag & Clifford 1991):
with K the largest k whose p-value (k+1)/(N+1) is <= level, the test
rejects iff k <= K, which is fixed as accepted once k > K and as rejected
once k plus the replicates left is <= K.  Replicates are drawn in key
order and in waves.  A wave holds each open series' next replicates: at
least its `wave_sizes`, a lower bound on what it needs before every
decision is fixed, and at least its share of one full block, so that the
last waves, with few series open, do not score a few rows per block.  A
series keeps its replicates up to the first at which all its decisions
are fixed (its stop) and discards the rest of its wave.  The stop depends
on the replicate keys alone, and failed attempts, nonconverged refits,
dead streams and the failures > N abort count replicates 1..stop only.
Without levels every series draws all N replicates in one wave.

The grid runner computes several (m, statistic) pairs from one shared set
of replicates; comparisons across statistics or lag counts are then paired,
which is also how the power studies keep their differences free of
independent simulation noise.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

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
    drawn: int  # replicates counted: N, or the stop when curtailed at levels
    # with levels, (m, kind) -> one reject flag per level, and `cells` is empty
    rejects: dict


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
    process pool (the worker must pickle); otherwise `items` itself, which
    may be a lazy iterable, is the one chunk and runs in process.  Rows are
    joined in item order and the counts (an int or an array of counts)
    summed, so the result does not depend on `threads`.
    """
    if threads > 1:
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


def _block_size(specs, n: int) -> int:
    """Rows of a phase-one block whose rows are drawn from any of `specs`."""
    burn = max(arma_burn_in(spec) for spec in specs)
    return max(1, min(BLOCK_ROWS, BLOCK_VALUES // (n + burn)))


def _simulate_block(specs, which, n: int, streams) -> np.ndarray:
    """simulate_arma_rows of streams[i] under specs[which[i]], one call per spec used."""
    X = np.empty((len(streams), n))
    for s in np.unique(which).tolist():
        rows = np.flatnonzero(which == s)
        X[rows] = simulate_arma_rows(specs[s], n, [streams[i] for i in rows])
    return X


def _score_block(score, specs, which, n: int, streams) -> tuple:
    """Replicates of specs[which[i]] on streams[i]: phase one as one block, then failed rows alone.

    Returns per stream (statistics row, failed attempts, nonconverged refit,
    dead): dead[i] is the ReplicateFailedError of a stream that failed every
    attempt, or None; a dead stream's other entries are meaningless.
    """
    stats, nonconverged, ok = score(_simulate_block(specs, which, n, streams))
    nonconverged &= ok
    failed = np.zeros(len(streams), dtype=int)
    dead = [None] * len(streams)
    for i in np.flatnonzero(~ok):
        try:
            (stats[i], nonconverged[i]), failed[i] = redraw(
                streams[i], partial(simulate_arma, specs[which[i]], n),
                partial(_score_one, score), first=1)
        except ReplicateFailedError as err:
            dead[i] = err
    return stats, failed, nonconverged, dead


def replicate_rows(spec: ArmaSpec, n: int, m_list, kinds, p: int, q: int, known_spec,
                   fit_options, streams) -> tuple[np.ndarray, np.ndarray]:
    """Statistics of the replicates drawn from `spec` on `streams`, in stream order.

    Scores blocks of streams with _score_block.  Returns (one statistics
    row per stream, [failed attempts, nonconverged refits]); raises the
    ReplicateFailedError of the first stream that failed every attempt.
    """
    score = partial(_score_rows, tuple(m_list), tuple(kinds), p, q, known_spec, fit_options)
    size = _block_size((spec,), n)
    out = np.empty((len(streams), len(m_list) * len(kinds)))
    failures = nonconverged = 0
    for start in range(0, len(streams), size):
        block = streams[start : start + size]
        stats, failed, unconverged, dead = _score_block(score, (spec,), np.zeros(len(block), int),
                                                        n, block)
        for err in filter(None, dead):
            raise err
        out[start : start + len(block)] = stats
        failures += int(failed.sum())
        nonconverged += int(unconverged.sum())
    return out, np.array([failures, nonconverged])


def _exceedance_rows(specs, which, size: int, n: int, m_list, kinds, p: int, q: int,
                     known_spec, fit_options, observed, items) -> tuple[list, int]:
    """Score the replicates `items`, (owner, stream) pairs, against their owners' observed values.

    Owner o's replicates are drawn from specs[which[o]], and observed[o]
    holds its observed statistics in (m, kind) order.  Streams are taken in
    full blocks of `size`, across owners, and each block is reduced as soon
    as it is scored.  Returns one (flags, dead) pair per block, and 0:
    flags holds per stream whether each replicate statistic is >= the
    observed one, then the stream's failed attempts and nonconverged
    refit; dead per stream the ReplicateFailedError of a stream that failed
    every attempt, or None.
    """
    score = partial(_score_rows, tuple(m_list), tuple(kinds), p, q, known_spec, fit_options)
    blocks = []
    items = iter(items)
    while block := list(islice(items, size)):
        owners = np.array([owner for owner, _ in block])
        stats, failed, nonconverged, dead = _score_block(score, specs, which[owners], n,
                                                         [stream for _, stream in block])
        blocks.append((np.column_stack((stats >= observed[owners], failed, nonconverged)),
                       dead))
    return blocks, 0


def rejection_thresholds(N: int, levels) -> np.ndarray:
    """K per level: the largest k with (k+1)/(N+1) <= level, or -1 if none.

    Evaluated with the p-value's own float expression, so k <= K exactly
    when the p-value of k is <= level.
    """
    p_values = (np.arange(N) + 1) / (N + 1)
    return np.array([np.count_nonzero(p_values <= level) - 1 for level in levels])


def wave_sizes(k, drawn, N: int, thresholds) -> np.ndarray:
    """Replicates each series must still draw before its open decisions can all be fixed.

    k (series, columns) counts the exceedances among a series' first
    drawn[i] replicates.  Decision (column c, threshold K) is open while
    k_c <= K < k_c + left, with left = N - drawn: accepting needs K + 1 - k_c
    more exceedances and rejecting left - (K - k_c) more replicates, so the
    smaller of the two is a lower bound for that decision, and the largest
    over the open decisions one for the series.  Zero once every decision is
    fixed; N - drawn when `thresholds` is None (no decisions, full N).
    """
    left = N - np.asarray(drawn)
    if thresholds is None:
        return left
    slack = np.asarray(thresholds)[None, None, :] - np.asarray(k)[:, :, None]
    left = left[:, None, None]
    need = np.where((slack >= 0) & (slack < left), np.minimum(slack + 1, left - slack), 0)
    return need.max(axis=(1, 2))


def _draw_waves(worker, parents, N: int, columns: int, thresholds, size: int,
                threads: int) -> tuple:
    """Run `worker` (_exceedance_rows) over the replicates of each parent, wave by wave.

    Series i draws replicate j on RngStream(seed_i, j, parent_key=key_i), in
    key order.  Each wave takes every open series' next replicates: at
    least its wave_sizes, and at least its share of one block of `size`
    across the open series, so that a wave with few open series still
    fills a block.  A series then keeps its replicates up to its stop, the
    first at which every decision is fixed, and counts nothing after it; a
    series with a dead stream among the kept ones draws no more.  Returns
    (counts, drawn, first_dead): per series its exceedances per column,
    failed attempts and nonconverged refits, its replicates kept (its
    stop), and series -> the ReplicateFailedError of its first dead stream.
    """
    counts = np.zeros((len(parents), columns + 2), dtype=np.int64)
    drawn = np.zeros(len(parents), dtype=np.int64)
    first_dead = {}
    while True:
        need = wave_sizes(counts[:, :columns], drawn, N, thresholds)
        need[list(first_dead)] = 0
        live = np.flatnonzero(need)
        if not len(live):
            return counts, drawn, first_dead
        wave = np.minimum(np.maximum(need[live], -(-size // len(live))), N - drawn[live])
        starts = drawn[live] + 1
        items = ((owner, RngStream(parents[owner][0], j, parent_key=parents[owner][1]))
                 for owner, start, stop in zip(live.tolist(), starts.tolist(),
                                               (starts + wave).tolist())
                 for j in range(start, stop))
        blocks, _ = map_chunks(worker, items, threads)
        flags = np.concatenate([block for block, _ in blocks])
        # row r holds replicate drawn + pos[r] + 1 of series live[seg[r]]
        seg = np.repeat(np.arange(len(live)), wave)
        first = np.cumsum(wave) - wave
        pos = np.arange(len(flags)) - first[seg]
        k = np.cumsum(flags[:, :columns], axis=0)
        k += (counts[live, :columns] - k[first] + flags[first, :columns])[seg]
        fixed = wave_sizes(k, drawn[live][seg] + pos + 1, N, thresholds) == 0
        kept = wave.copy()
        np.minimum.at(kept, seg[fixed], pos[fixed] + 1)
        used = pos < kept[seg]
        np.add.at(counts, live[seg[used]], flags[used])
        drawn[live] += kept
        dead = [err for _, block in blocks for err in block]
        for r in np.flatnonzero(used).tolist():
            if dead[r] is not None:
                first_dead.setdefault(int(live[seg[r]]), dead[r])


def _observed_rows(X, p: int, q: int, m_list, kinds, known_spec, fit_options) -> list:
    """Observed fit, residual ACF and (m, kind) statistics of every row of X.

    Entry i is (FittedModel, ResidualAcf, [PortmanteauValue per (m, kind)])
    or the ValueError the one-series path raises for row i.  One fit over
    the rows (or one residual filter for a known spec), one ACF pass and
    one statistics pass serve every row; a row that fails the batched
    checks reruns the one-row functions, which raise its exact error.
    """
    rows, n = X.shape
    M = max(m_list)
    if known_spec is None:
        fits = fit_arma_rows(X, p, q, fit_options)
        resid = fits.residuals
        models = []
        for i in range(rows):
            try:
                models.append(fits.model(i))
            except ValueError as err:
                models.append(err)
    else:
        try:
            resid = css_residual_rows(X, known_spec)
        except ValueError as err:
            return [err] * rows
        models = [FittedModel(spec=known_spec, residuals=r, css=float(np.dot(r, r)),
                              converged=True, iterations=0, n=n) for r in resid]
    R, denom = acf_rows(resid, M)
    values, lag = portmanteau_rows(R, n, m_list, kinds)
    good = acf_rows_valid(R, denom) & (lag == 0)
    out = []
    for i, model in enumerate(models):
        if isinstance(model, Exception):
            out.append(model)
            continue
        try:
            if good[i]:
                acf, table = ResidualAcf(R[i], n, M), values[i]
            else:
                acf = residual_acf(model.residuals, M)
                table = portmanteau_table(acf, m_list, kinds)
            observed = [PortmanteauValue(statistic=float(table[a, b]), kind=kind, m=m,
                                         fit_count=p + q)
                        for a, m in enumerate(m_list) for b, kind in enumerate(kinds)]
        except ValueError as err:
            out.append(err)
            continue
        out.append((model, acf, observed))
    return out


def mc_grid_rows(X, p: int, q: int, m_list, N: int, parents, kinds=("d_hat",),
                 known_spec: ArmaSpec | None = None,
                 fit_options: FitOptions = FitOptions(), threads: int = 1,
                 levels=()) -> list:
    """mc_portmanteau_grid of every row of X (rows, n) at once.

    Row i draws replicate j on RngStream(seed_i, j, parent_key=key_i), with
    (seed_i, key_i) = parents[i].  Returns per row its McGridResult, or the
    ValueError or ReplicateFailedError that mc_portmanteau_grid raises for
    that row alone.  The observed fits, ACFs and statistics of all rows run
    as one block (_observed_rows).  The replicates of all rows are pooled
    into full phase-one blocks, each row's simulated from its own replicate
    spec, and each row's exceedance counts are accumulated block by block,
    so no rows x N statistics array is held.  `threads` spreads the
    replicates over map_chunks.

    With `levels`, each row stops drawing at the first replicate where all
    its decisions p <= level are fixed, and its result holds those
    decisions in `rejects` in place of `cells` (see the module docstring).
    Curtailed replicates are drawn in many short waves, so `levels` needs
    threads == 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(levels) and threads > 1:
        raise ValueError("levels need threads == 1")
    m_list = tuple(int(m) for m in m_list)
    kinds = tuple(kinds)
    if not m_list or not kinds:
        raise ValueError("need at least one m and one statistic kind")
    for kind in kinds:
        if kind not in MC_STATISTICS:
            raise ValueError(f"statistic kind must be one of {MC_STATISTICS}, got {kind!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(parents) != len(X):
        raise ValueError("need one row of X (rows, n) per parent stream")
    n = X.shape[1]
    if max(m_list) >= n:
        raise ValueError(f"need m < n, got m={max(m_list)}, n={n}")
    thresholds = rejection_thresholds(N, levels) if len(levels) else None

    results = _observed_rows(X, p, q, m_list, kinds, known_spec, fit_options)
    scored = [i for i, r in enumerate(results) if not isinstance(r, Exception)]
    if not scored:
        return results
    index = {}  # replicate spec -> its position among the distinct ones
    which = np.array([index.setdefault(results[i][0].spec, len(index)) for i in scored])
    specs = list(index)
    observed = np.array([[v.statistic for v in results[i][2]] for i in scored])
    size = _block_size(specs, n)
    worker = partial(_exceedance_rows, specs, which, size, n, m_list, kinds, p, q, known_spec,
                     fit_options, observed)
    counts, drawn, first_dead = _draw_waves(worker, [parents[i] for i in scored], N,
                                            observed.shape[1], thresholds, size, threads)
    for owner, i in enumerate(scored):
        fitted, observed_acf, observed_row = results[i]
        failures, nonconverged = (int(c) for c in counts[owner, -2:])
        if owner in first_dead:
            results[i] = first_dead[owner]
        elif failures > N:
            results[i] = ReplicateFailedError(
                f"{failures} replicate failures exceeded N={N}; aborting")
        else:
            cells, rejects = {}, {}
            for col, obs in enumerate(observed_row):
                k = int(counts[owner, col])
                if thresholds is None:
                    cells[(obs.m, obs.kind)] = McTestResult(
                        observed=obs, N=N, k=k, p_value=(k + 1) / (N + 1),
                        failed_replicates=failures, statistic_kind=obs.kind,
                        master_seed=parents[i][0])
                else:
                    rejects[(obs.m, obs.kind)] = tuple(bool(k <= K) for K in thresholds)
            results[i] = McGridResult(cells=cells, fitted=fitted, N=N,
                                      failed_replicates=failures,
                                      observed_acf=observed_acf,
                                      nonconverged_refits=nonconverged,
                                      drawn=int(drawn[owner]), rejects=rejects)
    return results


def mc_portmanteau_grid(series, p: int, q: int, m_list, N: int,
                        kinds=("d_hat",), master_seed: int = 0,
                        base_stream: RngStream | None = None,
                        known_spec: ArmaSpec | None = None,
                        fit_options: FitOptions = FitOptions(),
                        threads: int = 1, levels=()) -> McGridResult:
    """Monte-Carlo test over a grid of lag counts and statistic kinds.

    All cells share the same fitted model and the same N simulated/refitted
    replicates (paired design).  Replicate i draws from substream i of the
    master seed, or of `base_stream` when nesting inside an outer
    simulation loop.  The one-series case of mc_grid_rows; with `levels`
    the replicates are curtailed and only the decisions p <= level are
    returned, in `rejects`.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    parent = (master_seed, ()) if base_stream is None else (base_stream.master_seed,
                                                            base_stream.key)
    (result,) = mc_grid_rows(x[None], p, q, m_list, N, (parent,), kinds, known_spec,
                             fit_options, threads, levels)
    if isinstance(result, Exception):
        raise result
    return result


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
