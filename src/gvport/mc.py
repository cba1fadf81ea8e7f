"""Monte-Carlo (parametric bootstrap) portmanteau test.

Protocol: fit the null ARMA order, compute the observed statistic on the
residuals, then N times simulate the fitted model at the original length,
refit, and recompute.  With k the count of replicate statistics >= the
observed one (ties count), the p-value is (k+1)/(N+1).

Each replicate owns one substream of the master seed and any refit-failure
redraw owns a (replicate, attempt) substream, so the result is a pure
function of (series, orders, m, N, statistic kind, master seed) regardless
of how many workers execute the replicates.  `redraw_rows` is that rule
for every replicate loop, here and in the study runners: attempt 0 of a
row draws on its stream and attempt a on stream.substream(a), and attempt
a of every row still failing is scored as one batch.  `map_chunks` is the
one place replicates are spread over worker processes.

One pass, `_score_rows`, turns a block of series into statistics, for
observed series and replicates alike: one batched refit (or one residual
filter for a known spec), one autocorrelation pass and one
`portmanteau_rows` pass.  A row fails where the one-series path would
raise ValueError: an inadmissible or impossible fit, zero residuals, an
autocorrelation outside [-1, 1], or a partial outside (-1, 1); a failed
replicate is redrawn, and a failed observed series gets that error.
Replicates are scored in blocks (`_score_items`) of at most BLOCK_ROWS
consecutive streams (fewer when a block would hold more than BLOCK_VALUES
simulated values), one simulation and one `_score_rows` pass per attempt.
Every kernel computes a row from that row alone, with the same operations
in the same order for any number of rows, so a row's statistics are
bit-identical whether it is scored alone, in a short block or in a full
one: results do not depend on block boundaries, on which rows share an
attempt, or on the number of workers.

`mc_grid_rows` runs many MC tests at once, one per row of a block of
observed series (a study's outer replicates), and `mc_portmanteau_grid` is
its one-series case.  The observed series of all rows form one
`_score_rows` block.  The replicates of all series are pooled, so a block
spans series boundaries and stays full: each row is simulated from its
own series' replicate spec (one simulation per distinct spec in a block)
and the block is scored as one.  Each series' exceedance counts are
accumulated block by block.  A series whose test would raise gets that
error in place of its result.  `replicate_rows` keeps every statistics
row, for the convergence study; both run the same block loop and differ
only in how a block is reduced.

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
from itertools import islice, product

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
from .generators import RngStream, arma_burn_in, simulate_arma_rows

MC_STATISTICS = ("d_hat", "ljung_box", "box_pierce")
REDRAW_ATTEMPTS = 10
# Replicate blocks: at most BLOCK_ROWS replicates and BLOCK_VALUES simulated
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


def redraw_rows(streams, simulate, score) -> tuple:
    """Score every stream on its first attempt that succeeds, one batch per attempt.

    Attempt 0 of row i draws on streams[i] and attempt a on
    streams[i].substream(a).  `simulate(rows, attempt_streams)` makes the
    candidates of the rows `rows` (an index array), and `score(candidates)`
    returns (*values, ok): sequences with one entry per candidate, and a
    bool array of which could be scored; errors of either propagate.
    Attempt a of every row still failing is scored as one batch, up to
    REDRAW_ATTEMPTS attempts.  Returns (values, failed, dead) in stream
    order: each row's values from its scored attempt, that attempt's index
    (its failed attempts), and the ReplicateFailedError of a row that
    failed every attempt, or None; a dead row's values and failed count are
    meaningless.
    """
    rows = np.arange(len(streams))
    failed = np.zeros(len(streams), dtype=int)
    for attempt in range(REDRAW_ATTEMPTS):
        keys = streams if attempt == 0 else [streams[i].substream(attempt) for i in rows]
        *got, ok = score(simulate(rows, keys))
        if attempt == 0:
            values = got
        else:
            for j in np.flatnonzero(ok).tolist():
                for out, new in zip(values, got):
                    out[rows[j]] = new[j]
        failed[rows] = attempt
        rows = rows[~ok]
        if not len(rows):
            break
    dead = [None] * len(streams)
    for i in rows.tolist():
        dead[i] = ReplicateFailedError(f"replicate on stream {streams[i].key} of seed "
                                       f"{streams[i].master_seed} failed {REDRAW_ATTEMPTS} "
                                       "times in a row")
    return values, failed, dead


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

    Returns (fits, R, statistics, ok): the RowFits (with `known_spec`, the
    residual rows), the lag 1..max(m) ACF rows, one statistics row per row
    in (m, kind) order, and which rows the one-series path scores without
    a ValueError.
    """
    if known_spec is None:
        fits = fit_arma_rows(X, p, q, fit_options)
        resid = fits.residuals
        ok = np.array([err is None for err in fits.errors], dtype=bool)
    else:
        fits = resid = css_residual_rows(X, known_spec)
        ok = np.ones(len(X), dtype=bool)
    R, denom = acf_rows(resid, max(m_list))
    values, lag = portmanteau_rows(R, X.shape[1], m_list, kinds)
    ok &= acf_rows_valid(R, denom) & (lag == 0)
    return fits, R, values.reshape(len(X), -1), ok


def _replicate_scores(m_list, kinds, p: int, q: int, known_spec, fit_options, X):
    """_score_rows reduced for redraw_rows: (statistics, nonconverged refit, ok) per row."""
    fits, _, stats, ok = _score_rows(m_list, kinds, p, q, known_spec, fit_options, X)
    nonconverged = np.zeros(len(X), dtype=bool) if known_spec is not None else ~fits.converged
    return stats, nonconverged, ok


def _block_size(specs, n: int) -> int:
    """Rows of a replicate block whose rows are drawn from any of `specs`."""
    burn = max(arma_burn_in(spec) for spec in specs)
    return max(1, min(BLOCK_ROWS, BLOCK_VALUES // (n + burn)))


def _simulate_block(specs, which, n: int, rows, streams) -> np.ndarray:
    """simulate_arma_rows of streams[i] under specs[which[rows[i]]], one call per spec used."""
    which = which[rows]
    X = np.empty((len(streams), n))
    for s in np.unique(which).tolist():
        at = np.flatnonzero(which == s)
        X[at] = simulate_arma_rows(specs[s], n, [streams[i] for i in at])
    return X


def _score_items(specs, which, size: int, n: int, m_list, kinds, p: int, q: int, known_spec,
                 fit_options, reduce, items) -> tuple:
    """Score the replicates `items`, (owner, stream) pairs, in blocks of `size` streams.

    Owner o's replicates are drawn from specs[which[o]], and blocks are
    taken across owners.  redraw_rows scores each attempt of a block as
    rows, and the block is passed, as soon as it is scored, to
    `reduce(owners, stats, failed, nonconverged, dead) -> (rows, counts)`:
    per stream its statistics row, failed attempts, nonconverged refit and
    dead error (see redraw_rows).  Returns the blocks' rows joined and
    their counts summed: a map_chunks worker.
    """
    score = partial(_replicate_scores, tuple(m_list), tuple(kinds), p, q, known_spec, fit_options)
    rows, counts = [], 0
    items = iter(items)
    while block := list(islice(items, size)):
        owners = np.array([owner for owner, _ in block])
        (stats, nonconverged), failed, dead = redraw_rows(
            [stream for _, stream in block], partial(_simulate_block, specs, which[owners], n),
            score)
        got, more = reduce(owners, stats, failed, nonconverged, dead)
        rows.extend(got)
        counts = counts + more
    return rows, counts


def _keep_rows(owners, stats, failed, nonconverged, dead) -> tuple:
    """Reduce a block to its statistics rows and [failed attempts, nonconverged refits].

    Raises the ReplicateFailedError of the block's first dead stream.
    """
    for err in filter(None, dead):
        raise err
    return stats, np.array([failed.sum(), nonconverged.sum()])


def _exceedances(observed, owners, stats, failed, nonconverged, dead) -> tuple:
    """Reduce a block to one (flags, dead) pair, against observed[owner] in (m, kind) order.

    flags holds per stream whether each replicate statistic is >= its
    owner's observed one, then the stream's failed attempts and
    nonconverged refit.
    """
    flags = np.column_stack((stats >= observed[owners], failed, nonconverged))
    return [(flags, dead)], 0


def replicate_rows(spec: ArmaSpec, n: int, m_list, kinds, p: int, q: int, known_spec,
                   fit_options, streams) -> tuple[np.ndarray, np.ndarray]:
    """Statistics of the replicates drawn from `spec` on `streams`, in stream order.

    Returns (one statistics row per stream, [failed attempts, nonconverged
    refits]); raises the ReplicateFailedError of the first stream that
    failed every attempt.
    """
    rows, counts = _score_items((spec,), np.zeros(1, dtype=int), _block_size((spec,), n), n,
                                m_list, kinds, p, q, known_spec, fit_options, _keep_rows,
                                ((0, stream) for stream in streams))
    return np.array(rows), counts


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
    """Run `worker` (_score_items with _exceedances) over each parent's replicates, wave by wave.

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
    or the ValueError the one-series path raises for row i.  The rows are
    scored by _score_rows, as replicates are; a row it cannot score gets
    its fit error, or reruns the one-row functions, which raise its exact
    error.
    """
    n, M = X.shape[1], max(m_list)
    try:
        fits, R, stats, ok = _score_rows(m_list, kinds, p, q, known_spec, fit_options, X)
    except ValueError as err:
        return [err] * len(X)
    out = []
    for i, row in enumerate(stats.tolist()):
        try:
            if known_spec is None:
                model = fits.model(i)
            else:
                resid = fits[i]
                model = FittedModel(spec=known_spec, residuals=resid,
                                    css=float(np.dot(resid, resid)), converged=True,
                                    iterations=0, n=n)
            if not ok[i]:  # the one-row functions raise this row's exact error
                portmanteau_table(residual_acf(model.residuals, M), m_list, kinds)
            acf = ResidualAcf(R[i], n, M)
            observed = [PortmanteauValue(statistic=v, kind=kind, m=m, fit_count=p + q)
                        for v, (m, kind) in zip(row, product(m_list, kinds))]
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
    that row alone.  The observed series of all rows are scored as one
    block, by the pass that scores replicates (_observed_rows).  The
    replicates of all rows are pooled into full replicate blocks, each
    row's simulated from its own replicate spec, and each row's exceedance
    counts are accumulated block by block, so no rows x N statistics array
    is held.  `threads` spreads the replicates over map_chunks.

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
    worker = partial(_score_items, specs, which, size, n, m_list, kinds, p, q, known_spec,
                     fit_options, partial(_exceedances, observed))
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
                        threads: int = 1) -> McGridResult:
    """Monte-Carlo test over a grid of lag counts and statistic kinds.

    All cells share the same fitted model and the same N simulated/refitted
    replicates (paired design).  Replicate i draws from substream i of the
    master seed, or of `base_stream` when nesting inside an outer
    simulation loop.  The one-series case of mc_grid_rows.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    parent = (master_seed, ()) if base_stream is None else (base_stream.master_seed,
                                                            base_stream.key)
    (result,) = mc_grid_rows(x[None], p, q, m_list, N, (parent,), kinds, known_spec,
                             fit_options, threads)
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

