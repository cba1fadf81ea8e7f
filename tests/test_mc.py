"""Monte-Carlo test engine: p-value law, determinism, oracle-mode exactness."""
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import gvport.mc as mc_module
from gvport.arma import ArmaSpec, NotAdmissibleError
from gvport.diagnostics import portmanteau_table, residual_acf
from gvport.estimation import FitOptions, css_residuals, fit_arma
from gvport.generators import RngStream, simulate_arma, simulate_arma_rows
from gvport.mc import (
    REDRAW_ATTEMPTS,
    ReplicateFailedError,
    map_chunks,
    mc_grid_rows,
    mc_portmanteau_grid,
    mc_portmanteau_test,
    mc_test_batch,
    redraw,
    replicate_rows,
)


def impulse_series(n=60):
    """Residuals under the white-noise oracle have every r(k) = 0 exactly."""
    x = np.zeros(n)
    x[0] = 1.0
    return x


class TestPValueLaw:
    def test_p_value_formula(self):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 150, RngStream(0, 0))
        res = mc_portmanteau_test(x, 1, 0, 8, 99, "d_hat", master_seed=11)
        assert res.p_value == (res.k + 1) / (res.N + 1)
        assert res.p_value * (res.N + 1) == pytest.approx(round(res.p_value * (res.N + 1)))
        assert 1 / (res.N + 1) <= res.p_value <= 1.0

    def test_specific_k_maps_to_p(self):
        # k=4, N=99 -> p = 0.05: verified via the formula on a constructed result
        assert (4 + 1) / (99 + 1) == 0.05

    def test_zero_observed_statistic_gives_p_one(self):
        res = mc_portmanteau_test(impulse_series(), 0, 0, 5, 19, "d_hat",
                                  master_seed=3, known_spec=ArmaSpec())
        assert res.observed.statistic == 0.0
        assert res.k == res.N
        assert res.p_value == 1.0

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            mc_portmanteau_test(impulse_series(), 0, 0, 5, 0)

    def test_m_at_least_n_rejected(self):
        with pytest.raises(ValueError, match="m < n"):
            mc_portmanteau_test(impulse_series(30), 0, 0, 30, 9)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError, match="statistic kind"):
            mc_portmanteau_test(impulse_series(), 0, 0, 5, 9, "d_mod")


class TestDeterminism:
    def test_pure_function_of_inputs(self):
        x = simulate_arma(ArmaSpec(ar=(0.6,)), 120, RngStream(1, 0))
        a = mc_portmanteau_test(x, 1, 0, 6, 39, "ljung_box", master_seed=7)
        b = mc_portmanteau_test(x, 1, 0, 6, 39, "ljung_box", master_seed=7)
        assert a == b

    def test_thread_count_irrelevant(self):
        x = simulate_arma(ArmaSpec(ar=(0.6,)), 120, RngStream(2, 0))
        serial = mc_portmanteau_test(x, 1, 0, 6, 24, master_seed=7, threads=1)
        parallel = mc_portmanteau_test(x, 1, 0, 6, 24, master_seed=7, threads=3)
        assert serial == parallel

    def test_base_stream_nesting(self):
        x = simulate_arma(ArmaSpec(ar=(0.6,)), 120, RngStream(3, 0))
        root = RngStream(55, 4)
        a = mc_portmanteau_test(x, 1, 0, 6, 19, base_stream=root)
        b = mc_portmanteau_test(x, 1, 0, 6, 19, base_stream=RngStream(55, 4))
        assert a == b
        assert a.master_seed == 55

    def test_monotone_in_observed(self):
        # same oracle spec + seed = same replicates; larger observed cannot raise k
        rng = np.random.default_rng(4)
        spec = ArmaSpec()
        xs = [rng.standard_normal(80) for _ in range(6)]
        results = [mc_portmanteau_test(x, 0, 0, 5, 49, master_seed=13, known_spec=spec)
                   for x in xs]
        results.sort(key=lambda r: r.observed.statistic)
        ks = [r.k for r in results]
        assert all(a >= b for a, b in zip(ks, ks[1:]))


class TestGrid:
    def test_shared_replicates_consistent_with_single(self):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 150, RngStream(5, 0))
        grid = mc_portmanteau_grid(x, 1, 0, (5, 10), 29, kinds=("d_hat", "ljung_box"),
                                   master_seed=21)
        single = mc_portmanteau_test(x, 1, 0, 5, 29, "d_hat", master_seed=21)
        assert grid.cells[(5, "d_hat")] == single

    def test_all_cells_present(self):
        x = simulate_arma(ArmaSpec(), 100, RngStream(6, 0))
        grid = mc_portmanteau_grid(x, 0, 0, (5, 10), 19,
                                   kinds=("d_hat", "ljung_box", "box_pierce"))
        assert set(grid.cells) == {(m, k) for m in (5, 10)
                                   for k in ("d_hat", "ljung_box", "box_pierce")}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            mc_portmanteau_grid(impulse_series(), 0, 0, (), 9)


class TestFailureHandling:
    def test_refit_failures_redrawn_and_counted(self, monkeypatch):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 100, RngStream(7, 0))
        real_fit = mc_module.fit_arma_rows
        calls = {"n": 0}

        def flaky_fit(X, p, q, options):
            fits = real_fit(X, p, q, options)
            for i in range(len(X)):
                calls["n"] += 1
                # fail every third replicate refit, redraws included
                if calls["n"] % 3 == 0:
                    fits.errors[i] = ValueError("synthetic refit failure")
            return fits

        monkeypatch.setattr(mc_module, "fit_arma_rows", flaky_fit)
        res = mc_portmanteau_test(x, 1, 0, 5, 20, master_seed=9)
        assert res.failed_replicates > 0
        assert res.N == 20

    def test_persistent_failure_aborts(self, monkeypatch):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 100, RngStream(8, 0))

        real_rows = mc_module.fit_arma_rows

        def dead_rows(X, p, q, options):
            return replace(real_rows(X, p, q, options), errors=[ValueError("always fails")] * len(X))

        monkeypatch.setattr(mc_module, "fit_arma_rows", dead_rows)
        # every fit dies, the observed one first -> fatal
        with pytest.raises(ValueError, match="always fails"):
            mc_portmanteau_test(x, 1, 0, 5, 9, master_seed=9)


class TestRedraw:
    @staticmethod
    def keyed_simulate(keys):
        def simulate(stream):
            keys.append(stream.key)
            return len(keys) - 1  # attempt number
        return simulate

    def test_stream_order_and_failure_count(self):
        keys = []

        def score(attempt):
            if attempt < 3:
                raise ValueError("synthetic failure")
            return f"value{attempt}"

        value, failed = redraw(RngStream(5, 2, parent_key=(7,)), self.keyed_simulate(keys), score)
        assert (value, failed) == ("value3", 3)
        assert keys == [(7, 2), (7, 2, 1), (7, 2, 2), (7, 2, 3)]

    def test_first_draw_needs_no_redraw(self):
        keys = []
        assert redraw(RngStream(5, 0), self.keyed_simulate(keys), lambda a: a) == (0, 0)
        assert keys == [(0,)]

    def test_raises_after_last_attempt(self):
        keys = []

        def score(attempt):
            raise ValueError("always fails")

        with pytest.raises(ReplicateFailedError, match=r"\(3, 1\)"):
            redraw(RngStream(5, 1, parent_key=(3,)), self.keyed_simulate(keys), score)
        assert keys == [(3, 1)] + [(3, 1, a) for a in range(1, REDRAW_ATTEMPTS)]
        assert issubclass(ReplicateFailedError, RuntimeError)

    def test_only_listed_errors_redraw(self):
        def score(_):
            raise ArithmeticError("not a redraw error")

        with pytest.raises(ArithmeticError):
            redraw(RngStream(5, 0), lambda stream: 0, score)
        value, failed = redraw(RngStream(5, 0), self.keyed_simulate([]),
                               lambda a: 1 / 0 if a == 0 else a, errors=ZeroDivisionError)
        assert (value, failed) == (1, 1)

    def test_first_attempt_skips_earlier_streams(self):
        keys = []
        value, failed = redraw(RngStream(5, 2), self.keyed_simulate(keys),
                               lambda a: a, first=1)
        assert (value, failed) == (0, 1)
        assert keys == [(2, 1)]

    def test_simulate_error_propagates_without_redraw(self):
        calls = []

        def simulate(stream):
            calls.append(stream.key)
            raise ValueError("simulation failure")

        with pytest.raises(ValueError, match="simulation failure"):
            redraw(RngStream(5, 0), simulate, lambda x: x)
        assert calls == [(0,)]


class TestOracleExactness:
    def test_rejection_rate_small(self):
        # N=19: P(p <= 0.05) = 1/20 exactly under the oracle; 1000 trials
        spec = ArmaSpec(ar=(0.5,))
        trials = 1000
        rejections = 0
        for t in range(trials):
            x = simulate_arma(spec, 60, RngStream(31337, t).substream(0))
            res = mc_portmanteau_test(x, 1, 0, 5, 19, master_seed=31337,
                                      base_stream=RngStream(31337, t), known_spec=spec)
            rejections += res.p_value <= 0.05
        # 99% binomial band around 0.05 at 1000 trials: +-2.576*sqrt(.05*.95/1000)
        assert abs(rejections / trials - 0.05) < 2.576 * np.sqrt(0.05 * 0.95 / trials)


class TestBatch:
    def test_empty(self):
        assert mc_test_batch([]) == []

    def test_order_and_error_aggregation(self):
        x = simulate_arma(ArmaSpec(), 100, RngStream(10, 0))
        configs = [
            {"series": x, "p": 0, "q": 0, "m": 5, "N": 9, "master_seed": 1},
            {"series": x, "p": 0, "q": 0, "m": 5, "N": 0, "master_seed": 2},  # bad
            {"series": x, "p": 0, "q": 0, "m": 5, "N": 9, "master_seed": 3},
        ]
        out = mc_test_batch(configs)
        assert out[0].master_seed == 1
        assert isinstance(out[1], ValueError)
        assert out[2].master_seed == 3

    def test_parallelism_identical(self):
        x = simulate_arma(ArmaSpec(), 100, RngStream(11, 0))
        configs = [{"series": x, "p": 0, "q": 0, "m": 5, "N": 9, "master_seed": s}
                   for s in range(6)]
        a = mc_test_batch(configs, parallelism=1)
        b = mc_test_batch(configs, parallelism=2)
        assert a == b


# ---------------------------------------------------------------------------
# the replicate engine before phase-one blocks, kept as a reference

def reference_redraw_rows(simulate, score, streams) -> tuple[list, int]:
    """`redraw` on each stream in turn: (values, total failed attempts)."""
    rows, failures = [], 0
    for stream in streams:
        row, failed = redraw(stream, simulate, score)
        rows.append(row)
        failures += failed
    return rows, failures


def reference_replicate_score(m_list, kinds, p, q, known_spec, fit_options, sim, fit=fit_arma):
    """Refit one simulated series (or filter it with `known_spec`); every (m, kind) statistic."""
    if known_spec is None:
        resid = fit(sim, p, q, fit_options).residuals
    else:
        resid = css_residuals(sim, known_spec)
    return portmanteau_table(residual_acf(resid, max(m_list)), m_list, kinds).ravel()


def unlucky(x) -> bool:
    """Deterministic synthetic failure: about one series in five."""
    return x[0] > 0.85


class TestAgainstReferenceEngine:
    M_LIST, KINDS = (4, 9), ("d_hat", "ljung_box")

    @staticmethod
    def record_keys(monkeypatch) -> list:
        keys = []
        real = RngStream.generator

        def generator(self):
            keys.append(self.key)
            return real(self)

        monkeypatch.setattr(RngStream, "generator", generator)
        return keys

    def test_failures_redraw_keys_and_k_match(self, monkeypatch):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 100, RngStream(21, 0))
        N, seed = 150, 8  # crosses a block boundary

        real_rows = mc_module.fit_arma_rows

        def flaky_rows(X, p, q, options):
            fits = real_rows(X, p, q, options)
            for i in range(len(X)):
                if unlucky(X[i]):
                    fits.errors[i] = ValueError("synthetic refit failure")
            return fits

        def flaky_fit(series, p, q, options):
            if unlucky(series):
                raise ValueError("synthetic refit failure")
            return fit_arma(series, p, q, options)

        keys = self.record_keys(monkeypatch)
        monkeypatch.setattr(mc_module, "fit_arma_rows", flaky_rows)
        grid = mc_portmanteau_grid(x, 1, 0, self.M_LIST, N, kinds=self.KINDS, master_seed=seed)
        new_keys = sorted(keys)
        keys.clear()

        streams = [RngStream(seed, i) for i in range(1, N + 1)]
        score = partial(reference_replicate_score, self.M_LIST, self.KINDS, 1, 0, None,
                        FitOptions(), fit=flaky_fit)
        rows, failures = reference_redraw_rows(partial(simulate_arma, grid.fitted.spec, 100),
                                               score, streams)
        assert failures > 10
        assert grid.failed_replicates == failures
        assert new_keys == sorted(keys)
        assert any(len(key) == 2 for key in new_keys)  # some rows were redrawn
        stats = np.array(rows)
        for col, (m, kind) in enumerate((m, k) for m in self.M_LIST for k in self.KINDS):
            obs = grid.cells[(m, kind)].observed.statistic
            assert grid.cells[(m, kind)].k == int(np.sum(stats[:, col] >= obs))

    def test_oracle_mode_k_matches(self):
        spec = ArmaSpec(ar=(0.4,), ma=(0.3,))
        x = simulate_arma(spec, 80, RngStream(22, 0))
        grid = mc_portmanteau_grid(x, 1, 1, self.M_LIST, 140, kinds=self.KINDS, master_seed=3,
                                   known_spec=spec)
        score = partial(reference_replicate_score, self.M_LIST, self.KINDS, 1, 1, spec,
                        FitOptions())
        rows, failures = reference_redraw_rows(partial(simulate_arma, spec, 80), score,
                                               [RngStream(3, i) for i in range(1, 141)])
        stats = np.array(rows)
        assert grid.failed_replicates == failures == 0
        for col, (m, kind) in enumerate((m, k) for m in self.M_LIST for k in self.KINDS):
            obs = grid.cells[(m, kind)].observed.statistic
            assert grid.cells[(m, kind)].k == int(np.sum(stats[:, col] >= obs))


class TestBlocks:
    ARGS = ((5, 12), ("d_hat", "ljung_box", "box_pierce"), 1, 1)

    @pytest.mark.parametrize("known", [None, ArmaSpec(ar=(0.5,), ma=(-0.3,))])
    def test_grid_identical_at_threads_1_and_2(self, known):
        x = simulate_arma(ArmaSpec(ar=(0.5,), ma=(-0.3,)), 120, RngStream(23, 0))
        one, two = (mc_portmanteau_grid(x, 1, 1, (5, 12), 129, kinds=("d_hat", "ljung_box"),
                                        master_seed=4, known_spec=known, threads=t)
                    for t in (1, 2))
        assert one.cells == two.cells
        assert (one.failed_replicates, one.nonconverged_refits) == (two.failed_replicates,
                                                                    two.nonconverged_refits)

    @pytest.mark.parametrize("known", [None, ArmaSpec(ar=(0.5,), ma=(-0.3,))])
    def test_rows_identical_in_any_block(self, monkeypatch, known):
        spec = ArmaSpec(ar=(0.5,), ma=(-0.3,))
        streams = [RngStream(24, i) for i in range(1, 130)]
        worker = partial(replicate_rows, spec, 100, *self.ARGS, known, FitOptions())
        full, counts = worker(streams)
        for size in (1, 7):
            monkeypatch.setattr(mc_module, "BLOCK_ROWS", size)
            rows, again = worker(streams)
            np.testing.assert_array_equal(rows, full)
            np.testing.assert_array_equal(again, counts)
        chunked, _ = map_chunks(worker, streams, 2)
        np.testing.assert_array_equal(np.array(chunked), full)


class TestGridRows:
    """mc_grid_rows against mc_portmanteau_grid on each series alone."""

    @pytest.mark.parametrize("known", [None, ArmaSpec(ar=(0.5,))])
    def test_rows_match_one_series_runs(self, monkeypatch, known):
        roots = [RngStream(31, outer) for outer in range(7)]
        X = simulate_arma_rows(ArmaSpec(ar=(0.5,)), 80, [root.substream(0) for root in roots])
        X[2] = 0.0  # an observed series that cannot be scored
        if known is None:
            real_rows = mc_module.fit_arma_rows

            def flaky_rows(X, p, q, options):
                fits = real_rows(X, p, q, options)
                for i in range(len(X)):
                    if unlucky(X[i]):
                        fits.errors[i] = ValueError("synthetic refit failure")
                return fits

            monkeypatch.setattr(mc_module, "fit_arma_rows", flaky_rows)
        else:
            real_resid = mc_module.css_residual_rows

            def flaky_resid(X, spec):
                resid = real_resid(X, spec)
                resid[[unlucky(x) for x in X]] = 0.0  # zero residuals fail the row
                return resid

            monkeypatch.setattr(mc_module, "css_residual_rows", flaky_resid)
        monkeypatch.setattr(mc_module, "BLOCK_ROWS", 7)
        args = ((4, 9), 30)
        kinds = ("d_hat", "ljung_box")
        grids = mc_grid_rows(X, 1, 0, *args, [(root.master_seed, root.key) for root in roots],
                             kinds, known_spec=known)
        failed = scored = 0
        for x, root, grid in zip(X, roots, grids):
            try:
                want = mc_portmanteau_grid(x, 1, 0, *args, kinds=kinds, base_stream=root,
                                           known_spec=known)
            except ValueError as err:
                assert type(grid) is type(err) and str(grid) == str(err)
                failed += 1
                continue
            assert grid.cells == want.cells
            assert grid.fitted.spec == want.fitted.spec
            np.testing.assert_array_equal(grid.observed_acf.r, want.observed_acf.r)
            assert (grid.failed_replicates, grid.nonconverged_refits) == (
                want.failed_replicates, want.nonconverged_refits)
            scored += grid.failed_replicates > 0
        assert failed >= 1 and scored >= 3

    def test_ties_count_as_exceedances(self):
        # the observed series is replicate 4's draw, so replicate 4 ties it exactly
        spec, seed = ArmaSpec(ar=(0.5,)), 32
        x = simulate_arma(spec, 80, RngStream(seed, 4))
        grid = mc_portmanteau_grid(x, 1, 0, (6,), 25, master_seed=seed, known_spec=spec)
        stats, _ = replicate_rows(spec, 80, (6,), ("d_hat",), 1, 0, spec, FitOptions(),
                                  [RngStream(seed, i) for i in range(1, 26)])
        obs = grid.cells[(6, "d_hat")].observed.statistic
        assert stats[3, 0] == obs
        assert grid.cells[(6, "d_hat")].k == int(np.sum(stats[:, 0] >= obs))

    def test_first_dead_stream_is_reported(self, monkeypatch):
        # replicates 3 and 5 draw zero series on every attempt: zero residuals
        real = RngStream.generator

        class Zero:
            def standard_normal(self, out):
                out[:] = 0.0
                return out

        monkeypatch.setattr(RngStream, "generator",
                            lambda s: Zero() if s.key[0] in (3, 5) else real(s))
        spec = ArmaSpec(ar=(0.5,))
        x = simulate_arma(spec, 80, RngStream(33, 0))
        with pytest.raises(ReplicateFailedError, match=r"stream \(3,\) of seed 33"):
            mc_portmanteau_grid(x, 1, 0, (6,), 9, master_seed=33, known_spec=spec)

    def test_inadmissible_known_spec_fails_every_row(self):
        spec = ArmaSpec(ar=(1.5,))
        X = simulate_arma_rows(ArmaSpec(ar=(0.5,)), 40, [RngStream(34, i) for i in range(3)])
        grids = mc_grid_rows(X, 1, 0, (5,), 9, [(34, (i,)) for i in range(3)], known_spec=spec)
        assert all(isinstance(g, NotAdmissibleError) for g in grids)
        with pytest.raises(NotAdmissibleError, match="not stationary"):
            mc_portmanteau_grid(X[0], 1, 0, (5,), 9, known_spec=spec)

    def test_rows_and_parents_must_match(self):
        with pytest.raises(ValueError, match="one row of X"):
            mc_grid_rows(np.zeros((2, 50)), 0, 0, (5,), 9, [(0, ())])


class TestNonconvergedRefits:
    def test_counted_without_moving_p_values(self):
        x = simulate_arma(ArmaSpec(ar=(0.5,), ma=(-0.4,)), 150, RngStream(25, 0))
        capped = FitOptions(max_iter_factor=1)
        grid = mc_portmanteau_grid(x, 1, 1, (6,), 40, master_seed=5, fit_options=capped)
        assert 0 < grid.nonconverged_refits <= 40
        # the same refits, counted by hand
        streams = [RngStream(5, i) for i in range(1, 41)]
        sims = [simulate_arma(grid.fitted.spec, 150, s) for s in streams]
        fits = [fit_arma(sim, 1, 1, capped) for sim in sims]
        assert grid.nonconverged_refits == sum(not f.converged for f in fits)
        stats = [portmanteau_table(residual_acf(f.residuals, 6), (6,), ("d_hat",))[0, 0]
                 for f in fits]
        cell = grid.cells[(6, "d_hat")]
        assert cell.k == sum(s >= cell.observed.statistic for s in stats)

    def test_zero_in_oracle_mode(self):
        spec = ArmaSpec(ar=(0.5,))
        x = simulate_arma(spec, 80, RngStream(26, 0))
        grid = mc_portmanteau_grid(x, 1, 0, (5,), 19, known_spec=spec)
        assert grid.nonconverged_refits == 0
