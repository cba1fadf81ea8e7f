"""Monte-Carlo test engine: p-value law, determinism, oracle-mode exactness."""
import numpy as np
import pytest

import gvport.mc as mc_module
from gvport.arma import ArmaSpec
from gvport.generators import RngStream, simulate_arma
from gvport.mc import (
    REDRAW_ATTEMPTS,
    ReplicateFailedError,
    mc_portmanteau_grid,
    mc_portmanteau_test,
    mc_test_batch,
    redraw,
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
        real_fit = mc_module.fit_arma
        calls = {"n": 0}

        def flaky_fit(series, p, q, options):
            calls["n"] += 1
            # fail the first attempt of every third replicate fit
            if calls["n"] % 3 == 0:
                raise ValueError("synthetic refit failure")
            return real_fit(series, p, q, options)

        monkeypatch.setattr(mc_module, "fit_arma", flaky_fit)
        res = mc_portmanteau_test(x, 1, 0, 5, 20, master_seed=9)
        assert res.failed_replicates > 0
        assert res.N == 20

    def test_persistent_failure_aborts(self, monkeypatch):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 100, RngStream(8, 0))

        def dead_fit(series, p, q, options):
            raise ValueError("always fails")

        real_fit = mc_module.fit_arma
        monkeypatch.setattr(
            mc_module, "fit_arma",
            lambda s, p, q, o: real_fit(s, p, q, o) if len(s) != 100 else dead_fit(s, p, q, o))
        # observed fit (len 100) dies -> fatal
        with pytest.raises(ValueError):
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
