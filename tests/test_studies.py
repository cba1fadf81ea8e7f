"""Study-harness tests: config validation, each study kind, determinism, outputs."""
import csv
import io
import json
from functools import partial

import numpy as np
import pytest

import gvport.mc as mc_module
from gvport import studies
from gvport.arma import ArmaSpec
from gvport.diagnostics import ljung_box, portmanteau_table, residual_acf
from gvport.estimation import FitOptions, css_residuals, fit_arma
from gvport.generators import RngStream
from gvport.mc import ReplicateFailedError, mc_portmanteau_grid, redraw, replicate_rows
from gvport.studies import (
    QQ_PROBS,
    StudyConfig,
    StudyConfigError,
    build_model,
    load_study_config,
    run_convergence_study,
    run_gamma_distortion_study,
    run_power_study,
    run_size_study,
    run_study,
)

AR1_MODEL = {"type": "arma", "ar": [0.5], "id": "ar1"}


def tiny_config(study="size", **over):
    base = {
        "study": study,
        "models": [AR1_MODEL],
        "fit": {"p": 1, "q": 0},
        "m": [5],
        "n": [60],
        "R": 12,
        "N": 19,
        "levels": [0.05],
        "statistics": ["d_hat"],
        "seed": 77,
    }
    base.update(over)
    return load_study_config(base)


class TestConfigLoading:
    def test_minimal(self):
        cfg = tiny_config()
        assert cfg.study == "size"
        assert cfg.replications == 12 and cfg.mc_replicates == 19

    def test_unknown_study(self):
        with pytest.raises(StudyConfigError, match="study"):
            tiny_config(study="banana")

    def test_empty_models(self):
        with pytest.raises(StudyConfigError, match="models"):
            tiny_config(models=[])

    def test_bad_model_field_path(self):
        with pytest.raises(StudyConfigError, match=r"models\[0\]"):
            tiny_config(models=[{"type": "garch", "omega": -1.0}])

    def test_bad_level(self):
        with pytest.raises(StudyConfigError, match="levels"):
            tiny_config(levels=[1.5])

    def test_bad_counts(self):
        with pytest.raises(StudyConfigError, match="R"):
            tiny_config(R=0)

    def test_power_m_must_exceed_fit_count(self):
        with pytest.raises(StudyConfigError, match="m > p\\+q"):
            tiny_config(study="power", m=[1], fit={"p": 1, "q": 0})

    def test_n_must_exceed_m_for_simulation_studies(self):
        with pytest.raises(StudyConfigError, match="series length"):
            tiny_config(m=[60], n=[60])

    def test_scale_divides_counts(self):
        cfg = load_study_config(
            {"study": "size", "models": [AR1_MODEL], "R": 1000, "N": 250}, scale=10)
        assert cfg.replications == 100
        assert cfg.mc_replicates == 25

    def test_scale_floors(self):
        cfg = load_study_config(
            {"study": "size", "models": [AR1_MODEL], "R": 10, "N": 99}, scale=1000)
        assert cfg.replications == 1
        assert cfg.mc_replicates == 19

    def test_json_text_and_file(self, tmp_path):
        raw = {"study": "size", "models": [AR1_MODEL], "R": 5, "N": 9}
        cfg_text = load_study_config(json.dumps(raw))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg_file = load_study_config(str(path))
        assert cfg_text == cfg_file

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StudyConfigError, match="not valid JSON"):
            load_study_config(str(path))

    def test_oracle_requires_arma(self):
        with pytest.raises(StudyConfigError, match="oracle"):
            tiny_config(models=[{"type": "fractional_noise", "d": 0.3}], oracle=True)

    def test_build_model_kinds(self):
        mid, spec = build_model({"type": "fractional_noise", "d": 0.2}, 0)
        assert mid == "fn(d=0.2)"
        mid2, spec2 = build_model({"type": "garch", "omega": 0.1, "alpha": [0.2],
                                   "beta": [0.7]}, 1)
        assert spec2.unconditional_variance == pytest.approx(1.0)

    @pytest.mark.parametrize("model", [{"type": "arma", "ar": [1.5]},
                                       {"type": "arma", "ma": [0.5, 0.9, 0.8]}])
    @pytest.mark.parametrize("study", ["size", "gamma_distortion"])
    def test_inadmissible_arma_rejected(self, model, study):
        with pytest.raises(StudyConfigError, match=r"models\[1\]"):
            tiny_config(study=study, models=[AR1_MODEL, model])


class TestGammaDistortionStudy:
    def test_grid_rows_and_values(self):
        cfg = load_study_config({
            "study": "gamma_distortion",
            "models": [{"type": "arma", "ar": [0.3], "ma": [-0.9]},
                       {"type": "arma", "ar": [-0.6], "ma": [-0.3]}],
            "m": [10], "levels": [0.05]})
        rep = run_gamma_distortion_study(cfg)
        assert len(rep.rows) == 2
        assert rep.rows[0]["estimate"] == pytest.approx(0.083, abs=0.002)
        assert rep.rows[1]["estimate"] == pytest.approx(0.069, abs=0.002)
        assert any("0.692" in w for w in rep.warnings)

    def test_ar2_sweep(self):
        cfg = load_study_config({
            "study": "gamma_distortion",
            "models": [{"type": "ar2_sweep", "phi2": 0.9, "points": 5}],
            "m": [10], "levels": [0.05]})
        rep = run_gamma_distortion_study(cfg)
        assert len(rep.rows) == 5
        assert all(r["estimate"] > 0.05 for r in rep.rows)

    def test_infeasible_cell_reported(self):
        cfg = load_study_config({
            "study": "gamma_distortion",
            "models": [{"type": "arma", "ar": [0.5, 0.1], "ma": [0.2]}],
            "m": [7], "levels": [0.05]})
        rep = run_gamma_distortion_study(cfg)
        assert np.isnan(rep.rows[0]["estimate"])
        assert any("minimal feasible m is 8" in w for w in rep.warnings)

    def test_white_noise_constant_across_cells(self):
        cfg = load_study_config({
            "study": "gamma_distortion",
            "models": [{"type": "arma", "id": "wn1"}, {"type": "arma", "id": "wn2"}],
            "m": [10], "levels": [0.05]})
        rep = run_gamma_distortion_study(cfg)
        assert rep.rows[0]["estimate"] == rep.rows[1]["estimate"]


class TestSizeStudy:
    def test_tiny_run_shape(self):
        rep = run_size_study(tiny_config())
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row["study"] == "size:mc_d_hat"
        assert 0.0 <= row["estimate"] <= 0.4
        assert row["R"] == 12 and row["N"] == 19

    def test_oracle_mode_runs(self):
        rep = run_size_study(tiny_config(oracle=True, R=40))
        assert 0.0 <= rep.rows[0]["estimate"] <= 0.25

    def test_multiple_levels_and_m(self):
        rep = run_size_study(tiny_config(m=[4, 6], levels=[0.05, 0.1]))
        assert len(rep.rows) == 4
        labels = {(r["m"], r["alpha"]) for r in rep.rows}
        assert labels == {(4, 0.05), (4, 0.1), (6, 0.05), (6, 0.1)}


class TestPowerStudy:
    def test_paired_rows_present(self):
        cfg = tiny_config(study="power",
                          models=[{"type": "fractional_noise", "d": 0.3, "id": "fn3"}],
                          statistics=["d_hat", "ljung_box"], R=8, N=19, n=[64])
        rep = run_power_study(cfg)
        studies = {r["study"] for r in rep.rows}
        assert studies == {"power:mc_d_hat", "power:mc_ljung_box", "power:chi2_ljung_box"}

    def test_garch_alternative_runs(self):
        cfg = tiny_config(study="power",
                          models=[{"type": "garch", "omega": 0.1, "alpha": [0.3],
                                   "beta": [0.5], "id": "g"}],
                          fit={"p": 0, "q": 0}, R=6, N=19, n=[60])
        rep = run_power_study(cfg)
        assert all(0.0 <= r["estimate"] <= 1.0 for r in rep.rows)

    def test_null_model_power_is_size(self):
        # generating from the fitted family: power ~ alpha
        cfg = tiny_config(study="power", R=60, N=19, statistics=["d_hat"])
        rep = run_power_study(cfg)
        mc_row = [r for r in rep.rows if r["study"] == "power:mc_d_hat"][0]
        assert mc_row["estimate"] < 0.25


class TestConvergenceStudy:
    def test_tail_prob_and_qq(self):
        cfg = tiny_config(study="convergence", R=60, m=[10], n=[80])
        rep = run_convergence_study(cfg)
        assert len(rep.rows) == 1
        assert 0.0 <= rep.rows[0]["estimate"] <= 1.0
        assert len(rep.qq_rows) == 1
        block = rep.qq_rows[0]
        assert len(block["asymptotic"]) == len(QQ_PROBS)
        assert all(a <= b + 1e-12 for a, b in zip(block["asymptotic"], block["asymptotic"][1:]))

    def test_qq_csv_two_columns(self):
        cfg = tiny_config(study="convergence", R=30, m=[6], n=[60])
        rep = run_convergence_study(cfg)
        text = rep.qq_csv_text()
        data_lines = [ln for ln in text.splitlines()
                      if ln and not ln.startswith("#") and not ln[0].isalpha()]
        assert all(len(ln.split(",")) == 2 for ln in data_lines)
        assert len(data_lines) == len(QQ_PROBS)


class TestNonconvergedRefits:
    """Replicate refits left unconverged by the iteration cap are reported, never dropped."""

    CAPPED = FitOptions(max_iter_factor=1)

    def test_convergence_study_warns(self, monkeypatch):
        cfg = tiny_config(study="convergence", R=20, m=[6], n=[60], fit={"p": 1, "q": 1},
                          models=[{"type": "arma", "ar": [0.5], "ma": [-0.4], "id": "arma11"}])
        assert not any("did not converge" in w for w in run_convergence_study(cfg).warnings)
        monkeypatch.setattr(studies, "FitOptions", lambda: self.CAPPED)
        capped = run_convergence_study(cfg)
        streams = [RngStream(cfg.master_seed, outer).substream(0) for outer in range(20)]
        _, (_, count) = replicate_rows(ArmaSpec(ar=(0.5,), ma=(-0.4,)), 60, (6,), ("d_hat",),
                                       1, 1, None, self.CAPPED, streams)
        assert count > 0
        assert f"arma11 n=60: {count} simulation refits did not converge" in capped.warnings

    def test_rejection_study_warns(self, monkeypatch):
        cfg = tiny_config(R=3, N=19, fit={"p": 1, "q": 1},
                          models=[{"type": "arma", "ar": [0.5], "ma": [-0.4], "id": "arma11"}])
        assert not any("did not converge" in w for w in run_size_study(cfg).warnings)
        monkeypatch.setattr(studies, "FitOptions", lambda: self.CAPPED)
        rep = run_size_study(cfg)
        # the same outer replicates, replicate by replicate up to each one's stop
        roots = [RngStream(cfg.master_seed, outer) for outer in range(3)]
        _, (_, count, _) = curtailed_rejection_rows(ArmaSpec(ar=(0.5,), ma=(-0.4,)), 60, (5,),
                                                    ("d_hat",), 1, 1, 19, None, False, (0.05,),
                                                    roots)
        assert count > 0
        assert f"arma11 n=60: {count} replicate refits did not converge" in rep.warnings


# ---------------------------------------------------------------------------
# references for the size and power runner: the per-root full-N runner before
# pooled outer replicates, and a replicate-by-replicate walk of the curtailed rule

def reference_rejection_rows(spec, n, m_list, kinds, fit_p, fit_q, N, known_spec, want_chi2,
                             levels, roots):
    """One `redraw` of the full-N mc_portmanteau_grid per outer replicate, in root order."""
    simulate = partial(studies.simulate_model, spec, n)
    rows, failures, nonconverged = [], 0, 0
    for root in roots:
        grid, failed = redraw(
            root.substream(0), simulate,
            lambda x: mc_portmanteau_grid(x, fit_p, fit_q, m_list, N, kinds=kinds,
                                          base_stream=root, known_spec=known_spec),
            errors=(ValueError, ReplicateFailedError))
        p_values = [grid.cells[(m, kind)].p_value for m in m_list for kind in kinds]
        if want_chi2:
            p_values += [ljung_box(grid.observed_acf.prefix(m), fit_p + fit_q)[1]
                         for m in m_list]
        rows.append([[p <= level for level in levels] for p in p_values])
        failures += failed + grid.failed_replicates
        nonconverged += grid.nonconverged_refits
    return rows, np.array([failures, nonconverged, len(rows) * N])


def replicate_score(p, q, m_list, kinds, known_spec, fit_options, x):
    """The (m, kind) statistics of one series, its ACF, and whether its refit stayed unconverged."""
    if known_spec is None:
        fit = fit_arma(x, p, q, fit_options)
        resid, unconverged = fit.residuals, not fit.converged
    else:
        resid, unconverged = css_residuals(x, known_spec), False
    acf = residual_acf(resid, max(m_list))
    return portmanteau_table(acf, m_list, kinds).ravel(), acf, unconverged


def curtailed_outer(root, p, q, m_list, kinds, N, known_spec, levels, x):
    """One attempt of outer replicate `root` on series x, one replicate at a time.

    Replicates are drawn in key order until every decision p <= level is
    fixed whatever the replicates left would show.  Returns (p-values at the
    stop, observed ACF, failed attempts, nonconverged refits, replicates
    drawn); raises like the engine when a stream dies or failures exceed N.
    """
    fit_options = studies.FitOptions()
    score = partial(replicate_score, p, q, m_list, kinds, known_spec, fit_options)
    observed, acf, _ = score(x)
    spec = known_spec if known_spec is not None else fit_arma(x, p, q, fit_options).spec
    simulate = partial(mc_module.simulate_arma, spec, len(x))  # the engine's, as patched
    levels = np.array(levels)
    k = np.zeros(len(observed), dtype=int)
    failures = nonconverged = drawn = 0

    def fixed():
        smallest, largest = (k[:, None] + 1) / (N + 1), (k[:, None] + N - drawn + 1) / (N + 1)
        return np.all((smallest > levels) | (largest <= levels))

    while not fixed():
        drawn += 1
        (stats, _, unconverged), failed = redraw(root.substream(drawn), simulate, score)
        k += stats >= observed
        failures += failed
        nonconverged += unconverged
    if failures > N:
        raise ReplicateFailedError(f"{failures} replicate failures exceeded N={N}; aborting")
    return (k + 1) / (N + 1), acf, failures, nonconverged, drawn


def curtailed_rejection_rows(spec, n, m_list, kinds, fit_p, fit_q, N, known_spec, want_chi2,
                             levels, roots):
    """`redraw` of curtailed_outer per outer replicate: rows and counts as _rejection_rows."""
    rows, counts = [], np.zeros(3, dtype=int)
    for root in roots:
        (p_values, acf, failures, nonconverged, drawn), failed = redraw(
            root.substream(0), partial(studies.simulate_model, spec, n),
            partial(curtailed_outer, root, fit_p, fit_q, tuple(m_list), tuple(kinds), N,
                    known_spec, levels),
            errors=(ValueError, ReplicateFailedError))
        p_values = list(p_values)
        if want_chi2:
            p_values += [ljung_box(acf.prefix(m), fit_p + fit_q)[1] for m in m_list]
        rows.append([[p <= level for level in levels] for p in p_values])
        counts += (failed + failures, nonconverged, drawn)
    return rows, counts


class ZeroGenerator:
    """Stands in for a stream's generator: every normal draw is 0."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[:] = 0.0
        return out


class InjectedFailures:
    """Deterministic failures on every path of the pooled runner.

    - Outer 1's attempt-0 series is drawn from zero innovations, a constant
      series that neither a fit nor a known-spec ACF accepts.
    - Inner replicate j of outer o fails its attempt 0 when 7o + j is a
      multiple of 11, and its redraw succeeds.
    - Under outer 3's attempt-0 fitted spec, every inner replicate fails
      attempts 0 to 8: more than N failures once 3 replicates are drawn,
      which outer 3 reaches before its stop on these inputs.
    - Under outer 5's attempt-0 fitted spec, inner stream 1, which every
      open test draws, fails all REDRAW_ATTEMPTS attempts.

    A failing replicate is the zero series, which a fit rejects as constant
    and a known spec with mean 0 filters to zero residuals.  Outers 3 and 5
    recover on their attempt-1 series, whose fitted spec differs.
    """

    def __init__(self, monkeypatch, cfg, fitted: bool):
        self.exceed, self.dead, self.fired, self.drawn = set(), set(), set(), set()
        if fitted:
            for i, desc in enumerate(cfg.models):
                _, spec = build_model(desc, i)
                for n in cfg.n_list:
                    for outer, specs in ((3, self.exceed), (5, self.dead)):
                        x = studies.simulate_model(spec, n,
                                                   RngStream(cfg.master_seed, outer).substream(0))
                        specs.add(fit_arma(x, cfg.fit_p, cfg.fit_q).spec)
        real_generator = RngStream.generator

        def generator(stream):
            self.drawn.add(stream.key)
            return ZeroGenerator() if stream.key == (1, 0) else real_generator(stream)

        monkeypatch.setattr(RngStream, "generator", generator)
        real_rows = mc_module.simulate_arma_rows
        monkeypatch.setattr(mc_module, "simulate_arma_rows", self.wrap(real_rows))
        monkeypatch.setattr(mc_module, "simulate_arma",
                            lambda spec, n, stream: self.wrap(real_rows)(spec, n, [stream])[0])

    def doomed(self, key, spec) -> str | None:
        if len(key) == 2 and (7 * key[0] + key[1]) % 11 == 0:
            return "redraw"
        if key[0] == 3 and spec in self.exceed and (len(key) == 2 or key[2] < 9):
            return "exceed"
        if key[:2] == (5, 1) and spec in self.dead:
            return "dead"
        return None

    def wrap(self, real_rows):
        def simulate_rows(spec, n, streams):
            X = real_rows(spec, n, streams)
            for row, stream in zip(X, streams):
                path = self.doomed(stream.key, spec)
                if path:
                    row[:] = 0.0
                    self.fired.add(path)
            return X
        return simulate_rows


class LateDeadStream(InjectedFailures):
    """InjectedFailures, and under outer 6's attempt-0 fitted spec inner stream 19
    fails all REDRAW_ATTEMPTS attempts: a stream past outer 6's stop on these inputs."""

    def __init__(self, monkeypatch, cfg):
        super().__init__(monkeypatch, cfg, fitted=True)
        (desc,), (n,) = cfg.models, cfg.n_list
        x = studies.simulate_model(build_model(desc, 0)[1], n,
                                   RngStream(cfg.master_seed, 6).substream(0))
        self.late = fit_arma(x, cfg.fit_p, cfg.fit_q).spec

    def doomed(self, key, spec):
        if key[:2] == (6, 19) and spec == self.late:
            return "late"
        return super().doomed(key, spec)


class TestAgainstReferenceRunner:
    """The pooled runner against the per-root one: CSVs, warnings and failure counts."""

    CONFIGS = {
        "size_fitted": dict(m=[3, 5], statistics=["d_hat", "ljung_box"], levels=[0.05, 0.1]),
        "size_oracle": dict(oracle=True, models=[{"type": "arma", "ar": [0.5], "ma": [0.3]}],
                            m=[3, 5], statistics=["d_hat", "box_pierce"], levels=[0.05, 0.1],
                            fit={"p": 1, "q": 1}),
        "power": dict(study="power", statistics=["d_hat", "ljung_box"], m=[4, 6], models=[
            {"type": "fractional_noise", "d": 0.3, "id": "fn"},
            {"type": "garch", "omega": 0.1, "alpha": [0.3], "beta": [0.5], "id": "garch"},
            {"type": "arma", "ar": [0.5, -0.3], "id": "ar2"}]),
    }

    @staticmethod
    def run(cfg):
        rep = studies.run_study(cfg, threads=1)
        return rep.csv_text(), rep.warnings

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_identical_to_per_root_runner(self, monkeypatch, name):
        over = dict(self.CONFIGS[name])
        cfg = tiny_config(**{"study": over.pop("study", "size"), "R": 8, "N": 19, **over})
        injected = InjectedFailures(monkeypatch, cfg, fitted=not cfg.oracle)
        with monkeypatch.context() as patch:
            patch.setattr(studies, "_rejection_rows", reference_rejection_rows)
            full_n, _ = self.run(cfg)
            # warnings count failures and refits of replicates 1..stop only
            patch.setattr(studies, "_rejection_rows", curtailed_rejection_rows)
            want = self.run(cfg)
        assert want[0] == full_n
        injected.fired.clear(), injected.drawn.clear()
        assert self.run(cfg) == want
        assert injected.fired == ({"redraw"} if cfg.oracle else {"redraw", "exceed", "dead"})
        # outers whose attempt 0 failed, and only those, drew an attempt-1 series
        redrawn = {key for key in injected.drawn if key[1:] == (0, 1)}
        assert redrawn == ({(1, 0, 1)} if cfg.oracle else {(1, 0, 1), (3, 0, 1), (5, 0, 1)})
        assert any(len(key) == 3 and key[1] > 0 for key in injected.drawn)  # inner redraws
        for size in (1, 7, 128):
            monkeypatch.setattr(mc_module, "BLOCK_ROWS", size)
            for threads in (1, 2):
                rep = studies.run_study(cfg, threads=threads)
                assert (rep.csv_text(), rep.warnings) == want, (size, threads)

    def test_dead_stream_past_the_stop(self, monkeypatch):
        # the full-N test of outer 6 meets the dead stream and redraws the
        # outer series; the curtailed test stops first and scores attempt 0,
        # although the pooled runner draws that stream in a wave past the stop
        cfg = tiny_config(R=8, N=19, **self.CONFIGS["size_fitted"])
        injected = LateDeadStream(monkeypatch, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(studies, "_rejection_rows", reference_rejection_rows)
            self.run(cfg)
            assert "late" in injected.fired and (6, 0, 1) in injected.drawn
            patch.setattr(studies, "_rejection_rows", curtailed_rejection_rows)
            want = self.run(cfg)
        injected.fired.clear(), injected.drawn.clear()
        assert self.run(cfg) == want
        assert injected.fired == {"redraw", "exceed", "dead", "late"}
        assert (6, 0, 1) not in injected.drawn
        for threads in (1, 2):
            rep = studies.run_study(cfg, threads=threads)
            assert (rep.csv_text(), rep.warnings) == want

    def test_unrecoverable_outer_raises_alike(self, monkeypatch):
        # with a known spec the inner replicates repeat on every outer attempt,
        # so an outer whose inner failures exceed N fails all its attempts; at
        # level 0.3 every attempt draws at least 6 replicates, 54 failures
        cfg = tiny_config(oracle=True, R=6, N=19, levels=[0.3])
        injected = InjectedFailures(monkeypatch, cfg, fitted=False)
        injected.exceed.add(ArmaSpec(ar=(0.5,)))
        with monkeypatch.context() as patch:
            patch.setattr(studies, "_rejection_rows", reference_rejection_rows)
            with pytest.raises(ReplicateFailedError) as want:
                run_size_study(cfg)
        with pytest.raises(ReplicateFailedError) as got:
            run_size_study(cfg)
        assert str(got.value) == str(want.value)
        assert "(3, 0)" in str(got.value)


class TestDeterminismAndOutputs:
    def test_byte_identical_across_threads(self):
        cfg = tiny_config(R=10, N=19)
        texts = {t: run_size_study(cfg, threads=t).csv_text() for t in (1, 2, 3)}
        assert texts[1] == texts[2] == texts[3]

    def test_convergence_and_power_byte_identical_across_threads(self):
        conv = tiny_config(study="convergence", R=9, m=[6], n=[60])
        power = tiny_config(study="power", R=6, N=19,
                            statistics=["d_hat", "ljung_box", "box_pierce"],
                            models=[{"type": "fractional_noise", "d": 0.3},
                                    {"type": "garch", "omega": 0.1, "alpha": [0.3], "beta": [0.5]}],
                            m=[3, 5])
        for run, cfg in ((run_convergence_study, conv), (run_power_study, power)):
            one, two = (run(cfg, threads=t) for t in (1, 2))
            assert one.csv_text() == two.csv_text()
            assert one.qq_csv_text() == two.qq_csv_text()
            assert one.warnings == two.warnings
        # the last pair is the power study: every statistic and the chi-squared column ran
        assert {r["study"] for r in one.rows} == {"power:mc_d_hat", "power:mc_ljung_box",
                                                  "power:mc_box_pierce", "power:chi2_ljung_box"}

    def test_rerun_identical(self):
        cfg = tiny_config(study="convergence", R=25, m=[6], n=[60])
        a = run_convergence_study(cfg)
        b = run_convergence_study(cfg)
        assert a.csv_text() == b.csv_text()
        assert a.qq_csv_text() == b.qq_csv_text()

    def test_write_files(self, tmp_path):
        cfg = tiny_config(R=6, N=19)
        rep = run_study(cfg)
        prefix = str(tmp_path / "out")
        written = rep.write(prefix)
        assert f"{prefix}.csv" in written and f"{prefix}.json" in written
        text = (tmp_path / "out.csv").read_text()
        assert text.splitlines()[0] == "study,model_id,n,m,alpha,estimate,stderr,R,N"
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["metadata"]["master_seed"] == 77
        assert "timing_seconds" in payload["metadata"]
        assert len(payload["rows"]) == len(rep.rows)

    def test_json_mirror_excludes_only_timing_from_csv(self):
        cfg = tiny_config(R=6, N=19)
        a = run_study(cfg)
        b = run_study(cfg)
        ja, jb = json.loads(a.json_text()), json.loads(b.json_text())
        ja["metadata"].pop("timing_seconds"), jb["metadata"].pop("timing_seconds")
        ja["metadata"].pop("started_unix"), jb["metadata"].pop("started_unix")
        assert ja == jb

    def test_inner_replicates_drawn_reported_in_json_only(self, monkeypatch):
        cfg = tiny_config(R=10, N=19, m=[3, 5], levels=[0.05, 0.1],
                          statistics=["d_hat", "ljung_box"])
        rep = run_size_study(cfg)
        (entry,) = json.loads(rep.json_text())["metadata"]["inner_replicates"]
        roots = [RngStream(cfg.master_seed, outer) for outer in range(10)]
        _, (_, _, drawn) = curtailed_rejection_rows(ArmaSpec(ar=(0.5,)), 60, (3, 5),
                                                    ("d_hat", "ljung_box"), 1, 0, 19, None,
                                                    False, (0.05, 0.1), roots)
        assert entry == {"model_id": "ar1", "n": 60, "drawn": drawn, "full": 190}
        assert 0 < drawn < 190
        with monkeypatch.context() as patch:
            patch.setattr(studies, "_rejection_rows", reference_rejection_rows)
            full_n = run_size_study(cfg)
        assert full_n.metadata["inner_replicates"][0]["drawn"] == 190
        assert rep.csv_text() == full_n.csv_text()

    def test_every_study_csv_parses_to_the_header_width(self):
        # ar2_sweep ids and multi-coefficient ARMA ids hold commas
        reports = [
            run_gamma_distortion_study(load_study_config({
                "study": "gamma_distortion", "m": [10], "levels": [0.05],
                "models": [{"type": "ar2_sweep", "phi2": -0.5, "points": 3},
                           {"type": "arma", "ar": [0.5, 0.2], "ma": [0.1]}]})),
            run_size_study(tiny_config(R=4, models=[{"type": "arma", "ar": [0.5, 0.2]}])),
            run_power_study(tiny_config(study="power", R=3, N=19, models=[
                {"type": "arma", "ar": [0.4], "ma": [0.3, -0.2]}])),
            run_convergence_study(tiny_config(study="convergence", R=12, m=[6], n=[60], models=[
                {"type": "arma", "ar": [0.5, -0.2]}])),
        ]
        for rep in reports:
            table = list(csv.reader(io.StringIO(rep.csv_text())))
            assert table[0] == "study,model_id,n,m,alpha,estimate,stderr,R,N".split(",")
            assert len(table) == len(rep.rows) + 1
            assert all(len(row) == 9 for row in table)
            assert [row[1] for row in table[1:]] == [r["model_id"] for r in rep.rows]
        assert any("," in r["model_id"] for rep in reports for r in rep.rows)

    def test_stderr_formula(self):
        cfg = tiny_config(R=40)
        rep = run_size_study(cfg)
        row = rep.rows[0]
        want = np.sqrt(row["estimate"] * (1 - row["estimate"]) / row["R"])
        assert row["stderr"] == pytest.approx(want)


class TestStudyConfigRoundTrip:
    def test_config_reload(self):
        cfg = tiny_config()
        again = load_study_config(cfg)
        assert again == cfg

    def test_config_lists_given_as_lists_or_tuples(self):
        cfg = tiny_config(statistics=("d_hat",), m=(3, 5))
        assert (cfg.statistics, cfg.m_list) == (("d_hat",), (3, 5))
        listed = StudyConfig(study="size", models=[AR1_MODEL], m_list=[3, 5], n_list=[60],
                             levels=[0.1], statistics=["d_hat"])
        assert load_study_config(listed) == StudyConfig(
            study="size", models=(AR1_MODEL,), m_list=(3, 5), n_list=(60,), levels=(0.1,),
            statistics=("d_hat",))

    def test_dataclass_fields(self):
        cfg = StudyConfig(study="size", models=(AR1_MODEL,))
        assert cfg.m_list == (10,)
