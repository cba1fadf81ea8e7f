"""Study-harness tests: config validation, each study kind, determinism, outputs."""
import csv
import io
import json

import numpy as np
import pytest

from gvport import studies
from gvport.arma import ArmaSpec
from gvport.estimation import FitOptions
from gvport.generators import RngStream
from gvport.mc import mc_portmanteau_grid, replicate_rows
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
        grids = []

        def capped_grid(*args, **kwargs):
            grids.append(mc_portmanteau_grid(*args, fit_options=self.CAPPED, **kwargs))
            return grids[-1]

        monkeypatch.setattr(studies, "mc_portmanteau_grid", capped_grid)
        rep = run_size_study(cfg)
        count = sum(g.nonconverged_refits for g in grids)
        assert len(grids) == 3 and count > 0
        assert f"arma11 n=60: {count} replicate refits did not converge" in rep.warnings


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

    def test_dataclass_fields(self):
        cfg = StudyConfig(study="size", models=(AR1_MODEL,))
        assert cfg.m_list == (10,)
