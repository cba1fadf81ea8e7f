"""CLI and series-I/O tests."""
import json

import numpy as np
import pytest

from gvport.arma import ArmaSpec
from gvport.cli import main
from gvport.generators import RngStream, simulate_arma
from gvport.series_io import SeriesParseError, parse_series_text, read_series, write_series


@pytest.fixture()
def white_noise_file(tmp_path):
    x = simulate_arma(ArmaSpec(), 120, RngStream(2024, 0))
    path = tmp_path / "wn.txt"
    write_series(str(path), x, comment="white-noise fixture, seed 2024")
    return str(path), x


class TestSeriesIo:
    def test_plain_values(self):
        got = parse_series_text("\n".join(str(v) for v in range(40)))
        np.testing.assert_allclose(got, np.arange(40.0))

    def test_comments_and_blanks(self):
        body = "# header comment\n\n" + "\n".join(str(v) for v in range(35))
        got = parse_series_text(body)
        assert got.size == 35

    def test_csv_named_column(self):
        lines = ["year,value,flag"] + [f"{1900 + i},{i * 0.5},0" for i in range(40)]
        got = parse_series_text("\n".join(lines), column="value")
        np.testing.assert_allclose(got, 0.5 * np.arange(40))

    def test_csv_default_first_numeric(self):
        lines = ["name,value"] + [f"row{i},{i}" for i in range(40)]
        got = parse_series_text("\n".join(lines))
        np.testing.assert_allclose(got, np.arange(40.0))

    def test_parse_error_reports_line(self):
        body = "\n".join(str(v) for v in range(31)) + "\nnot_a_number"
        with pytest.raises(SeriesParseError, match="line 32"):
            parse_series_text(body)

    def test_non_finite_rejected(self):
        body = "\n".join(str(v) for v in range(31)) + "\nnan"
        with pytest.raises(SeriesParseError, match="non-finite"):
            parse_series_text(body)

    def test_too_short(self):
        with pytest.raises(SeriesParseError, match="at least 30"):
            parse_series_text("\n".join(str(v) for v in range(10)))

    def test_missing_column(self):
        lines = ["a,b"] + ["1,2"] * 40
        with pytest.raises(SeriesParseError, match="'c' not found"):
            parse_series_text("\n".join(lines), column="c")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(50) * 1e3
        path = tmp_path / "series.txt"
        write_series(str(path), x, comment="round trip")
        back = read_series(str(path))
        np.testing.assert_array_equal(back, x)


class TestCmdAsymptotic:
    def test_white_noise_spectrum(self, capsys):
        rc = main(["asymptotic", "--p", "0", "--q", "0", "--m", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambdas"] == [1.0, 0.75, 0.5, 0.25]

    def test_table_distortion_value(self, capsys):
        rc = main(["asymptotic", "--p", "1", "--q", "1", "--phi", "0.3",
                   "--theta", "-0.9", "--m", "10", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma_distortion_5pct"] == pytest.approx(0.083, abs=0.002)
        assert payload["gamma_beta_convention"] == "rate"

    def test_zero_coefficient(self, capsys):
        # phi = 0 leaves the AR polynomial without roots; the model is still identifiable
        rc = main(["asymptotic", "--p", "1", "--q", "1", "--phi", "0", "--theta", "0.5",
                   "--m", "10", "--json"])
        assert rc == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["gamma_distortion_5pct"] < 1.0

    def test_infeasible_gamma_message(self, capsys):
        rc = main(["asymptotic", "--p", "2", "--q", "1", "--phi", "0.3", "0.1",
                   "--theta", "0.2", "--m", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma infeasible" in out
        assert "minimal feasible m is 8" in out

    def test_quantile_and_x(self, capsys):
        rc = main(["asymptotic", "--p", "0", "--q", "0", "--m", "1",
                   "--x", "3.841458820694124", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["cdf_at_x"] == pytest.approx(0.95, abs=1e-6)

    def test_wrong_coeff_count_usage_error(self, capsys):
        rc = main(["asymptotic", "--p", "2", "--q", "0", "--phi", "0.5", "--m", "5"])
        assert rc == 1

    def test_inadmissible_model_data_error(self):
        rc = main(["asymptotic", "--p", "1", "--q", "0", "--phi", "1.2", "--m", "5"])
        assert rc == 2

    def test_zero_m_is_usage_error(self, capsys):
        assert main(["asymptotic", "--m", "0"]) == 1
        assert main(["asymptotic", "--p", "1", "--phi", "0.5", "--m", "0"]) == 1
        assert "--m >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_x_is_usage_error(self, x, capsys):
        rc = main(["asymptotic", "--p", "1", "--phi", "0.5", "--m", "5", f"--x={x}", "--json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "--x must be a finite number" in captured.err


class TestCmdTest:
    def test_white_noise_json_output(self, white_noise_file, capsys):
        path, _ = white_noise_file
        rc = main(["test", "--file", path, "--p", "0", "--q", "0",
                   "--m", "5", "10", "--N", "99", "--seed", "7", "--json", "--threads", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 120
        assert [r["m"] for r in payload["results"]] == [5, 10]
        for row in payload["results"]:
            assert 0.0 < row["mc"]["p_value"] <= 1.0
            assert 0.0 <= row["ljung_box"]["p_value"] <= 1.0
            assert 0.0 <= row["d_hat"]["p_asymptotic"] <= 1.0

    def test_json_validates_against_schema(self, white_noise_file, capsys):
        import jsonschema
        from importlib import resources

        path, _ = white_noise_file
        rc = main(["test", "--file", path, "--p", "0", "--q", "0",
                   "--m", "5", "--N", "19", "--json", "--threads", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        schema = json.loads(
            resources.files("gvport").joinpath("schemas/test_report.schema.json").read_text())
        jsonschema.validate(payload, schema)

    def test_human_output_and_gamma_note(self, white_noise_file, capsys):
        path, _ = white_noise_file
        rc = main(["test", "--file", path, "--p", "0", "--q", "0", "--m", "5",
                   "--N", "19", "--threads", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q_m" in out and "p(MC)" in out

    def test_m_not_above_fit_count_still_prints_others(self, tmp_path, capsys):
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 150, RngStream(3, 0))
        path = tmp_path / "ar.txt"
        write_series(str(path), x)
        rc = main(["test", "--file", str(path), "--p", "1", "--q", "0",
                   "--m", "1", "5", "--N", "19", "--json", "--threads", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        row_m1 = payload["results"][0]
        assert "error" in row_m1["ljung_box"]
        assert "p_value" in row_m1["mc"]

    def test_missing_file_is_data_error(self, capsys):
        rc = main(["test", "--file", "/nonexistent/series.txt"])
        assert rc == 2

    def test_parse_error_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\nthree\n" + "\n".join("1" for _ in range(40)))
        rc = main(["test", "--file", str(path)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_m_too_large_for_series(self, white_noise_file):
        path, _ = white_noise_file
        rc = main(["test", "--file", path, "--m", "500"])
        assert rc == 2

    def test_usage_error_exit_code(self):
        assert main(["test"]) == 1
        assert main(["bogus-command"]) == 1

    def test_bad_orders_are_usage_errors(self, white_noise_file, capsys):
        path, _ = white_noise_file
        assert main(["test", "--file", path, "--m", "0", "5", "--N", "19"]) == 1
        assert main(["test", "--file", path, "--p", "-1", "--m", "5", "--N", "19"]) == 1
        assert "--p, --q >= 0" in capsys.readouterr().err


class TestCmdStudy:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = {
            "study": "size",
            "models": [{"type": "arma", "ar": [0.5], "id": "ar1"}],
            "fit": {"p": 1, "q": 0},
            "m": [5], "n": [60], "R": 6, "N": 19, "levels": [0.05], "seed": 3,
            "statistics": ["d_hat"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_prefix = str(tmp_path / "result")
        rc = main(["study", "--config", str(cfg_path), "--out", out_prefix,
                   "--threads", "1"])
        assert rc == 0
        lines = (tmp_path / "result.csv").read_text().splitlines()
        assert lines[0] == "study,model_id,n,m,alpha,estimate,stderr,R,N"
        assert len(lines) == 2

    def test_scale_flag(self, tmp_path):
        cfg = {
            "study": "size",
            "models": [{"type": "arma", "ar": [0.5]}],
            "fit": {"p": 1, "q": 0},
            "m": [5], "n": [60], "R": 60, "N": 190, "seed": 3,
            "statistics": ["d_hat"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_prefix = str(tmp_path / "scaled")
        rc = main(["study", "--config", str(cfg_path), "--out", out_prefix,
                   "--scale", "10", "--threads", "1"])
        assert rc == 0
        payload = json.loads((tmp_path / "scaled.json").read_text())
        assert payload["metadata"]["config"]["replications"] == 6
        assert payload["metadata"]["config"]["mc_replicates"] == 19

    def test_malformed_config_no_partial_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{broken")
        out_prefix = str(tmp_path / "never")
        rc = main(["study", "--config", str(cfg_path), "--out", out_prefix])
        assert rc == 2
        assert not (tmp_path / "never.csv").exists()
        assert not (tmp_path / "never.json").exists()

    def test_missing_config_file(self):
        assert main(["study", "--config", "/nonexistent/cfg.json"]) == 2


class TestAutoThreads:
    def test_explicit_count_wins(self):
        from gvport.cli import _auto_threads

        assert _auto_threads(3) == 3

    def test_auto_follows_cpu_affinity(self, monkeypatch):
        import os

        from gvport.cli import _auto_threads

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _auto_threads(0) == 1

    def test_auto_without_affinity_uses_cpu_count(self, monkeypatch):
        import os

        from gvport.cli import _auto_threads

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _auto_threads(0) == 5
