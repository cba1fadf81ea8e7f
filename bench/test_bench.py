"""Tests of the benchmark itself.

Every output check must fail on a deliberately corrupted output, the traced
call counts must equal the counts the inputs imply, and the command must
print one JSON result in a checkout and fail outside one.

    python3 -m pytest bench/test_bench.py
"""
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gvport import asymptotic  # noqa: E402
from gvport.arma import ArmaSpec  # noqa: E402

N_SMALL = 19


def traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = [op() for _, op in ops]
    finally:
        tracer.uninstall()
    return outputs, tracer.metrics()


# ---------------------------------------------------------------------------
# mc_test

@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    w = workloads.McTest(5, tmp_path_factory.mktemp("mc"), series=1, N=N_SMALL)
    (label, op), = w.round()
    return w, op()


def test_mc_checks_pass_on_program_output(mc):
    w, report = mc
    assert w.check({"series0": report}) == ({"series0": []}, [])


def corrupt(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


def test_mc_p_value_check_fails_on_shifted_p_value(mc):
    _, report = mc

    def shift(r):
        r["results"][2]["mc"]["p_value"] += 1.0 / (N_SMALL + 1)

    assert checks.check_mc_p_values(corrupt(report, shift)["results"], N_SMALL)


def test_mc_p_value_check_fails_off_the_lattice(mc):
    _, report = mc

    def shift(r):
        r["results"][0]["mc"]["k"] = N_SMALL + 1
        r["results"][0]["mc"]["p_value"] = (N_SMALL + 2) / (N_SMALL + 1)

    assert checks.check_mc_p_values(corrupt(report, shift)["results"], N_SMALL)


@pytest.mark.parametrize("field", ["statistic", "p_value"])
def test_ljung_box_check_fails_on_corrupted_value(mc, field):
    w, report = mc
    x = w.inputs[0][1]

    def bump(r):
        r["results"][3]["ljung_box"][field] *= 1.0 + 1e-6

    bad = corrupt(report, bump)
    assert checks.check_ljung_box(x, bad["fitted"], bad["results"], w.FIT_COUNT)


def test_d_hat_check_fails_on_corrupted_statistic(mc):
    w, report = mc

    def bump(r):
        r["results"][1]["d_hat"]["statistic"] *= 1.0 + 1e-6

    bad = corrupt(report, bump)
    assert checks.check_d_hat(w.inputs[0][1], bad["fitted"], bad["results"])


def test_residual_check_fails_on_corrupted_sigma2(mc):
    w, report = mc

    def bump(r):
        r["fitted"]["sigma2"] *= 1.0 + 1e-7

    assert checks.check_residuals(w.inputs[0][1], corrupt(report, bump)["fitted"])


def test_css_minimum_check_fails_off_the_minimum(mc):
    w, report = mc
    x = w.inputs[0][1]

    def move(r):
        f = r["fitted"]
        f["ar"][0] += 1e-3
        a = checks.css_residuals(x, f["ar"], f["ma"], f["mean"])
        f["sigma2"] = float(np.dot(a, a)) / x.size

    bad = corrupt(report, move)["fitted"]
    assert not checks.check_residuals(x, bad)
    assert checks.check_css_minimum(x, bad)


def test_mc_call_counts_match_inputs(mc):
    w, _ = mc
    _, m = traced(w.round())
    tests, N, redraws = 1, N_SMALL, m["mc.redraws"]
    assert m["estimation.fit_arma.calls"] == tests * (N + 1) + redraws
    assert m["generators.simulate_arma.calls"] == tests * N + redraws
    assert m["generators.RngStream.generator.calls"] == tests * N + redraws
    for name in ("cli.main", "series_io.read_series", "mc.mc_portmanteau_grid"):
        assert m[f"{name}.calls"] == tests
    m_count = 6  # default m list 5 10 20 30 40 50
    assert m["asymptotic.gamma_distortion.calls"] == tests * m_count
    assert m["asymptotic.lambda_spectrum.calls"] == 2 * tests * m_count
    assert m["asymptotic.imhof_cdf.calls"] == 2 * tests * m_count
    assert m["diagnostics.ljung_box.calls"] == 2 * tests * m_count
    for name in ("studies.run_size_study", "estimation.css_residuals", "asymptotic.imhof_quantile"):
        assert m[f"{name}.calls"] == 0
    if redraws == 0:
        assert m["diagnostics.residual_acf.calls"] == tests * (N + 2)
        assert m["diagnostics.portmanteau_statistic.calls"] == tests * m_count * (N + 1)
    assert m["estimation.fit_arma.iterations"] > 0
    assert m["estimation.fit_arma.nonconverged"] >= 0


# ---------------------------------------------------------------------------
# asymptotic

CELLS = ((0.3, 0.6), (0.6, 0.3), (-0.6, -0.3), (-0.3, -0.6))


@pytest.fixture(scope="module")
def asym(tmp_path_factory):
    w = workloads.Asymptotic(5, tmp_path_factory.mktemp("asym"), cells=CELLS, probs=(0.05, 0.5))
    return w, {label: op() for label, op in w.round()}


def test_asymptotic_checks_pass_on_program_output(asym):
    w, outputs = asym
    errors, run_errors = w.check(outputs)
    assert not any(errors.values()) and not run_errors


def test_table_check_fails_on_shifted_cell(asym):
    _, outputs = asym
    values = {cell: outputs[f"cell({cell[0]},{cell[1]})"] for cell in CELLS}
    assert not checks.check_table(values)
    values[(-0.6, -0.3)] += 0.003
    assert checks.check_table(values)


def test_symmetry_check_fails_on_one_sided_change(asym):
    _, outputs = asym
    values = {cell: outputs[f"cell({cell[0]},{cell[1]})"] for cell in CELLS}
    assert not checks.check_symmetry(values)
    values[(0.3, 0.6)] += 1e-6
    assert not checks.check_table(values)
    assert checks.check_symmetry(values)


def test_spectrum_check_fails_on_changed_weight():
    lam = asymptotic.lambda_spectrum(ArmaSpec(ar=(0.9,), ma=(-0.6,)), 10).lambdas.copy()
    assert not checks.check_spectrum(lam, (0.9,), (-0.6,), 10)
    lam[3] += 1e-6
    assert checks.check_spectrum(lam, (0.9,), (-0.6,), 10)


def test_quantile_check_fails_on_shifted_quantile(asym):
    w, outputs = asym
    draws = checks.sample_weighted_chi2(checks.arma_spectrum((0.4,), (), 50), 200_000,
                                        np.random.default_rng(1))
    q = [outputs["quantile(0.05)"], outputs["quantile(0.5)"]]
    assert not checks.check_quantiles((0.05, 0.5), q, draws)
    assert checks.check_quantiles((0.05, 0.5), [q[0], q[1] * 1.02], draws)


def test_hypoexponential_check_fails_on_biased_cdf():
    def biased(x, lam):
        return 1.0 - checks.hypoexponential_tail(x, lam[::2]) + 2e-8

    assert checks.check_imhof_hypoexponential(biased)


def test_chi2_check_fails_on_biased_cdf_or_quantile():
    def cdf(x, lam):
        return float(stats.chi2.cdf(x, lam.size))

    def quantile(p, lam):
        return float(stats.chi2.ppf(p, lam.size))

    assert not checks.check_imhof_chi2(cdf, quantile)
    assert checks.check_imhof_chi2(lambda x, lam: cdf(x, lam) + 2e-8, quantile)
    assert checks.check_imhof_chi2(cdf, lambda p, lam: quantile(p, lam) * (1 + 2e-8))


def test_asymptotic_call_counts_match_inputs(asym):
    w, _ = asym
    _, m = traced(w.round())
    assert m["asymptotic.gamma_distortion.calls"] == len(CELLS)
    assert m["asymptotic.lambda_spectrum.calls"] == len(CELLS)
    assert m["asymptotic.imhof_quantile.calls"] == 2
    # one CDF per cell, and per quantile at least a bracket test and a Brent step
    assert m["asymptotic.imhof_cdf.calls"] >= len(CELLS) + 2 * 2
    for name in ("estimation.fit_arma", "generators.simulate_arma", "mc.mc_portmanteau_grid"):
        assert m[f"{name}.calls"] == 0


# ---------------------------------------------------------------------------
# oracle_size

R_SMALL = 10


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    w = workloads.OracleSize(5, tmp_path_factory.mktemp("oracle"), R=R_SMALL, N=N_SMALL,
                             models=(0.5,))
    (label, op), = w.round()
    return w, label, op()


def test_oracle_checks_pass_on_program_output(oracle):
    w, label, csv_text = oracle
    assert w.check({label: csv_text}) == ({label: []}, [])


def test_pooled_size_check_fails_on_shifted_rate():
    rows = [{"alpha": "0.05", "estimate": "0.05"}, {"alpha": "0.1", "estimate": "0.1"}]
    assert not checks.check_pooled_size(rows, (0.05, 0.1), 19, series=600)
    rows[0]["estimate"] = "0.1"  # the size of a test with p = k/(N+1)
    assert checks.check_pooled_size(rows, (0.05, 0.1), 19, series=600)


def test_thread_independence_check_fails_on_different_bytes():
    assert not checks.check_identical(b"a,b\n1,2\n", b"a,b\n1,2\n", "csv")
    assert checks.check_identical(b"a,b\n1,2\n", b"a,b\n1,3\n", "csv")


def test_oracle_call_counts_match_inputs(oracle):
    w, _, _ = oracle
    _, m = traced(w.round())
    replicates = R_SMALL * (N_SMALL + 1)
    redraws = m["mc.redraws"]
    assert m["generators.simulate_arma.calls"] == replicates + redraws
    assert m["generators.RngStream.generator.calls"] == replicates + redraws
    assert m["estimation.css_residuals.calls"] == replicates + redraws
    assert m["diagnostics.residual_acf.calls"] == replicates + redraws
    assert m["diagnostics.portmanteau_statistic.calls"] == 4 * (replicates + redraws)
    assert m["arma.poly_root_moduli.calls"] == 5 * (replicates + redraws)
    assert m["mc.mc_portmanteau_grid.calls"] == R_SMALL
    assert m["studies.run_size_study.calls"] == 1
    for name in ("estimation.fit_arma", "asymptotic.imhof_cdf", "cli.main"):
        assert m[f"{name}.calls"] == 0


# ---------------------------------------------------------------------------
# tracer, result and command

def test_tracer_restores_every_patched_name():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("gvport")}
    tracer = tracing.Tracer()
    tracer.install()
    assert asymptotic.imhof_cdf is not before["gvport.asymptotic"]["imhof_cdf"]
    tracer.uninstall()
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items())


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        asymptotic.gamma_distortion(ArmaSpec(ar=(0.3,), ma=(0.6,)), 10, 0.05)
    finally:
        tracer.uninstall()
    spans = {s[0]: s for s in tracer.spans}
    for span_id, parent, _, start, end, own in tracer.spans:
        children = sum(s[4] - s[3] for s in tracer.spans if s[1] == span_id)
        assert own == pytest.approx(end - start - children, abs=1e-9)
        if parent >= 0:
            assert spans[parent][3] <= start and end <= spans[parent][4]


def test_tally_counts_raised_and_checked_failures():
    def boom():
        raise ValueError("boom")

    tally = run.Tally()
    for _ in range(2):
        tally.run_round([("ok", lambda: 1), ("bad", boom), ("wrong", lambda: 2)])
    assert tally.outcome({"ok": [], "wrong": []}, []) == {
        "correct": True, "attempted": 6, "failed": 2}
    assert tally.outcome({"ok": [], "wrong": ["off"]}, []) == {
        "correct": False, "attempted": 6, "failed": 4}


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.Asymptotic(5, tmp_path, cells=CELLS[:1], probs=(0.5,))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(w, 0.01, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _command(cwd, *args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(spec["command"] + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=180)


def test_command_prints_one_json_result():
    proc = _command(ROOT, "--workload", "asymptotic", "--seed", "3", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "asymptotic", "--seed", "3", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
