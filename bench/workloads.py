"""The benchmark's three workloads: inputs, operations and output checks.

A workload is built from a seed and a working directory.  `round()` lists
its operations as (label, callable) pairs; a run repeats whole rounds.
`warmup()` runs one reduced operation of the same kind.  `check(outputs)`
takes the first output of every label and returns (errors per label,
errors of the run as a whole).  Operations call gvport through module
attributes, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
from functools import partial
from pathlib import Path

import numpy as np

from gvport import asymptotic, cli, studies
from gvport.arma import ArmaSpec

import checks


class McTest:
    """`gvport test --p 1 --q 1 --N 999` on n=200 ARMA(1,1) series (phi=0.7, theta=-0.3)."""

    name = "mc_test"
    PHI, THETA, LENGTH, BURN_IN = 0.7, -0.3, 200, 500
    FIT_COUNT = 2

    def __init__(self, seed: int, workdir: Path, series: int = 3, N: int = 999):
        self.N = N
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for i in range(series):
            x = self._simulate(rng)
            path = workdir / f"series{i}.txt"
            with open(path, "w") as fh:
                fh.write(f"# ARMA(1,1) phi={self.PHI} theta={self.THETA}, series {i}\n")
                fh.writelines(f"{v:.17g}\n" for v in x)
            self.inputs.append((path, x, int(rng.integers(2**31))))

    def _simulate(self, rng) -> np.ndarray:
        a = rng.standard_normal(self.LENGTH + self.BURN_IN)
        x = np.empty_like(a)
        prev_x = prev_a = 0.0
        for t, at in enumerate(a):
            prev_x = self.PHI * prev_x + at - self.THETA * prev_a
            prev_a = at
            x[t] = prev_x
        return x[self.BURN_IN:]

    def _test(self, i: int, N: int) -> dict:
        path, _, mc_seed = self.inputs[i]
        argv = ["test", "--file", str(path), "--p", "1", "--q", "1", "--N", str(N),
                "--threads", "1", "--json", "--seed", str(mc_seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gvport test exited with code {code}")
        return json.loads(out.getvalue())

    def round(self) -> list:
        return [(f"series{i}", partial(self._test, i, self.N)) for i in range(len(self.inputs))]

    def warmup(self) -> None:
        self._test(0, 19)

    def check(self, outputs: dict):
        errors = {}
        for i, (_, x, _) in enumerate(self.inputs):
            label = f"series{i}"
            if label not in outputs:
                continue
            report = outputs[label]
            fitted, results = report["fitted"], report["results"]
            errors[label] = (
                checks.check_residuals(x, fitted)
                + checks.check_ljung_box(x, fitted, results, self.FIT_COUNT)
                + checks.check_d_hat(x, fitted, results)
                + checks.check_css_minimum(x, fitted)
                + checks.check_mc_p_values(results, self.N))
        return errors, []


class Asymptotic:
    """The ARMA(1,1) gamma-distortion table (m=10, 5%) and the AR(1) QQ quantiles."""

    name = "asymptotic"
    TABLE_M, TABLE_LEVEL = 10, 0.05
    QQ_PHI, QQ_M = 0.4, 50
    QQ_PROBS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.7, 0.9, 0.95, 0.98, 0.99)
    QQ_DRAWS = 200_000

    def __init__(self, seed: int, workdir: Path, cells=None, probs=QQ_PROBS):
        self.seed = seed
        self.cells = sorted(checks.published_cells()) if cells is None else list(cells)
        self.probs = tuple(probs)
        self.spectrum = asymptotic.lambda_spectrum(ArmaSpec(ar=(self.QQ_PHI,)), self.QQ_M)

    def _cell(self, phi: float, theta: float) -> float:
        spec = ArmaSpec(ar=(phi,), ma=(theta,))
        return asymptotic.gamma_distortion(spec, self.TABLE_M, self.TABLE_LEVEL)

    def _quantile(self, p: float) -> float:
        return asymptotic.imhof_quantile(p, self.spectrum)

    def round(self) -> list:
        ops = [(f"cell({phi},{theta})", partial(self._cell, phi, theta))
               for phi, theta in self.cells]
        return ops + [(f"quantile({p})", partial(self._quantile, p)) for p in self.probs]

    def warmup(self) -> None:
        self._cell(*self.cells[0])

    def check(self, outputs: dict):
        errors = {}
        table = {(phi, theta): outputs[f"cell({phi},{theta})"] for phi, theta in self.cells
                 if f"cell({phi},{theta})" in outputs}
        for (phi, theta), value in table.items():
            pair = {k: table[k] for k in ((phi, theta), (theta, phi)) if k in table}
            spectrum = asymptotic.lambda_spectrum(ArmaSpec(ar=(phi,), ma=(theta,)), self.TABLE_M)
            errors[f"cell({phi},{theta})"] = (
                checks.check_table({(phi, theta): value})
                + checks.check_symmetry(pair)
                + checks.check_spectrum(spectrum.lambdas, (phi,), (theta,), self.TABLE_M))
        spectrum_errors = checks.check_spectrum(self.spectrum.lambdas, (self.QQ_PHI,), (),
                                                self.QQ_M)
        draws = checks.sample_weighted_chi2(
            checks.arma_spectrum((self.QQ_PHI,), (), self.QQ_M), self.QQ_DRAWS,
            np.random.default_rng([self.seed, 2]))
        for p in self.probs:
            label = f"quantile({p})"
            if label in outputs:
                errors[label] = spectrum_errors + checks.check_quantiles(
                    (p,), (outputs[label],), draws)
        run_errors = (checks.check_imhof_hypoexponential(asymptotic.imhof_cdf)
                      + checks.check_imhof_chi2(asymptotic.imhof_cdf, asymptotic.imhof_quantile))
        return errors, run_errors


class OracleSize:
    """Oracle-mode size cells (known AR(1) spec, nothing estimated), one model per operation."""

    name = "oracle_size"
    MODELS = (0.1, 0.5, 0.9)
    LEVELS = (0.05, 0.10)
    ROWS_PER_CELL = 8  # m in (10, 20) x two statistics x two levels
    REDUCED_R = 8

    def __init__(self, seed: int, workdir: Path, R: int = 200, N: int = 19, models=MODELS):
        self.workdir = workdir
        self.R, self.N = R, N
        seeds = [int(s) for s in np.random.SeedSequence([seed, 3]).generate_state(len(models))]
        self.cells = [(f"ar1({phi})", phi, s) for phi, s in zip(models, seeds)]

    def _config(self, phi: float, seed: int, R: int):
        return studies.load_study_config({
            "study": "size", "models": [{"type": "arma", "ar": [phi]}],
            "fit": {"p": 1, "q": 0}, "m": [10, 20], "n": [200], "R": R, "N": self.N,
            "levels": list(self.LEVELS), "statistics": ["d_hat", "ljung_box"],
            "seed": seed, "oracle": True})

    @staticmethod
    def _csv(config) -> str:
        return studies.run_size_study(config, threads=1).csv_text()

    def round(self) -> list:
        return [(label, partial(self._csv, self._config(phi, seed, self.R)))
                for label, phi, seed in self.cells]

    def warmup(self) -> None:
        _, phi, seed = self.cells[0]
        self._csv(self._config(phi, seed, self.REDUCED_R))

    def check(self, outputs: dict):
        errors, rows = {}, []
        for label, _, _ in self.cells:
            if label not in outputs:
                continue
            cell = checks.parse_study_csv(outputs[label])
            shape_ok = len(cell) == self.ROWS_PER_CELL and all(
                int(r["R"]) == self.R and int(r["N"]) == self.N for r in cell)
            errors[label] = [] if shape_ok else [
                f"expected {self.ROWS_PER_CELL} rows with R={self.R} N={self.N}"]
            rows += cell
        run_errors = checks.check_pooled_size(rows, self.LEVELS, self.N,
                                              series=self.R * len(errors))
        # thread-independence on a reduced copy of the first cell
        _, phi, seed = self.cells[0]
        reduced = self._config(phi, seed, self.REDUCED_R)
        written = []
        for threads in (1, 2):
            prefix = self.workdir / f"threads{threads}"
            studies.run_size_study(reduced, threads=threads).write(str(prefix))
            written.append(Path(f"{prefix}.csv").read_bytes())
        run_errors += checks.check_identical(*written, "study CSV with threads=1 and threads=2")
        return errors, run_errors


WORKLOADS = {w.name: w for w in (McTest, Asymptotic, OracleSize)}
