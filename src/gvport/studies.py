"""Reproduce the numerical studies at configurable scale.

Four study kinds, all driven by one JSON config format and emitting the
same machine-readable outputs (CSV table + JSON mirror with metadata, plus
a QQ CSV for the convergence study):

* ``gamma_distortion`` - pure numerics: true asymptotic size of the
  nominal-level gamma test over an ARMA grid, plus optional AR(2)
  parameter sweeps.
* ``convergence`` - finite-sample distribution of the generalized-variance
  statistic vs its asymptotic law: tail probability at the empirical
  upper quantile, and QQ data.
* ``size`` - empirical rejection rate of the Monte-Carlo test under the
  null, R outer simulations each running an inner N-replicate MC test.
  Each worker chunk of outer replicates is scored in one pass of
  ``mc.mc_grid_rows``: their series form one block, and their inner
  replicates share replicate blocks.  The inner test is used only through
  its decisions p <= level at the configured levels, so each outer
  replicate draws its inner replicates in key order only until every
  decision is fixed (curtailed sampling, see ``mc``).  Outer series are
  redrawn by the same rule as inner replicates (``mc.redraw_rows``): the
  outer replicates whose series or inner replicates fail an attempt are
  scored on their next attempt's series in one more pass.  The redraw and
  nonconverged-refit warnings, and the ``failures > N`` abort, count the
  inner replicates drawn up to each outer replicate's stop.  The rejection
  rates are those of all N replicates unless a replicate past an outer
  replicate's stop would have failed every redraw, or pushed its failures
  past N: the full-N test then redraws that outer series, while the
  curtailed one scores it.  The JSON metadata reports per (model, n) the
  inner replicates kept up to the stops of the scored attempts against
  R x N (``inner_replicates``); replicates of failed attempts, and those a
  wave drew past a stop, are not included.
* ``power`` - rejection rates against configured alternatives (ARMA,
  GARCH, fractional noise), with the MC generalized-variance and MC
  Ljung-Box tests computed from the SAME simulated series and replicates
  (paired), plus the chi-squared Ljung-Box route.  Same runner as size.

Every cell is a pure function of (config, master_seed), so reports are
byte-identical across rerun and across any worker count.  The CSV carries
one row per cell: study, model_id, n, m, alpha, estimate, stderr, R, N;
the statistic route is encoded in the study column (e.g. ``power:mc_d_hat``).
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .arma import ArmaSpec, require_admissible
from .asymptotic import (
    InfeasibleGammaError,
    gamma_distortion,
    imhof_cdf,
    imhof_quantile,
    lambda_spectrum,
)
from .diagnostics import ljung_box
from .estimation import FitOptions
from .generators import (
    FractionalNoiseSpec,
    GarchSpec,
    RngStream,
    simulate_arma,
    simulate_arma_rows,
    simulate_fractional_noise,
    simulate_garch,
)
from .mc import map_chunks, mc_grid_rows, redraw_rows, replicate_rows

STUDY_KINDS = ("gamma_distortion", "convergence", "size", "power")
QQ_PROBS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.7, 0.9, 0.95, 0.98, 0.99)
CSV_HEADER = "study,model_id,n,m,alpha,estimate,stderr,R,N"


class StudyConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


@dataclass(frozen=True)
class StudyConfig:
    """Validated study description (see load_study_config for the JSON keys)."""

    study: str
    models: tuple
    fit_p: int = 0
    fit_q: int = 0
    m_list: tuple = (10,)
    n_list: tuple = (200,)
    replications: int = 100
    mc_replicates: int = 99
    levels: tuple = (0.05,)
    statistics: tuple = ("d_hat", "ljung_box")
    master_seed: int = 0
    oracle: bool = False
    out: str | None = None


@dataclass
class StudyReport:
    """Per-cell estimates with MC standard errors, plus run metadata."""

    rows: list = field(default_factory=list)
    qq_rows: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, study, model_id, n, m, alpha, estimate, stderr, R, N):
        self.rows.append({
            "study": study, "model_id": model_id, "n": n, "m": m, "alpha": alpha,
            "estimate": estimate, "stderr": stderr, "R": R, "N": N,
        })

    def csv_text(self) -> str:
        """The rows under CSV_HEADER; fields holding a comma (some model ids) are quoted."""
        # imported on use, so that importing gvport does not load them
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in self.rows:
            writer.writerow([
                r["study"], r["model_id"], str(r["n"]), str(r["m"]),
                _fmt(r["alpha"]), _fmt(r["estimate"]), _fmt(r["stderr"]),
                str(r["R"]), str(r["N"]),
            ])
        return out.getvalue()

    def qq_csv_text(self) -> str:
        """Two numeric columns (asymptotic, empirical); blocks separated by comments."""
        lines = []
        for block in self.qq_rows:
            lines.append(f"# model={block['model_id']} n={block['n']} m={block['m']} "
                         f"probs={','.join(_fmt(p) for p in QQ_PROBS)}")
            lines.append("asymptotic_quantile,empirical_quantile")
            for a, e in zip(block["asymptotic"], block["empirical"]):
                lines.append(f"{_fmt(a)},{_fmt(e)}")
        return "\n".join(lines) + "\n" if lines else ""

    def json_text(self) -> str:
        payload = {
            "metadata": self.metadata,
            "warnings": self.warnings,
            "rows": self.rows,
            "qq": self.qq_rows,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, out_prefix: str) -> list:
        """Write <prefix>.csv, <prefix>.json, and <prefix>_qq.csv when present."""
        written = []
        csv_path = f"{out_prefix}.csv"
        with open(csv_path, "w") as fh:
            fh.write(self.csv_text())
        written.append(csv_path)
        json_path = f"{out_prefix}.json"
        with open(json_path, "w") as fh:
            fh.write(self.json_text())
        written.append(json_path)
        if self.qq_rows:
            qq_path = f"{out_prefix}_qq.csv"
            with open(qq_path, "w") as fh:
                fh.write(self.qq_csv_text())
            written.append(qq_path)
        return written


def _fmt(x) -> str:
    if isinstance(x, float) and (x != x):  # nan
        return "nan"
    return repr(float(x)) if isinstance(x, float) else str(x)


# ---------------------------------------------------------------------------
# config loading / validation

def _require(cond, path, msg):
    if not cond:
        raise StudyConfigError(f"{path}: {msg}")


def _model_id(desc, index) -> str:
    if "id" in desc:
        return str(desc["id"])
    t = desc["type"]
    if t == "arma":
        ar = ",".join(_fmt(float(v)) for v in desc.get("ar", []))
        ma = ",".join(_fmt(float(v)) for v in desc.get("ma", []))
        return f"arma(ar=[{ar}];ma=[{ma}])"
    if t == "garch":
        a = ",".join(_fmt(float(v)) for v in desc.get("alpha", []))
        b = ",".join(_fmt(float(v)) for v in desc.get("beta", []))
        return f"garch(omega={_fmt(float(desc['omega']))};alpha=[{a}];beta=[{b}])"
    if t == "fractional_noise":
        return f"fn(d={_fmt(float(desc['d']))})"
    if t == "ar2_sweep":
        return f"ar2_sweep(phi2={_fmt(float(desc['phi2']))})"
    return f"model{index}"


def build_model(desc: dict, index: int = 0):
    """Normalize a model descriptor to (model_id, simulator spec object)."""
    path = f"models[{index}]"
    _require(isinstance(desc, dict), path, "must be an object")
    t = desc.get("type")
    _require(t in ("arma", "garch", "fractional_noise"), f"{path}.type",
             f"must be one of arma/garch/fractional_noise, got {t!r}")
    try:
        if t == "arma":
            spec = ArmaSpec(ar=tuple(desc.get("ar", ())), ma=tuple(desc.get("ma", ())),
                            sigma2=float(desc.get("sigma2", 1.0)),
                            mean=float(desc.get("mean", 0.0)))
            require_admissible(spec)
        elif t == "garch":
            spec = GarchSpec(omega=float(desc["omega"]), alpha=tuple(desc.get("alpha", ())),
                             beta=tuple(desc.get("beta", ())))
        else:
            spec = FractionalNoiseSpec(d=float(desc["d"]),
                                       sigma2=float(desc.get("sigma2", 1.0)))
    except (KeyError, TypeError, ValueError) as err:
        raise StudyConfigError(f"{path}: {err}") from err
    return _model_id(desc, index), spec


def simulate_model(spec, n: int, stream: RngStream) -> np.ndarray:
    if isinstance(spec, ArmaSpec):
        return simulate_arma(spec, n, stream)
    if isinstance(spec, GarchSpec):
        return simulate_garch(spec, n, stream)
    if isinstance(spec, FractionalNoiseSpec):
        return simulate_fractional_noise(spec, n, stream)
    raise TypeError(f"unknown model spec {type(spec)!r}")


def load_study_config(source, scale: float = 1.0) -> StudyConfig:
    """Build a StudyConfig from a JSON file path, JSON text, a dict, or a StudyConfig.

    `scale` divides the replication counts R and N (floored at 1 and 19
    respectively) so any configured study can run at desk scale.
    """
    config = _normalized(source if isinstance(source, StudyConfig) else _parse_config(source))
    _validate_config(config)
    if scale != 1.0:
        _require(scale > 0, "scale", "must be positive")
        R, N = config.replications, config.mc_replicates
        config = replace(config, replications=max(1, round(R / scale)),
                         mc_replicates=max(19 if N >= 19 else 1, round(N / scale)))
    return config


def _parse_config(source) -> StudyConfig:
    """The StudyConfig of a JSON file path, JSON text or dict, its values as given."""
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            with open(text) as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as err:
                    raise StudyConfigError(f"config is not valid JSON: {err}") from err
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    fit = raw.get("fit", {"p": 0, "q": 0})
    _require(isinstance(fit, dict), "fit", "must be an object with p and q")
    return StudyConfig(
        study=raw.get("study"), models=raw.get("models"),
        fit_p=fit.get("p", 0), fit_q=fit.get("q", 0),
        m_list=raw.get("m", [10]), n_list=raw.get("n", [200]),
        replications=raw.get("R", 100), mc_replicates=raw.get("N", 99),
        levels=raw.get("levels", [0.05]),
        statistics=raw.get("statistics", ["d_hat", "ljung_box"]),
        master_seed=raw.get("seed", 0), oracle=raw.get("oracle", False), out=raw.get("out"),
    )


def _normalized(config: StudyConfig) -> StudyConfig:
    """`config` with its lists as tuples and its counts as ints.

    A list field given as one number (or one statistic name) is a list of
    that one entry; a list may be given as a list or a tuple.
    """
    def listed(key, vals, scalar, kind):
        if isinstance(vals, scalar):
            vals = [vals]
        _require(isinstance(vals, (list, tuple)), key, "must be a nonempty list")
        return tuple(kind(v) for v in vals)

    models = config.models
    return replace(
        config, models=tuple(models) if isinstance(models, (list, tuple)) else models,
        fit_p=int(config.fit_p), fit_q=int(config.fit_q),
        m_list=listed("m", config.m_list, (int, float), int),
        n_list=listed("n", config.n_list, (int, float), int),
        replications=int(config.replications), mc_replicates=int(config.mc_replicates),
        levels=listed("levels", config.levels, (int, float), float),
        statistics=listed("statistics", config.statistics, str, str),
        master_seed=int(config.master_seed), oracle=bool(config.oracle),
    )


def _validate_config(config: StudyConfig) -> None:
    """Raise StudyConfigError naming the first field of `config` that is out of range."""
    study, models = config.study, config.models
    _require(study in STUDY_KINDS, "study", f"must be one of {STUDY_KINDS}, got {study!r}")
    _require(isinstance(models, tuple) and len(models) >= 1, "models",
             "must be a nonempty list of model descriptors")
    for i, desc in enumerate(models):
        if study == "gamma_distortion" and isinstance(desc, dict) and desc.get("type") == "ar2_sweep":
            _require("phi2" in desc, f"models[{i}].phi2", "required for ar2_sweep")
            phi2 = float(desc["phi2"])
            _require(abs(phi2) < 1, f"models[{i}].phi2", "must satisfy |phi2| < 1")
            points = int(desc.get("points", 21))
            _require(points >= 2, f"models[{i}].points", "must be >= 2")
        else:
            build_model(desc, i)
    fit_p, fit_q, m_list, n_list = config.fit_p, config.fit_q, config.m_list, config.n_list
    _require(fit_p >= 0 and fit_q >= 0, "fit", "orders must be nonnegative")
    for key, vals in (("m", m_list), ("n", n_list)):
        _require(len(vals) >= 1, key, "must be a nonempty list")
        _require(all(v >= 1 for v in vals), key, "entries must be >= 1")
    if study == "power" and min(m_list) <= fit_p + fit_q:
        raise StudyConfigError(
            f"m: power studies report a chi-squared route needing m > p+q; "
            f"got min(m)={min(m_list)} with p+q={fit_p + fit_q}")
    if study in ("convergence", "size", "power") and min(n_list) <= max(m_list):
        raise StudyConfigError(
            f"n: every series length must exceed the largest lag count; "
            f"got min(n)={min(n_list)}, max(m)={max(m_list)}")
    _require(config.replications >= 1, "R", "must be >= 1")
    _require(config.mc_replicates >= 1, "N", "must be >= 1")
    _require(len(config.levels) >= 1, "levels", "must be a nonempty list")
    _require(all(0.0 < v < 1.0 for v in config.levels), "levels", "entries must lie in (0, 1)")
    _require(len(config.statistics) >= 1, "statistics", "must be a nonempty list")
    _require(all(s in ("d_hat", "ljung_box", "box_pierce") for s in config.statistics),
             "statistics", "entries must be d_hat/ljung_box/box_pierce")
    if config.oracle:
        _require(study in ("size", "power"), "oracle", "only meaningful for size/power studies")
        for i, desc in enumerate(models):
            _require(desc.get("type") == "arma", f"models[{i}]",
                     "oracle mode requires ARMA models (known residual recursion)")


# ---------------------------------------------------------------------------
# gamma-distortion study (pure numerics)

def run_gamma_distortion_study(config: StudyConfig, threads: int = 1) -> StudyReport:
    """True asymptotic size of the nominal-level gamma test over the model grid.

    ARMA descriptors produce one cell per (model, m, level); ``ar2_sweep``
    descriptors sweep phi1 over the stationarity triangle at fixed phi2.
    Infeasible gamma cells are reported as nan with a warning.
    """
    report = _new_report(config)
    tasks = []
    for i, desc in enumerate(config.models):
        if desc.get("type") == "ar2_sweep":
            phi2 = float(desc["phi2"])
            points = int(desc.get("points", 21))
            lo, hi = phi2 - 1.0, 1.0 - phi2
            margin = 0.01 * (hi - lo)
            for phi1 in np.linspace(lo + margin, hi - margin, points):
                spec = ArmaSpec(ar=(float(phi1), phi2))
                mid = f"ar2(phi1={float(phi1):.6g},phi2={phi2:.6g})"
                tasks.append((mid, spec))
        else:
            tasks.append(build_model(desc, i))
            if desc.get("type") == "arma":
                ar, ma = tuple(desc.get("ar", ())), tuple(desc.get("ma", ()))
                if (len(ar), len(ma)) == (1, 1) and abs(ar[0] + 0.6) < 1e-9 and abs(ma[0] + 0.3) < 1e-9:
                    report.warnings.append(
                        "grid includes the ARMA(1,1) phi=-0.6, theta=-0.3 cell: the published "
                        "table prints 0.692 there, inconsistent with its symmetric partner "
                        "0.069; the computed value is symmetric")

    for mid, spec in tasks:
        if not isinstance(spec, ArmaSpec):
            raise StudyConfigError("gamma_distortion models must be ARMA descriptors")
        for m in config.m_list:
            for level in config.levels:
                try:
                    est = gamma_distortion(spec, m, level)
                except InfeasibleGammaError as err:
                    report.warnings.append(f"{mid} m={m}: {err}")
                    est = float("nan")
                report.add("gamma_distortion", mid, 0, m, level, est, 0.0, 0, 0)
    _finish(report)
    return report


# ---------------------------------------------------------------------------
# convergence study

def run_convergence_study(config: StudyConfig, threads: int = 1) -> StudyReport:
    """Finite-sample law of the generalized-variance statistic vs asymptotic.

    For each (model, n): fit the configured order to R simulated series,
    take the empirical upper quantile of the statistic at each level, and
    report the asymptotic tail probability there (0.05 means the asymptotic
    law is exact).  Also emits QQ data: empirical vs asymptotic quantiles
    at the fixed probability grid.

    The reported stderr follows the harness convention sqrt(p(1-p)/R)
    evaluated at the estimated tail probability.
    """
    report = _new_report(config)
    R = config.replications
    for i, desc in enumerate(config.models):
        mid, spec = build_model(desc, i)
        if not isinstance(spec, ArmaSpec):
            raise StudyConfigError("convergence study models must be ARMA descriptors")
        spectra = {m: lambda_spectrum(spec, m) for m in config.m_list}
        for n in config.n_list:
            worker = partial(replicate_rows, spec, n, config.m_list, ("d_hat",), config.fit_p,
                             config.fit_q, None, FitOptions())
            streams = [RngStream(config.master_seed, outer).substream(0) for outer in range(R)]
            rows, (failures, nonconverged) = map_chunks(worker, streams, threads)
            stats = np.array(rows)
            if failures:
                report.warnings.append(f"{mid} n={n}: {failures} simulation fits redrawn")
            if nonconverged:
                report.warnings.append(f"{mid} n={n}: {nonconverged} simulation refits"
                                       " did not converge")
            for c, m in enumerate(config.m_list):
                col = stats[:, c]
                for level in config.levels:
                    q_hat = float(np.quantile(col, 1.0 - level))
                    est = 1.0 - imhof_cdf(q_hat, spectra[m])
                    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / R))
                    report.add("convergence:tail_prob", mid, n, m, level, est, stderr, R, 0)
                asym = [imhof_quantile(p, spectra[m]) for p in QQ_PROBS]
                emp = [float(np.quantile(col, p)) for p in QQ_PROBS]
                report.qq_rows.append({"model_id": mid, "n": n, "m": m,
                                       "asymptotic": asym, "empirical": emp})
    _finish(report)
    return report


# ---------------------------------------------------------------------------
# size and power studies

def _rejection_rows(spec, n: int, m_list, kinds, fit_p: int, fit_q: int, N: int, known_spec,
                    want_chi2: bool, levels, roots) -> tuple[list, np.ndarray]:
    """Reject flags of the outer replicates `roots`, per (column, level).

    Outer replicate `root` draws its series on root.substream(0) and, on
    every attempt, its inner replicates on root.substream(1..N), curtailed
    at `levels`.  redraw_rows scores attempt a of the series of every root
    still failing in one pass of mc_grid_rows; a root fails an attempt
    where its series or its inner replicates fail.  Raises the ReplicateFailedError of the
    first root that fails every attempt.  Returns (rows, [redraws and
    failed replicates, nonconverged replicate refits, inner replicates kept
    by the scored attempts]); a row holds the flags of the MC columns in
    (m, kind) order, then of the chi-squared Ljung-Box column per m when
    `want_chi2`.
    """
    roots = list(roots)
    fit_options = FitOptions()
    parents = [(root.master_seed, root.key) for root in roots]

    def simulate(rows, streams):  # the outer series, and the parents of their inner replicates
        if isinstance(spec, ArmaSpec):
            X = simulate_arma_rows(spec, n, streams)
        else:
            X = np.array([simulate_model(spec, n, stream) for stream in streams])
        return X, [parents[i] for i in rows]

    def score(candidates):
        X, inner_parents = candidates
        grids = mc_grid_rows(X, fit_p, fit_q, m_list, N, inner_parents, kinds, known_spec,
                             fit_options, levels=levels)
        return grids, np.array([not isinstance(grid, Exception) for grid in grids], dtype=bool)

    (grids,), redrawn, dead = redraw_rows([root.substream(0) for root in roots], simulate, score)
    for err in filter(None, dead):
        raise err
    rows, counts = [], np.zeros(3, dtype=np.int64)
    for grid, failed in zip(grids, redrawn.tolist()):
        row = [grid.rejects[(m, kind)] for m in m_list for kind in kinds]
        if want_chi2:
            p_values = [ljung_box(grid.observed_acf.prefix(m), fit_p + fit_q)[1] for m in m_list]
            row += [tuple(p <= level for level in levels) for p in p_values]
        rows.append(row)
        counts += (failed + grid.failed_replicates, grid.nonconverged_refits, grid.drawn)
    return rows, counts


def _run_rejection_study(config: StudyConfig, threads: int, study_label: str,
                         want_chi2: bool) -> StudyReport:
    report = _new_report(config)
    R, N = config.replications, config.mc_replicates
    kinds = config.statistics
    # (label, m, N) of each column _rejection_rows returns
    columns = [(f"{study_label}:mc_{kind}", m, N) for m in config.m_list for kind in kinds]
    if want_chi2:
        columns += [(f"{study_label}:chi2_ljung_box", m, 0) for m in config.m_list]
    drawn = report.metadata["inner_replicates"] = []
    for i, desc in enumerate(config.models):
        mid, spec = build_model(desc, i)
        known = spec if (config.oracle and isinstance(spec, ArmaSpec)) else None
        for n in config.n_list:
            worker = partial(_rejection_rows, spec, n, config.m_list, kinds, config.fit_p,
                             config.fit_q, N, known, want_chi2, config.levels)
            roots = [RngStream(config.master_seed, outer) for outer in range(R)]
            rows, (failures, nonconverged, replicates) = map_chunks(worker, roots, threads)
            rejects = np.array(rows, dtype=bool)  # (outer, column, level)
            if failures:
                report.warnings.append(f"{mid} n={n}: {failures} replicate redraws/refit retries")
            if nonconverged:
                report.warnings.append(f"{mid} n={n}: {nonconverged} replicate refits"
                                       " did not converge")
            drawn.append({"model_id": mid, "n": n, "drawn": int(replicates), "full": R * N})
            for col, (label, m, n_mc) in enumerate(columns):
                for j, level in enumerate(config.levels):
                    est = float(np.mean(rejects[:, col, j]))
                    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / R))
                    report.add(label, mid, n, m, level, est, stderr, R, n_mc)
    _finish(report)
    return report


def run_size_study(config: StudyConfig, threads: int = 1) -> StudyReport:
    """Empirical size: rejection rate of the MC test under the null model.

    Each of R outer simulated series gets an inner MC test with N
    replicates, curtailed once its decisions are fixed; the estimate is the
    fraction of outer replicates with p-value <= level.  `oracle: true`
    skips all estimation (known true parameters), realizing the exact
    finite-N rejection probability floor(level*(N+1))/(N+1).
    """
    return _run_rejection_study(config, threads, "size", want_chi2=False)


def run_power_study(config: StudyConfig, threads: int = 1) -> StudyReport:
    """Empirical power against configured alternatives.

    The null order (fit.p, fit.q) is fit to each simulated alternative
    series.  Every statistic in `statistics` is computed from the same
    replicates (paired comparison); the chi-squared Ljung-Box p-value is
    reported alongside under the ``power:chi2_ljung_box`` label.
    """
    return _run_rejection_study(config, threads, "power", want_chi2=True)


def run_study(config: StudyConfig, threads: int = 1) -> StudyReport:
    """Dispatch on config.study."""
    runner = {
        "gamma_distortion": run_gamma_distortion_study,
        "convergence": run_convergence_study,
        "size": run_size_study,
        "power": run_power_study,
    }[config.study]
    return runner(config, threads=threads)


# ---------------------------------------------------------------------------
# shared plumbing

def _new_report(config: StudyConfig) -> StudyReport:
    report = StudyReport()
    report.metadata = {
        "study": config.study,
        "master_seed": config.master_seed,
        "package_version": __version__,
        "config": asdict(config),
        "started_unix": time.time(),
    }
    return report


def _finish(report: StudyReport) -> None:
    report.metadata["timing_seconds"] = time.time() - report.metadata["started_unix"]
