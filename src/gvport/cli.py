"""Command-line front end.

Three subcommands:

* ``test``        - run the portmanteau diagnostics on a series file
* ``asymptotic``  - query the asymptotic null law and gamma surrogate
* ``study``       - run a configured simulation study

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .arma import ArmaSpec, NotAdmissibleError
from .asymptotic import (
    InfeasibleGammaError,
    RankDeficientError,
    gamma_distortion,
    gamma_params,
    gamma_tail,
    imhof_cdf,
    imhof_quantile,
    lambda_spectrum,
)
from .diagnostics import d_hat, ljung_box
from .mc import mc_portmanteau_grid
from .series_io import SeriesParseError, read_series
from .studies import StudyConfigError, load_study_config, run_study

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

STAT_ALIASES = {"dhat": "d_hat", "lb": "ljung_box", "bp": "box_pierce"}
DEFAULT_M = (5, 10, 20, 30, 40, 50)
GAMMA_WARNING_MIN_N = 500


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gvport",
                     description="Generalized-variance portmanteau diagnostics for ARMA models")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="diagnose a fitted ARMA model on a series file")
    t.add_argument("--file", required=True, help="series file (one value per line, or CSV)")
    t.add_argument("--column", default=None, help="CSV column name holding the series")
    t.add_argument("--p", type=int, default=0, help="AR order of the null model")
    t.add_argument("--q", type=int, default=0, help="MA order of the null model")
    t.add_argument("--m", type=int, nargs="+", default=list(DEFAULT_M),
                   help="lag counts (default: 5 10 20 30 40 50)")
    t.add_argument("--N", type=int, default=999, help="Monte-Carlo replicates (default 999)")
    t.add_argument("--stat", choices=sorted(STAT_ALIASES), default="dhat",
                   help="statistic for the Monte-Carlo test")
    t.add_argument("--seed", type=int, default=0, help="master seed for the MC replicates")
    t.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    t.add_argument("--threads", type=int, default=0, help="worker processes (0 = auto)")

    a = sub.add_parser("asymptotic", help="asymptotic null law and gamma surrogate")
    a.add_argument("--p", type=int, default=0)
    a.add_argument("--q", type=int, default=0)
    a.add_argument("--phi", type=float, nargs="*", default=[], help="AR coefficients")
    a.add_argument("--theta", type=float, nargs="*", default=[], help="MA coefficients")
    a.add_argument("--m", type=int, required=True, help="lag count")
    a.add_argument("--x", type=float, default=None, help="evaluate F(x) at this statistic value")
    a.add_argument("--quantile", type=float, default=None,
                   help="invert F at this probability instead")
    a.add_argument("--json", action="store_true")

    s = sub.add_parser("study", help="run a configured simulation study")
    s.add_argument("--config", required=True, help="JSON study configuration file")
    s.add_argument("--scale", type=float, default=1.0,
                   help="divide the replication counts R and N by this factor")
    s.add_argument("--out", default=None, help="output path prefix (overrides config)")
    s.add_argument("--threads", type=int, default=0, help="worker processes (0 = auto)")
    return parser


def _auto_threads(requested: int) -> int:
    if requested and requested > 0:
        return requested
    import os

    # the CPUs this process may run on, where the platform reports them
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _orders_ok(m_values, p: int, q: int) -> bool:
    """False, after printing why, unless every lag count is >= 1 and p, q >= 0."""
    ok = min(m_values) >= 1 and min(p, q) >= 0
    if not ok:
        print(f"error: need --m >= 1 and --p, --q >= 0, got m={list(m_values)}, p={p}, q={q}",
              file=sys.stderr)
    return ok


def cmd_test(args) -> int:
    if not _orders_ok(args.m, args.p, args.q):
        return EXIT_USAGE
    try:
        series = read_series(args.file, column=args.column)
    except FileNotFoundError:
        print(f"error: cannot open {args.file}", file=sys.stderr)
        return EXIT_DATA
    except SeriesParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA

    m_list = sorted(set(args.m))
    if args.N < 1:
        print("error: --N must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if max(m_list) >= series.size:
        print(f"error: largest m={max(m_list)} must be below the series length {series.size}",
              file=sys.stderr)
        return EXIT_DATA
    kind = STAT_ALIASES[args.stat]
    threads = _auto_threads(args.threads)

    try:
        grid = mc_portmanteau_grid(series, args.p, args.q, m_list, args.N,
                                   kinds=(kind,), master_seed=args.seed, threads=threads)
    except (ValueError, RuntimeError) as err:
        print(f"error: fit/Monte-Carlo failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    fitted = grid.fitted
    fit_count = args.p + args.q
    n = fitted.n

    results = []
    for m in m_list:
        acf = grid.observed_acf.prefix(m)
        row = {"m": m}

        lb_stat, lb_p = ljung_box(acf, fit_count, pvalue=m > fit_count)
        row["ljung_box"] = {"statistic": lb_stat.statistic}
        if m > fit_count:
            row["ljung_box"]["p_value"] = lb_p
        else:
            row["ljung_box"]["error"] = (
                f"chi-squared p-value undefined: m={m} <= p+q={fit_count}")

        d_stat = d_hat(acf, fit_count)
        entry = {"statistic": d_stat.statistic}
        try:
            spectrum = lambda_spectrum(fitted.spec, m)
            entry["p_asymptotic"] = 1.0 - imhof_cdf(d_stat.statistic, spectrum)
        except (RankDeficientError, ArithmeticError) as err:
            entry["error_asymptotic"] = str(err)
        try:
            g = gamma_params(m, fit_count)
            entry["p_gamma"] = gamma_tail(d_stat.statistic, g)
            entry["gamma_alpha"] = g.alpha
            entry["gamma_beta"] = g.beta
            if "error_asymptotic" not in entry:
                entry["gamma_distortion_5pct"] = gamma_distortion(fitted.spec, m, 0.05)
        except InfeasibleGammaError as err:
            entry["gamma_infeasible"] = str(err)
        row["d_hat"] = entry
        row["mc"] = {
            "statistic_kind": kind,
            "statistic": grid.cells[(m, kind)].observed.statistic,
            "p_value": grid.cells[(m, kind)].p_value,
            "k": grid.cells[(m, kind)].k,
        }
        results.append(row)

    payload = {
        "file": args.file,
        "n": n,
        "p": args.p,
        "q": args.q,
        "fitted": {
            "ar": list(fitted.spec.ar),
            "ma": list(fitted.spec.ma),
            "sigma2": fitted.spec.sigma2,
            "mean": fitted.spec.mean,
            "converged": fitted.converged,
        },
        "N": grid.N,
        "seed": args.seed,
        "statistic_kind": kind,
        "gamma_beta_convention": "rate",
        "failed_replicates": grid.failed_replicates,
        "nonconverged_refits": grid.nonconverged_refits,
        "results": results,
    }

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    print(f"series: {args.file}  (n={n})")
    print(f"null model: ARMA({args.p},{args.q})  "
          f"ar={np.round(fitted.spec.ar, 4).tolist()} ma={np.round(fitted.spec.ma, 4).tolist()} "
          f"sigma2={fitted.spec.sigma2:.6g}  converged={fitted.converged}")
    print(f"Monte-Carlo: N={grid.N} replicates, statistic={kind}, seed={args.seed}")
    if grid.nonconverged_refits:
        print(f"note: {grid.nonconverged_refits} replicate refits did not converge")
    print()
    print(f"{'m':>4}  {'Q_m':>10} {'p(chi2)':>9}  {'D_m':>10} {'p(asym)':>9} "
          f"{'p(MC)':>7}  {'p(gamma)':>9}")
    warn_distortion = None
    for row in results:
        lb = row["ljung_box"]
        dh = row["d_hat"]
        lb_p = f"{lb['p_value']:.4f}" if "p_value" in lb else "   --"
        da_p = f"{dh['p_asymptotic']:.4f}" if "p_asymptotic" in dh else "   --"
        g_p = f"{dh['p_gamma']:.4f}" if "p_gamma" in dh else "   --"
        print(f"{row['m']:>4}  {lb['statistic']:>10.4f} {lb_p:>9}  "
              f"{dh['statistic']:>10.4f} {da_p:>9} {row['mc']['p_value']:>7.4f}  {g_p:>9}")
        if "error" in lb:
            print(f"      note: {lb['error']}")
        if "gamma_infeasible" in dh:
            print(f"      note: {dh['gamma_infeasible']}")
        if n >= GAMMA_WARNING_MIN_N and "gamma_distortion_5pct" in dh:
            warn_distortion = max(warn_distortion or 0.0, dh["gamma_distortion_5pct"])
    if warn_distortion is not None:
        print()
        print(f"warning: the gamma approximation is not conservative; at these orders a "
              f"nominal 5% gamma test has true asymptotic size up to {warn_distortion:.3f}")
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    if not _orders_ok([args.m], args.p, args.q):
        return EXIT_USAGE
    if len(args.phi) != args.p or len(args.theta) != args.q:
        print(f"error: expected {args.p} phi and {args.q} theta values, "
              f"got {len(args.phi)} and {len(args.theta)}", file=sys.stderr)
        return EXIT_USAGE
    if args.x is not None and args.quantile is not None:
        print("error: give either --x or --quantile, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.x is not None and not math.isfinite(args.x):
        print(f"error: --x must be a finite number, got {args.x}", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = ArmaSpec(ar=tuple(args.phi), ma=tuple(args.theta))
        spectrum = lambda_spectrum(spec, args.m)
    except NotAdmissibleError as err:
        print(f"error: inadmissible model: {err}", file=sys.stderr)
        return EXIT_DATA
    except RankDeficientError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    payload = {
        "p": args.p, "q": args.q, "phi": args.phi, "theta": args.theta, "m": args.m,
        "lambdas": spectrum.lambdas.tolist(),
        "lambda_sum": float(np.sum(spectrum.lambdas)),
        "gamma_beta_convention": "rate",
    }
    try:
        g = gamma_params(args.m, args.p + args.q)
        payload["gamma"] = {"alpha": g.alpha, "beta": g.beta, "feasible": True}
        payload["gamma_distortion_5pct"] = gamma_distortion(spec, args.m, 0.05)
    except InfeasibleGammaError as err:
        payload["gamma"] = {"feasible": False, "message": str(err)}
    try:
        if args.x is not None:
            payload["x"] = args.x
            payload["cdf_at_x"] = imhof_cdf(args.x, spectrum)
            payload["p_value_at_x"] = 1.0 - payload["cdf_at_x"]
        if args.quantile is not None:
            payload["prob"] = args.quantile
            payload["quantile"] = imhof_quantile(args.quantile, spectrum)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    print(f"ARMA({args.p},{args.q}) phi={args.phi} theta={args.theta}, m={args.m}")
    print("eigenvalues:", " ".join(f"{v:.6f}" for v in spectrum.lambdas))
    print(f"sum: {payload['lambda_sum']:.6f}")
    if payload["gamma"]["feasible"]:
        print(f"gamma surrogate: shape={payload['gamma']['alpha']:.6f} "
              f"rate={payload['gamma']['beta']:.6f}")
        print(f"gamma distortion at 5%: {payload['gamma_distortion_5pct']:.4f}")
    else:
        print(f"gamma infeasible; {payload['gamma']['message'].split(';', 1)[-1].strip()}")
    if "cdf_at_x" in payload:
        print(f"F({args.x}) = {payload['cdf_at_x']:.8f}   "
              f"upper tail = {payload['p_value_at_x']:.8f}")
    if "quantile" in payload:
        print(f"quantile at {args.quantile}: {payload['quantile']:.8f}")
    return EXIT_OK


def cmd_study(args) -> int:
    try:
        config = load_study_config(args.config, scale=args.scale)
    except FileNotFoundError:
        print(f"error: cannot open {args.config}", file=sys.stderr)
        return EXIT_DATA
    except StudyConfigError as err:
        print(f"error: invalid config: {err}", file=sys.stderr)
        return EXIT_DATA

    threads = _auto_threads(args.threads)
    print(f"running {config.study} study: R={config.replications} N={config.mc_replicates} "
          f"models={len(config.models)} threads={threads}", file=sys.stderr)
    try:
        report = run_study(config, threads=threads)
    except (ValueError, RuntimeError, ArithmeticError) as err:
        print(f"error: study failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    out_prefix = args.out or config.out or f"study_{config.study}"
    written = report.write(out_prefix)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print("wrote: " + " ".join(written), file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    handler = {"test": cmd_test, "asymptotic": cmd_asymptotic, "study": cmd_study}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
