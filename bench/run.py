"""Benchmark of gvport: the Monte-Carlo test, the asymptotic tables, oracle-mode size cells.

    python3 bench/run.py --workload {mc_test,asymptotic,oracle_size} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; gvport is imported from its `src/`.
`--trace 0` repeats whole rounds of the workload's operations for about
`--seconds` and reports the end-to-end metrics; `--trace 1` runs one round
untraced and the same round traced and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""
from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included (0 if unknown)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        return max(age, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = _process_age()

# One BLAS/OpenMP thread also when this file is run without the benchmark's
# command, which sets the same variables.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import OVERHEAD, Tracer, metric_units  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Tally:
    """Latencies and outputs of the operations of one run."""

    def __init__(self):
        self.latencies = []
        self.attempted = Counter()
        self.raised = Counter()
        self.first = {}
        self.unstable = set()

    def run_round(self, ops) -> None:
        for label, op in ops:
            self.attempted[label] += 1
            start = time.perf_counter()
            try:
                out = op()
            except Exception as err:  # noqa: BLE001 - a raising operation counts as failed
                self.raised[label] += 1
                print(f"{label}: {type(err).__name__}: {err}", file=sys.stderr)
                continue
            self.latencies.append(time.perf_counter() - start)
            if label not in self.first:
                self.first[label] = out
            elif out != self.first[label]:
                self.unstable.add(label)

    def outcome(self, op_errors: dict, run_errors: list) -> dict:
        """correct/attempted/failed; a failed check fails every completed run of its label."""
        bad = {label for label, errs in op_errors.items() if errs} | self.unstable
        for label in sorted(bad):
            for err in op_errors.get(label) or ["output differs between repetitions"]:
                print(f"check failed: {label}: {err}", file=sys.stderr)
        for err in run_errors:
            print(f"check failed: {err}", file=sys.stderr)
        failed = sum(self.raised.values()) + sum(
            self.attempted[label] - self.raised[label] for label in bad)
        return {"correct": not bad and not run_errors,
                "attempted": sum(self.attempted.values()), "failed": failed}


def run(workload, seconds: float, trace: bool, workdir: Path) -> dict:
    """Warm up, measure (timed rounds, or one untraced and one traced round), check."""
    ops = workload.round()
    workload.warmup()
    tally = Tally()
    setup_s = _AGE_AT_T0 + time.perf_counter() - _T0
    if trace:
        start = time.perf_counter()
        tally.run_round(ops)
        untraced = time.perf_counter() - start
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            tally.run_round(ops)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tracer.write(workdir / "spans.csv")
        values = {**tracer.metrics(), OVERHEAD: traced / untraced}
        units = metric_units()
    else:
        start, cpu0 = time.perf_counter(), _cpu_seconds()
        rounds = 0
        while True:
            tally.run_round(ops)
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop at the whole number of rounds whose length is nearest to `seconds`
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                break
        wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu0
        done = len(tally.latencies)
        values = {"setup_s": setup_s, "ops_per_s": done / wall,
                  "op_p50_s": statistics.median(tally.latencies) if done else 0.0,
                  "cpu_s": cpu / done if done else 0.0, "peak_rss_mb": _peak_rss_mb()}
        units = END_TO_END_UNITS
    result = tally.outcome(*workload.check(tally.first))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return result


def _import_workloads():
    """Import the workloads against this checkout's gvport, or exit with code 2."""
    if not (SRC / "gvport" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'gvport'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gvport

    if Path(gvport.__file__).resolve().parent != SRC / "gvport":
        sys.exit(f"error: imported gvport from {gvport.__file__}, not from {SRC}")
    import workloads

    return workloads.WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_test", "asymptotic", "oracle_size"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads = _import_workloads()
    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads[args.workload](args.seed, workdir)
    print(json.dumps(run(workload, args.seconds, bool(args.trace), workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
