"""Per-layer tracing from outside the program.

`Tracer.install` replaces each function in TRACED with a timing wrapper in
every gvport module that holds it (mc, studies and cli import functions by
name, so patching the defining module alone would miss their calls).  The
wrappers keep a span stack; a span's self time is its duration minus the
time covered by its child spans.  Spans stay in memory until `write`.
"""
from __future__ import annotations

import itertools
import sys
import time

# (module, function) pairs, in gvport's layer order.
TRACED = (
    ("cli", "main"),
    ("series_io", "read_series"),
    ("studies", "run_size_study"),
    ("mc", "mc_portmanteau_grid"),
    ("estimation", "fit_arma"),
    ("estimation", "css_residuals"),
    ("generators", "simulate_arma"),
    ("generators", "RngStream.generator"),
    ("diagnostics", "residual_acf"),
    ("diagnostics", "portmanteau_statistic"),
    ("diagnostics", "ljung_box"),
    ("asymptotic", "gamma_distortion"),
    ("asymptotic", "lambda_spectrum"),
    ("asymptotic", "imhof_quantile"),
    ("asymptotic", "imhof_cdf"),
    ("arma", "poly_root_moduli"),
)
COUNTERS = ("estimation.fit_arma.iterations", "estimation.fit_arma.nonconverged", "mc.redraws")
OVERHEAD = "trace.overhead_ratio"


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for module, name in TRACED:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units[OVERHEAD] = "ratio"
    return units


class Tracer:
    """Timing wrappers around TRACED; one instance per traced section."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, function index, start, end, self_s)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._ids = itertools.count()
        self._patches = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gvport" or n.startswith("gvport.")]
        for index, (module, name) in enumerate(TRACED):
            owner = sys.modules[f"gvport.{module}"]
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(index, cls.__dict__[method]))
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, wrapper) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    def _wrap(self, index, func):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        after = {("estimation", "fit_arma"): self._count_fit,
                 ("mc", "mc_portmanteau_grid"): self._count_redraws}.get(TRACED[index])

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]  # span id, time covered by child spans
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, index, start, end, end - start - frame[1]))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = func
        return traced

    def _count_fit(self, fitted) -> None:
        self.counters["estimation.fit_arma.iterations"] += fitted.iterations
        self.counters["estimation.fit_arma.nonconverged"] += not fitted.converged

    def _count_redraws(self, grid) -> None:
        self.counters["mc.redraws"] += grid.failed_replicates

    def metrics(self) -> dict:
        """Per-layer totals: calls and self time per function, plus the counters."""
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for _, _, index, _, _, own in self.spans:
            calls[index] += 1
            self_s[index] += own
        out = {}
        for index, (module, name) in enumerate(TRACED):
            out[f"{module}.{name}.calls"] = calls[index]
            out[f"{module}.{name}.self_s"] = self_s[index]
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        """All spans as CSV, times in seconds from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,function,start_s,end_s,self_s\n")
            for span_id, parent, index, start, end, own in sorted(self.spans):
                module, name = TRACED[index]
                fh.write(f"{span_id},{parent},{module}.{name},{start - t0:.9f},"
                         f"{end - t0:.9f},{own:.9f}\n")
