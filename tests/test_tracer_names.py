"""The bench tracer wraps gvport functions by name: every traced name must resolve."""
import importlib
import importlib.util
from operator import attrgetter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> tuple:
    """bench/tracing.py's TRACED (module, name) pairs; the module imports only the stdlib."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves(module, name):
    assert callable(attrgetter(name)(importlib.import_module(f"gvport.{module}")))
