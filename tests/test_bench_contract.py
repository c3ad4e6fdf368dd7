"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,attr", _traced(), ids=lambda v: v)
def test_traced_function_exists(module_name, attr):
    module = importlib.import_module(f"spinbeam.{module_name}")
    assert callable(getattr(module, attr, None))
