"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name. Every name it lists must stay bound to a callable in its coreglab
module, or the traced benchmark run fails before it starts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_is_a_library_callable(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"coreglab.{module_name}")
    assert callable(getattr(module, attr, None)), name
