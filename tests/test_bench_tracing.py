"""The traced bench wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_tracing().WRAPPED, ids=lambda e: f"{e[0]}.{e[1]}")
def test_wrapped_name_resolves(entry):
    module_name, attr, _ = entry
    assert callable(getattr(importlib.import_module(module_name), attr))
