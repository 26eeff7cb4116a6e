"""The traced bench wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from scipy.sparse.linalg import LinearOperator

import torusjets.cli
from torusjets.jet_propagation import JetHierarchy

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


def test_tracer_counts_the_krylov_solves_of_a_pde_check(tmp_path):
    # built as bench/worker.py builds it: the lgmres wrapper must still see every solve
    tracing = load_tracing()
    tracer = tracing.Tracer(sys.modules, LinearOperator, JetHierarchy)
    spec = tmp_path / "spec.json"
    spec.write_text('{"terms": [[0.1, 2, 0], [-0.1, 0, 2]]}')
    argv = ["pde-check", "--spec", str(spec), "--nt", "9", "--nx", "16", "--ny", "16",
            "--delta", "1e-1,1e-2", "--output", str(tmp_path / "out.json")]
    tracer.install()
    try:
        code = torusjets.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert sum(span[0] == "pde_crosscheck.lgmres" for span in tracer.spans) >= 1
    assert tracer.counts[(tracing.MATVECS, 0)] > 0
