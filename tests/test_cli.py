import contextlib
import dataclasses
import enum
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusjets import cli, counterexample, jet_propagation, pde_crosscheck, timegrid
from torusjets.cli import NODES_ENV_VAR, main
from torusjets.report_io import fields_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


FAMILY = ["--a0", "0", "--b0", "0", "--a1", "0.25", "--b1", "-0.25"]


# --- second-jet -------------------------------------------------------------------

def test_second_jet_family(capsys):
    rep = run_json(capsys, "second-jet", *FAMILY)
    assert rep["command"] == "second-jet"
    assert rep["causal_class"] == "SpaceLike"
    assert rep["connectable"] is True
    assert rep["swapped_axes"] is False
    assert round(rep["epsilon"], 10) == 0.2617993878
    assert rep["ode_residual"] < 1e-8
    assert len(rep["t"]) == len(rep["a"]) == len(rep["b"]) == 64
    assert rep["config"]["nodes"] == 64
    assert isinstance(rep["sigma2"], float)
    assert abs(rep["sigma2"] + (math.pi / 12) ** 2) < 1e-9


def test_second_jet_stationary_has_no_epsilon(capsys):
    rep = run_json(capsys, "second-jet", "--a0", "0.1", "--b0", "0.2",
                   "--a1", "0.1", "--b1", "0.2")
    assert rep["causal_class"] == "Stationary"
    assert "epsilon" not in rep


def test_second_jet_not_connectable_is_input_error(capsys):
    code, out, err = run_cli(capsys, "second-jet", "--a0", "0", "--b0", "0",
                             "--a1", "1.0", "--b1", "-0.6")
    assert code == 2
    assert "a0 + b1 + 1/2 > 0" in err
    assert out == ""


def test_second_jet_invalid_boundary_is_input_error(capsys):
    code, _, err = run_cli(capsys, "second-jet", "--a0", "-0.3", "--b0", "-0.3",
                           "--a1", "0", "--b1", "0")
    assert code == 2
    assert "a0 + b0 + 1/2 > 0" in err


def test_second_jet_overflowing_residual_is_numeric_error(capsys):
    # a vertical chord to 4e307: the path is finite, but its slope a' = Z D/4, with the
    # proper time D = 709.7, overflows near Z1 = 1.6e308, and with it the residual
    code, out, err = run_cli(capsys, "second-jet", "--a0", "0", "--b0", "0",
                             "--a1", "4e307", "--b1", "4e307")
    assert code == 4
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert "jet-equation residual" in err and "Traceback" not in err


STEEP_CHORDS = [
    *(pytest.param(("0", "0", a1, "-0.1"), "SpaceLike", id=a1)
      for a1 in ("1e4", "1e6", "1e7", "1e8", "1e10", "1e12")),
    *(pytest.param(("0", "0", a1, "0.125"), "TimeLike", id=f"timelike-{a1}")
      for a1 in ("1e4", "1e6", "1e7", "1e8", "1e10", "1e12")),
    pytest.param(("5.06e56", "2.62e63", "44.84", "0"), "TimeLike", id="fall-from-2.62e63"),
    pytest.param(("0", "0", "1e80", "1e80"), "TimeLike", id="vertical-1e80"),
    pytest.param(("0", "0", "1e150", "1e150"), "TimeLike", id="vertical-1e150"),
    pytest.param(("0", "0", "1e160", "1e160"), "TimeLike", id="vertical-1e160"),
    pytest.param(("0", "0", "1e300", "1e300"), "TimeLike", id="vertical-1e300"),
    pytest.param(("1e200", "1e200", "1e200", "1e200"), "Stationary", id="stationary-1e200"),
    pytest.param(("1e300", "1e300", "1e300", "1e-300"), "LightLike", id="lightlike-1e300"),
]


@pytest.mark.parametrize("jets, cls", STEEP_CHORDS)
def test_second_jet_steep_spacelike_chords_meet_their_endpoints(capsys, jets, cls):
    # steep chords of both classes, whose ends differ in Z by up to 1e63, and jets up to
    # 1e300; the endpoint check is relative to max(Z0, Z1), not absolute, and the residual,
    # read off closed-form slopes divided through by Z, stays at rounding level
    flags = (f"--{k}={v}" for k, v in zip(("a0", "b0", "a1", "b1"), jets))
    rep = run_json(capsys, "second-jet", *flags)
    assert rep["causal_class"] == cls
    assert 0.0 <= rep["ode_residual"] <= 1e-12
    a0, b0, a1, b1 = map(float, jets)
    scale = max(1 + 2 * (a0 + b0), 1 + 2 * (a1 + b1))
    assert abs(rep["a"][0] - a0) <= 1e-9 * scale and abs(rep["b"][0] - b0) <= 1e-9 * scale
    assert abs(rep["a"][-1] - a1) <= 1e-9 * scale and abs(rep["b"][-1] - b1) <= 1e-9 * scale


def test_second_jet_report_does_not_depend_on_the_blas_thread_count():
    # no product of the 2-jet path goes through BLAS, so its report keeps its bytes
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "torusjets.cli", "second-jet", "--a0", "0", "--b0", "0",
            "--a1", "0.25", "--b1=-0.25", "--nodes", "1025"]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reports.append(done.stdout)
    assert reports[0] == reports[1]


def test_second_jet_connectability_is_read_off_the_jets(capsys):
    # a1 + b0 + 1/2 = 1e17 > 0, though Z0 + Z1 and |dX| both round to 2e17
    rep = run_json(capsys, "second-jet", "--a0", "0", "--b0", "0", "--a1", "1e17", "--b1", "0")
    assert rep["causal_class"] == "LightLike"
    assert rep["a"][-1] == 1e17 and rep["b"] == [0.0] * 64


def test_second_jet_z_past_the_float_range_is_numeric_error(capsys):
    # connectable jets whose Z1 = 1 + 2 (a1 + b1) overflows to inf
    code, out, err = run_cli(capsys, "second-jet", "--a0", "0", "--b0", "0",
                             "--a1", "1e308", "--b1", "1e308")
    assert code == 4 and out == ""
    assert err.startswith("numeric error:") and "past the float range" in err


def test_output_into_missing_directory_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "second-jet", *FAMILY, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "No such file or directory" in err
    assert "Traceback" not in err


def test_nodes_flag_and_env(capsys, monkeypatch):
    rep = run_json(capsys, "second-jet", *FAMILY, "--nodes", "24")
    assert len(rep["t"]) == 24
    monkeypatch.setenv(NODES_ENV_VAR, "32")
    rep = run_json(capsys, "second-jet", *FAMILY)
    assert len(rep["t"]) == 32
    assert rep["config"]["nodes"] == 32
    # explicit flag wins over the environment
    rep = run_json(capsys, "second-jet", *FAMILY, "--nodes", "24")
    assert len(rep["t"]) == 24
    monkeypatch.setenv(NODES_ENV_VAR, "lots")
    code, _, err = run_cli(capsys, "second-jet", *FAMILY)
    assert code == 2 and NODES_ENV_VAR in err


def test_output_file_and_rerun_identical(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "second-jet", *FAMILY, "--output", str(out_file))
    assert code == 0 and out == ""
    first = out_file.read_text()
    run_cli(capsys, "second-jet", *FAMILY, "--output", str(out_file))
    assert out_file.read_text() == first
    assert json.loads(first)["causal_class"] == "SpaceLike"


def report_floats(obj) -> np.ndarray:
    """Every number of a report structure, before or after JSON, as float64 in document order."""
    if dataclasses.is_dataclass(obj):
        return report_floats(fields_of(obj))
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return np.concatenate([np.zeros(0)] + [report_floats(value) for value in obj])
    if obj is None or isinstance(obj, (str, enum.Enum)):
        return np.zeros(0)
    return np.ravel(np.asarray(obj, dtype=float))


REPORT_RUNS = {
    "second-jet": ["second-jet", *FAMILY],
    "propagate": ["propagate", "--spec", "{spec}", "--max-order", "16", "--nodes", "33"],
    "counterexample": ["counterexample", "--n", "4"],
    "pde-check": ["pde-check", "--spec", "{spec}", "--nt", "9", "--nx", "16", "--ny", "16",
                  "--delta", "1e-1,1e-2"],
}
REPORT_SPECS = {
    "propagate": {"phi0": {"terms": [[0.02, 2, 0], [0.03, 0, 2]]},
                  "phi1": {"terms": [[0.05, 2, 0], [-0.01, 0, 2], [0.3, 4, 2]]}},
    "pde-check": {"terms": [[0.1, 2, 0], [-0.1, 0, 2]]},
}


@pytest.mark.parametrize("command", sorted(REPORT_RUNS))
def test_reports_parse_back_bit_for_bit_and_rerun_identical(capsys, tmp_path, monkeypatch, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(REPORT_SPECS.get(command)))
    argv = [arg.format(spec=spec) for arg in REPORT_RUNS[command]]
    sent, real_dumps = [], cli.dumps_json
    monkeypatch.setattr(cli, "dumps_json", lambda report: sent.append(report) or real_dumps(report))
    first = run_cli(capsys, *argv)
    assert first[0] == 0, first[2]
    assert run_cli(capsys, *argv) == first
    produced, parsed = report_floats(sent[0]), report_floats(json.loads(first[1]))
    assert produced.size == parsed.size > 10
    assert np.array_equal(produced.view(np.int64), parsed.view(np.int64))


def test_plot_artifacts(capsys, tmp_path):
    prefix = str(tmp_path / "path")
    code, _, _ = run_cli(capsys, "second-jet", *FAMILY, "--nodes", "16",
                         "--plot", prefix)
    assert code == 0
    dat = (tmp_path / "path.dat").read_text().splitlines()
    assert dat[0] == "# t a b sigma1 sigma2"
    assert len(dat) == 1 + 16
    gp = (tmp_path / "path.gp").read_text()
    assert "pngcairo" in gp and "path.dat" in gp


# --- propagate --------------------------------------------------------------------

def write_spec(tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    return str(spec)


def family_spec(tmp_path, n):
    c = 0.5 * math.sin(math.pi / (2 * n))
    return write_spec(tmp_path, {"terms": [[c, 2, 0], [-c, 0, 2]]})


def test_propagate_reaches_obstruction(capsys, tmp_path):
    rep = run_json(capsys, "propagate", "--spec", family_spec(tmp_path, 3),
                   "--max-order", "6")
    assert rep["type"] == "obstruction"
    assert rep["resonant_order"] == 6
    assert rep["multiple"] == 1
    assert len(rep["u"]) == len(rep["v"]) == 4
    assert rep["satisfied"] in (True, False)
    assert abs(rep["lhs"] - rep["K"]) == rep["residual"]


def test_propagate_hierarchy_below_resonance(capsys, tmp_path):
    rep = run_json(capsys, "propagate", "--spec", family_spec(tmp_path, 3),
                   "--max-order", "4")
    assert rep["type"] == "hierarchy"
    assert list(rep["orders"]) == ["4"]
    assert len(rep["orders"]["4"]) == 3
    assert rep["order_residuals"]["4"] < 1e-6
    assert rep["path"]["causal_class"] == "SpaceLike"
    assert rep["config"]["max_order"] == 4


def test_propagate_with_explicit_sides(capsys, tmp_path):
    spec = write_spec(tmp_path, {
        "phi0": {"jets": {"2": [0.0, 0.0]}},
        "phi1": {"jets": {"2": [0.2, -0.2], "4": [0.1, 0.0, 0.0]}},
    })
    rep = run_json(capsys, "propagate", "--spec", spec, "--max-order", "4")
    assert rep["type"] == "hierarchy"
    assert rep["config"]["phi1_jets"]["4"] == [0.1, 0.0, 0.0]


def test_propagate_timelike_is_domain_error(capsys, tmp_path):
    spec = write_spec(tmp_path, {"phi1": {"jets": {"2": [0.1, 0.1]}}})
    code, _, err = run_cli(capsys, "propagate", "--spec", spec, "--max-order", "4")
    assert code == 3
    assert "space-like" in err


def test_propagate_classifies_before_it_solves(capsys, tmp_path, monkeypatch):
    # a time-like 2-jet far from the origin is refused as time-like, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("propagate solved the 2-jets before classifying them")

    monkeypatch.setattr(jet_propagation, "solve_bvp", no_solve)
    spec = write_spec(tmp_path, {"phi1": {"jets": {"2": [1e9, 0.125]}}})
    code, out, err = run_cli(capsys, "propagate", "--spec", spec, "--max-order", "4")
    assert code == 3 and out == ""
    assert "space-like" in err and "TimeLike" in err


def test_propagate_missing_spec_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "propagate", "--spec",
                           str(tmp_path / "nope.json"), "--max-order", "4")
    assert code == 2


def test_propagate_bad_schema(capsys, tmp_path):
    spec = write_spec(tmp_path, [1, 2, 3])
    code, _, err = run_cli(capsys, "propagate", "--spec", spec, "--max-order", "4")
    assert code == 2
    assert "object" in err


MALFORMED_SPECS = [
    {"phi1": {"jets": {"2": 5}}},
    {"terms": 5},
    {"terms": [[[1], 2, 0]]},
    {"terms": [[1, None, 0]]},
    {"phi1": {"jets": {"2": [0.1, {"a": 1}]}}},
]


@pytest.mark.parametrize(
    "command, payload",
    [("propagate", payload) for payload in MALFORMED_SPECS]
    + [("pde-check", MALFORMED_SPECS[2])],
)
def test_malformed_spec_values_are_input_errors(capsys, tmp_path, command, payload):
    spec = write_spec(tmp_path, payload)
    if command == "propagate":
        size = ["--max-order", "4"]
    else:
        size = ["--nt", "9", "--nx", "16", "--ny", "16"]
    code, out, err = run_cli(capsys, command, "--spec", spec, *size)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"terms": [[1, 2.7, 0]]},
    {"terms": [[True, 2, 0]]},
    {"terms": [[1, True, 0]]},
    {"phi1": {"jets": {"2": [True, 0]}}},
    {"phi1": {"jets": {"2": [math.inf, 0]}}},
])
def test_booleans_fractional_powers_and_infinities_are_input_errors(capsys, tmp_path, payload):
    spec = write_spec(tmp_path, payload)
    code, out, err = run_cli(capsys, "propagate", "--spec", spec, "--max-order", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# two terms that each fit the float range but sum past it, as jets and on the PDE grid
OVERFLOWING_SUM = {"terms": [[8.988465674311579e307, 0, 2], [8.98846567431158e307, 0, 2]]}


@pytest.mark.parametrize("argv, message", [
    (["propagate", "--max-order", "4"], "order-2 Taylor coefficients"),
    (["pde-check", "--nt", "9", "--nx", "16", "--ny", "16", "--delta", "1.0"],
     "boundary potential is not finite"),
])
def test_terms_summing_past_the_float_range_are_input_errors(capsys, tmp_path, argv, message):
    spec = write_spec(tmp_path, OVERFLOWING_SUM)
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_propagate_overflowing_order_is_numeric_error(capsys, tmp_path):
    spec = write_spec(tmp_path, {
        "phi0": {"jets": {"2": [0, 0]}},
        "phi1": {"jets": {"2": [0.2, -0.2], "4": [1e200, 1e200, 1e200]}},
    })
    code, out, err = run_cli(capsys, "propagate", "--spec", spec, "--max-order", "6")
    assert code == 4 and out == ""
    assert err.startswith("numeric error: ") and "order 6" in err and err.count("\n") == 1


# --- counterexample ---------------------------------------------------------------

def test_counterexample_demo(capsys):
    rep = run_json(capsys, "counterexample", "--n", "3")
    assert rep["command"] == "counterexample"
    assert rep["resonant_order"] == 6
    assert rep["which_holds"] in ("h", "h_tilde", "neither")
    assert not (rep["satisfied_h"] and rep["satisfied_htilde"])
    rel = abs(rep["difference"] - rep["predicted_difference"])
    assert rel < 1e-12 * abs(rep["predicted_difference"])
    assert rep["chi"] == math.exp(-3)


def test_counterexample_builds_its_plot_only_under_the_flag(capsys, tmp_path, monkeypatch):
    solved = []
    real_solve = cli.solve_bvp
    monkeypatch.setattr(cli, "solve_bvp", lambda *a: solved.append(1) or real_solve(*a))
    plain = run_cli(capsys, "counterexample", "--n", "3")
    assert plain[0] == 0 and solved == []
    prefix = str(tmp_path / "h3")
    plotted = run_cli(capsys, "counterexample", "--n", "3", "--plot", prefix)
    assert plotted == plain and solved == [1]
    dat = (tmp_path / "h3.dat").read_text().splitlines()
    assert dat[0] == "# t a b sigma1 sigma2" and len(dat) == 1 + 64
    assert "h_3 second-jet path" in (tmp_path / "h3.gp").read_text()


def test_counterexample_small_n_is_input_error(capsys):
    code, _, err = run_cli(capsys, "counterexample", "--n", "2")
    assert code == 2
    assert "n >= 3" in err


def test_counterexample_consistency_error_is_numeric_error(capsys, monkeypatch):
    # with an infinite COMPAT_TOL both compatibility conditions of h_3 hold
    monkeypatch.setattr(jet_propagation, "COMPAT_TOL", math.inf)
    code, out, err = run_cli(capsys, "counterexample", "--n", "3")
    assert code == 4
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert "Traceback" not in err


# --- pde-check --------------------------------------------------------------------

def test_pde_check_zero_potential(capsys):
    rep = run_json(capsys, "pde-check", "--nt", "9", "--nx", "16", "--ny", "16",
                   "--delta", "1e-2")
    assert rep["command"] == "pde-check"
    assert rep["relative_spread"] == 0.0
    assert rep["epsilon_estimate"] is None
    assert rep["residual_norm"] < 1e-9 * (1 + 1e-2)
    assert rep["config"]["delta_schedule"] == [0.01]


def test_pde_check_saddle_with_artifacts(capsys, tmp_path):
    spec = write_spec(tmp_path, {"terms": [[0.02, 2, 0], [-0.02, 0, 2]]})
    csv = tmp_path / "phi.csv"
    prefix = str(tmp_path / "check")
    rep = run_json(capsys, "pde-check", "--spec", spec, "--nt", "17",
                   "--nx", "32", "--ny", "32", "--delta", "1e-1,1e-2",
                   "--dump-csv", str(csv), "--plot", prefix)
    assert rep["relative_spread"] < 0.1
    assert rep["epsilon_relative_error"] < 0.01
    assert csv.exists()
    lines = (tmp_path / "check.dat").read_text().splitlines()
    assert lines[0] == "# t a b sigma2"
    assert len(lines) == 1 + 17 - 2


def test_pde_check_solver_block_and_rerun_identical(capsys, tmp_path):
    spec = write_spec(tmp_path, {"terms": [[0.02, 2, 0], [-0.02, 0, 2]]})
    out_file = tmp_path / "report.json"
    argv = ["pde-check", "--spec", spec, "--nt", "9", "--nx", "16", "--ny", "16",
            "--delta", "1e-1,1e-2", "--output", str(out_file)]
    assert run_cli(capsys, *argv)[0] == 0
    first = out_file.read_text()
    assert run_cli(capsys, *argv)[0] == 0
    assert out_file.read_text() == first
    solver = json.loads(first)["solver"]
    assert set(solver) == {"newton_steps", "krylov_matvecs", "halvings", "min_metric",
                           "per_delta"}
    # the split by delta follows the schedule and sums to the totals
    assert [row["delta"] for row in solver["per_delta"]] == [0.1, 0.01]
    for key in ("newton_steps", "krylov_matvecs", "halvings"):
        assert sum(row[key] for row in solver["per_delta"]) == solver[key]
    assert all(row["newton_steps"] > 0 for row in solver["per_delta"])
    assert solver["newton_steps"] > 0 and solver["krylov_matvecs"] > solver["newton_steps"]
    assert solver["halvings"] == 0
    assert 0.0 < solver["min_metric"] < 1.0


def test_pde_check_reference_is_the_second_jet_epsilon(capsys, tmp_path):
    terms = [[0.1, 2, 0], [-0.1, 0, 2]]
    spec = write_spec(tmp_path, {"terms": terms})
    pot = counterexample.TorusPotential(tuple(map(tuple, terms)))
    a1, b1 = counterexample.jets_at_origin(pot, 2)[2].tolist()
    check = run_json(capsys, "pde-check", "--spec", spec, "--nt", "9", "--nx", "16", "--ny", "16",
                     "--delta", "1e-1,1e-2")
    path = run_json(capsys, "second-jet", "--a0", "0", "--b0", "0", "--a1", repr(a1),
                    "--b1", repr(b1))
    assert "nodes" not in check["config"]
    assert check["epsilon_reference"] == path["epsilon"]


def test_pde_check_bad_delta_schedule(capsys):
    code, _, err = run_cli(capsys, "pde-check", "--nt", "9", "--nx", "16",
                           "--ny", "16", "--delta", "1e-3,1e-2")
    assert code == 2
    assert "decreasing" in err


@pytest.mark.parametrize("delta", ["nan", "inf", "1e400"])
def test_pde_check_non_finite_delta_is_refused_up_front(capsys, monkeypatch, delta):
    def no_krylov(*args, **kwargs):
        raise AssertionError("the Newton loop ran on a non-finite delta")

    monkeypatch.setattr(pde_crosscheck, "lgmres", no_krylov)
    code, out, err = run_cli(capsys, "pde-check", "--nt", "9", "--nx", "16",
                             "--ny", "16", "--delta", delta)
    assert code == 2
    assert out == ""
    assert "delta schedule" in err


def test_pde_check_degenerate_amplitude(capsys, tmp_path):
    spec = write_spec(tmp_path, {"terms": [[10.0, 2, 0]]})
    code, _, err = run_cli(capsys, "pde-check", "--spec", spec, "--nt", "9",
                           "--nx", "16", "--ny", "16", "--delta", "1e-2")
    assert code == 4
    assert "degenerated" in err


def test_oversized_grid_is_rejected_before_allocation(capsys, monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"grid allocation reached numpy.{name}")

    monkeypatch.setattr(timegrid, "np", NoArrays())
    for argv in (["second-jet", *FAMILY], ["counterexample", "--n", "3"]):
        code, out, err = run_cli(capsys, *argv, "--nodes", "100000")
        assert code == 2, argv
        assert out == ""
        assert f"<= {timegrid.MAX_NODES}" in err


def test_oversized_order_is_rejected_before_allocation(capsys, tmp_path, monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"a jet table reached numpy.{name}")

    monkeypatch.setattr(counterexample, "np", NoArrays())
    monkeypatch.setattr(jet_propagation, "np", NoArrays())
    terms = write_spec(tmp_path, {"terms": [[0.1, 2, 0], [-0.1, 0, 2]]})
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps({"phi0": {"jets": {"2": [0, 0]}},
                                  "phi1": {"jets": {"2": [0.1, -0.1]}}}))
    for argv in (["propagate", "--spec", terms, "--max-order", "100000"],
                 ["propagate", "--spec", str(tables), "--max-order", "100000"],
                 ["counterexample", "--n", "100000"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert f"<= {jet_propagation.MAX_ORDER}" in err


def test_oversized_frame_is_rejected_before_allocation(capsys, tmp_path, monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"propagate reached numpy.{name}")

    monkeypatch.setattr(jet_propagation, "np", NoArrays())
    tables = write_spec(tmp_path, {"phi0": {"jets": {"2": [0, 0]}},
                                   "phi1": {"jets": {"2": [0.1, -0.1]}}})
    argv = ["propagate", "--spec", tables, "--max-order", "400", "--nodes", "2049"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"budget of {jet_propagation.MAX_FRAME_FLOATS}" in err
    # order 400 on 64 nodes and the bench's order 40 on 129 pass the budget and
    # go on to allocate
    for order, nodes in (("400", "64"), ("40", "129")):
        with pytest.raises(AssertionError, match="propagate reached numpy"):
            main(["propagate", "--spec", tables, "--max-order", order, "--nodes", nodes])


def test_oversized_pde_grid_is_rejected_before_allocation(capsys, monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"pde-check reached numpy.{name}")

    monkeypatch.setattr(pde_crosscheck, "np", NoArrays())
    for sizes in (["--nx", "100000", "--ny", "100000"], ["--nt", "100000"]):
        code, out, err = run_cli(capsys, "pde-check", *sizes)
        assert code == 2, sizes
        assert out == ""
        assert f"<= {pde_crosscheck.MAX_GRID_POINTS}" in err
    assert 33 * 48 * 48 <= pde_crosscheck.MAX_GRID_POINTS // 10


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cached_parser_behaves_as_a_fresh_one(capsys, monkeypatch):
    # the parser is built once per process; a valid call, a refused argument
    # and another subcommand give what a parser built for each call gives
    assert cli._build_parser() is cli._build_parser()
    calls = [
        ["second-jet", *FAMILY],
        ["propagate", "--spec", "unused.json", "--max-order", "x"],
        ["counterexample", "--n", "3"],
    ]

    def run_all():
        seen = []
        for argv in calls:
            try:
                seen.append(main(argv))
            except SystemExit as exc:
                seen.append(("exit", exc.code))
            seen.append(capsys.readouterr())
        return seen

    cached = run_all()
    assert cached[2] == ("exit", 2) and "invalid int value" in cached[3].err
    assert cached[0] == cached[4] == 0
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == cached


# --- the exit contract, fuzzed ----------------------------------------------------

# jets of every size: any float (nan, inf and subnormals included), size 1, and
# log-uniform magnitudes over the float range
NUMBERS = st.one_of(
    st.floats(),
    st.floats(-0.25, 1.0),
    st.builds(lambda sign, exp: sign * 10.0**exp,
              st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
)
EVEN = st.integers(0, 3).map(lambda k: 2 * k)
TERMS = st.lists(st.tuples(st.one_of(NUMBERS, st.floats(-0.1, 0.1)), EVEN, EVEN).map(list),
                 min_size=1, max_size=3)


@st.composite
def cli_calls(draw):
    """(argv, spec payload or None) of one call, drawn over a subcommand's numeric inputs."""
    command = draw(st.sampled_from(["second-jet", "propagate", "counterexample", "pde-check"]))
    # drawn for pde-check too, which takes no --nodes, so that every command draws alike
    nodes = f"--nodes={draw(st.integers(6, 33))}"
    if command == "second-jet":
        return [command, *(f"--{k}={draw(NUMBERS)!r}" for k in ("a0", "b0", "a1", "b1")),
                nodes], None
    if command == "counterexample":
        return [command, f"--n={draw(st.integers(1, 8))}", nodes], None
    if command == "pde-check":
        deltas = draw(st.lists(st.one_of(NUMBERS, st.floats(1e-3, 1.0)), min_size=1, max_size=2))
        delta = f"--delta={','.join(map(repr, deltas))}"
        return [command, "--nt=9", "--nx=16", "--ny=16", delta], {"terms": draw(TERMS)}
    jets = st.builds(lambda a, b: {"jets": {"2": [a, b]}}, NUMBERS, NUMBERS)
    sides = st.one_of(jets, TERMS.map(lambda terms: {"terms": terms}))
    spec = draw(st.one_of(sides, st.fixed_dictionaries({"phi0": sides, "phi1": sides})))
    order = draw(st.one_of(EVEN.map(lambda k: k + 4), st.integers(-1, 13)))
    return [command, f"--max-order={order}", nodes], spec


def run_contract(argv: list, spec, spec_path) -> int:
    """Exit code of one in-process call; fails on a traceback, a warning or a missed endpoint."""
    if spec is not None:
        spec_path.write_text(json.dumps(spec))
        argv = [*argv, f"--spec={spec_path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0 and argv[0] == "second-jet":
        rep = json.loads(out.getvalue())
        a0, b0, a1, b1 = (rep["config"][k] for k in ("a0", "b0", "a1", "b1"))
        scale = max(1 + 2 * a0 + 2 * b0, 1 + 2 * a1 + 2 * b1)
        ends = [rep["a"][0] - a0, rep["b"][0] - b0, rep["a"][-1] - a1, rep["b"][-1] - b1]
        assert max(map(abs, ends)) <= 1e-9 * scale, argv
    return code


@pytest.fixture(scope="module")
def fuzz_spec(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(cli_calls())
# draws that once leaked overflow warnings: a steep time-like 2-jet, and inputs near 9e307
@example((["second-jet", "--a0=-2.6e-45", "--b0=4.7e-80", "--a1=2.8e158", "--b1=1.4e165"], None))
@example((["propagate", "--max-order=4"], {"jets": {"2": [0.0, 8.98846567431158e307]}}))
@example((["pde-check", "--nt=9", "--nx=16", "--ny=16", "--delta=1.0"],
          {"terms": [[8.98846567431158e307, 0, 2]]}))
# a light-like rise to 6e305 whose D-matrix residual overflows: it once read 0.0, not nan;
# and jets of 1e16 whose 1 + 2a + 2b rounds to 0 at t = 0, though Z0 = 1 + 2 (a0 + b0) = 1
@example((["second-jet", "--a0=0.0", "--b0=0.0", "--a1=0.0", "--b1=6.1076776948888994e+305",
           "--nodes=22"], None))
@example((["second-jet", "--a0=-1e+16", "--b0=1e+16", "--a1=0.0", "--b1=1e+16", "--nodes=8"], None))
# terms that sum past the float range once leaked overflow warnings and exited 4
@example((["propagate", "--max-order=4"], OVERFLOWING_SUM))
@example((["pde-check", "--nt=9", "--nx=16", "--ny=16", "--delta=1.0"], OVERFLOWING_SUM))
def test_fuzzed_numeric_inputs_keep_the_exit_contract(fuzz_spec, call):
    run_contract(*call, fuzz_spec)
