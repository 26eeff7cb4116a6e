"""A fresh interpreter loads no scipy module for any subcommand, forms the
integration matrix J only for a call that integrates, forms the differentiation
matrix D for no subcommand, and builds no time grid for pde-check.

The pytest process has loaded scipy long before these tests run, so each check
runs in a new interpreter started with sys.executable and PYTHONPATH=src.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import json
import sys
from pathlib import Path

tmp = Path(sys.argv[1])


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import torusjets
import torusjets.cli
from torusjets import pde_crosscheck
from torusjets.timegrid import _make_grid, make_grid

state = {"import": scipy_modules()}
propagate_spec = tmp / "propagate.json"
propagate_spec.write_text(json.dumps({
    "phi0": {"terms": [[0.02, 2, 0], [0.03, 0, 2]]},
    "phi1": {"terms": [[0.05, 2, 0], [-0.01, 0, 2], [0.3, 4, 2]]},
}))
pde_spec = tmp / "pde.json"
pde_spec.write_text(json.dumps({"terms": [[0.1, 2, 0], [-0.1, 0, 2]]}))
runs = [
    ("second-jet", ["second-jet", "--a0", "0", "--b0", "0", "--a1", "0.25", "--b1", "-0.25",
                    "--nodes", "17"]),
    ("propagate", ["propagate", "--spec", str(propagate_spec), "--max-order", "8",
                   "--nodes", "17"]),
    ("counterexample", ["counterexample", "--n", "3"]),
    ("pde-check", ["pde-check", "--spec", str(pde_spec), "--nt", "9", "--nx", "16",
                   "--ny", "16", "--delta", "1e-1,1e-2"]),
]
# the grid size of the calls that need no J, checked before propagate integrates on 17 nodes
no_j_nodes = {"second-jet": 17}
codes = {}
j_formed = {}
grid_memo = {}
for name, argv in runs:
    before = list(_make_grid.cache_info())
    codes[name] = torusjets.cli.main(argv + ["--output", str(tmp / f"{name}.json")])
    grid_memo[name] = [before, list(_make_grid.cache_info())]
    state[name] = scipy_modules()
    if name in no_j_nodes:
        j_formed[name] = "integration_matrix" in vars(make_grid(no_j_nodes[name]))
# second-jet and propagate ran on 17 nodes, counterexample on the default 64
d_formed = {n: "diff_matrix" in vars(make_grid(n)) for n in (17, 64)}

try:
    pde_crosscheck.NoSuchName
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
operator = pde_crosscheck.LinearOperator((3, 3), matvec=lambda x: [2.0 * v for v in x], dtype=float)
print(json.dumps({
    "codes": codes,
    "scipy_after": state,
    "j_formed": j_formed,
    "d_formed": d_formed,
    "grid_memo": grid_memo,
    "operator_module": pde_crosscheck.LinearOperator.__module__,
    "operator": [list(operator.shape), str(operator.dtype), operator.matvec([1.0, 2.0])],
    "unknown": unknown,
}))
"""


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tmp = tmp_path_factory.mktemp("cold")
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_call_succeeds(cold):
    assert cold["codes"] == dict.fromkeys(
        ["second-jet", "propagate", "counterexample", "pde-check"], 0)


@pytest.mark.parametrize("step", ["import", "second-jet", "propagate", "counterexample"])
def test_no_scipy_before_the_pde_check(cold, step):
    assert cold["scipy_after"][step] == []


def test_calls_that_never_integrate_leave_j_unformed(cold):
    # the quadrature weights are J's last row, so reading them would form J
    assert cold["j_formed"] == {"second-jet": False}


def test_no_subcommand_forms_d(cold):
    # the 2-jet path's slopes and residual are closed forms, so no grid forms D
    assert cold["d_formed"] == {"17": False, "64": False}


def test_pde_check_builds_no_time_grid(cold):
    # the closed-form epsilon of the 2-jets is read off the jets, with no path on a grid
    before, after = cold["grid_memo"]["pde-check"]
    assert after == before
    assert cold["grid_memo"]["second-jet"][1] != cold["grid_memo"]["second-jet"][0]


def test_pde_check_loads_no_scipy(cold):
    # the Newton steps are solved by the package's own GMRES
    assert cold["scipy_after"]["pde-check"] == []


def test_linear_operator_resolves_and_other_names_do_not(cold):
    assert cold["operator_module"] == "torusjets.pde_crosscheck"
    assert cold["operator"] == [[3, 3], "float64", [2.0, 4.0]]
    assert "NoSuchName" in cold["unknown"]
