import math

import numpy as np
import pytest

from torusjets import pde_crosscheck
from torusjets.counterexample import TorusPotential
from torusjets.errors import NumericError
from torusjets.pde_crosscheck import (
    GridSolution,
    crosscheck_report,
    dump_phi_csv,
    extract_second_jets,
    solve_geodesic,
)
from torusjets.second_jet import SecondJetBoundary, solve_bvp
from torusjets.timegrid import make_grid

ZERO = TorusPotential(terms=())
SADDLE = TorusPotential(terms=((0.02, 2, 0), (-0.02, 0, 2)))


def test_solve_validation():
    with pytest.raises(ValueError, match="even"):
        solve_geodesic(ZERO, 9, 17, 16, [1e-2])
    with pytest.raises(ValueError, match="even"):
        solve_geodesic(ZERO, 9, 14, 16, [1e-2])
    with pytest.raises(ValueError, match="nt"):
        solve_geodesic(ZERO, 8, 16, 16, [1e-2])
    with pytest.raises(ValueError, match="schedule"):
        solve_geodesic(ZERO, 9, 16, 16, [])
    with pytest.raises(ValueError, match="schedule"):
        solve_geodesic(ZERO, 9, 16, 16, [1e-2, 1e-1])
    with pytest.raises(ValueError, match="schedule"):
        solve_geodesic(ZERO, 9, 16, 16, [1e-2, 0.0])


def test_krylov_type_error_is_not_retried(monkeypatch):
    # a TypeError raised inside the Krylov solve reaches the caller unchanged
    calls = []

    def failing_lgmres(*args, **kwargs):
        calls.append(kwargs)
        raise TypeError("inner")

    monkeypatch.setattr(pde_crosscheck, "lgmres", failing_lgmres)
    with pytest.raises(TypeError, match="inner"):
        solve_geodesic(SADDLE, 9, 16, 16, [1e-1])
    assert len(calls) == 1


def test_zero_boundary_solves_exactly():
    delta = 1e-2
    sol = solve_geodesic(ZERO, 9, 16, 16, [delta])
    t = np.linspace(0, 1, 9)
    exact = delta * (t * (t - 1.0) / 2.0)[:, None, None] * np.ones((1, 16, 16))
    assert np.max(np.abs(sol.phi - exact)) < 1e-12
    assert sol.residual_norm < 1e-9 * (1 + delta)
    assert sol.delta == delta


def test_small_amplitude_solution_properties():
    sol = solve_geodesic(SADDLE, 17, 32, 32, [1e-1, 1e-2])
    assert np.max(np.abs(sol.phi)) < 0.022
    assert sol.residual_norm < 1e-9 * (1 + 1e-2)
    # boundary slices carry the data
    assert np.all(sol.phi[0] == 0.0)
    xs = -math.pi + sol.hx * np.arange(32)
    top = SADDLE.evaluate(xs[:, None], xs[None, :])
    assert np.max(np.abs(sol.phi[-1] - top)) < 1e-15
    # even in x and in y about the origin row/column, exactly
    for axis in (1, 2):
        flipped = np.flip(sol.phi, axis=axis)
        flipped = np.roll(flipped, 1, axis=axis)
        assert np.array_equal(sol.phi, flipped)


def test_degenerate_amplitude_raises():
    big = TorusPotential(terms=((10.0, 2, 0),))
    with pytest.raises(NumericError, match="degenerated"):
        solve_geodesic(big, 9, 16, 16, [1e-2])


def test_extract_jets_from_synthetic_solution():
    nt, nx, ny = 9, 64, 64
    hx = 2 * math.pi / nx
    xs = -math.pi + hx * np.arange(nx)
    t = np.linspace(0, 1, nt)
    c = 0.3
    field = np.sin(xs[:, None]) ** 2 - np.sin(xs[None, :]) ** 2
    phi = c * t[:, None, None] * field[None, :, :]
    sol = GridSolution(nt=nt, nx=nx, ny=ny, delta=1e-3, phi=phi, residual_norm=0.0)
    a, b = extract_second_jets(sol)
    assert np.max(np.abs(a - c * t)) < 1e-5
    assert np.array_equal(b, -a)
    # swapping the grid axes swaps the jets
    swapped = GridSolution(
        nt=nt, nx=nx, ny=ny, delta=1e-3, phi=np.swapaxes(phi, 1, 2), residual_norm=0.0
    )
    a2, b2 = extract_second_jets(swapped)
    assert np.array_equal(a2, b) and np.array_equal(b2, a)


def test_crosscheck_zero_solution():
    sol = solve_geodesic(ZERO, 9, 16, 16, [1e-3])
    ref = solve_bvp(SecondJetBoundary(0, 0, 0, 0), make_grid(32))
    rep = crosscheck_report(sol, ref)
    assert np.max(np.abs(rep.sigma2)) < 1e-30
    assert rep.sigma2_spread < 1e-30
    assert rep.relative_spread == 0.0
    assert rep.epsilon_estimate is None
    assert rep.epsilon_relative_error is None


def reference_for(sol):
    a, b = extract_second_jets(sol)
    return solve_bvp(SecondJetBoundary(0.0, 0.0, a[-1], b[-1]), make_grid(64))


def test_crosscheck_against_closed_form():
    sol = solve_geodesic(SADDLE, 17, 32, 32, [1e-1, 1e-2])
    rep = crosscheck_report(sol, reference_for(sol))
    assert rep.sigma2_mean < 0
    assert rep.relative_spread < 0.1
    assert rep.epsilon_estimate is not None
    assert rep.epsilon_relative_error < 0.01
    assert len(rep.sigma2) == sol.nt - 2


def test_delta_refinement_tightens_sigma2():
    spreads = []
    for sched in ([1e-1], [1e-1, 1e-2], [1e-1, 1e-2, 1e-3]):
        sol = solve_geodesic(SADDLE, 17, 32, 32, sched)
        spreads.append(crosscheck_report(sol, reference_for(sol)).relative_spread)
    assert spreads[0] > 3 * spreads[1]
    assert spreads[1] > 3 * spreads[2]


def test_dump_phi_csv(tmp_path):
    sol = solve_geodesic(ZERO, 9, 16, 16, [1e-2])
    out = tmp_path / "phi.csv"
    dump_phi_csv(sol, out, t_indices=[0, 4])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# nt=9 nx=16 ny=16")
    assert lines[1].startswith("# columns:")
    assert len(lines) == 2 + 2 * 16 * 16
    it, jx, ky, val = lines[2 + 16 * 16].split(",")
    assert (it, jx, ky) == ("4", "0", "0")
    assert float(val) == sol.phi[4, 0, 0]
