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
MIXED = TorusPotential(terms=((0.02, 2, 0), (-0.02, 0, 2), (0.01, 2, 2), (0.005, 4, 0)))


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            solve_geodesic(ZERO, 9, 16, 16, [bad])


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


# --- the Newton step's operators against an independent oracle --------------------

def oracle_residual(phi, dt, hx, hy, delta):
    """R(phi) on the interior slices, written from the equation with np.roll."""
    phitt = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt**2
    phit = (phi[2:] - phi[:-2]) / (2.0 * dt)
    mid = phi[1:-1]
    lap = (np.roll(mid, 1, 1) - 2.0 * mid + np.roll(mid, -1, 1)) / hx**2 + (
        np.roll(mid, 1, 2) - 2.0 * mid + np.roll(mid, -1, 2)
    ) / hy**2
    gx = (np.roll(phit, -1, 1) - np.roll(phit, 1, 1)) / (2.0 * hx)
    gy = (np.roll(phit, -1, 2) - np.roll(phit, 1, 2)) / (2.0 * hy)
    return phitt * (1.0 + lap) - gx**2 - gy**2 - delta


def symmetrize(u):
    """The part of a full-grid field that is even in x and in y about index 0."""
    nx, ny = u.shape[-2:]
    u = 0.5 * (u + u[:, (-np.arange(nx)) % nx])
    return 0.5 * (u + u[:, :, (-np.arange(ny)) % ny])


def quarter(u):
    return u[:, : u.shape[1] // 2 + 1, : u.shape[2] // 2 + 1]


def capture_operators(monkeypatch, phi, dt, hx, hy, delta):
    seen = {}

    def capture(op, rhs, M=None, **kwargs):
        seen.update(op=op, M=M)
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(pde_crosscheck, "lgmres", capture)
    metric, _ = pde_crosscheck._metric(phi, hx, hy, delta)
    res, fields = pde_crosscheck._residual(phi, metric, dt, hx, hy, delta)
    pde_crosscheck._newton_step(fields, dt, hx, hy, res)
    return seen["op"], seen["M"]


@pytest.mark.parametrize("shape", [(9, 16, 16), (17, 16, 32), (11, 32, 16)])
def test_jacobian_matches_quadratic_oracle(monkeypatch, shape):
    # R is quadratic in phi, so (R(phi + v) - R(phi - v)) / 2 is J(phi) v exactly.
    # The solver only sees even fields, so phi and v are even and the operator
    # acts on their quarters, raveled.
    nt, nx, ny = shape
    dt, hx, hy, delta = 1.0 / (nt - 1), 2 * math.pi / nx, 2 * math.pi / ny, 1e-2
    rng = np.random.default_rng(nt * nx * ny)
    phi = symmetrize(1e-3 * rng.standard_normal(shape))
    op, M = capture_operators(monkeypatch, quarter(phi), dt, hx, hy, delta)
    assert op.dtype == np.float64 and M.dtype == np.float64
    mid = phi[1:-1]
    c = 1.0 + float(np.mean(
        (np.roll(mid, 1, 1) - 2.0 * mid + np.roll(mid, -1, 1)) / hx**2
        + (np.roll(mid, 1, 2) - 2.0 * mid + np.roll(mid, -1, 2)) / hy**2
    ))
    for _ in range(3):
        v = np.zeros(shape)
        v[1:-1] = symmetrize(1e-3 * rng.standard_normal((nt - 2, nx, ny)))
        vq = quarter(v[1:-1]).ravel()
        assert op.shape == (vq.size, vq.size)
        oracle = quarter(0.5 * (
            oracle_residual(phi + v, dt, hx, hy, delta)
            - oracle_residual(phi - v, dt, hx, hy, delta)
        )).ravel()
        got = op.matvec(vq)
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        # the preconditioner inverts the constant-coefficient Dirichlet c D_tt,
        # c the full-grid mean of 1 + Lap phi
        dtt = c * (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt**2
        back = M.matvec(quarter(dtt).ravel())
        assert np.max(np.abs(back - vq)) <= 1e-13 * np.max(np.abs(vq))


@pytest.mark.parametrize("shape", [(17, 16, 32), (11, 32, 16)])
def test_quarter_solve_satisfies_the_periodic_equation(shape):
    # the expanded quarter solution solves the full-grid periodic equation
    nt, nx, ny = shape
    sol = solve_geodesic(MIXED, nt, nx, ny, [1e-1, 1e-2])
    assert sol.phi.shape == shape
    residual = oracle_residual(sol.phi, sol.dt, sol.hx, sol.hy, 1e-2)
    assert np.max(np.abs(residual)) < pde_crosscheck.RESIDUAL_SCALE * (1 + 1e-2)
    xs = -math.pi + sol.hx * np.arange(nx)
    ys = -math.pi + sol.hy * np.arange(ny)
    top = MIXED.evaluate(xs[:, None], ys[None, :])
    assert np.max(np.abs(sol.phi[-1] - top)) < 1e-15
    assert np.all(sol.phi[0] == 0.0)


def test_solver_counters_match_the_krylov_calls(monkeypatch):
    # counted through the operators lgmres is handed: no dtype probe adds calls
    original = pde_crosscheck.lgmres
    calls = {"lgmres": 0, "matvec": 0}

    def counting(op, rhs, **kwargs):
        calls["lgmres"] += 1

        def matvec(x):
            calls["matvec"] += 1
            return op.matvec(x)

        counted = pde_crosscheck.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return original(counted, rhs, **kwargs)

    monkeypatch.setattr(pde_crosscheck, "lgmres", counting)
    sol = solve_geodesic(SADDLE, 17, 32, 32, [1e-1, 1e-2])
    assert sol.newton_steps == calls["lgmres"] > 0
    assert sol.krylov_matvecs == calls["matvec"] > 0
    assert sol.halvings == 0
    h = sol.hx
    lap = (
        np.roll(sol.phi, 1, 1) + np.roll(sol.phi, -1, 1)
        + np.roll(sol.phi, 1, 2) + np.roll(sol.phi, -1, 2) - 4.0 * sol.phi
    ) / h**2
    assert sol.min_metric == pytest.approx(float(np.min(1.0 + lap)), rel=1e-14)


def test_line_search_halvings_are_counted(monkeypatch):
    newton_step = pde_crosscheck._newton_step

    def overshoot(*args):
        step, count = newton_step(*args)
        return 8.0 * step, count

    monkeypatch.setattr(pde_crosscheck, "_newton_step", overshoot)
    sol = solve_geodesic(SADDLE, 9, 16, 16, [1e-2])
    assert sol.halvings >= sol.newton_steps > 0
    assert sol.residual_norm < 1e-9 * (1 + 1e-2)


def test_flat_rows_give_exactly_zero_jets():
    phi = np.full((9, 16, 16), 0.1) * np.linspace(0, 1, 9)[:, None, None]
    sol = GridSolution(nt=9, nx=16, ny=16, delta=1e-2, phi=phi, residual_norm=0.0)
    a, b = extract_second_jets(sol)
    assert not np.any(a) and not np.any(b)


def test_relative_spread_is_scale_aware():
    # sigma_2 ~ -c^2: a floor on sigma_2 that ignores its scale reports 0 at
    # c = 1e-7, and a solve that stops early on such small data reads 0.0424
    # there, where c = 1e-6 and 1e-3 read 0.0332
    spreads = []
    for c in (1e-7, 1e-6, 1e-3):
        pot = TorusPotential(terms=((c, 2, 0), (-c, 0, 2)))
        sol = solve_geodesic(pot, 17, 16, 16, [1e-1, 1e-2])
        spreads.append(crosscheck_report(sol, reference_for(sol)).relative_spread)
    assert 0.0 < spreads[0] < math.inf
    assert max(spreads) - min(spreads) <= 1e-3 * min(spreads)


def record_forcing(monkeypatch, rtol=None):
    """Record (|F|_inf, rtol) of every Newton step; rtol, if given, replaces the
    forcing term. Matvecs are counted by the solver itself."""
    newton_step, original = pde_crosscheck._newton_step, pde_crosscheck.lgmres
    steps = []

    def recording_step(fields, dt, hx, hy, res):
        steps.append([float(np.max(np.abs(res)))])
        return newton_step(fields, dt, hx, hy, res)

    def recording_lgmres(op, rhs, **kwargs):
        steps[-1].append(kwargs["rtol"])
        if rtol is not None:
            kwargs["rtol"] = rtol
        return original(op, rhs, **kwargs)

    monkeypatch.setattr(pde_crosscheck, "_newton_step", recording_step)
    monkeypatch.setattr(pde_crosscheck, "lgmres", recording_lgmres)
    return steps


@pytest.mark.parametrize("pot, shape", [(MIXED, (17, 16, 32)), (SADDLE, (17, 32, 32))])
def test_forcing_term_keeps_the_exact_newton_solution(monkeypatch, pot, shape):
    # each Krylov solve stops at max(min(ETA_MAX, |F|_inf), ETA_MIN): loose while
    # the Newton residual F is large, so it takes fewer matvecs than solving
    # every step to 1e-10, for the same steps and the same phi
    steps = record_forcing(monkeypatch)
    sol = solve_geodesic(pot, *shape, [1e-1, 1e-2])
    assert len(steps) == sol.newton_steps > 0
    for norm, rtol in steps:
        assert 1e-10 <= rtol <= min(1e-3, norm)
    assert steps[0][1] == 1e-3 and steps[-1][1] < 1e-3
    monkeypatch.undo()
    record_forcing(monkeypatch, rtol=1e-10)
    exact = solve_geodesic(pot, *shape, [1e-1, 1e-2])
    assert np.max(np.abs(sol.phi - exact.phi)) <= 1e-12 * np.max(np.abs(exact.phi))
    assert sol.newton_steps == exact.newton_steps
    assert sol.halvings == exact.halvings == 0
    assert sol.krylov_matvecs < exact.krylov_matvecs
