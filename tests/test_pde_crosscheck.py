import gc
import math
import tracemalloc

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

from _oracles import legendre_geodesic

ZERO = TorusPotential(terms=())
SADDLE = TorusPotential(terms=((0.02, 2, 0), (-0.02, 0, 2)))
MIXED = TorusPotential(terms=((0.02, 2, 0), (-0.02, 0, 2), (0.01, 2, 2), (0.005, 4, 0)))
BENCH_SADDLE = TorusPotential(terms=((0.1, 2, 0), (-0.1, 0, 2)))


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
    rep = crosscheck_report(sol, ref.epsilon)
    assert np.max(np.abs(rep.sigma2)) < 1e-30
    assert rep.sigma2_spread < 1e-30
    assert rep.relative_spread == 0.0
    assert rep.epsilon_estimate is None
    assert rep.epsilon_relative_error is None


def reference_for(sol):
    a, b = extract_second_jets(sol)
    return solve_bvp(SecondJetBoundary(0.0, 0.0, a[-1], b[-1]), make_grid(64)).epsilon


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


def reference_phi_csv(sol: GridSolution, path, t_indices=None) -> None:
    """The line-by-line CSV writer that dump_phi_csv replaced, kept as its reference."""
    if t_indices is None:
        t_indices = range(sol.nt)
    with open(path, "w") as fh:
        fh.write(f"# nt={sol.nt} nx={sol.nx} ny={sol.ny} delta={sol.delta!r}\n")
        fh.write("# columns: t_index,x_index,y_index,phi\n")
        for it in t_indices:
            slab = sol.phi[it]
            for jx in range(sol.nx):
                for ky in range(sol.ny):
                    fh.write(f"{it},{jx},{ky},{float(slab[jx, ky])!r}\n")


@pytest.mark.parametrize("t_indices", [None, [0, 4, 8], [3]])
def test_dump_phi_csv_matches_the_line_by_line_writer(tmp_path, t_indices):
    sol = solve_geodesic(SADDLE, 9, 16, 16, [1e-1, 1e-2])
    dump_phi_csv(sol, tmp_path / "phi.csv", t_indices=t_indices)
    reference_phi_csv(sol, tmp_path / "reference.csv", t_indices=t_indices)
    assert (tmp_path / "phi.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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


def grid_of(phi):
    """The _Quarter of the full grid whose even-even quarter is phi."""
    nt, qx, qy = phi.shape
    return pde_crosscheck._Quarter(nt, 2 * (qx - 1), 2 * (qy - 1))


def capture_operators(monkeypatch, phi, delta):
    seen = {}

    def capture(op, rhs, M=None, **kwargs):
        seen.update(op=op, M=M)
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(pde_crosscheck, "lgmres", capture)
    q = grid_of(phi)
    res, fields = q.residual(phi, delta)
    q.newton_step(fields, res, 0.0)
    return seen["op"], seen["M"]


@pytest.mark.parametrize("shape", [(9, 16, 16), (17, 16, 32), (11, 32, 16), (70, 16, 16)])
def test_jacobian_matches_quadratic_oracle(monkeypatch, shape):
    # R is quadratic in phi, so (R(phi + v) - R(phi - v)) / 2 is J(phi) v exactly.
    # The solver only sees even fields, so phi and v are even and the operator
    # acts on their quarters, raveled.
    nt, nx, ny = shape
    dt, hx, hy, delta = 1.0 / (nt - 1), 2 * math.pi / nx, 2 * math.pi / ny, 1e-2
    rng = np.random.default_rng(nt * nx * ny)
    phi = symmetrize(1e-3 * rng.standard_normal(shape))
    op, M = capture_operators(monkeypatch, quarter(phi), delta)
    assert op.dtype == np.float64 and M.dtype == np.float64
    mid = phi[1:-1]
    metric = 1.0 + (
        (np.roll(mid, 1, 1) - 2.0 * mid + np.roll(mid, -1, 1)) / hx**2
        + (np.roll(mid, 1, 2) - 2.0 * mid + np.roll(mid, -1, 2)) / hy**2
    )
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
        # the preconditioner inverts (1 + Lap phi) D_tt, D_tt the Dirichlet second
        # difference in t and 1 + Lap phi the pointwise metric of the interior slices
        dtt = metric * (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt**2
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
    assert sol.min_metric == pytest.approx(float(np.min(1.0 + lap[1:-1])), rel=1e-14)


def test_line_search_halvings_are_counted(monkeypatch):
    newton_step = pde_crosscheck._Quarter.newton_step

    def overshoot(*args):
        step, count = newton_step(*args)
        return 8.0 * step, count

    monkeypatch.setattr(pde_crosscheck._Quarter, "newton_step", overshoot)
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
    newton_step, original = pde_crosscheck._Quarter.newton_step, pde_crosscheck.lgmres
    steps = []

    def recording_step(q, fields, res, target):
        steps.append([float(np.max(np.abs(res)))])
        return newton_step(q, fields, res, target)

    def recording_lgmres(op, rhs, **kwargs):
        steps[-1].append(kwargs["rtol"])
        if rtol is not None:
            kwargs["rtol"] = rtol
        return original(op, rhs, **kwargs)

    monkeypatch.setattr(pde_crosscheck._Quarter, "newton_step", recording_step)
    monkeypatch.setattr(pde_crosscheck, "lgmres", recording_lgmres)
    return steps


@pytest.mark.parametrize("pot, shape", [(MIXED, (17, 16, 32)), (SADDLE, (17, 32, 32))])
def test_forcing_term_keeps_the_exact_newton_solution(monkeypatch, pot, shape):
    # each Krylov solve stops at min(ETA_MAX, max(eta0, TARGET_SHARE target / |F|_inf)),
    # eta0 = max(min(ETA_MAX, |F|_inf), ETA_MIN): loose while the Newton residual F is
    # large, and never tighter than the Newton target needs. It takes the Newton steps
    # of a solve with every step solved to 1e-10, for fewer matvecs
    eta_max, eta_min = pde_crosscheck.ETA_MAX, pde_crosscheck.ETA_MIN
    steps = record_forcing(monkeypatch)
    sol = solve_geodesic(pot, *shape, [1e-1, 1e-2])
    assert len(steps) == sol.newton_steps > 0
    for norm, rtol in steps:
        assert max(min(eta_max, norm), eta_min) <= rtol <= eta_max
    assert steps[0][1] == eta_max
    assert any(rtol > max(min(eta_max, norm), eta_min) for norm, rtol in steps)
    monkeypatch.undo()
    record_forcing(monkeypatch, rtol=1e-10)
    exact = solve_geodesic(pot, *shape, [1e-1, 1e-2])
    assert sol.newton_steps == exact.newton_steps
    assert sol.halvings == exact.halvings == 0
    assert sol.krylov_matvecs < exact.krylov_matvecs
    # both residuals lie below the target, so J (phi - exact) is at most twice it; the
    # time part (1 + Lap phi) D_tt of J, with |D_tt^-1|_inf = 1/8, turns that into the
    # bound below (the two solves differ by 0.014 and 0.046 of it)
    assert sol.newton_target == exact.newton_target
    bound = sol.newton_target / (4.0 * min(sol.min_metric, exact.min_metric))
    assert np.max(np.abs(sol.phi - exact.phi)) <= bound


def newton_target_of(pot, shape, delta, phi):
    """The target of a solve's last delta, from the data and the final phi alone:
    min(RESIDUAL_SCALE (1 + delta), max(RELATIVE_TARGET S, 8 eps max|phi| / dt^2)),
    S = max|grad phi_t|^2 of the linear start t phi1, whose phi_t is phi1."""
    nt, nx, ny = shape
    xs = -math.pi + 2 * math.pi / nx * np.arange(nx)
    ys = -math.pi + 2 * math.pi / ny * np.arange(ny)
    top = pot.evaluate(xs[:, None], ys[None, :])
    gx = (np.roll(top, -1, 0) - np.roll(top, 1, 0)) / (4 * math.pi / nx)
    gy = (np.roll(top, -1, 1) - np.roll(top, 1, 1)) / (4 * math.pi / ny)
    floor = 8.0 * np.finfo(float).eps * np.max(np.abs(phi)) * (nt - 1) ** 2
    relative = max(pde_crosscheck.RELATIVE_TARGET * np.max(gx**2 + gy**2), floor)
    return min(pde_crosscheck.RESIDUAL_SCALE * (1.0 + delta), relative)


@pytest.mark.parametrize("pot, shape, schedule", [
    (BENCH_SADDLE, (33, 32, 32), [1e-1, 1e-2, 1e-3]),  # the relative target
    (TorusPotential(terms=((0.15, 2, 0), (-0.15, 0, 2))), (17, 16, 16), [1e-1, 1e-2]),  # absolute
    (TorusPotential(terms=((1e-7, 2, 0), (-1e-7, 0, 2))), (65, 16, 16), [1e-1, 1e-2]),  # floor
    (ZERO, (9, 16, 16), [1e-2]),  # no data: the rounding floor alone
])
def test_the_solution_reports_its_newton_target(pot, shape, schedule):
    sol = solve_geodesic(pot, *shape, schedule)
    expected = newton_target_of(pot, shape, schedule[-1], sol.phi)
    assert sol.newton_target == pytest.approx(expected, rel=1e-12)
    assert sol.residual_norm < sol.newton_target


def test_scale_aware_target_holds_with_every_step_solved_exactly(monkeypatch):
    # the Newton target scales with the data, so c = 1e-7 reads the spread of c = 1e-3
    # without the slack of a loosely solved first step
    record_forcing(monkeypatch, rtol=1e-10)
    spreads = []
    for c in (1e-7, 1e-3):
        pot = TorusPotential(terms=((c, 2, 0), (-c, 0, 2)))
        sol = solve_geodesic(pot, 17, 16, 16, [1e-1, 1e-2])
        spreads.append(crosscheck_report(sol, reference_for(sol)).relative_spread)
    assert abs(spreads[0] - spreads[1]) <= 1e-3 * min(spreads)


@pytest.mark.parametrize("pot, shape, schedule", [
    (MIXED, (17, 32, 32), [1e-1, 1e-2]),
    (BENCH_SADDLE, (33, 32, 32), [1e-1, 1e-2, 1e-3]),
])
def test_a_mirrored_potential_solves_to_the_mirrored_grid(pot, shape, schedule):
    # x <-> y on a square grid: the x and y stencil terms run on spans at offsets +-Q
    # and +-1, so a span that reads the wrong neighbour breaks the mirror. Held within
    # the Newton target as in the forcing-term test; measured 3.5e-18 and 3.9e-18,
    # about 1e-7 of the bound
    mirror = TorusPotential(terms=tuple((c, q, p) for c, p, q in pot.terms))
    sol, flipped = (solve_geodesic(data, *shape, schedule) for data in (pot, mirror))
    bound = max(sol.newton_target, flipped.newton_target) / (
        4.0 * min(sol.min_metric, flipped.min_metric))
    assert np.max(np.abs(flipped.phi - np.swapaxes(sol.phi, 1, 2))) <= bound


@pytest.mark.parametrize("c", [0.0, 1e-7])
def test_small_data_stops_at_the_rounding_floor(c):
    # the relative target of c = 1e-7 lies far below the rounding of F on 65 slices;
    # the floor eps max|phi| / dt^2 keeps it reachable
    pot = TorusPotential(terms=((c, 2, 0), (-c, 0, 2)) if c else ())
    sol = solve_geodesic(pot, 65, 16, 16, [1e-1, 1e-2])
    assert sol.residual_norm < pde_crosscheck.RESIDUAL_SCALE * (1 + 1e-2)
    assert all(steps <= 3 for _, steps, _, _ in sol.per_delta)


# --- a potential in one variable against its exact Legendre geodesic --------------

@pytest.mark.parametrize("terms, coarse_tol, fine_tol", [
    (((0.05, 2),), 3.6e-4, 6.9e-5),  # measured 2.9e-4 and 5.5e-5: 5.3x a doubling
    (((0.1, 2),), 7.8e-4, 1.9e-4),  # measured 6.2e-4 and 1.5e-4: 4.2x
    (((0.1, 2), (-0.03, 4)), 8.8e-4, 2.1e-4),  # measured 7.0e-4 and 1.7e-4: 4.2x
])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_potential_in_one_variable_solves_to_its_legendre_geodesic(
        terms, coarse_tol, fine_tol, axis):
    # sum c sin^p x solves phi_tt (1 + phi_xx) - phi_tx^2 = 0, whose exact solution is
    # the Legendre transform of a straight line (_oracles.legendre_geodesic). Relative to
    # max|phi|, the error falls at the FD scheme's second order; the tolerances are about
    # 1.25x the measured errors. At delta = 1e-5 the grid error dominates, except for
    # c = 0.05 on the finer grid, where delta's share has the other sign (7.8e-5 at
    # delta = 1e-6). The y-only potential runs through the x <-> y mirror, so the y
    # weights of the stencil are held too. A 1% error in the weight of d_x phi_t fails
    # every x case
    errors = []
    for nt, n in ((33, 32), (65, 64)):
        if axis == "x":
            pot, shape = TorusPotential(tuple((c, p, 0) for c, p in terms)), (nt, n, 16)
        else:
            pot, shape = TorusPotential(tuple((c, 0, p) for c, p in terms)), (nt, 16, n)
        sol = solve_geodesic(pot, *shape, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        phi = sol.phi if axis == "x" else np.swapaxes(sol.phi, 1, 2)
        xs = -math.pi + 2 * math.pi / n * np.arange(n)
        exact = legendre_geodesic(terms, np.linspace(0.0, 1.0, nt)[:, None], xs)
        # the ends hold the data to the rounding of x^2 / 2, which the formula cancels
        top = sum(c * np.sin(xs) ** p for c, p in terms)
        ulps = 8 * np.finfo(float).eps
        assert np.max(np.abs(exact[0])) <= ulps and np.max(np.abs(exact[-1] - top)) <= ulps
        errors.append(np.max(np.abs(phi - exact[:, :, None])) / np.max(np.abs(exact)))
    coarse, fine = errors
    assert coarse <= coarse_tol and fine <= fine_tol
    assert coarse >= 3.0 * fine


# --- the flat-span stencil against the strided one it replaced --------------------

def reference_reflect(pad):
    pad[..., [0, -1], 1:-1] = pad[..., [2, -3], 1:-1]
    pad[..., 1:-1, [0, -1]] = pad[..., 1:-1, [2, -3]]


def reference_residual(phi, dt, hx, hy, delta):
    """The residual that padded phi with np.pad, kept as the reference."""
    pad = np.pad(phi, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    with np.errstate(over="ignore", invalid="ignore"):
        lap = (pad[:, 2:, 1:-1] - 2.0 * phi + pad[:, :-2, 1:-1]) / hx**2
        metric = 1.0 + (lap + (pad[:, 1:-1, 2:] - 2.0 * phi + pad[:, 1:-1, :-2]) / hy**2)
    zmin = float(np.min(metric))
    if not zmin > 0.0:
        raise NumericError(f"metric degenerated: min(1 + Lap phi) = {zmin:.6e}")
    phitt = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt**2
    pt = (pad[2:] - pad[:-2]) / (2.0 * dt)
    gx = (pt[:, 2:, 1:-1] - pt[:, :-2, 1:-1]) / (2.0 * hx)
    gy = (pt[:, 1:-1, 2:] - pt[:, 1:-1, :-2]) / (2.0 * hy)
    inner = metric[1:-1]
    return phitt * inner - gx**2 - gy**2 - delta, (inner, phitt, gx, gy)


def reference_newton_step(fields, dt, hx, hy, res, target):
    """The Newton step that summed the stencil from strided 3-D slices of the halo
    buffer and always applied the Green blocks' rank-one coupling, kept as the reference.
    It hands lgmres the forcing term of the quarter's step, for the same Newton target."""
    metric, phitt, gx, gy = fields
    m, qx, qy = phitt.shape
    size = m * qx * qy
    wt = metric / dt**2
    wx = phitt / hx**2
    wy = phitt / hy**2
    centre = -2.0 * (wt + wx + wy)
    cx = gx / (-2.0 * dt * hx)
    cy = gy / (-2.0 * dt * hy)
    halo = np.zeros((m + 2, qx + 2, qy + 2))
    inner = halo[1:-1]
    core = inner[:, 1:-1, 1:-1]
    vt = np.empty((m, qx + 2, qy + 2))
    term = np.empty((m, qx, qy))
    matvecs = 0

    def accumulate(out, coeff, combine, first, second):
        combine(first, second, out=term)
        np.multiply(term, coeff, out=term)
        out += term

    def matvec(flat):
        nonlocal matvecs
        matvecs += 1
        core[...] = flat.reshape(m, qx, qy)
        reference_reflect(inner)
        np.subtract(halo[2:], halo[:-2], out=vt)
        out = centre * core
        accumulate(out, wt, np.add, halo[2:, 1:-1, 1:-1], halo[:-2, 1:-1, 1:-1])
        accumulate(out, wx, np.add, inner[:, 2:, 1:-1], inner[:, :-2, 1:-1])
        accumulate(out, wy, np.add, inner[:, 1:-1, 2:], inner[:, 1:-1, :-2])
        accumulate(out, cx, np.subtract, vt[:, 2:, 1:-1], vt[:, :-2, 1:-1])
        accumulate(out, cy, np.subtract, vt[:, 1:-1, 2:], vt[:, 1:-1, :-2])
        return out.ravel()

    block = min(m, pde_crosscheck.GREEN_BLOCK)
    nb = -(-m // block)
    col = np.arange(1.0, nb * block + 1.0).reshape(nb, 1, block)
    row = col.swapaxes(1, 2)
    c = dt**2 / (m + 1.0)
    diag = -c * np.minimum(row, col) * (m + 1.0 - np.maximum(row, col))
    flat_metric = metric.reshape(m, -1)
    padded = np.zeros((nb * block, qx * qy))

    def precond(flat):
        np.divide(flat.reshape(m, -1), flat_metric, out=padded[:m])
        r = padded.reshape(nb, block, -1)
        u = diag @ r
        below = np.cumsum((col @ r)[:-1], axis=0)
        above = np.cumsum(((m + 1.0 - col) @ r)[:0:-1], axis=0)[::-1]
        u[1:] -= c * (m + 1.0 - row[1:]) * below
        u[:-1] -= c * row[:-1] * above
        return u.reshape(nb * block, -1)[:m].ravel()

    op = pde_crosscheck.LinearOperator((size, size), matvec=matvec)
    pc = pde_crosscheck.LinearOperator((size, size), matvec=precond)
    norm = float(np.max(np.abs(res)))
    eta = max(min(pde_crosscheck.ETA_MAX, norm), pde_crosscheck.ETA_MIN)
    eta = min(pde_crosscheck.ETA_MAX, max(eta, pde_crosscheck.TARGET_SHARE * target / norm))
    step, info = pde_crosscheck.lgmres(op, -res.ravel(), M=pc, rtol=eta)
    if info != 0:
        raise NumericError(f"linear solver stalled in the Newton step (info={info})")
    return step.reshape(m, qx, qy), matvecs


FLAT_CASES = [
    (BENCH_SADDLE, (33, 32, 32), [1e-1, 1e-2, 1e-3]),
    (BENCH_SADDLE, (33, 48, 48), [1e-1, 1e-2, 1e-3]),
    (MIXED, (17, 16, 32), [1e-1, 1e-2]),
    (MIXED, (11, 32, 16), [1e-1, 1e-2]),
    (MIXED, (70, 16, 16), [1e-1, 1e-2]),  # 68 interior slices: three Green blocks
]


@pytest.mark.parametrize("pot, shape, schedule", FLAT_CASES)
def test_flat_stencil_solve_matches_the_strided_reference(monkeypatch, pot, shape, schedule):
    sol = solve_geodesic(pot, *shape, schedule)
    monkeypatch.setattr(pde_crosscheck._Quarter, "residual", lambda q, phi, delta:
                        reference_residual(phi, q.dt, q.hx, q.hy, delta))
    monkeypatch.setattr(pde_crosscheck._Quarter, "newton_step", lambda q, fields, res, target:
                        reference_newton_step(fields, q.dt, q.hx, q.hy, res, target))
    ref = solve_geodesic(pot, *shape, schedule)
    assert np.array_equal(sol.phi, ref.phi)
    assert sol.per_delta == ref.per_delta
    assert sol.min_metric == ref.min_metric
    assert sol.residual_norm == ref.residual_norm
    assert sol.newton_target == ref.newton_target


def linear_start(pot, shape):
    """The quarter of the solve's first iterate, t phi1, on the (nt, nx, ny) grid."""
    nt, nx, ny = shape
    xs = -math.pi + 2 * math.pi / nx * np.arange(nx // 2 + 1)
    ys = -math.pi + 2 * math.pi / ny * np.arange(ny // 2 + 1)
    return np.linspace(0.0, 1.0, nt)[:, None, None] * pot.evaluate(xs[:, None], ys[None, :])


@pytest.mark.parametrize("pot, shape, schedule", FLAT_CASES)
def test_flat_residual_matches_the_strided_reference(pot, shape, schedule):
    # bit for bit, at the linear start and at an iterate moved off it by even noise
    start = linear_start(pot, shape)
    noise = quarter(symmetrize(1e-4 * np.random.default_rng(len(start)).standard_normal(shape)))
    noise[[0, -1]] = 0.0
    q = grid_of(start)
    for phi in (start, start + noise):
        for delta in schedule:
            res, fields = q.residual(phi, delta)
            ref_res, ref_fields = reference_residual(phi, q.dt, q.hx, q.hy, delta)
            for got, want in zip((res, *fields), (ref_res, *ref_fields)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_degenerate_metric_keeps_its_message():
    phi = 30.0 * linear_start(BENCH_SADDLE, (33, 32, 32))
    q = grid_of(phi)
    with pytest.raises(NumericError) as refused:
        reference_residual(phi, q.dt, q.hx, q.hy, 1e-2)
    zmin = float(str(refused.value).split(" = ")[1])
    message = (f"metric degenerated: min(1 + Lap phi) = {zmin:.6e} at delta = 1.000e-02; "
               "reduce the boundary amplitude or enlarge delta")
    with pytest.raises(NumericError) as flat:
        q.residual(phi, 1e-2)
    assert str(flat.value) == message
    # the refused call leaves the matvec's halo as the matvec needs it: the Jacobian at
    # a good iterate is the one a fresh quarter builds
    good = linear_start(BENCH_SADDLE, (33, 32, 32))
    v = np.random.default_rng(3).standard_normal(q.op.shape[0])
    fresh = grid_of(good)
    assert np.array_equal(jacobian_at(q, good).matvec(v), jacobian_at(fresh, good).matvec(v))


def jacobian_at(q, phi):
    """The operator q's Newton step hands lgmres at phi."""
    res, fields = q.residual(phi, 1e-2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pde_crosscheck, "lgmres", lambda op, rhs, **kwargs: (np.zeros_like(rhs), 0))
        q.newton_step(fields, res, 0.0)
    return q.op


@pytest.mark.parametrize("scale", [8.0, 64.0, 300.0])
def test_one_field_set_solves_as_the_allocating_residual(monkeypatch, scale):
    # an overshooting step makes the line search halve, and the metric check refuse
    # candidates, while every candidate overwrites the quarter's one field set; the solve
    # is still the one whose residual allocates fresh arrays at each call. Measured: 18,
    # 36 and 176 halvings, with 0, 1 and 6 refused candidates
    newton_step, residual = pde_crosscheck._Quarter.newton_step, pde_crosscheck._Quarter.residual
    refused = []

    def overshoot(q, fields, res, target):
        step, count = newton_step(q, fields, res, target)
        return scale * step, count

    def counted(q, phi, delta):
        try:
            return residual(q, phi, delta)
        except NumericError:
            refused.append(delta)
            raise

    monkeypatch.setattr(pde_crosscheck._Quarter, "newton_step", overshoot)
    monkeypatch.setattr(pde_crosscheck._Quarter, "residual", counted)
    sol = solve_geodesic(BENCH_SADDLE, 9, 16, 16, [1e-1, 1e-2])
    monkeypatch.setattr(pde_crosscheck._Quarter, "residual", lambda q, phi, delta:
                        reference_residual(phi, q.dt, q.hx, q.hy, delta))
    ref = solve_geodesic(BENCH_SADDLE, 9, 16, 16, [1e-1, 1e-2])
    assert np.array_equal(sol.phi, ref.phi)
    assert sol.per_delta == ref.per_delta
    assert sol.residual_norm == ref.residual_norm
    assert sol.min_metric == ref.min_metric
    assert sol.newton_target == ref.newton_target
    assert sol.halvings >= sol.newton_steps > 0
    if scale == 300.0:
        assert refused


def test_matvec_reuses_its_workspace(monkeypatch):
    # the stencil runs in buffers that the Newton step allocates once, so each matvec
    # allocates one quarter-sized array: the new one it returns
    rng = np.random.default_rng(11)
    phi = quarter(symmetrize(1e-3 * rng.standard_normal((33, 48, 48))))
    op, _ = capture_operators(monkeypatch, phi, 1e-2)
    vectors = rng.standard_normal((10, op.shape[0]))
    expected = [op.matvec(v).copy() for v in vectors]
    kept = []
    tracemalloc.start()
    try:
        for v in vectors:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            kept.append(op.matvec(v))
            _, peak = tracemalloc.get_traced_memory()
            assert peak - before <= v.nbytes + 4096
    finally:
        tracemalloc.stop()
    # later matvecs leave every earlier result as it was
    for out, exp in zip(kept, expected):
        assert np.array_equal(out, exp)


def test_a_newton_step_after_the_first_allocates_only_its_right_hand_side(monkeypatch):
    # the quarter sets up its stencil buffers, Green blocks and operators once; a later
    # step refills the coefficients in place and allocates -res for lgmres, which here
    # returns one more field of that size
    handed = []

    def stub(op, rhs, M=None, **kwargs):
        handed.append((op, M))
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(pde_crosscheck, "lgmres", stub)
    rng = np.random.default_rng(13)
    first, second = (quarter(symmetrize(1e-5 * rng.standard_normal((65, 64, 64))))
                     for _ in range(2))
    q = grid_of(first)
    res, fields = q.residual(first, 1e-2)
    q.newton_step(fields, res, 0.0)
    res, fields = q.residual(second, 1e-2)
    tracemalloc.start()
    try:
        q.newton_step(fields, res, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert handed[0][0] is handed[1][0] and handed[0][1] is handed[1][1]
    assert peak <= 2 * res.nbytes + 8 * np.getbufsize() + 4096


def test_a_solve_peaks_below_two_field_sets():
    # the residual's one field set takes about 10 bytes a grid point and its own halo 2.5; a
    # solve of the bench saddle at (33, 48, 48) peaks at 112.8 traced bytes a point with one
    # set, and peaked at 120.6 with two sets sharing the matvec's halo
    shape = (33, 48, 48)
    tracemalloc.start()
    try:
        solve_geodesic(BENCH_SADDLE, *shape, [1e-1, 1e-2, 1e-3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 115 * math.prod(shape)


def test_a_solve_leaves_nothing_for_the_cyclic_collector():
    # operators whose closures held the quarter that holds them would keep every
    # buffer of the solve alive until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        solve_geodesic(SADDLE, 17, 16, 16, [1e-1, 1e-2])
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the Krylov solver ---------------------------------------------------------------

def counted_operator(matrix):
    calls = []

    def matvec(x):
        calls.append(1)
        return matrix @ x

    return pde_crosscheck.LinearOperator(matrix.shape, matvec=matvec, dtype=float), calls


def test_gmres_restarts_to_the_solution_of_a_nonsymmetric_system(monkeypatch):
    monkeypatch.setattr(pde_crosscheck, "RESTART", 5)
    n, rtol = 80, 1e-10
    rng = np.random.default_rng(7)
    skew = rng.standard_normal((n, n))
    matrix = np.diag(np.linspace(1.0, 4.0, n)) + (skew - skew.T) / math.sqrt(n)
    matrix += 0.1 * rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal(n)
    exact = np.linalg.solve(matrix, b)
    jacobi = pde_crosscheck.LinearOperator((n, n), matvec=lambda x: x / np.diag(matrix))
    for M in (None, jacobi):
        op, calls = counted_operator(matrix)
        x, info = pde_crosscheck.lgmres(op, b, M=M, rtol=rtol)
        assert info == 0
        assert len(calls) > 2 * 5  # more than one restart cycle
        assert np.linalg.norm(b - matrix @ x) <= rtol * np.linalg.norm(b)
        error = np.linalg.norm(x - exact) / np.linalg.norm(exact)
        assert error <= np.linalg.cond(matrix) * rtol
    # an exhausted matvec cap is a failure, not a result
    monkeypatch.setattr(pde_crosscheck, "MAX_MATVECS", 7)
    op, calls = counted_operator(matrix)
    x, info = pde_crosscheck.lgmres(op, b, rtol=rtol)
    assert info > 0 and np.isfinite(x).all()


def test_gmres_on_the_identity_breaks_down_after_one_step():
    b = np.random.default_rng(3).standard_normal(50)
    op, calls = counted_operator(np.eye(50))
    x, info = pde_crosscheck.lgmres(op, b, rtol=1e-12)
    assert info == 0 and len(calls) == 1
    assert np.max(np.abs(x - b)) <= 1e-15 * np.max(np.abs(b))


@pytest.mark.parametrize("shape", [(33, 32, 32), (33, 48, 48)])
def test_every_newton_step_meets_its_tolerance_in_the_true_residual(monkeypatch, shape):
    # one Gram-Schmidt pass leaves the bench saddle's Krylov basis off orthogonal by up
    # to 4e-7, but the Arnoldi relation holds to rounding whatever the orthogonality, so
    # the true |b - A M y| of each accepted step stays within 1% of the bound lgmres met
    original = pde_crosscheck.lgmres
    ratios = []

    def checked(op, rhs, M=None, rtol=1e-5):
        x, info = original(op, rhs, M=M, rtol=rtol)
        if info == 0:
            ratios.append(np.linalg.norm(rhs - op.matvec(x)) / (rtol * np.linalg.norm(rhs)))
        return x, info

    monkeypatch.setattr(pde_crosscheck, "lgmres", checked)
    sol = solve_geodesic(BENCH_SADDLE, *shape, [1e-1, 1e-2, 1e-3])
    assert len(ratios) == sol.newton_steps > 0
    assert max(ratios) <= 1.01


def test_gmres_projects_twice_where_one_pass_cancels():
    # A = I + 1e-4 R keeps about 1e-4 of each new Krylov vector's norm after the first
    # projection, below REORTH; one pass alone lets max|V^T V - I| grow about 1e4-fold
    # a step, to about 1e-4 by the fourth vector
    n = 120
    rng = np.random.default_rng(17)
    matrix = np.eye(n) + 1e-4 * rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal(n)
    basis = []

    def matvec(v):
        basis.append(v.copy())  # M is None, so lgmres hands A its basis vectors
        return matrix @ v

    op = pde_crosscheck.LinearOperator((n, n), matvec=matvec)
    x, info = pde_crosscheck.lgmres(op, b, rtol=1e-14)
    assert info == 0 and len(basis) >= 3
    v = np.array(basis)
    assert np.max(np.abs(v @ v.T - np.eye(len(basis)))) <= 1e-12
    exact = np.linalg.solve(matrix, b)
    assert np.linalg.norm(x - exact) <= 1e-13 * np.linalg.norm(exact)


def test_non_finite_operator_is_a_numeric_error():
    phi = quarter(symmetrize(1e-3 * np.random.default_rng(5).standard_normal((9, 16, 16))))
    q = grid_of(phi)
    res, (metric, phitt, gx, gy) = q.residual(phi, 1e-2)
    phitt[2, 3, 4] = np.nan
    with pytest.raises(NumericError, match="linear solver"):
        q.newton_step((metric, phitt, gx, gy), res, 0.0)


def test_newton_step_on_the_largest_grid_holds_no_time_by_time_matrix(monkeypatch):
    # 4096 x 16 x 16 is MAX_GRID_POINTS; a Green matrix over its 4094 interior slices
    # would be 128 MiB on its own. The quarter's set-up builds the Green blocks, so it
    # runs inside the measurement with a residual and one step.
    nt, nx, ny = 4096, 16, 16
    assert nt * nx * ny == pde_crosscheck.MAX_GRID_POINTS
    phi = np.zeros((nt, nx // 2 + 1, ny // 2 + 1))

    def apply_once(op, rhs, M=None, **kwargs):
        return M.matvec(op.matvec(rhs)), 0

    monkeypatch.setattr(pde_crosscheck, "lgmres", apply_once)
    tracemalloc.start()
    try:
        q = pde_crosscheck._Quarter(nt, nx, ny)
        res, fields = q.residual(phi, 1e-2)
        q.newton_step(fields, res, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
