"""Grid-based cross-validation of the closed-form second-jet path.

The degenerate geodesic equation Phi_tt (1 + Lap Phi) = |grad Phi_t|^2 is
regularized to Phi_tt (1 + Lap Phi) - |grad Phi_t|^2 = delta and solved with
damped Newton continuation over a decreasing delta schedule, second-order
central differences in time and periodic central stencils on the torus.
Second jets extracted at the central fiber then feed the same sigma_2 and
eps diagnostics that the closed-form path produces, which closes the loop
between the ODE reduction and the PDE it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse.linalg import LinearOperator, lgmres

from .counterexample import TorusPotential
from .errors import NumericError
from .second_jet import SecondJetPath

MAX_NEWTON_ITERS = 40
MAX_HALVINGS = 12
RESIDUAL_SCALE = 1e-9
ZERO_SPREAD_FLOOR = 1e-13
# The solve holds about 27 arrays of nt*nx*ny floats (phi, the residual and
# the Krylov vectors; 214 bytes a point measured at 33 x 64 x 64): 214 MiB here.
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class GridSolution:
    """Converged regularized solution on a (t, x, y) grid.

    phi has shape (nt, nx, ny); slices 0 and nt-1 hold the boundary data,
    x and y are periodic on [-pi, pi) with the origin at (nx//2, ny//2).
    """

    nt: int
    nx: int
    ny: int
    delta: float
    phi: np.ndarray
    residual_norm: float

    @property
    def dt(self) -> float:
        return 1.0 / (self.nt - 1)

    @property
    def hx(self) -> float:
        return 2.0 * math.pi / self.nx

    @property
    def hy(self) -> float:
        return 2.0 * math.pi / self.ny


def _lap(u: np.ndarray, hx: float, hy: float) -> np.ndarray:
    return (
        (np.roll(u, -1, -2) - 2.0 * u + np.roll(u, 1, -2)) / hx**2
        + (np.roll(u, -1, -1) - 2.0 * u + np.roll(u, 1, -1)) / hy**2
    )


def _dx(u: np.ndarray, hx: float) -> np.ndarray:
    return (np.roll(u, -1, -2) - np.roll(u, 1, -2)) / (2.0 * hx)


def _dy(u: np.ndarray, hy: float) -> np.ndarray:
    return (np.roll(u, -1, -1) - np.roll(u, 1, -1)) / (2.0 * hy)


def _symmetrize(u: np.ndarray) -> np.ndarray:
    nx, ny = u.shape[-2], u.shape[-1]
    u = 0.5 * (u + u[..., (-np.arange(nx)) % nx, :])
    return 0.5 * (u + u[..., :, (-np.arange(ny)) % ny])


def _time_derivs(phi: np.ndarray, dt: float):
    phitt = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt**2
    phit = (phi[2:] - phi[:-2]) / (2.0 * dt)
    return phitt, phit


def _residual(phi: np.ndarray, dt, hx, hy, delta) -> np.ndarray:
    lap = _lap(phi, hx, hy)
    phitt, phit = _time_derivs(phi, dt)
    return phitt * (1.0 + lap[1:-1]) - _dx(phit, hx) ** 2 - _dy(phit, hy) ** 2 - delta


def _check_positive(phi: np.ndarray, hx, hy, delta) -> float:
    zmin = float(np.min(1.0 + _lap(phi, hx, hy)))
    if zmin <= 0.0:
        raise NumericError(
            f"metric degenerated: min(1 + Lap phi) = {zmin:.6e} at delta = {delta:.3e}; "
            "reduce the boundary amplitude or enlarge delta"
        )
    return zmin


def _newton_step(phi, dt, hx, hy, res):
    """One inexact Newton direction for the interior slices."""
    nt, nx, ny = phi.shape
    inner = nt - 2
    lap_i = _lap(phi[1:-1], hx, hy)
    phitt, phit = _time_derivs(phi, dt)
    gx = _dx(phit, hx)
    gy = _dy(phit, hy)

    def matvec(flat):
        v = np.zeros_like(phi)
        v[1:-1] = flat.reshape(inner, nx, ny)
        vtt, vt = _time_derivs(v, dt)
        out = vtt * (1.0 + lap_i) + phitt * _lap(v[1:-1], hx, hy)
        out -= 2.0 * (gx * _dx(vt, hx) + gy * _dy(vt, hy))
        return out.ravel()

    # preconditioner: constant-coefficient d_tt with Dirichlet ends
    c = float(np.mean(1.0 + lap_i))
    band = np.zeros((3, inner))
    band[0, 1:] = c / dt**2
    band[1, :] = -2.0 * c / dt**2
    band[2, :-1] = c / dt**2

    def precond(flat):
        r = flat.reshape(inner, nx * ny)
        return solve_banded((1, 1), band, r).ravel()

    size = inner * nx * ny
    op = LinearOperator((size, size), matvec=matvec)
    pc = LinearOperator((size, size), matvec=precond)
    step, info = lgmres(op, -res.ravel(), M=pc, rtol=1e-10, atol=0.0, maxiter=400)
    if info != 0:
        raise NumericError(f"linear solver stalled in the Newton step (info={info})")
    return step.reshape(inner, nx, ny)


def solve_geodesic(
    phi1: TorusPotential, nt: int, nx: int, ny: int, delta_schedule
) -> GridSolution:
    """Continuation solve of the regularized equation from Phi=0 to phi1."""
    if nx < 16 or ny < 16 or nx % 2 or ny % 2:
        raise ValueError(f"nx, ny must be even and >= 16, got {nx}, {ny}")
    if nt < 9:
        raise ValueError(f"nt must be >= 9, got {nt}")
    if nt * nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"nt*nx*ny must be <= {MAX_GRID_POINTS}, got {nt * nx * ny}")
    schedule = [float(d) for d in delta_schedule]
    if not schedule or any(d <= 0 for d in schedule):
        raise ValueError("delta schedule must be nonempty and positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("delta schedule must be strictly decreasing")

    dt = 1.0 / (nt - 1)
    hx = 2.0 * math.pi / nx
    hy = 2.0 * math.pi / ny
    xs = -math.pi + hx * np.arange(nx)
    ys = -math.pi + hy * np.arange(ny)
    top = _symmetrize(phi1.evaluate(xs[:, None], ys[None, :]))
    t = np.linspace(0.0, 1.0, nt)
    phi = t[:, None, None] * top[None, :, :]
    _check_positive(phi, hx, hy, schedule[0])

    res_norm = math.inf
    for delta in schedule:
        res = _residual(phi, dt, hx, hy, delta)
        res_norm = float(np.max(np.abs(res)))
        target = RESIDUAL_SCALE * (1.0 + delta)
        for _ in range(MAX_NEWTON_ITERS):
            if res_norm < target:
                break
            step = _newton_step(phi, dt, hx, hy, res)
            alpha = 1.0
            for _ in range(MAX_HALVINGS):
                cand = phi.copy()
                cand[1:-1] += alpha * step
                cand[1:-1] = _symmetrize(cand[1:-1])
                try:
                    _check_positive(cand, hx, hy, delta)
                except NumericError:
                    alpha *= 0.5
                    continue
                cand_res = _residual(cand, dt, hx, hy, delta)
                cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm < res_norm:
                    phi, res, res_norm = cand, cand_res, cand_norm
                    break
                alpha *= 0.5
            else:
                raise NumericError(
                    f"Newton damping failed at delta = {delta:.3e} "
                    f"(residual {res_norm:.3e})"
                )
        else:
            raise NumericError(
                f"no convergence within {MAX_NEWTON_ITERS} Newton iterations "
                f"at delta = {delta:.3e} (residual {res_norm:.3e})"
            )
    return GridSolution(nt=nt, nx=nx, ny=ny, delta=schedule[-1], phi=phi, residual_norm=res_norm)


def extract_second_jets(sol: GridSolution) -> tuple[np.ndarray, np.ndarray]:
    """Second jets a(t_i), b(t_i) at the origin by fourth-order differences."""
    ix, iy = sol.nx // 2, sol.ny // 2
    sten = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    fx = sol.phi[:, ix - 2 : ix + 3, iy]
    fy = sol.phi[:, ix, iy - 2 : iy + 3]
    a = fx @ sten / (2.0 * sol.hx**2)
    b = fy @ sten / (2.0 * sol.hy**2)
    return a, b


@dataclass(frozen=True)
class CrosscheckReport:
    """sigma_2 constancy of a grid solution against a closed-form path."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma2: np.ndarray
    sigma2_mean: float
    sigma2_spread: float
    relative_spread: float
    epsilon_estimate: float | None
    epsilon_reference: float | None
    epsilon_relative_error: float | None


def crosscheck_report(sol: GridSolution, reference: SecondJetPath) -> CrosscheckReport:
    """Compare grid-extracted sigma_2 with the closed-form eps.

    sigma_2 is formed at interior t nodes from centered time differences of
    the extracted jets; a degenerate all-zero solution reports zero spread.
    """
    a, b = extract_second_jets(sol)
    dt = sol.dt
    da = (a[2:] - a[:-2]) / (2.0 * dt)
    db = (b[2:] - b[:-2]) / (2.0 * dt)
    z = 1.0 + 2.0 * a[1:-1] + 2.0 * b[1:-1]
    sigma2 = da * db / z**2
    mean = float(np.mean(sigma2))
    spread = float(np.max(sigma2) - np.min(sigma2))
    if abs(mean) > ZERO_SPREAD_FLOOR:
        rel = spread / abs(mean)
    else:
        rel = 0.0 if spread < ZERO_SPREAD_FLOOR else math.inf
    eps_est = math.sqrt(-mean) if mean < 0 else None
    eps_ref = reference.epsilon
    eps_err = None
    if eps_est is not None and eps_ref is not None and eps_ref > 0:
        eps_err = abs(eps_est - eps_ref) / eps_ref
    t = np.linspace(0.0, 1.0, sol.nt)
    return CrosscheckReport(
        t=t,
        a=a,
        b=b,
        sigma2=sigma2,
        sigma2_mean=mean,
        sigma2_spread=spread,
        relative_spread=rel,
        epsilon_estimate=eps_est,
        epsilon_reference=eps_ref,
        epsilon_relative_error=eps_err,
    )


def dump_phi_csv(sol: GridSolution, path, t_indices=None) -> None:
    """Row-major CSV dump of phi slices with a grid-metadata header."""
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
