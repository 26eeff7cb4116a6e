"""Grid-based cross-validation of the closed-form second-jet path.

The degenerate geodesic equation Phi_tt (1 + Lap Phi) = |grad Phi_t|^2 is
regularized to Phi_tt (1 + Lap Phi) - |grad Phi_t|^2 = delta and solved with
damped inexact Newton continuation over a decreasing delta schedule and
central differences. Each Newton step solves its linear system only to a
forcing term eta = O(|F|) of the residual F it starts from, which keeps the
quadratic convergence of an exact step (Dembo, Eisenstat and Steihaug, SIAM
J. Numer. Anal. 19, 1982). TorusPotential admits only even sin powers, so the
data, the equation and every Newton iterate are even in x and in y: the solve
runs, exactly, on the even-even quarter (x indices 0..nx/2, y indices
0..ny/2) with reflective halos. Second jets extracted at the central fiber
feed the sigma_2 and eps diagnostics of the closed form.

scipy is imported on the first Newton step, not with the module: loading
scipy.sparse.linalg takes about 0.34 s and 27 MiB (2-core x86-64 host, scipy
1.17), which second-jet, propagate and counterexample would otherwise pay at
start-up without ever solving. LinearOperator stays readable as a module
attribute through __getattr__.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counterexample import TorusPotential
from .errors import NumericError

MAX_NEWTON_ITERS = 40
MAX_HALVINGS = 12
RESIDUAL_SCALE = 1e-9
# Forcing-term bounds of the inexact Newton step (see _newton_step).
ETA_MAX = 1e-3
ETA_MIN = 1e-10
# The quarter solve holds about 50 arrays of its (nt, nx/2+1, ny/2+1) points at
# its peak (phi, residual, stencil coefficients, halo, about 33 Krylov vectors):
# 105 bytes a full-grid point, the tracemalloc peak at 33 x 64 x 64; 105 MiB here.
MAX_GRID_POINTS = 2**20


def lgmres(A, b, *args, **kwargs):
    """scipy.sparse.linalg.lgmres, imported on its first call.

    It must stay a module global that _newton_step looks up at each call:
    bench/tracing.py wraps torusjets.pde_crosscheck.lgmres to time the solves
    and count matvecs, and tests replace it by setattr on this module. A name
    bound inside _newton_step would bypass both.
    """
    from scipy.sparse.linalg import lgmres as scipy_lgmres

    return scipy_lgmres(A, b, *args, **kwargs)


def __getattr__(name):
    if name == "LinearOperator":
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GridSolution:
    """Converged regularized solution on a (t, x, y) grid.

    phi (nt, nx, ny) is solved on the even-even quarter and expanded by
    reflection; slices 0 and nt-1 hold the boundary data, x and y are periodic
    on [-pi, pi) with the origin at (nx//2, ny//2). The counters cover the
    schedule: Newton steps, Krylov matvecs, line-search halvings and min(1 +
    Lap phi) of the result over its interior slices, the ones the solve moves;
    per_delta holds the first three for each delta.
    """

    nt: int
    nx: int
    ny: int
    delta: float
    phi: np.ndarray
    residual_norm: float
    newton_steps: int = 0
    krylov_matvecs: int = 0
    halvings: int = 0
    min_metric: float | None = None
    per_delta: tuple[tuple[float, int, int, int], ...] = ()

    @property
    def dt(self) -> float:
        return 1.0 / (self.nt - 1)

    @property
    def hx(self) -> float:
        return 2.0 * math.pi / self.nx

    @property
    def hy(self) -> float:
        return 2.0 * math.pi / self.ny


def _reflect(pad: np.ndarray) -> None:
    """Fill the four x and y halo faces of pad by even reflection, in place."""
    pad[..., [0, -1], 1:-1] = pad[..., [2, -3], 1:-1]
    pad[..., 1:-1, [0, -1]] = pad[..., 1:-1, [2, -3]]


def _residual(phi: np.ndarray, dt, hx, hy, delta):
    """Residual on the interior slices and the fields the Newton step reuses there,
    (1 + Lap phi, phi_tt, d_x phi_t, d_y phi_t).

    phi is padded once: the padded copy gives Lap phi, and its time difference
    gives phi_t with the halo that d_x and d_y read. NumericError unless the
    minimum of 1 + Lap phi is positive. Lap phi has mean zero, so a phi near the
    float range degenerates the metric anyway; its overflow reads as a minimum
    of -inf or nan and is refused too.
    """
    pad = np.pad(phi, ((0, 0), (1, 1), (1, 1)), mode="reflect")  # the halo _reflect fills
    with np.errstate(over="ignore", invalid="ignore"):
        lap = (pad[:, 2:, 1:-1] - 2.0 * phi + pad[:, :-2, 1:-1]) / hx**2
        metric = 1.0 + (lap + (pad[:, 1:-1, 2:] - 2.0 * phi + pad[:, 1:-1, :-2]) / hy**2)
    zmin = float(np.min(metric))
    if not zmin > 0.0:
        raise NumericError(
            f"metric degenerated: min(1 + Lap phi) = {zmin:.6e} at delta = {delta:.3e}; "
            "reduce the boundary amplitude or enlarge delta"
        )
    phitt = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt**2
    pt = (pad[2:] - pad[:-2]) / (2.0 * dt)
    gx = (pt[:, 2:, 1:-1] - pt[:, :-2, 1:-1]) / (2.0 * hx)
    gy = (pt[:, 1:-1, 2:] - pt[:, 1:-1, :-2]) / (2.0 * hy)
    inner = metric[1:-1]
    return phitt * inner - gx**2 - gy**2 - delta, (inner, phitt, gx, gy)


def _newton_step(fields, dt, hx, hy, res):
    """One inexact Newton direction for the interior slices, and its matvec count.

    lgmres stops at relative residual eta = max(min(ETA_MAX, |res|_inf), ETA_MIN):
    loose while the Newton residual res is large and tight near the root, which
    keeps the quadratic convergence of an exact solve for fewer matvecs.

    J v = (1 + Lap phi) v_tt + phi_tt Lap v - 2 grad(phi_t).grad(v_t), v = 0 on
    the end slices, is a 15-point stencil; each matvec copies v into one halo
    buffer, refreshes its reflective faces and sums the stencil from slices.
    A Krylov vector is the quarter field raveled, so lgmres works in the
    quarter's own Euclidean norm. The preconditioner inverts the Dirichlet
    c D_tt, c the full-grid mean of 1 + Lap phi, on every column:
    G_ij = -min(i, j) (m + 1 - max(i, j)) / (m + 1) dt^2 / c, m = nt - 2.
    """
    from scipy.sparse.linalg import LinearOperator

    metric, phitt, gx, gy = fields
    m, qx, qy = phitt.shape
    size = m * qx * qy
    wt = metric / dt**2
    wx = phitt / hx**2
    wy = phitt / hy**2
    centre = -2.0 * (wt + wx + wy)
    # -2 (phi_t)_x (v_t)_x is -gx / (2 dt hx) times the x difference of v(t+dt) - v(t-dt)
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
        _reflect(inner)
        np.subtract(halo[2:], halo[:-2], out=vt)
        out = centre * core
        accumulate(out, wt, np.add, halo[2:, 1:-1, 1:-1], halo[:-2, 1:-1, 1:-1])
        accumulate(out, wx, np.add, inner[:, 2:, 1:-1], inner[:, :-2, 1:-1])
        accumulate(out, wy, np.add, inner[:, 1:-1, 2:], inner[:, 1:-1, :-2])
        accumulate(out, cx, np.subtract, vt[:, 2:, 1:-1], vt[:, :-2, 1:-1])
        accumulate(out, cy, np.subtract, vt[:, 1:-1, 2:], vt[:, 1:-1, :-2])
        return out.ravel()

    w = np.multiply.outer(*[np.r_[1.0, np.full(q - 2, 2.0), 1.0] for q in (qx, qy)])
    c = float(np.sum(metric * w)) / (m * float(np.sum(w)))
    i = np.arange(1.0, m + 1.0)
    green = np.minimum.outer(i, i) * (m + 1.0 - np.maximum.outer(i, i))
    green *= -(dt**2) / ((m + 1.0) * c)

    def precond(flat):
        return (green @ flat.reshape(m, -1)).ravel()

    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    pc = LinearOperator((size, size), matvec=precond, dtype=float)
    eta = max(min(ETA_MAX, float(np.max(np.abs(res)))), ETA_MIN)
    step, info = lgmres(op, -res.ravel(), M=pc, rtol=eta, atol=0.0, maxiter=400)
    if info != 0:
        raise NumericError(f"linear solver stalled in the Newton step (info={info})")
    return step.reshape(m, qx, qy), matvecs


def solve_geodesic(
    phi1: TorusPotential, nt: int, nx: int, ny: int, delta_schedule
) -> GridSolution:
    """Continuation solve of the regularized equation from Phi=0 to phi1.

    A phi1 that is not finite on the grid is refused with ValueError.
    """
    if nx < 16 or ny < 16 or nx % 2 or ny % 2:
        raise ValueError(f"nx, ny must be even and >= 16, got {nx}, {ny}")
    if nt < 9:
        raise ValueError(f"nt must be >= 9, got {nt}")
    if nt * nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"nt*nx*ny must be <= {MAX_GRID_POINTS}, got {nt * nx * ny}")
    schedule = [float(d) for d in delta_schedule]
    if not schedule or not all(math.isfinite(d) and d > 0 for d in schedule):
        raise ValueError(f"delta schedule must be nonempty, finite and positive, got {schedule}")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("delta schedule must be strictly decreasing")

    dt = 1.0 / (nt - 1)
    hx = 2.0 * math.pi / nx
    hy = 2.0 * math.pi / ny
    xs, ys = (-math.pi + h * np.arange(n // 2 + 1) for h, n in ((hx, nx), (hy, ny)))
    top = phi1.evaluate(xs[:, None], ys[None, :])
    if not np.isfinite(top).all():
        raise ValueError("the boundary potential is not finite on the grid")
    t = np.linspace(0.0, 1.0, nt)
    phi = t[:, None, None] * top[None, :, :]

    per_delta = []
    for delta in schedule:
        res, fields = _residual(phi, dt, hx, hy, delta)
        res_norm = float(np.max(np.abs(res)))
        target = RESIDUAL_SCALE * (1.0 + delta)
        steps = matvecs = halvings = 0
        for _ in range(MAX_NEWTON_ITERS):
            if res_norm < target:
                break
            step, count = _newton_step(fields, dt, hx, hy, res)
            steps += 1
            matvecs += count
            alpha = 1.0
            for _ in range(MAX_HALVINGS):
                cand = phi.copy()
                cand[1:-1] += alpha * step
                try:
                    cand_res, cand_fields = _residual(cand, dt, hx, hy, delta)
                except NumericError:  # a degenerate candidate halves alpha
                    cand_norm = math.inf
                else:
                    cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm < res_norm:
                    phi = cand
                    res, fields, res_norm = cand_res, cand_fields, cand_norm
                    break
                alpha *= 0.5
                halvings += 1
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
        per_delta.append((delta, steps, matvecs, halvings))
    ix, iy = (np.minimum(np.arange(n), n - np.arange(n)) for n in (nx, ny))
    _, steps, matvecs, halvings = map(sum, zip(*per_delta))
    return GridSolution(
        nt=nt, nx=nx, ny=ny, delta=schedule[-1], phi=phi[:, ix[:, None], iy],
        residual_norm=res_norm, newton_steps=steps, krylov_matvecs=matvecs,
        halvings=halvings, min_metric=float(np.min(fields[0])), per_delta=tuple(per_delta),
    )


def extract_second_jets(sol: GridSolution) -> tuple[np.ndarray, np.ndarray]:
    """Second jets a(t_i), b(t_i) at the origin by fourth-order differences.

    The stencil acts on differences from the centre value, so a row that is
    flat in x or y gives exactly zero jets.
    """
    ix, iy = sol.nx // 2, sol.ny // 2
    sten = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    centre = sol.phi[:, ix, iy, None]
    fx = sol.phi[:, ix - 2 : ix + 3, iy] - centre
    fy = sol.phi[:, ix, iy - 2 : iy + 3] - centre
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


def crosscheck_report(sol: GridSolution, epsilon_reference: float | None) -> CrosscheckReport:
    """Compare grid-extracted sigma_2 with the closed-form eps, None off the space-like class.

    sigma_2 is formed at interior t nodes from centered time differences of
    the extracted jets. A mean below the rounding of the product a' b' / Z^2,
    machine epsilon times max((a'^2 + b'^2) / Z^2), cannot be told from zero: it
    reports zero relative spread when the spread is below that floor too (as
    for a flat solution), and an infinite one otherwise.
    """
    a, b = extract_second_jets(sol)
    dt = sol.dt
    da = (a[2:] - a[:-2]) / (2.0 * dt)
    db = (b[2:] - b[:-2]) / (2.0 * dt)
    z = 1.0 + 2.0 * a[1:-1] + 2.0 * b[1:-1]
    sigma2 = da * db / z**2
    mean = float(np.mean(sigma2))
    spread = float(np.max(sigma2) - np.min(sigma2))
    floor = np.finfo(float).eps * float(np.max((da**2 + db**2) / z**2))
    if abs(mean) > floor:
        rel = spread / abs(mean)
    else:
        rel = 0.0 if spread <= floor else math.inf
    eps_est = math.sqrt(-mean) if mean < 0 else None
    eps_err = None
    if eps_est is not None and epsilon_reference is not None and epsilon_reference > 0:
        eps_err = abs(eps_est - epsilon_reference) / epsilon_reference
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
        epsilon_reference=epsilon_reference,
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
