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
0..ny/2) with reflective halos. The Jacobian's 15-point stencil runs on the
flattened halo buffer, where the t, x and y neighbours are fixed offsets, so
each of its terms is one ufunc call over one contiguous span (_Quarter).
Second jets extracted at the central fiber feed the sigma_2 and eps
diagnostics of the closed form.

Each Newton step is solved by restarted GMRES in numpy (lgmres below),
right-preconditioned by the time part of the Jacobian with its pointwise
metric, so the package imports no scipy. Newton stops at a residual target
that scales with the size of the boundary data (see solve_geodesic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counterexample import TorusPotential
from .errors import NumericError
from .report_io import write_file

MAX_NEWTON_ITERS = 40
MAX_HALVINGS = 12
# The Newton target (see solve_geodesic). At RELATIVE_TARGET = 5e-8 the saddle
# c sin^2 x - c sin^2 y on (17, 16, 16), delta = 1e-1, 1e-2, reads the sigma_2 spread
# 0.0332001 for c = 1e-7 to 1e-4, and the bench saddle (c = 0.1) keeps its 9 Newton
# steps. The rounding of F at the exact discrete solution of the zero boundary is
# 0.8 to 2.2 times eps max|phi| / dt^2 for nt = 9 to 4096; TARGET_FLOOR_ULPS = 8 keeps
# the target above it.
RESIDUAL_SCALE = 1e-9
RELATIVE_TARGET = 5e-8
TARGET_FLOOR_ULPS = 8.0
# Forcing-term bounds of the inexact Newton step (see _Quarter.newton_step).
ETA_MAX = 1e-3
ETA_MIN = 1e-10
# GMRES keeps RESTART Krylov vectors before it restarts, and one Newton step may
# spend MAX_MATVECS matvecs.
RESTART = 30
MAX_MATVECS = 400
# The preconditioner applies its Green matrix in dense blocks of at most this many slices.
GREEN_BLOCK = 32
# A solve of the bench saddle (delta 1e-1 to 1e-3) peaks at 119 to 162 traced bytes a grid point
# at 33 x 64 x 64, 4096 x 16 x 16 and 16 x 256 x 256, so about 162 MiB here. About half of it
# is the GMRES basis, allocated whole but touched only as far as the Krylov space grows.
MAX_GRID_POINTS = 2**20


class LinearOperator:
    """A square matrix-free operator: the shape, dtype and matvec that lgmres reads."""

    def __init__(self, shape, matvec, dtype=float):
        self.shape = tuple(shape)
        self.matvec = matvec
        self.dtype = np.dtype(dtype)


def lgmres(A, b, M=None, rtol=1e-5):
    """Right-preconditioned restarted GMRES from x = 0: (x, info) with A M y = b, x = M y.

    GMRES(RESTART) of Saad and Schultz (SIAM J. Sci. Stat. Comput. 7, 1986), with
    Gram-Schmidt done twice and Givens rotations. A and M are any operators with
    a matvec, the identity when M is None. It stops once the Arnoldi residual is
    at most rtol |b|, with info = 0. When it cannot, info > 0 is the number of
    matvecs spent (at least 1): MAX_MATVECS matvecs of A went by, a product was
    not finite, or the Krylov space closed short of the tolerance (A M singular
    on it).

    The name is the one scipy's solver had here, and it must stay a module
    global that _Quarter.newton_step looks up at each call: bench/tracing.py
    wraps torusjets.pde_crosscheck.lgmres to time the solves and count matvecs,
    and tests replace it by setattr on this module. A name bound inside the
    quarter would bypass both.
    """
    precond = (lambda v: v) if M is None else M.matvec
    x = np.zeros(b.shape[0])
    matvecs = 0
    with np.errstate(all="ignore"):
        tol = rtol * np.linalg.norm(b)
        r = b
        while True:
            beta = np.linalg.norm(r)
            if not math.isfinite(beta):
                return x, max(matvecs, 1)
            if beta <= tol:
                return x, 0
            if matvecs >= MAX_MATVECS:
                return x, matvecs
            basis = np.empty((RESTART + 1, b.shape[0]))
            basis[0] = r / beta
            hess = np.zeros((RESTART, RESTART))
            rotations = []
            g = [beta]
            while len(rotations) < RESTART and matvecs < MAX_MATVECS:
                k = len(rotations)
                w = A.matvec(precond(basis[k]))
                matvecs += 1
                v = basis[: k + 1]
                h = v @ w
                w = w - h @ v
                again = v @ w
                w = w - again @ v
                h = (h + again).tolist()
                wnorm = float(np.linalg.norm(w))
                for i, (c, s) in enumerate(rotations):
                    h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
                diag = math.hypot(h[k], wnorm)
                if not 0.0 < diag < math.inf:
                    return x, matvecs
                c, s = h[k] / diag, wnorm / diag
                rotations.append((c, s))
                h[k] = diag
                hess[: k + 1, k] = h
                g.append(-s * g[k])
                g[k] *= c
                if abs(g[k + 1]) <= tol:
                    break
                basis[k + 1] = w / wnorm
            k = len(rotations)
            x = x + precond(np.linalg.solve(hess[:k, :k], g[:k]) @ basis[:k])
            if not np.isfinite(x).all():
                return x, matvecs
            if abs(g[k]) <= tol:
                return x, 0
            r = b - A.matvec(x)
            matvecs += 1


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
    for face, mirror in ((0, 2), (-1, -3)):
        pad[..., face, 1:-1] = pad[..., mirror, 1:-1]
        pad[..., 1:-1, face] = pad[..., 1:-1, mirror]


class _Quarter:
    """Central differences on the even-even quarter of an (nt, nx, ny) grid.

    A solve builds one. __init__ sets up all that depends only on the grid: the
    stencil's halo and coefficient buffers and their flat spans, the Green blocks
    and the two operators that newton_step hands lgmres; each step refills the
    coefficients in place. The operators' closures read a state dict (the matvec
    count and the step's metric), never the quarter: that reference cycle would
    keep every buffer alive until the cyclic collector ran.

    J v = (1 + Lap phi) v_tt + phi_tt Lap v - 2 grad(phi_t).grad(v_t), v = 0 on
    the end slices, is a 15-point stencil; each matvec copies v into one halo
    buffer and refreshes its reflective faces. With Q = qy + 2 and P = (qx + 2) Q,
    the neighbours at +-y, +-x and +-t lie at offsets +-1, +-Q and +-P of the
    flattened buffer, so each term is one ufunc call over the span from the first
    interior point to the last, in buffers with the same x and y halo. Its halo
    positions compute values that nothing reads; each interior point runs the
    arithmetic of the strided 3-D stencil, in the same order.
    A Krylov vector is the quarter field raveled, so lgmres works in the
    quarter's own Euclidean norm. The preconditioner inverts (1 + Lap phi) D_tt,
    the time part of J with its pointwise metric, D_tt the Dirichlet second
    difference over the m = nt - 2 interior slices: M^-1 r = D_tt^-1 (r / (1 + Lap phi)).
    """

    def __init__(self, nt: int, nx: int, ny: int):
        self.dt = dt = 1.0 / (nt - 1)
        self.hx = hx = 2.0 * math.pi / nx
        self.hy = hy = 2.0 * math.pi / ny
        m, qx, qy = nt - 2, nx // 2 + 1, ny // 2 + 1
        size = m * qx * qy
        # the zero faces of the coefficients keep the values that nothing reads finite
        halo = np.zeros((m + 2, qx + 2, qy + 2))
        self.wt, self.wx, self.cx, self.cy = (np.zeros((m, qx + 2, qy + 2)) for _ in range(4))
        self.wy = self.wx if hy == hx else np.zeros_like(self.wx)  # one phi_tt / h^2 if square
        self.centre, vt, term, total = (np.empty_like(self.wt) for _ in range(4))
        inside = (slice(None), slice(1, -1), slice(1, -1))
        Q, P = qy + 2, (qx + 2) * (qy + 2)
        length = (m - 1) * P + (qx - 1) * Q + qy

        def span(buf, shift=0, pad=0):
            # the flat span of an (m, qx + 2, qy + 2) buf, moved by shift and widened by pad;
            # halo has one more slice at each end, so its interior span is span(halo, P)
            first = Q + 1 + shift - pad
            return buf.reshape(-1)[first : first + length + 2 * pad]

        core, v, diagonal = halo[1:-1][inside], span(halo, P), span(self.centre)
        acc, scratch = span(total), span(term)
        vt_span, ahead, behind = span(vt, pad=Q), span(halo, 2 * P, Q), span(halo, 0, Q)
        terms = [
            (span(self.wt), np.add, span(halo, 2 * P), span(halo)),
            (span(self.wx), np.add, span(halo, P + Q), span(halo, P - Q)),
            (span(self.wy), np.add, span(halo, P + 1), span(halo, P - 1)),
            (span(self.cx), np.subtract, span(vt, Q), span(vt, -Q)),
            (span(self.cy), np.subtract, span(vt, 1), span(vt, -1)),
        ]
        self._state = state = {"matvecs": 0, "metric": None}

        def matvec(flat):
            state["matvecs"] += 1
            core[...] = flat.reshape(m, qx, qy)
            _reflect(halo[1:-1])
            np.subtract(ahead, behind, out=vt_span)
            np.multiply(diagonal, v, out=acc)
            for coeff, combine, first, second in terms:
                combine(first, second, out=scratch)
                np.multiply(scratch, coeff, out=scratch)
                np.add(acc, scratch, out=acc)
            return total[inside].ravel()

        # Column by column, the Dirichlet D_tt^-1 is the Green matrix G_ij = -c min(i, j)
        # (m + 1 - max(i, j)), c = dt^2 / (m + 1), i, j = 1..m: 128 MiB as one m x m matrix at
        # nt = 4096. Cut into nb blocks of `block` slices (zero-padded at the end), its diagonal
        # blocks are dense and the rest is rank one, -c (m + 1 - i) j below the diagonal and
        # -c i (m + 1 - j) above, so it costs O(m GREEN_BLOCK) per column.
        block = min(m, GREEN_BLOCK)
        nb = -(-m // block)
        col = np.arange(1.0, nb * block + 1.0).reshape(nb, 1, block)
        row = col.swapaxes(1, 2)
        c = dt**2 / (m + 1.0)
        diag = -c * np.minimum(row, col) * (m + 1.0 - np.maximum(row, col))
        padded = np.zeros((nb * block, qx * qy))

        def precond(flat):
            np.divide(flat.reshape(m, -1), state["metric"], out=padded[:m])
            r = padded.reshape(nb, block, -1)
            u = diag @ r
            if nb > 1:
                below = np.cumsum((col @ r)[:-1], axis=0)  # sum of j r_j over the blocks before
                above = np.cumsum(((m + 1.0 - col) @ r)[:0:-1], axis=0)[::-1]  # (m+1-j) r_j after
                u[1:] -= c * (m + 1.0 - row[1:]) * below
                u[:-1] -= c * row[:-1] * above
            return u.reshape(nb * block, -1)[:m].ravel()

        self.op = LinearOperator((size, size), matvec=matvec, dtype=float)
        self.pc = LinearOperator((size, size), matvec=precond, dtype=float)

    def residual(self, phi: np.ndarray, delta):
        """Residual on the interior slices and the fields the Newton step reuses there,
        (1 + Lap phi, phi_tt, d_x phi_t, d_y phi_t).

        phi is padded once: the padded copy gives Lap phi, and its time difference
        gives phi_t with the halo that d_x and d_y read. NumericError unless the
        minimum of 1 + Lap phi is positive. Lap phi has mean zero, so a phi near the
        float range degenerates the metric anyway; its overflow reads as a minimum
        of -inf or nan and is refused too.
        """
        dt, hx, hy = self.dt, self.hx, self.hy
        pad = np.zeros((phi.shape[0], phi.shape[1] + 2, phi.shape[2] + 2))
        pad[:, 1:-1, 1:-1] = phi
        _reflect(pad)
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

    def newton_step(self, fields, res):
        """One inexact Newton direction for the interior slices, and its matvec count.

        lgmres stops at relative residual eta = max(min(ETA_MAX, |res|_inf), ETA_MIN):
        loose while the Newton residual res is large and tight near the root, which
        keeps the quadratic convergence of an exact solve for fewer matvecs.
        """
        metric, phitt, gx, gy = fields
        inside = (slice(None), slice(1, -1), slice(1, -1))
        np.divide(metric, self.dt**2, out=self.wt[inside])
        np.divide(phitt, self.hx**2, out=self.wx[inside])
        np.divide(phitt, self.hy**2, out=self.wy[inside])
        np.add(self.wt, self.wx, out=self.centre)
        self.centre += self.wy
        self.centre *= -2.0
        # -2 (phi_t)_x (v_t)_x is -gx / (2 dt hx) times the x difference of v(t+dt) - v(t-dt)
        np.divide(gx, -2.0 * self.dt * self.hx, out=self.cx[inside])
        np.divide(gy, -2.0 * self.dt * self.hy, out=self.cy[inside])
        self._state.update(matvecs=0, metric=metric.reshape(metric.shape[0], -1))
        eta = max(min(ETA_MAX, float(np.max(np.abs(res)))), ETA_MIN)
        step, info = lgmres(self.op, -res.ravel(), M=self.pc, rtol=eta)
        if info != 0:
            raise NumericError(f"linear solver stalled in the Newton step (info={info})")
        return step.reshape(res.shape), self._state["matvecs"]


def solve_geodesic(
    phi1: TorusPotential, nt: int, nx: int, ny: int, delta_schedule
) -> GridSolution:
    """Continuation solve of the regularized equation from Phi=0 to phi1.

    Each delta stops once the max-norm of the residual F falls below
    min(RESIDUAL_SCALE (1 + delta), max(RELATIVE_TARGET S, TARGET_FLOOR_ULPS eps
    max|phi| / dt^2)). S = max|grad phi_t|^2 of the linear start, where phi_tt = 0,
    is the size of the data's part of F, so small data are solved to the same
    relative accuracy as large ones. The second term never lets the target fall
    below the rounding of F at the iterate phi, and the first never lets it
    rise above the absolute target RESIDUAL_SCALE (1 + delta).

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

    quarter = _Quarter(nt, nx, ny)
    xs = -math.pi + quarter.hx * np.arange(nx // 2 + 1)
    ys = -math.pi + quarter.hy * np.arange(ny // 2 + 1)
    top = phi1.evaluate(xs[:, None], ys[None, :])
    if not np.isfinite(top).all():
        raise ValueError("the boundary potential is not finite on the grid")
    t = np.linspace(0.0, 1.0, nt)
    phi = t[:, None, None] * top[None, :, :]

    per_delta = []
    for delta in schedule:
        res, fields = quarter.residual(phi, delta)
        if not per_delta:  # phi is the linear start
            data_size = float(np.max(fields[2] ** 2 + fields[3] ** 2))
        res_norm = float(np.max(np.abs(res)))
        steps = matvecs = halvings = 0
        for _ in range(MAX_NEWTON_ITERS):
            floor = TARGET_FLOOR_ULPS * np.finfo(float).eps * float(np.max(np.abs(phi)))
            floor /= quarter.dt**2
            relative = max(RELATIVE_TARGET * data_size, floor)
            if res_norm < min(RESIDUAL_SCALE * (1.0 + delta), relative):
                break
            step, count = quarter.newton_step(fields, res)
            steps += 1
            matvecs += count
            alpha = 1.0
            for _ in range(MAX_HALVINGS):
                cand = phi.copy()
                cand[1:-1] += alpha * step
                try:
                    cand_res, cand_fields = quarter.residual(cand, delta)
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
    points = [f"{jx},{ky}," for jx in range(sol.nx) for ky in range(sol.ny)]
    parts = [
        f"# nt={sol.nt} nx={sol.nx} ny={sol.ny} delta={sol.delta!r}\n",
        "# columns: t_index,x_index,y_index,phi\n",
    ]
    for it in t_indices:
        lead = f"{it},"
        # tolist gives Python floats, whose repr is that of float(phi[it, jx, ky])
        parts.append("".join(
            f"{lead}{point}{value!r}\n"
            for point, value in zip(points, sol.phi[it].ravel().tolist())
        ))
    write_file(path, "".join(parts).encode())
