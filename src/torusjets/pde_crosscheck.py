"""Grid-based cross-validation of the closed-form second-jet path.

The degenerate geodesic equation Phi_tt (1 + Lap Phi) = |grad Phi_t|^2 is
regularized to Phi_tt (1 + Lap Phi) - |grad Phi_t|^2 = delta and solved with
damped inexact Newton continuation over a decreasing delta schedule and
central differences. Each Newton step solves its linear system only to a
forcing term eta = O(|F|) of the residual F it starts from, which keeps the
quadratic convergence of an exact step (Dembo, Eisenstat and Steihaug, SIAM
J. Numer. Anal. 19, 1982), and never tighter than TARGET_SHARE of the Newton
target over |F|, which is all the step needs to end the solve (Eisenstat and
Walker, SIAM J. Sci. Comput. 17, 1996; Kelley, Solving Nonlinear Equations
with Newton's Method, SIAM 2003). A step is damped by halving until the
residual falls by a sufficient share of what the linear model promises.
TorusPotential admits only even sin powers, so the data, the equation and
every Newton iterate are even in x and in y: the solve runs, exactly, on the
even-even quarter (x indices 0..nx/2, y indices 0..ny/2) with reflective
halos. The residual and the Jacobian's 15-point stencil run on flattened halo
buffers, where the t, x and y neighbours are fixed offsets, so each of their
terms is one ufunc call over one contiguous span (_Quarter). Second jets
extracted at the central fiber feed the sigma_2 and eps diagnostics of the
closed form.

Each Newton step is solved by restarted GMRES in numpy (lgmres below),
right-preconditioned by the time part of the Jacobian with its pointwise
metric, so the package imports no scipy. Its Arnoldi process projects each
Krylov vector once, and a second time only where the first projection
cancelled all but REORTH of its norm. Newton stops at a residual target that
scales with the size of the boundary data (see solve_geodesic); every delta
starts from the fields of the last accepted iterate, the linear start's for the
first, so only the constant delta in the residual changes.
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
# Forcing-term bounds of the inexact Newton step (see _Quarter.newton_step). A step's
# linear solve stops at no tighter than TARGET_SHARE of the Newton target over |F|_inf.
ETA_MAX = 1e-3
ETA_MIN = 1e-10
TARGET_SHARE = 0.5
# The line search accepts alpha once |F(phi + alpha s)|_inf <= (1 - SUFFICIENT_DECREASE
# alpha) |F(phi)|_inf (see solve_geodesic).
SUFFICIENT_DECREASE = 0.5
# GMRES keeps RESTART Krylov vectors before it restarts, and one Newton step may
# spend MAX_MATVECS matvecs.
RESTART = 30
MAX_MATVECS = 400
# lgmres projects each new Krylov vector once (classical Gram-Schmidt) and a second time
# only when the first pass left less than REORTH of its norm, where the cancellation
# can leave the new vector far from orthogonal (Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30,
# 1976; Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005). On the bench
# saddle the first pass leaves 0.012 to 0.42 of the norm, so the textbook 1/sqrt(2)
# fired on every Arnoldi step and saved nothing; with one pass, max|V^T V - I| stayed
# below 4e-7 there, and every solve's true residual within its tolerance.
REORTH = 1e-2
# The preconditioner applies its Green matrix in dense blocks of at most this many slices.
GREEN_BLOCK = 32
# A solve of the bench saddle (delta 1e-1 to 1e-3) peaks at 109.5, 150.5 and 96.5 traced bytes a
# grid point at 33 x 64 x 64, 4096 x 16 x 16 and 16 x 256 x 256, so about 150 MiB here; the
# residual's one set of quarter fields takes about 10 bytes and its own halo 2 to 4. (At 4096 x 16
# x 16 the line search refuses delta = 1e-3; the solve to 1e-2 reaches the same peak.) About half
# of each peak is the GMRES basis, whose RESTART + 1 rows lgmres allocates at each call, while no
# Newton step of the bench saddle takes more than 13 matvecs: most rows are never written, so RSS
# sees less than the traced peak. A basis allocated once per solve would add an lgmres argument.
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
    classical Gram-Schmidt and Givens rotations. Each new Krylov vector is
    projected once, and again only when the first pass left less than REORTH of
    its norm. It is formed, projected and normalised in its row of the basis, so
    whatever A.matvec returns is copied and never written to. The Arnoldi
    relation A M V_k = V_k+1 H holds to rounding however orthogonal V is, so the
    true residual exceeds the Arnoldi one by at most the largest singular value
    of V_k+1, which stays near 1. A and M are any operators with a matvec, the
    identity when M is None. It stops once the Arnoldi residual is
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
    basis = np.empty((RESTART + 1, b.shape[0]))  # each cycle overwrites the rows it reads
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
            np.divide(r, beta, out=basis[0])
            hess = np.zeros((RESTART, RESTART))
            rotations = []
            g = [beta]
            while len(rotations) < RESTART and matvecs < MAX_MATVECS:
                k = len(rotations)
                w = basis[k + 1]
                w[...] = A.matvec(precond(basis[k]))
                matvecs += 1
                v = basis[: k + 1]
                before = np.linalg.norm(w)
                h = v @ w
                w -= h @ v
                wnorm = float(np.linalg.norm(w))
                if wnorm < REORTH * before:
                    again = v @ w
                    w -= again @ v
                    h += again
                    wnorm = float(np.linalg.norm(w))
                h = h.tolist()
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
                w /= wnorm
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
    per_delta holds the first three for each delta. newton_target is the bound
    below which the last delta's residual_norm was brought (see solve_geodesic).
    """

    nt: int
    nx: int
    ny: int
    delta: float
    phi: np.ndarray
    residual_norm: float
    newton_target: float | None = None
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


def _defect(fields, delta, out=None, square=None) -> np.ndarray:
    """The residual phi_tt (1 + Lap phi) - |grad phi_t|^2 - delta from the fields of
    _Quarter.residual, into out and with square as scratch if given; a new delta at
    the same phi needs nothing else."""
    inner, phitt, gx, gy = fields
    out = np.multiply(phitt, inner, out=out)
    for grad in (gx, gy):
        out -= np.square(grad, out=square)
    out -= delta
    return out


def _reflect(pad: np.ndarray) -> None:
    """Fill the four x and y halo faces of pad by even reflection, in place."""
    for face, mirror in ((0, 2), (-1, -3)):
        pad[..., face, 1:-1] = pad[..., mirror, 1:-1]
        pad[..., 1:-1, face] = pad[..., 1:-1, mirror]


class _Quarter:
    """Central differences on the even-even quarter of an (nt, nx, ny) grid.

    A solve builds one. __init__ sets up all that depends only on the grid: the
    stencil's halo and coefficient buffers and their flat spans, the Green blocks,
    the two operators that newton_step hands lgmres, and the residual's own halo and
    its one set of field buffers; each step refills the coefficients in place. The
    closures read a state dict (the matvec count and the step's metric), never the
    quarter: that reference cycle would keep every buffer alive until the cyclic
    collector ran. The residual and the Newton step share no halo and read nothing
    that the caller sets on the quarter: each takes what it needs as arguments.

    J v = (1 + Lap phi) v_tt + phi_tt Lap v - 2 grad(phi_t).grad(v_t), v = 0 on
    the end slices, is a 15-point stencil; each matvec copies v into one halo
    buffer and refreshes its reflective faces. With Q = qy + 2 and P = (qx + 2) Q,
    the neighbours at +-y, +-x and +-t lie at offsets +-1, +-Q and +-P of the
    flattened buffer, so each term is one ufunc call over the span from the first
    interior point to the last, in buffers with the same x and y halo. Its halo
    positions compute values that nothing reads; each interior point runs the
    arithmetic of the strided 3-D stencil, in the same order. The residual runs
    the same way on a halo buffer of its own over all nt slices, between matvecs.
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
        self.centre, total = np.empty_like(self.wt), np.empty_like(self.wt)
        vt, term = np.empty_like(halo), np.empty_like(halo)  # nt slices for the residual
        inside = (slice(None), slice(1, -1), slice(1, -1))
        Q, P = qy + 2, (qx + 2) * (qy + 2)
        length = (m - 1) * P + (qx - 1) * Q + qy

        def span(buf, shift=0, pad=0):
            # the flat span of an (m, qx + 2, qy + 2) buf, moved by shift and widened by pad;
            # halo has one more slice at each end, so its interior span is span(halo, P)
            # and the span of all its nt slices is span(halo, P, P)
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

        # The residual copies phi into its own halo buffer of all nt slices, runs on the
        # matvec's vt and term buffers, which hold nothing between matvecs, and writes the
        # quarter fields into one set that each call refills
        pad = np.zeros_like(halo)
        metric, phitt, gx, gy, res = (np.empty((k, qx, qy)) for k in (m + 2, m, m, m, m))
        square = total.reshape(-1)[:size].reshape(m, qx, qy)

        def residual(phi, delta):
            pad[:, 1:-1, 1:-1] = phi
            _reflect(pad)
            doubled, lap = span(term, P, P), span(vt, P, P)  # over all nt slices
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(span(pad, P, P), 2.0, out=doubled)
                np.subtract(span(pad, P + Q, P), doubled, out=lap)
                np.add(lap, span(pad, P - Q, P), out=lap)
                np.divide(lap, hx**2, out=lap)
                # phi_tt's numerator reads 2 phi before the y part of Lap phi takes its place
                np.subtract(span(pad, 2 * P), span(term, P), out=acc)
                np.add(acc, span(pad), out=acc)
                np.subtract(span(pad, P + 1, P), doubled, out=doubled)
                np.add(doubled, span(pad, P - 1, P), out=doubled)
                np.divide(doubled, hy**2, out=doubled)
                np.add(lap, doubled, out=lap)
                np.add(vt[inside], 1.0, out=metric)
            zmin = float(np.min(metric))
            if not zmin > 0.0:
                raise NumericError(
                    f"metric degenerated: min(1 + Lap phi) = {zmin:.6e} at "
                    f"delta = {delta:.3e}; reduce the boundary amplitude or enlarge delta"
                )
            np.divide(total[inside], dt**2, out=phitt)
            phit = span(term, P, Q)  # with the x and y halo that d_x and d_y read
            np.subtract(span(pad, 2 * P, Q), span(pad, 0, Q), out=phit)
            np.divide(phit, 2.0 * dt, out=phit)
            for grad, offset, h in ((gx, Q, hx), (gy, 1, hy)):
                np.subtract(span(term, P + offset), span(term, P - offset), out=span(vt, P))
                np.divide(vt[1:-1][inside], 2.0 * h, out=grad)
            fields = (metric[1:-1], phitt, gx, gy)
            return _defect(fields, delta, res, square), fields

        self._residual = residual

    def residual(self, phi: np.ndarray, delta):
        """Residual on the interior slices and the fields the Newton step reuses there,
        (1 + Lap phi, phi_tt, d_x phi_t, d_y phi_t).

        phi is copied once into a halo buffer of all nt slices that the residual owns
        and no matvec reads. Its reflective faces give Lap phi, and its time
        difference gives phi_t with the halo that d_x and d_y read. Each difference is
        one ufunc call over a flat span, like the matvec's terms, and the last
        operation of each field writes it to its quarter array; each point runs the
        arithmetic of the strided 3-D stencil in the same order, so the result is the
        same bit for bit. The result and the fields are the quarter's one set of
        arrays, which the next call overwrites, whether or not it is refused.
        NumericError unless the minimum of 1 + Lap phi is positive. Lap phi has mean
        zero, so a phi near the float range degenerates the metric anyway; its
        overflow reads as a minimum of -inf or nan and is refused too.
        """
        return self._residual(phi, delta)

    def newton_step(self, fields, res, target):
        """One inexact Newton direction for the interior slices, and its matvec count.

        lgmres stops at the relative residual eta = min(ETA_MAX, max(eta0,
        TARGET_SHARE target / |res|_inf)), eta0 = max(min(ETA_MAX, |res|_inf), ETA_MIN):
        loose while the Newton residual res is large and tight near the root, which
        keeps the quadratic convergence of an exact solve for fewer matvecs, but never
        tighter than the step needs to bring res within a share of target, the residual
        at which solve_geodesic stops; a target of 0 sets no such bound.
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
        norm = float(np.max(np.abs(res)))
        eta = max(min(ETA_MAX, norm), ETA_MIN)
        if norm > 0.0:
            eta = min(ETA_MAX, max(eta, TARGET_SHARE * target / norm))
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
    rise above the absolute target RESIDUAL_SCALE (1 + delta). Each Newton step
    is told the target (_Quarter.newton_step), so its linear solve stops once it
    has done what the target needs.

    A step s is damped to the first alpha = 1, 1/2, 1/4, ... with |F(phi + alpha
    s)|_inf <= (1 - SUFFICIENT_DECREASE alpha) |F(phi)|_inf. F is quadratic in phi,
    F(phi + alpha s) = (1 - alpha) F + alpha r + alpha^2 R(s), r the linear solve's
    residual (|r| <= eta |F| in the 2-norm, eta <= ETA_MAX), so the linear model
    promises (1 - alpha) |F|. SUFFICIENT_DECREASE = 1/2 asks for half of that
    promise: a full step is kept whenever it halves |F|, as every step near the root
    does; where R(s) dominates, the bound |F| (1 - alpha (1 - eta)) + alpha^2 |R(s)|
    admits alpha up to (1/2 - eta) / (1 - eta), about half, of the largest alpha it
    admits for any decrease, so the test costs about one halving more. A step that
    overshoots by beta > 1 reaches its mirror image, |1 - beta alpha| = 1, at
    alpha = 2 / beta, where plain decrease would turn on the signs of r, R and the
    rounding; the sufficient decrease refuses it by a margin of 1/beta of |F|, far
    above them.

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

    _, fields = quarter.residual(phi, schedule[0])
    data_size = float(np.max(fields[2] ** 2 + fields[3] ** 2))
    per_delta = []
    for delta in schedule:
        res = _defect(fields, delta)  # phi and its fields are the last accepted iterate's
        res_norm = float(np.max(np.abs(res)))
        steps = matvecs = halvings = 0
        for _ in range(MAX_NEWTON_ITERS):
            floor = TARGET_FLOOR_ULPS * np.finfo(float).eps * float(np.max(np.abs(phi)))
            floor /= quarter.dt**2
            relative = max(RELATIVE_TARGET * data_size, floor)
            target = min(RESIDUAL_SCALE * (1.0 + delta), relative)
            if res_norm < target:
                break
            step, count = quarter.newton_step(fields, res, target)
            steps += 1
            matvecs += count
            # Each candidate's residual overwrites the quarter's one field set. That is all
            # the search needs: past this point it reads only res_norm of the accepted
            # iterate, never its res or fields, and an exhausted MAX_HALVINGS raises, so
            # the set always ends holding the iterate the next step starts from
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
                if cand_norm <= (1.0 - SUFFICIENT_DECREASE * alpha) * res_norm:
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
            del step  # not held while the next step's Krylov basis is
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
        residual_norm=res_norm, newton_target=target, newton_steps=steps, krylov_matvecs=matvecs,
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
    return CrosscheckReport(
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
