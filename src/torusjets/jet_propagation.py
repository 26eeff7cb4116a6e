"""Order-by-order propagation of jets along a space-like second-jet path.

With the second jets a, b solved, the degree-2n part P of the potential
satisfies the divided vector equation

    P'' + 4 eps^2 E_A P - 4 eps S_A P' = K1(L) / (1 + 2a + 2b)

where L collects all lower-order jets and K1(L) is the degree-2n part of
-(Lap L) L'' + |grad L'|^2.  K1 is formed once per order, from factors that
each lower order keeps from when it is stored (-Lap L, L'' and the gradient
rows of L'); the mode solve, the order residual and the compatibility check
all read that one copy.  Substituting P = U Q and expanding Q in the
eigenbasis q_k decouples the system into scalar Dirichlet problems

    f_k'' + 16 eps^2 k^2 f_k = k_k(t),    k = 0..n.

A mode with 4*eps*k equal to a positive multiple m*pi of pi is resonant: the
Dirichlet problem is solvable only under the compatibility condition

    f(0) - (-1)^m f(1) = (1/(m pi)) * int_0^1 k_k(t) sin(m pi t) dt,

which translates into a linear pairing of the order-2n boundary derivatives
with the weights of the D operator.  Propagation stops there and reports the
obstruction data instead of a hierarchy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ConsistencyError, GeodesicDomainError
from .poly_ops import (
    apply_EA, apply_SA, d_weights, fischer_weights, q_adjoint, q_matrix, u_eigenvalues,
)
from .second_jet import CausalClass, SecondJetBoundary, SecondJetPath, solve_bvp
from .timegrid import CoefficientSeries, TimeGrid, integrate, require_same_grid, same_grid

RESONANCE_TOL = 1e-9
NEAR_RESONANCE_TOL = 1e-6
COMPAT_TOL = 1e-8


@dataclass(frozen=True)
class ModeProblem:
    """Scalar Dirichlet problem f'' + lam f = source, f(0)=f0, f(1)=f1."""

    lam: float
    source: CoefficientSeries
    f0: float
    f1: float

    def __post_init__(self):
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class ModeSolution:
    values: CoefficientSeries
    resonant: bool
    multiple: int | None = None
    boundary_term: float | None = None
    source_term: float | None = None
    compat_residual: float | None = None
    compatible: bool | None = None
    near_resonance: bool = False


@dataclass(frozen=True)
class JetHierarchy:
    """Jets of even degree 4..max solved on top of a space-like 2-jet path."""

    path2: SecondJetPath
    orders: dict[int, list[CoefficientSeries]]
    beyond_scope_orders: tuple[int, ...] = ()
    near_resonance_warnings: tuple[tuple[int, int], ...] = ()

    @property
    def grid(self) -> TimeGrid:
        return self.path2.grid

    def order_matrix(self, order: int) -> np.ndarray:
        return np.vstack([s.values for s in self.orders[order]])

    @functools.cached_property
    def _frame(self) -> _Frame:
        """The stored orders in the A > 0 frame, formed at first use unless propagate seeded it."""
        return _make_frame(self.path2, self.orders)


@dataclass(frozen=True)
class ObstructionReport:
    """Compatibility data of the resonant order.

    u pairs with the raw derivatives of the t=0 potential and v with the
    t=1 potential; entry i multiplies D_x^(2n-2i) D_y^(2i) phi(0).
    """

    resonant_order: int
    u: np.ndarray
    v: np.ndarray
    K: float
    lhs: float
    residual: float
    satisfied: bool
    epsilon: float
    resonant_mode: int
    multiple: int
    near_resonance_warnings: tuple[tuple[int, int], ...] = ()


class ModeOperators:
    """d^2/dt^2 + lam on one grid: D^2 formed once, each lam classified and factored once."""

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.d2 = grid.diff_matrix @ grid.diff_matrix
        self._by_lam: dict[float, tuple] = {}

    def __getitem__(self, lam: float) -> tuple:
        """(m, near, lu): m*pi is nearest sqrt(lam); lu factors, None at a resonance."""
        if lam not in self._by_lam:
            mu = math.sqrt(lam)
            m = round(mu / math.pi)
            gap = abs(mu - m * math.pi) if m >= 1 else math.inf
            lu = None if gap < RESONANCE_TOL else lu_factor(self.pinned(lam))
            self._by_lam[lam] = (m, gap < NEAR_RESONANCE_TOL, lu)
        return self._by_lam[lam]

    def pinned(self, lam: float) -> np.ndarray:
        """d2 + lam with its first and last rows pinning f(0) and f(1)."""
        mat = self.d2 + lam * np.eye(self.grid.node_count)
        mat[[0, -1], :] = 0.0
        mat[[0, -1], [0, -1]] = 1.0
        return mat


def solve_mode(
    problem: ModeProblem, grid: TimeGrid, operators: ModeOperators | None = None
) -> ModeSolution:
    """Solve one scalar mode by spectral collocation.

    Non-resonant modes solve the square collocation system with boundary
    rows.  A resonant mode (sqrt(lam) within 1e-9 of m*pi) solves the
    bordered system that augments the operator with the kernel direction and
    pins the solution to be quadrature-orthogonal to sin(m pi t); the
    compatibility residual is reported alongside.

    propagate passes one `operators` of `grid` to every call, so each mode
    operator is factored once per propagation; without it a call makes its own.
    """
    require_same_grid(problem.source, grid)
    if operators is None:
        operators = ModeOperators(grid)
    elif not same_grid(operators.grid, grid):
        raise ValueError("the mode operators belong to another grid")
    m, near, lu = operators[problem.lam]
    k = problem.source.values
    rhs = k.copy()
    rhs[[0, -1]] = problem.f0, problem.f1

    if lu is not None:
        f = lu_solve(lu, rhs)
        return ModeSolution(CoefficientSeries(grid, f), resonant=False, near_resonance=near)

    size = grid.node_count
    kernel = np.sin(m * math.pi * grid.nodes)
    mat = np.pad(operators.pinned(problem.lam), (0, 1))
    mat[1:size - 1, size] = kernel[1:-1]
    mat[size, :size] = grid.quad_weights * kernel
    f = np.linalg.solve(mat, np.append(rhs, 0.0))[:size]

    boundary_term = problem.f0 - (-1.0) ** m * problem.f1
    source_term = integrate(CoefficientSeries(grid, k * kernel)) / (m * math.pi)
    residual = abs(boundary_term - source_term)
    return ModeSolution(
        CoefficientSeries(grid, f),
        resonant=True,
        multiple=m,
        boundary_term=boundary_term,
        source_term=source_term,
        compat_residual=residual,
        compatible=residual < COMPAT_TOL,
    )


@dataclass(frozen=True)
class _Frame:
    """Propagation state in the orientation that keeps A > 0.

    Each stored order keeps L' and, stacked in `factors`, the four factors K1 takes
    from it: -Lap L (zero-padded to n + 1 rows), L'' and the x and y gradients of L'.
    """

    grid: TimeGrid
    path2: SecondJetPath
    swapped: bool
    eps: float
    A: np.ndarray
    Z: np.ndarray
    orders: dict[int, np.ndarray] = field(default_factory=dict)
    dots: dict[int, np.ndarray] = field(default_factory=dict)
    factors: dict[int, np.ndarray] = field(default_factory=dict)
    k1: dict[int, np.ndarray] = field(default_factory=dict)

    def store(self, order: int, mat: np.ndarray) -> None:
        """Keep an order with its first time derivative and its K1 factors."""
        dt = self.grid.diff_matrix.T
        n = order // 2
        dot = mat @ dt
        # row r holds x^(2n-2r) y^(2r); d/dx and d/dy weigh it by 2n-2r and 2r
        weights = 2.0 * np.arange(n + 1)[:, None]
        factors = np.zeros((4, n + 1, self.grid.node_count))
        factors[0, :n] = -_laplacian_rows(mat, n)
        factors[1] = dot @ dt
        factors[2] = dot * weights[::-1]
        factors[3] = dot * weights
        self.orders[order], self.dots[order], self.factors[order] = mat, dot, factors

    def source(self, order: int) -> np.ndarray:
        """K1 of `order` divided by 1 + 2a + 2b, formed on first request."""
        if order not in self.k1:
            self.k1[order] = _k1_divided(self, order)
        return self.k1[order]

    def orient(self, coeffs: np.ndarray) -> np.ndarray:
        """Axis 0 (basis index) reversed if the frame swaps x and y; reversal is its own
        inverse, so this maps the caller's coefficients to the frame's and back."""
        return coeffs[::-1] if self.swapped else coeffs


def _make_frame(path2: SecondJetPath, orders: dict | None = None) -> _Frame:
    """The frame of `path2`, holding `orders` (lists of series) if given."""
    if path2.causal_class is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(
            f"propagation needs a space-like second-jet path, got {path2.causal_class.value}"
        )
    frame = _Frame(
        grid=path2.grid,
        path2=path2,
        swapped=path2.swapped_axes,
        eps=path2.epsilon,
        A=path2.A.values,
        Z=1.0 + 2.0 * path2.a.values + 2.0 * path2.b.values,
    )
    for order, series_list in (orders or {}).items():
        frame.store(order, frame.orient(np.vstack([s.values for s in series_list])))
    return frame


def _normalize_jets(jets: dict, what: str) -> dict[int, np.ndarray]:
    out = {}
    for order, coeffs in jets.items():
        order = int(order)
        if order < 2 or order % 2:
            raise ValueError(f"{what} jets must come in even orders >= 2, got {order}")
        vec = np.asarray(coeffs, dtype=float)
        if vec.shape != (order // 2 + 1,):
            raise ValueError(
                f"{what} order-{order} jet needs {order // 2 + 1} coefficients, got {vec.shape}"
            )
        out[order] = vec
    if 2 not in out:
        raise ValueError(f"{what} jets must include order 2")
    return out


def _laplacian_rows(c: np.ndarray, d: int) -> np.ndarray:
    """Laplacian of a degree-2d even-even coefficient matrix (rows by y half)."""
    q = np.arange(d)[:, None]
    jx, ky = 2 * (d - q), 2 * (q + 1)
    return c[:-1] * jx * (jx - 1) + c[1:] * ky * (ky - 1)


def _k1_divided(frame: _Frame, order: int) -> np.ndarray:
    """Degree-`order` part of (-(Lap L) L'' + |grad L'|^2) / (1 + 2a + 2b).

    Only pairs of stored orders 4..order-2 contribute; the 2-jet factors are
    already accounted for on the left side of the divided equation.  A pair
    of orders (2i, 2j), i + j = n + 1, stacks its three factor pairs (-Lap L_2i
    with L_2j'', and the x and y gradients of L_2i' with L_2j') into one row
    convolution.  The pairs are added in turn, which fixes K1 to the last bit:
    the hierarchy amplifies a last-bit change about a millionfold by order 20.
    """
    n = order // 2
    out = np.zeros((n + 1, frame.grid.node_count))
    for i in range(2, n):
        fi, fj = frame.factors.get(2 * i), frame.factors.get(2 * (n + 1 - i))
        if fi is not None and fj is not None:
            left, right = fi[[0, 2, 3]], fj[1:]
            conv = np.zeros((3, n + 2, frame.grid.node_count))
            for r in range(i + 1):
                conv[:, r:r + n + 2 - i] += left[:, r, None] * right
            out += conv[0, :-1]
            out += conv[1, :-1]
            out += conv[2, 1:]  # y^(2r-1) y^(2s-1) is row r + s - 1
    return out / frame.Z


def source_K1(lower: JetHierarchy, order: int) -> list[CoefficientSeries]:
    """Divided source of the degree-`order` jet equation from lower orders."""
    if order < 4 or order % 2:
        raise ValueError(f"source order must be even and >= 4, got {order}")
    frame = lower._frame
    return [CoefficientSeries(lower.grid, row) for row in frame.orient(frame.source(order))]


def _mode_sources(frame: _Frame, order: int):
    """U diagonal per node and K1 in the q basis of one order."""
    n = order // 2
    u_nodes = u_eigenvalues(n, frame.A)
    return u_nodes, q_adjoint(n) @ (frame.source(order) / u_nodes)


def order_residual(hier: JetHierarchy, order: int) -> float:
    """Max nodewise residual of the divided degree-`order` vector equation."""
    if order not in hier.orders:
        raise ValueError(f"order {order} is not stored in the hierarchy")
    frame = hier._frame
    n = order // 2
    ddot = frame.factors[order][1]
    lhs = ddot + 4.0 * frame.eps**2 * apply_EA(n, frame.A, frame.orders[order]) \
        - 4.0 * frame.eps * apply_SA(n, frame.A, frame.dots[order])
    return float(np.max(np.abs(lhs - frame.source(order))))


def propagate(phi0_jets: dict, phi1_jets: dict, max_order: int, grid: TimeGrid):
    """Propagate jets up to max_order; stop with a report at a resonance.

    phi0_jets and phi1_jets map even orders to even-even monomial coefficient
    vectors (index i holds the x^(2m-2i) y^(2i) coefficient of the degree-2m
    part).  Returns a JetHierarchy, or an ObstructionReport when a mode of
    some order is resonant.  Mode k's operator is classified and factored once
    per call and serves every order >= 2k, since its lam = 16 eps^2 k^2.
    """
    if max_order < 4 or max_order % 2:
        raise ValueError(f"max_order must be even and >= 4, got {max_order}")
    jets0 = _normalize_jets(phi0_jets, "phi0")
    jets1 = _normalize_jets(phi1_jets, "phi1")
    path2 = solve_bvp(SecondJetBoundary(*jets0[2], *jets1[2]), grid)
    frame = _make_frame(path2)
    operators = ModeOperators(grid)

    beyond: list[int] = []
    warnings: list[tuple[int, int]] = []
    for order in range(4, max_order + 1, 2):
        n = order // 2
        p0 = frame.orient(jets0.get(order, np.zeros(n + 1)))
        p1 = frame.orient(jets1.get(order, np.zeros(n + 1)))
        u_nodes, k_modes = _mode_sources(frame, order)
        f0 = q_adjoint(n) @ (p0 / u_nodes[:, 0])
        f1 = q_adjoint(n) @ (p1 / u_nodes[:, -1])

        f_rows = np.empty_like(k_modes)
        for mode in range(n + 1):
            lam = 16.0 * frame.eps**2 * mode**2
            problem = ModeProblem(lam, CoefficientSeries(grid, k_modes[mode]), f0[mode], f1[mode])
            sol = solve_mode(problem, grid, operators)
            if sol.resonant:
                if mode != n:
                    raise ConsistencyError(
                        f"mode {mode} of order {order} resonated after its own order"
                    )
                return _resonant_report(
                    frame, order, k_modes[mode], p0, p1, sol.multiple, tuple(warnings)
                )
            if sol.near_resonance:
                warnings.append((order, mode))
            f_rows[mode] = sol.values.values
        frame.store(order, u_nodes * (q_matrix(n) @ f_rows))
        if 4.0 * frame.eps * n > math.pi + RESONANCE_TOL:
            beyond.append(order)

    orders = {order: [CoefficientSeries(grid, row) for row in frame.orient(mat)]
              for order, mat in frame.orders.items()}
    hier = JetHierarchy(path2, orders, tuple(beyond), tuple(warnings))
    hier.__dict__["_frame"] = frame  # seeds the `_frame` memo with this frame, K1 included
    return hier


def _resonant_report(frame, order, k_top, p0, p1, multiple, warnings) -> ObstructionReport:
    n, fact = order // 2, fischer_weights(order // 2)
    w0, w1 = d_weights(n, frame.A[0]), d_weights(n, frame.A[-1])
    sign = -((-1.0) ** multiple)
    lhs = math.fsum(w0 * fact * p0) + sign * math.fsum(w1 * fact * p1)
    kernel = np.sin(multiple * math.pi * frame.grid.nodes)
    K = integrate(CoefficientSeries(frame.grid, k_top * kernel)) / (multiple * math.pi)
    residual = abs(lhs - K)
    return ObstructionReport(
        resonant_order=order,
        u=frame.orient(w0),
        v=frame.orient(w1),
        K=K,
        lhs=lhs,
        residual=residual,
        satisfied=residual < COMPAT_TOL,
        epsilon=frame.eps,
        resonant_mode=n,
        multiple=multiple,
        near_resonance_warnings=warnings,
    )


def compatibility_check(
    phi0_order_jets, phi1_order_jets, lower: JetHierarchy, order: int | None = None
) -> ObstructionReport:
    """Obstruction data for the resonant order sitting above `lower`.

    The hierarchy must contain every order below; the top mode of the target
    order must be resonant, otherwise the call is an invalid state.
    """
    if order is None:
        order = max(lower.orders.keys(), default=2) + 2
    n = order // 2
    frame = lower._frame
    mu = 4.0 * frame.eps * n
    multiple = round(mu / math.pi)
    if multiple < 1 or abs(mu - multiple * math.pi) >= RESONANCE_TOL:
        raise ValueError(
            f"order {order} is not resonant: 4*eps*{n} = {mu} is not a multiple of pi"
        )
    p0 = frame.orient(np.asarray(phi0_order_jets, dtype=float))
    p1 = frame.orient(np.asarray(phi1_order_jets, dtype=float))
    if p0.shape != (n + 1,) or p1.shape != (n + 1,):
        raise ValueError(f"order-{order} jets need {n + 1} coefficients")
    k_top = _mode_sources(frame, order)[1][n]
    return _resonant_report(frame, order, k_top, p0, p1, multiple, ())
