"""Order-by-order propagation of jets along a space-like second-jet path.

With the second jets a, b solved, the degree-2n part P of the potential
satisfies the divided vector equation

    P'' + 4 eps^2 E_A P - 4 eps S_A P' = K1(L) / (1 + 2a + 2b)

where L collects all lower-order jets and K1(L) is the degree-2n part of
-(Lap L) L'' + |grad L'|^2.  K1 is formed once per order, from factors that
each lower order keeps from when it is stored (-Lap L, L'' and the gradient
rows of L'); the mode solve, the order residual and the compatibility check
all read that one copy.  P = U g with g = Q f, f in the eigenbasis q_k,
decouples the system into scalar Dirichlet problems

    f_k'' + mu_k^2 f_k = k_k(t),    mu_k = 4 eps k,    k = 0..n,

all solved at once by variation of constants on the grid (Greengard, SIAM J.
Numer. Anal. 28, 1991).  With c = cos(mu t), s = sin(mu t)/mu and the grid's
integration matrix J, f = f0 c + b s + s J(c k) - c J(s k) with b fixed by f(1),
f' = b c - mu^2 f0 s + c J(c k) + mu^2 s J(s k) and f'' = k - mu^2 f.  Along
A = tan(2 eps t + theta0), U'/U = l = 2 eps S_A, so P' = U (g' + l g) and
P'' = U (g'' + 2 l g' + (l^2 + l') g): no solved order is differentiated.

A mode with mu a positive multiple m*pi of pi is resonant: s(1) vanishes, and
the Dirichlet problem is solvable only under the compatibility condition

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

from .errors import ConsistencyError, GeodesicDomainError, NumericError
from .poly_ops import (
    apply_EA, apply_laplacian, apply_SA, d_weights, fischer_weights, q_adjoint, q_matrix,
    u_eigenvalues, u_log_derivative,
)
from .second_jet import CausalClass, SecondJetBoundary, SecondJetPath, solve_bvp
from .timegrid import CoefficientSeries, TimeGrid, integrate, require_same_grid

RESONANCE_TOL = 1e-9
NEAR_RESONANCE_TOL = 1e-6
COMPAT_TOL = 1e-8
# The saddle 0.1 sin^2 x - 0.1 sin^2 y stops with NumericError at order 246;
# with 1e-6 in place of 0.1 it reaches this order at 64 nodes in about 40 s on a
# 2-core x86 machine, with a 250 MiB peak RSS, and the cost grows about as the
# order cubed.
MAX_ORDER = 400
# The frame keeps about 7 (n + 1) N floats for each stored order 2n = 4..max_order on N
# nodes.  Peak RSS with the 1e-6 saddle, one BLAS thread: 188 MiB at order 400 on 64
# nodes (9.1e6 floats), 331 MiB at order 100 on 2049 nodes (1.9e7) and 467 MiB at order
# 130 on 2049 nodes (3.2e7), about 62 MiB plus 14 bytes a float.  So this budget, 3.4e7
# floats, keeps a propagation under about 0.5 GiB.
MAX_FRAME_FLOATS = 2**25


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


def _classify(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, resonant, near) per mu: m*pi is the positive multiple of pi nearest mu, or 0."""
    m = np.round(mu / math.pi).astype(int)
    gap = np.where(m >= 1, np.abs(mu - m * math.pi), math.inf)
    return m, gap < RESONANCE_TOL, (gap >= RESONANCE_TOL) & (gap < NEAR_RESONANCE_TOL)


def _vary_constants(grid: TimeGrid, mu, k, f0, f1, multiple) -> tuple[np.ndarray, np.ndarray]:
    """f and f' of f'' + mu^2 f = k with f(0) = f0, one row per mode.

    s = sin(mu t)/mu is t sinc(mu t/pi), so mu = 0 needs no branch.  b gives f(1) = f1, or,
    on a row whose multiple m is positive, where s(1) vanishes, f orthogonal to sin(m pi t).
    """
    t, jt, mu = grid.nodes, grid.integration_matrix.T, mu[:, None]
    c, s = np.cos(mu * t), t * np.sinc(mu * t / math.pi)
    jc, js = (c * k) @ jt, (s * k) @ jt
    free = f0[:, None] * c + s * jc - c * js
    kernel = grid.quad_weights * np.sin(multiple[:, None] * math.pi * t)
    b = np.where(multiple > 0, -(free * kernel).sum(1), f1 - free[:, -1]) \
        / np.where(multiple > 0, (s * kernel).sum(1), s[:, -1])
    f = free + b[:, None] * s
    return f, b[:, None] * c - mu**2 * f0[:, None] * s + c * jc + mu**2 * s * js


def _source_pairing(grid: TimeGrid, k: np.ndarray, m: int) -> float:
    """(1/(m pi)) int_0^1 k(t) sin(m pi t) dt, the source side of the compatibility condition."""
    return integrate(CoefficientSeries(grid, k * np.sin(m * math.pi * grid.nodes))) / (m * math.pi)


def solve_mode(problem: ModeProblem, grid: TimeGrid) -> ModeSolution:
    """Solve one scalar mode by variation of constants, as propagate solves all modes at once.

    A resonant mode (sqrt(lam) within 1e-9 of m*pi) takes the solution quadrature-orthogonal
    to sin(m pi t); it has f(0) = f0, but f(1) = f1 only for compatible data.  The
    compatibility residual is reported alongside.
    """
    require_same_grid(problem.source, grid)
    mu = np.array([math.sqrt(problem.lam)])
    m, resonant, near = _classify(mu)
    k = problem.source.values
    f = _vary_constants(grid, mu, k[None], np.array([problem.f0]), problem.f1, m * resonant)[0]
    values = CoefficientSeries(grid, f[0])
    if not resonant[0]:
        return ModeSolution(values, resonant=False, near_resonance=bool(near[0]))
    m = int(m[0])
    boundary_term = problem.f0 - (-1.0) ** m * problem.f1
    source_term = _source_pairing(grid, k, m)
    residual = abs(boundary_term - source_term)
    return ModeSolution(values, resonant=True, multiple=m, boundary_term=boundary_term,
                        source_term=source_term, compat_residual=residual,
                        compatible=residual < COMPAT_TOL)


@dataclass(frozen=True)
class _Frame:
    """Propagation state in the orientation that keeps A > 0.

    Each stored order keeps L' and, stacked in `factors`, the four factors K1 takes
    from it: -Lap L (zero-padded to n + 1 rows), L'' and the x and y gradients of L'.
    A resonant order keeps its top mode's source, which every compatibility check reads.
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
    top_sources: dict[int, np.ndarray] = field(default_factory=dict)

    def store(self, order: int, mat: np.ndarray, dot: np.ndarray, ddot: np.ndarray) -> None:
        """Keep an order with its first time derivative and its K1 factors."""
        n = order // 2
        # row r holds x^(2n-2r) y^(2r); d/dx and d/dy weigh it by 2n-2r and 2r
        weights = 2.0 * np.arange(n + 1)[:, None]
        factors = np.zeros((4, n + 1, self.grid.node_count))
        factors[0, :n] = -apply_laplacian(n, mat)
        factors[1] = ddot
        factors[2] = dot * weights[::-1]
        factors[3] = dot * weights
        self.orders[order], self.dots[order], self.factors[order] = mat, dot, factors

    def source(self, order: int) -> np.ndarray:
        """K1 of `order` divided by 1 + 2a + 2b, formed on first request."""
        if order not in self.k1:
            self.k1[order] = _k1_divided(self, order)
        return self.k1[order]

    def top_source(self, order: int) -> np.ndarray:
        """The top mode of K1 in the q basis, formed on first request; NumericError if not finite."""
        if order not in self.top_sources:
            self.top_sources[order] = _finite_mode_sources(self, order)[1][-1]
        return self.top_sources[order]

    def orient(self, coeffs: np.ndarray) -> np.ndarray:
        """Axis 0 (basis index) reversed if the frame swaps x and y, to the frame and back."""
        return coeffs[::-1] if self.swapped else coeffs


def _require_spacelike(cls: CausalClass) -> None:
    if cls is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(
            f"propagation needs a space-like second-jet path, got {cls.value}"
        )


def _make_frame(path2: SecondJetPath, orders: dict | None = None) -> _Frame:
    """The frame of `path2`, holding `orders` (lists of series) if given."""
    _require_spacelike(path2.causal_class)
    frame = _Frame(
        grid=path2.grid, path2=path2, swapped=path2.swapped_axes, eps=path2.epsilon,
        A=path2.A.values, Z=1.0 + 2.0 * path2.a.values + 2.0 * path2.b.values,
    )
    dt = path2.grid.diff_matrix.T
    for order, series_list in (orders or {}).items():
        mat = frame.orient(np.vstack([s.values for s in series_list]))
        dot = mat @ dt  # values are all a hand-built hierarchy has, so D differentiates them
        frame.store(order, mat, dot, dot @ dt)
    return frame


def _normalize_jets(jets: dict, what: str) -> dict[int, np.ndarray]:
    out = {int(order): np.asarray(coeffs, dtype=float) for order, coeffs in jets.items()}
    for order, vec in out.items():
        if order < 2 or order % 2:
            raise ValueError(f"{what} jets must come in even orders >= 2, got {order}")
        if vec.shape != (order // 2 + 1,):
            raise ValueError(
                f"{what} order-{order} jet needs {order // 2 + 1} coefficients, got {vec.shape}"
            )
    if 2 not in out:
        raise ValueError(f"{what} jets must include order 2")
    return out


def _k1_divided(frame: _Frame, order: int) -> np.ndarray:
    """Degree-`order` part of (-(Lap L) L'' + |grad L'|^2) / (1 + 2a + 2b).

    Only pairs of stored orders 4..order-2 contribute; the 2-jet factors are
    already accounted for on the left side of the divided equation.  A pair
    of orders (2i, 2j), i + j = n + 1, stacks its three factor pairs (-Lap L_2i
    with L_2j'', and the x and y gradients of L_2i' with L_2j') into one row
    convolution.  The pairs are added in turn, and within a pair each output
    row adds its terms with the left row r rising, which fixes K1 to the last
    bit: the hierarchy amplifies a last-bit change about a millionfold by
    order 20.  The loop runs over the shorter factor's rows; over the right
    factor's rows s it runs falling, so that r = row - s still rises.
    """
    n = order // 2
    out = np.zeros((n + 1, frame.grid.node_count))
    conv, tmp = np.empty((2, 3, n + 2, frame.grid.node_count))
    for i in range(2, n):
        fi, fj = frame.factors.get(2 * i), frame.factors.get(2 * (n + 1 - i))
        if fi is not None and fj is not None:
            left, right = fi[[0, 2, 3]], fj[1:]
            short, long, starts = (left, right, range(i + 1)) if i <= n + 1 - i \
                else (right, left, range(n + 1 - i, -1, -1))
            width = long.shape[1]
            conv.fill(0.0)
            for start in starts:
                window = conv[:, start:start + width]
                np.add(window, np.multiply(short[:, start, None], long, out=tmp[:, :width]),
                       out=window)
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


def _finite_mode_sources(frame: _Frame, order: int):
    """U diagonal per node and K1 in the q basis of one order; NumericError if not finite."""
    n = order // 2
    with np.errstate(over="ignore", invalid="ignore"):
        u_nodes = u_eigenvalues(n, frame.A)
        k_modes = q_adjoint(n) @ (frame.source(order) / u_nodes)
    if not np.isfinite(k_modes).all():
        raise NumericError(f"the K1 source of order {order} is not finite")
    return u_nodes, k_modes


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
    some order is resonant.  The 2-jets are classified before they are solved,
    and boundary jets that are not space-like raise GeodesicDomainError.  Each
    order's modes are classified from mu = 4 eps k first; a resonant top mode
    goes to the report unsolved, and otherwise one variation-of-constants call
    solves all n + 1 modes.  An order whose K1 or solution is not finite stops
    the propagation with NumericError.  A max_order whose frame on the grid
    would pass MAX_FRAME_FLOATS is refused with ValueError before any allocation.
    """
    if max_order < 4 or max_order % 2:
        raise ValueError(f"max_order must be even and >= 4, got {max_order}")
    if max_order > MAX_ORDER:
        raise ValueError(f"max_order must be <= {MAX_ORDER}, got {max_order}")
    frame_floats = 7 * grid.node_count * sum(range(3, max_order // 2 + 2))
    if frame_floats > MAX_FRAME_FLOATS:
        raise ValueError(
            f"max_order {max_order} on {grid.node_count} nodes needs a frame of about "
            f"{frame_floats} floats, over the budget of {MAX_FRAME_FLOATS}"
        )
    jets0 = _normalize_jets(phi0_jets, "phi0")
    jets1 = _normalize_jets(phi1_jets, "phi1")
    # Python floats, which overflow to inf without a RuntimeWarning
    boundary = SecondJetBoundary(*jets0[2].tolist(), *jets1[2].tolist())
    _require_spacelike(boundary.causal_class)
    path2 = solve_bvp(boundary, grid)
    frame = _make_frame(path2)

    beyond: list[int] = []
    warnings: list[tuple[int, int]] = []
    for order in range(4, max_order + 1, 2):
        n = order // 2
        p0 = frame.orient(jets0.get(order, np.zeros(n + 1)))
        p1 = frame.orient(jets1.get(order, np.zeros(n + 1)))
        mu = 4.0 * frame.eps * np.arange(n + 1)
        _, resonant, near = _classify(mu)
        warnings.extend((order, int(mode)) for mode in np.flatnonzero(near))
        if resonant.any():  # a resonant top mode is reported, a resonant lower one refused
            return _compatibility(frame, order, p0, p1, tuple(warnings))
        u_nodes, k_modes = _finite_mode_sources(frame, order)
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = q_adjoint(n) @ (p0 / u_nodes[:, 0])
            f1 = q_adjoint(n) @ (p1 / u_nodes[:, -1])
            f, df = _vary_constants(grid, mu, k_modes, f0, f1, np.zeros(n + 1, int))
            qm, (ell, dell) = q_matrix(n), u_log_derivative(n, frame.A, frame.eps)
            g, dg, ddg = qm @ f, qm @ df, qm @ (k_modes - mu[:, None] ** 2 * f)
            derivs = (u_nodes * g, u_nodes * (dg + ell * g),
                      u_nodes * (ddg + 2.0 * ell * dg + (ell * ell + dell) * g))
            if not all(np.isfinite(d).all() for d in derivs):
                raise NumericError(f"the solution of order {order} is not finite")
            frame.store(order, *derivs)
        if 4.0 * frame.eps * n > math.pi + RESONANCE_TOL:
            beyond.append(order)

    orders = {order: [CoefficientSeries(grid, row) for row in frame.orient(mat)]
              for order, mat in frame.orders.items()}
    hier = JetHierarchy(path2, orders, tuple(beyond), tuple(warnings))
    hier.__dict__["_frame"] = frame  # seeds the `_frame` memo with this frame, K1 included
    return hier


def _compatibility(frame: _Frame, order: int, p0, p1, warnings) -> ObstructionReport:
    """Obstruction data of `order`, whose top mode must resonate and no lower one:
    mode k tops order 2k, which reports it.  A K1 that is not finite is a NumericError."""
    n = order // 2
    multiple, resonant, _ = _classify(4.0 * frame.eps * np.arange(n + 1))
    if resonant[:n].any():
        raise ConsistencyError(f"a mode of order {order} resonated after its own order")
    if not resonant[n]:
        raise ValueError(
            f"order {order} is not resonant: 4*eps*{n} = {4.0 * frame.eps * n} "
            "is not a multiple of pi"
        )
    k_top, m = frame.top_source(order), int(multiple[n])
    fact, w0, w1 = fischer_weights(n), d_weights(n, frame.A[0]), d_weights(n, frame.A[-1])
    lhs = math.fsum(w0 * fact * p0) - (-1.0) ** m * math.fsum(w1 * fact * p1)
    K = _source_pairing(frame.grid, k_top, m)
    residual = abs(lhs - K)
    return ObstructionReport(
        resonant_order=order, u=frame.orient(w0), v=frame.orient(w1), K=K, lhs=lhs,
        residual=residual, satisfied=residual < COMPAT_TOL, epsilon=frame.eps,
        resonant_mode=n, multiple=m, near_resonance_warnings=warnings,
    )


def compatibility_check(
    phi0_order_jets, phi1_order_jets, lower: JetHierarchy, order: int | None = None
) -> ObstructionReport:
    """Obstruction data for the resonant order sitting above `lower`.

    The hierarchy must contain every order below; the top mode of the target
    order must be resonant, otherwise the call is an invalid state.  The guards
    of propagate's resonant order hold here too: a resonant lower mode raises
    ConsistencyError and a K1 source that is not finite raises NumericError.
    """
    if order is None:
        order = max(lower.orders.keys(), default=2) + 2
    n = order // 2
    frame = lower._frame
    p0 = frame.orient(np.asarray(phi0_order_jets, dtype=float))
    p1 = frame.orient(np.asarray(phi1_order_jets, dtype=float))
    if p0.shape != (n + 1,) or p1.shape != (n + 1,):
        raise ValueError(f"order-{order} jets need {n + 1} coefficients")
    return _compatibility(frame, order, p0, p1, ())
