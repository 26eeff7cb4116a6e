"""Order-by-order propagation of jets along a space-like second-jet path.

With the second jets a, b solved, the degree-2n part P of the potential
satisfies the divided vector equation

    P'' + 4 eps^2 E_A P - 4 eps S_A P' = K1(L) / (1 + 2a + 2b)

where L collects all lower-order jets and K1(L) is the degree-2n part of
-(Lap L) L'' + |grad L'|^2.  K1 is formed once per order, from factors that
each lower order keeps from when it is stored: a row-major block whose row r
holds L'' and the gradients of L' of monomial r, and the rows of -Lap L.  The
mode solve, the order residual and the compatibility check all read that one
copy.  What the nodes give every order (mu and its resonances, cos(mu t), the
powers of U and the weights of U'/U) is tabled once per propagation, and each
order reads slices of it.  P = U g with g = Q f, f in the eigenbasis q_k,
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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeodesicDomainError, NumericError
from .poly_ops import (
    _check_A, apply_laplacian, d_weights, ea_from_laplacian, fischer_weights, q_adjoint, q_matrix,
)
from .second_jet import CausalClass, SecondJetBoundary, SecondJetPath, solve_bvp
from .timegrid import CoefficientSeries, TimeGrid, _read_only, require_same_grid

RESONANCE_TOL = 1e-9
NEAR_RESONANCE_TOL = 1e-6
# A compatibility residual at most this times the size of the terms it is formed from
# reads as satisfied
COMPAT_TOL = 1e-8
# The saddle 0.1 sin^2 x - 0.1 sin^2 y stops with NumericError at order 246;
# with 1e-6 in place of 0.1 it reaches this order at 64 nodes in about 50 s on a
# 2-core x86 machine, with a 155 MiB peak RSS (222 MiB through the propagate command),
# and the cost grows about as the order cubed.
MAX_ORDER = 400
# The frame keeps 7 (n + 1) N floats for each stored order 2n = 4..max_order on N nodes,
# and node tables of about 7 (max_order / 2 + 2) N.  Peak RSS of propagate and every
# order_residual with the 1e-6 saddle, one BLAS thread: 155 MiB at order 400 on 64 nodes
# (9.1e6 floats) and 457 MiB at order 130 on 2049 nodes (3.2e7), about 14 bytes a float
# over what the grid holds.  So this budget, 3.4e7 floats, keeps a propagation under about
# 0.5 GiB.  The propagate command adds its report: the same two runs peak at 222 and 727 MiB.
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
    """Jets of even degree 4..max solved on top of a space-like 2-jet path.

    Only propagate builds one; it hands over the frame it solved every order in.
    orders[2n] is the read-only (n + 1, N) matrix whose row i holds the
    x^(2n-2i) y^(2i) coefficient over the nodes: the frame's own array, or its
    axis-0 reversal on a swapped frame.
    """

    path2: SecondJetPath
    orders: dict[int, np.ndarray]
    _frame: _Frame = field(repr=False, compare=False)
    beyond_scope_orders: tuple[int, ...] = ()
    near_resonance_warnings: tuple[tuple[int, int], ...] = ()

    @property
    def grid(self) -> TimeGrid:
        return self.path2.grid

    def order_matrix(self, order: int) -> np.ndarray:
        return self.orders[order]

    def _lower_frame(self, order: int) -> _Frame:
        """The frame, if it stores every order 4..`order` - 2 that K1 of `order` reads."""
        top = max(self.orders)
        if order > top + 2:
            raise ValueError(f"order {order} needs orders {list(range(top + 2, order - 1, 2))}, "
                             f"above the top order {top} of the hierarchy")
        return self._frame


@dataclass(frozen=True)
class ObstructionReport:
    """Compatibility data of the resonant order.

    u pairs with the raw derivatives of the t=0 potential and v with the
    t=1 potential; entry i multiplies D_x^(2n-2i) D_y^(2i) phi(0).  satisfied
    holds when the residual |lhs - K| is at most COMPAT_TOL times the sum of the
    absolute terms of both pairings and |K|.
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


def _trig(t: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c = cos(mu t) and s = sin(mu t)/mu as rows, and mu^2 as a column, one per mu.

    s is t sinc(mu t/pi), so mu = 0 needs no branch.
    """
    mu = mu[:, None]
    return np.cos(mu * t), t * np.sinc(mu * t / math.pi), mu**2


def _vary_constants(grid: TimeGrid, c, s, mu2, k, f0, f1, multiple) -> tuple[np.ndarray, np.ndarray]:
    """f and f' of f'' + mu^2 f = k with f(0) = f0, one row per mode; c, s and mu2 from _trig.

    b gives f(1) = f1, or, on a row whose multiple m is positive, where s(1) vanishes, f
    orthogonal to sin(m pi t).  Only those rows form the kernel w sin(m pi t).
    """
    jt = grid.integration_matrix.T
    jc, js = (c * k) @ jt, (s * k) @ jt
    free = f0[:, None] * c + s * jc - c * js
    num, den = f1 - free[:, -1], s[:, -1]
    rows = np.flatnonzero(multiple > 0)
    if rows.size:
        kernel = grid.quad_weights * np.sin(multiple[rows, None] * math.pi * grid.nodes)
        den = den.copy()
        num[rows], den[rows] = -(free[rows] * kernel).sum(1), (s[rows] * kernel).sum(1)
    b = num / den
    f = free + b[:, None] * s
    return f, b[:, None] * c - mu2 * f0[:, None] * s + c * jc + mu2 * s * js


def _source_pairing(grid: TimeGrid, k: np.ndarray, m: int) -> float:
    """(1/(m pi)) int_0^1 k(t) sin(m pi t) dt, the source side of the compatibility condition."""
    return float(grid.quad_weights @ (k * np.sin(m * math.pi * grid.nodes))) / (m * math.pi)


def solve_mode(problem: ModeProblem, grid: TimeGrid) -> ModeSolution:
    """Solve one scalar mode by variation of constants, as propagate solves all modes at once.

    A resonant mode (sqrt(lam) within 1e-9 of m*pi) takes the solution quadrature-orthogonal
    to sin(m pi t); it has f(0) = f0, but f(1) = f1 only for compatible data.  The
    compatibility residual is reported alongside; the data are compatible when it is at
    most COMPAT_TOL times |f0| + |f1| + |source term|.
    """
    require_same_grid(problem.source, grid)
    mu = np.array([math.sqrt(problem.lam)])
    m, resonant, near = _classify(mu)
    k = problem.source.values
    f = _vary_constants(grid, *_trig(grid.nodes, mu), k[None], np.array([problem.f0]),
                        problem.f1, m * resonant)[0]
    values = CoefficientSeries(grid, f[0])
    if not resonant[0]:
        return ModeSolution(values, resonant=False, near_resonance=bool(near[0]))
    m = int(m[0])
    boundary_term = problem.f0 - (-1.0) ** m * problem.f1
    source_term = _source_pairing(grid, k, m)
    residual = abs(boundary_term - source_term)
    scale = abs(problem.f0) + abs(problem.f1) + abs(source_term)
    return ModeSolution(values, resonant=True, multiple=m, boundary_term=boundary_term,
                        source_term=source_term, compat_residual=residual,
                        compatible=residual <= COMPAT_TOL * scale)


@dataclass(frozen=True)
class _NodeTables:
    """The node quantities of one propagation that no order changes, row m = 0..top.

    Order 2n reads rows 0..n of the mode tables: mu = 4 eps m classified by _classify,
    and c, s and mu^2 from _trig.  Monomial i = x^(2n-2i) y^(2i) has exponents 2n - 2i and
    2i, so it pairs row n - i of an x table with row i of a y table: the diagonal of U is
    x_powers[n::-1] * y_powers[:n + 1], with (A^2 + 1)^m and (1 + A^-2)^m the factors
    u_eigenvalues multiplies, and U'/U and its derivative come from 2m A, 2m/A, 2m/A^2
    and 4 eps^2 (1 + A^2) as u_log_derivative forms them.  Each slice is the same operation
    on the same operands as the per-order form, so it has the same bits.
    """

    eps: float
    multiple: np.ndarray
    resonant: np.ndarray
    near: np.ndarray
    cos: np.ndarray
    sinc: np.ndarray
    mu2: np.ndarray
    two_m: np.ndarray
    x_powers: np.ndarray
    y_powers: np.ndarray
    x_weights: np.ndarray
    y_weights: np.ndarray
    y_curvatures: np.ndarray
    dell_scale: np.ndarray

    def trig(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """c, s and mu^2 of modes 0..n."""
        return self.cos[:n + 1], self.sinc[:n + 1], self.mu2[:n + 1]

    def u(self, n: int) -> np.ndarray:
        """u_eigenvalues(n, A)."""
        return self.x_powers[n::-1] * self.y_powers[:n + 1]

    def sa(self, n: int) -> np.ndarray:
        """A x d_x - A^-1 y d_y on the degree-2n monomials, as apply_SA weighs them."""
        return self.x_weights[n::-1] - self.y_weights[:n + 1]

    def log_derivative(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """u_log_derivative(n, A, eps)."""
        return (2.0 * self.eps * self.sa(n),
                self.dell_scale * (self.two_m[n::-1] + self.y_curvatures[:n + 1]))


def _node_tables(grid: TimeGrid, A: np.ndarray, eps: float, top: int) -> _NodeTables:
    """The read-only node tables of rows 0..top along A."""
    A = _check_A(A)
    m = np.arange(top + 1.0)[:, None]
    two_m = 2.0 * m
    mu = 4.0 * eps * np.arange(top + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _NodeTables(
            eps, *_classify(mu), *_trig(grid.nodes, mu), two_m,
            x_powers=(A * A + 1.0) ** m, y_powers=(1.0 + A ** -2.0) ** m,
            x_weights=A * two_m, y_weights=two_m / A, y_curvatures=two_m / (A * A),
            dell_scale=4.0 * eps**2 * (1.0 + A * A))
    for table in vars(tables).values():
        if isinstance(table, np.ndarray):
            _read_only(table)
    return tables


@dataclass(frozen=True)
class _Frame:
    """Propagation state in the orientation that keeps A > 0.

    `tables` holds what every order reads of the nodes, formed once per propagation for
    the orders up to two above its top, which compatibility_check may reach.
    Each stored order keeps L', and for K1 an (n + 1, 3, N) block `factors` whose row r
    is [L'', d_x L', d_y L'] of monomial r, and the (n + 1, N) rows -Lap L, zero-padded in
    row n.  So K1 adds contiguous windows of whole rows; the order residual reads L'' and
    -Lap L from these too.  With L, L' and K1, that is 7 (n + 1) N floats an order.
    What it stores, and each K1 it forms, is read-only, so that no caller handed a view
    of it can change a later order or a compatibility pairing.
    A resonant order keeps its top mode's source, which every compatibility check reads.
    """

    grid: TimeGrid
    swapped: bool
    eps: float
    A: np.ndarray
    Z: np.ndarray
    tables: _NodeTables
    orders: dict[int, np.ndarray] = field(default_factory=dict)
    dots: dict[int, np.ndarray] = field(default_factory=dict)
    factors: dict[int, np.ndarray] = field(default_factory=dict)
    neg_laps: dict[int, np.ndarray] = field(default_factory=dict)
    k1: dict[int, np.ndarray] = field(default_factory=dict)
    top_sources: dict[int, np.ndarray] = field(default_factory=dict)

    def store(self, order: int, mat: np.ndarray, dot: np.ndarray, ddot: np.ndarray) -> None:
        """Keep an order with its first time derivative and its K1 factors."""
        n = order // 2
        # row r holds x^(2n-2r) y^(2r); d/dx and d/dy weigh it by 2n-2r and 2r
        weights = self.tables.two_m
        factors = np.empty((n + 1, 3, self.grid.node_count))
        factors[:, 0] = ddot
        factors[:, 1] = dot * weights[n::-1]
        factors[:, 2] = dot * weights[:n + 1]
        neg_lap = np.zeros((n + 1, self.grid.node_count))
        neg_lap[:n] = -apply_laplacian(n, mat)
        self.orders[order], self.dots[order] = _read_only(mat), _read_only(dot)
        self.factors[order], self.neg_laps[order] = _read_only(factors), _read_only(neg_lap)

    def source(self, order: int) -> np.ndarray:
        """K1 of `order` divided by 1 + 2a + 2b, formed on first request."""
        if order not in self.k1:
            self.k1[order] = _read_only(_k1_divided(self, order))
        return self.k1[order]

    def top_source(self, order: int) -> np.ndarray:
        """The top mode of K1 in the q basis, formed on first request; NumericError if not finite."""
        if order not in self.top_sources:
            self.top_sources[order] = _finite_mode_sources(self, order)[1][-1]
        return self.top_sources[order]

    def orient(self, coeffs: np.ndarray) -> np.ndarray:
        """Axis 0 (basis index) reversed if the frame swaps x and y, to the frame and back."""
        return coeffs[::-1] if self.swapped else coeffs


def _make_frame(path2: SecondJetPath, max_order: int) -> _Frame:
    """The empty frame of a space-like `path2`, with the node tables of orders up to max_order + 2."""
    A = path2.A.values
    return _Frame(grid=path2.grid, swapped=path2.swapped_axes, eps=path2.epsilon, A=A,
                  Z=1.0 + 2.0 * path2.a.values + 2.0 * path2.b.values,
                  tables=_node_tables(path2.grid, A, path2.epsilon, max_order // 2 + 1))


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

    Only pairs of orders 4..order-2, all stored, contribute; the 2-jet factors are
    already accounted for on the left side of the divided equation.  A pair
    of orders (2i, 2j), i + j = n + 1, convolves the rows of a left block
    [-Lap L_2i, d_x L_2i', d_y L_2i'], built per pair, with the stored block
    [L_2j'', d_x L_2j', d_y L_2j'] into an (n + 2, 3, N) buffer: each term adds one
    row-major block into the contiguous window of rows start..start + width.  The pairs
    are added in turn, and within a pair each output row adds its terms with the left
    row r rising, which fixes K1 to the last bit: the hierarchy amplifies a last-bit
    change about a millionfold by order 20.  The loop runs over the shorter factor's
    rows; over the right factor's rows s it runs falling, so that r = row - s still rises.
    """
    n = order // 2
    nodes = frame.grid.node_count
    out = np.zeros((n + 1, nodes))
    conv, tmp = np.empty((2, n + 2, 3, nodes))
    for i in range(2, n):
        left = np.empty((i + 1, 3, nodes))
        left[:, 0] = frame.neg_laps[2 * i]
        left[:, 1:] = frame.factors[2 * i][:, 1:]
        right = frame.factors[2 * (n + 1 - i)]
        short, long, starts = (left, right, range(i + 1)) if i <= n + 1 - i \
            else (right, left, range(n + 1 - i, -1, -1))
        width = len(long)
        conv.fill(0.0)
        for start in starts:
            window = conv[start:start + width]
            np.add(window, np.multiply(short[start], long, out=tmp[:width]), out=window)
        out += conv[:-1, 0]
        out += conv[:-1, 1]
        out += conv[1:, 2]  # y^(2r-1) y^(2s-1) is row r + s - 1
    return out / frame.Z


def source_K1(lower: JetHierarchy, order: int) -> np.ndarray:
    """Divided source of the degree-`order` jet equation from lower orders.

    A read-only (n + 1, N) view of the memoised K1, rows ordered as in `lower.orders`.

    `order` may be at most two above the top order of `lower`; ValueError otherwise.
    """
    if order < 4 or order % 2:
        raise ValueError(f"source order must be even and >= 4, got {order}")
    frame = lower._lower_frame(order)
    return frame.orient(frame.source(order))


def _finite_mode_sources(frame: _Frame, order: int):
    """U diagonal per node and K1 in the q basis of one order; NumericError if not finite."""
    n = order // 2
    with np.errstate(over="ignore", invalid="ignore"):
        u_nodes = frame.tables.u(n)
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
    lap = -frame.neg_laps[order][:-1]
    lhs = frame.factors[order][:, 0] + 4.0 * frame.eps**2 * ea_from_laplacian(frame.A, lap) \
        - 4.0 * frame.eps * (frame.tables.sa(n) * frame.dots[order])
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
    if boundary.causal_class is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(
            f"propagation needs a space-like second-jet path, got {boundary.causal_class.value}"
        )
    path2 = solve_bvp(boundary, grid)
    frame = _make_frame(path2, max_order)
    tables = frame.tables

    beyond: list[int] = []
    warnings: list[tuple[int, int]] = []
    for order in range(4, max_order + 1, 2):
        n = order // 2
        p0 = frame.orient(jets0.get(order, np.zeros(n + 1)))
        p1 = frame.orient(jets1.get(order, np.zeros(n + 1)))
        warnings.extend((order, int(mode)) for mode in np.flatnonzero(tables.near[:n + 1]))
        if tables.resonant[:n + 1].any():  # a resonant top mode is reported, a lower one refused
            return _compatibility(frame, order, p0, p1, tuple(warnings))
        u_nodes, k_modes = _finite_mode_sources(frame, order)
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = q_adjoint(n) @ (p0 / u_nodes[:, 0])
            f1 = q_adjoint(n) @ (p1 / u_nodes[:, -1])
            c, s, mu2 = tables.trig(n)
            f, df = _vary_constants(grid, c, s, mu2, k_modes, f0, f1, np.zeros(n + 1, int))
            qm, (ell, dell) = q_matrix(n), tables.log_derivative(n)
            g, dg, ddg = qm @ f, qm @ df, qm @ (k_modes - mu2 * f)
            derivs = (u_nodes * g, u_nodes * (dg + ell * g),
                      u_nodes * (ddg + 2.0 * ell * dg + (ell * ell + dell) * g))
            if not all(np.isfinite(d).all() for d in derivs):
                raise NumericError(f"the solution of order {order} is not finite")
            frame.store(order, *derivs)
        if 4.0 * frame.eps * n > math.pi + RESONANCE_TOL:
            beyond.append(order)

    orders = {order: frame.orient(mat) for order, mat in frame.orders.items()}
    return JetHierarchy(path2, orders, frame, tuple(beyond), tuple(warnings))


def _compatibility(frame: _Frame, order: int, p0, p1, warnings) -> ObstructionReport:
    """Obstruction data of `order`, whose top mode must resonate.  No lower mode can:
    mode k tops order 2k, where propagate stops.  A K1 that is not finite is a NumericError."""
    n = order // 2
    if not frame.tables.resonant[n]:
        raise ValueError(
            f"order {order} is not resonant: 4*eps*{n} = {4.0 * frame.eps * n} "
            "is not a multiple of pi"
        )
    k_top, m = frame.top_source(order), int(frame.tables.multiple[n])
    fact, w0, w1 = fischer_weights(n), d_weights(n, frame.A[0]), d_weights(n, frame.A[-1])
    terms0, terms1 = w0 * fact * p0, w1 * fact * p1
    lhs = math.fsum(terms0) - (-1.0) ** m * math.fsum(terms1)
    K = _source_pairing(frame.grid, k_top, m)
    residual = abs(lhs - K)
    scale = math.fsum(np.abs(terms0)) + math.fsum(np.abs(terms1)) + abs(K)
    return ObstructionReport(
        resonant_order=order, u=frame.orient(w0), v=frame.orient(w1), K=K, lhs=lhs,
        residual=residual, satisfied=residual <= COMPAT_TOL * scale, epsilon=frame.eps,
        resonant_mode=n, multiple=m, near_resonance_warnings=warnings,
    )


def compatibility_check(
    phi0_order_jets, phi1_order_jets, lower: JetHierarchy, order: int | None = None
) -> ObstructionReport:
    """Obstruction data for the resonant order sitting above `lower`.

    `order` defaults to, and may be at most, two above the top order of `lower`,
    and its top mode must be resonant; ValueError otherwise.  As in propagate, a
    K1 source that is not finite raises NumericError.
    """
    if order is None:
        order = max(lower.orders) + 2
    n = order // 2
    frame = lower._lower_frame(order)
    p0 = frame.orient(np.asarray(phi0_order_jets, dtype=float))
    p1 = frame.orient(np.asarray(phi1_order_jets, dtype=float))
    if p0.shape != (n + 1,) or p1.shape != (n + 1,):
        raise ValueError(f"order-{order} jets need {n + 1} coefficients")
    return _compatibility(frame, order, p0, p1, ())
