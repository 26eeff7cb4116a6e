"""Order-by-order propagation of jets along a space-like second-jet path.

With the second jets a, b solved, the degree-2n part P of the potential
satisfies the divided vector equation

    P'' + 4 eps^2 E_A P - 4 eps S_A P' = K1(L) / (1 + 2a + 2b)

where L collects all lower-order jets and K1(L) is the degree-2n part of
-(Lap L) L'' + |grad L'|^2.  K1 is formed once per order, from factors that
each lower order keeps from when it is stored: a row-major block whose row r
holds L'' and the gradients of L' of monomial r, and the rows of -Lap L.  The
mode solve, the order residual and the compatibility check all read that one
copy.  What the nodes give every order (mu and its resonances, cos(mu t), and
poly_ops' node tables of U and U'/U) is tabled once per propagation, and each
order reads slices of it.  That state is the JetHierarchy propagate returns.
P = U g with g = Q f, f in the eigenbasis q_k, decouples the system into scalar
Dirichlet problems

    f_k'' + mu_k^2 f_k = k_k(t),    mu_k = 4 |eps| k,    k = 0..n,

all solved at once by variation of constants on the grid (Greengard, SIAM J.
Numer. Anal. 28, 1991).  With c = cos(mu t), s = sin(mu t)/mu and the grid's
integration matrix J, f = f0 c + b s + s J(c k) - c J(s k) with b fixed by f(1),
f' = b c - mu^2 f0 s + c J(c k) + mu^2 s J(s k) and f'' = k - mu^2 f.  Along
A = tan(2 eps t + theta0), U'/U = l = 2 eps S_A, so P' = U (g' + l g) and
P'' = U (g'' + 2 l g' + (l^2 + l') g): no solved order is differentiated.  Every
order is solved in the caller's axes: eps takes the sign of a' = eps A (1 + 2a + 2b).

A mode with mu a positive multiple m*pi of pi is resonant: s(1) vanishes, and
the Dirichlet problem is solvable only under the compatibility condition

    f(0) - (-1)^m f(1) = (1/(m pi)) * int_0^1 k_k(t) sin(m pi t) dt,

which translates into a linear pairing of the order-2n boundary derivatives
with the weights of the D operator, exact at the ends; the source side pairs K1
with D's float weights at every node.  Propagation stops there and reports the
obstruction data instead of a hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeodesicDomainError, NumericError
from .poly_ops import NodeTables, apply_laplacian, d_weights, ea_from_laplacian, node_tables
from .poly_ops import q_adjoint, q_matrix
from .second_jet import CausalClass, SecondJetBoundary, SecondJetPath, solve_bvp
from .timegrid import CoefficientSeries, TimeGrid, _read_only, require_same_grid

RESONANCE_TOL = 1e-9
NEAR_RESONANCE_TOL = 1e-6
# A compatibility residual at most this times the size of the terms it is formed from
# reads as satisfied
COMPAT_TOL = 1e-8
# The saddle 0.1 sin^2 x - 0.1 sin^2 y stops with NumericError at order 246;
# with 1e-6 in place of 0.1 it reaches this order at 64 nodes in about 50 s on a
# 2-core x86 machine, with a 156 MiB peak RSS (the same through the propagate command,
# which streams its report), and the cost grows about as the order cubed.
MAX_ORDER = 400
# The hierarchy, which is the frame, keeps 7 (n + 1) N floats for each stored order 2n on N
# nodes, and poly_ops' and the modes' tables of about 7 (max_order / 2 + 2) N.  Peak RSS of
# propagate and every order_residual with the 1e-6 saddle, one BLAS thread: 156 MiB at order
# 400 on 64 nodes (9.1e6 floats) and 424 MiB at order 130 on 2049 nodes (3.2e7), 12 to 14
# bytes a float over what the grid holds.  So this budget, 3.4e7 floats, keeps a propagation
# under about 0.5 GiB.  The propagate command streams its report an order at a time, so it
# adds little: the same two runs peak at 156 and 425 MiB through it (its 145 MB report included).
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
class ObstructionReport:
    """Compatibility data of the resonant order.

    u pairs with the order-2n jet of the t=0 potential and v with the t=1
    potential: entry i multiplies the x^(2n-2i) y^(2i) coefficient, and is that
    monomial at the point (X, Y) of d_weights.  satisfied
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
class JetHierarchy:
    """Jets of even degree 4..max solved on top of a space-like 2-jet path, and the state
    they were solved in: the caller's axes, along A and eps with a'/(1 + 2a + 2b) = eps A.

    Only propagate builds one, through _make_frame, and fills it order by order.
    orders[2n] is a read-only (n + 1, N) matrix whose row i holds the x^(2n-2i) y^(2i)
    coefficient over the nodes.
    What the nodes give every order is formed once per propagation, in rows m = 0..top
    for the orders up to two above its top, the one compatibility_check answers:
    poly_ops' `tables`, mu = 4 eps m classified by _classify, and `waves`, c, s and mu^2.
    Each stored order keeps L', and for K1 an (n + 1, 3, N) block `factors` whose row r
    is [L'', d_x L', d_y L'] of monomial r, and the (n + 1, N) rows -Lap L, zero-padded in
    row n.  So K1 adds contiguous windows of whole rows; the order residual reads L'' and
    -Lap L from these too.  With L, L' and K1, that is 7 (n + 1) N floats an order.
    What it stores, and each K1 it forms, is read-only, so that no caller handed a view
    of it can change a later order or a compatibility pairing.
    A resonant order keeps D's end weights and its K, which every compatibility check reads.
    """

    path2: SecondJetPath
    eps: float
    A: np.ndarray
    Z: np.ndarray
    tables: NodeTables
    multiple: np.ndarray
    resonant: np.ndarray
    waves: tuple[np.ndarray, np.ndarray, np.ndarray]
    beyond_scope_orders: tuple[int, ...]
    near_resonance_warnings: tuple[tuple[int, int], ...]
    orders: dict[int, np.ndarray] = field(default_factory=dict)
    dots: dict[int, np.ndarray] = field(default_factory=dict)
    factors: dict[int, np.ndarray] = field(default_factory=dict)
    neg_laps: dict[int, np.ndarray] = field(default_factory=dict)
    k1: dict[int, np.ndarray] = field(default_factory=dict)
    pairings: dict[int, tuple[np.ndarray, np.ndarray, float]] = field(default_factory=dict)

    @property
    def grid(self) -> TimeGrid:
        return self.path2.grid

    def order_matrix(self, order: int) -> np.ndarray:
        return self.orders[order]

    def _require_reach(self, order: int) -> None:
        """ValueError unless every order 4..`order` - 2 that K1 of `order` reads is stored."""
        top = max(self.orders)
        if order > top + 2:
            raise ValueError(f"order {order} needs orders {list(range(top + 2, order - 1, 2))}, "
                             f"above the top order {top} of the hierarchy")

    def store(self, order: int, mat: np.ndarray, dot: np.ndarray, ddot: np.ndarray) -> None:
        """Keep an order with its first time derivative and its K1 factors."""
        n = order // 2
        # row r holds x^(2n-2r) y^(2r); d/dx and d/dy weigh it by 2n-2r and 2r
        factors = np.empty((n + 1, 3, self.grid.node_count))
        factors[:, 0] = ddot
        factors[:, 1] = dot * self.tables.two_m[n::-1]
        factors[:, 2] = dot * self.tables.two_m[:n + 1]
        neg_lap = np.zeros((n + 1, self.grid.node_count))
        neg_lap[:n] = -apply_laplacian(n, mat)
        self.orders[order], self.dots[order] = _read_only(mat), _read_only(dot)
        self.factors[order], self.neg_laps[order] = _read_only(factors), _read_only(neg_lap)

    def source(self, order: int) -> np.ndarray:
        """K1 of `order` divided by 1 + 2a + 2b, formed on first request."""
        if order not in self.k1:
            self.k1[order] = _read_only(_k1_divided(self, order))
        return self.k1[order]

    def pairing(self, order: int) -> tuple[np.ndarray, np.ndarray, float]:
        """D's exact weights at t = 0 and 1 and the source integral K, which pairs K1 with
        D's float weights at every node; formed on first request, NumericError if not finite."""
        if order not in self.pairings:
            n = order // 2
            with np.errstate(over="ignore", invalid="ignore"):
                k_top = (self.tables.d(n) * self.source(order)).sum(0)
            if not np.isfinite(k_top).all():
                raise NumericError(f"the K1 source of order {order} is not finite")
            K = _source_pairing(self.grid, k_top, int(self.multiple[n]))
            self.pairings[order] = (d_weights(n, self.A[0]), d_weights(n, self.A[-1]), K)
        return self.pairings[order]


def _make_frame(path2: SecondJetPath, max_order: int) -> JetHierarchy:
    """The empty hierarchy of a space-like `path2`, with the node tables of orders up to
    max_order + 2, and the orders 4..max_order beyond scope or with near-resonant modes.
    The one reader of orientation: a path whose a falls has b' = eps A Z, so it runs on 1/A and
    -eps, since swapping x and y maps E_A to E_(1/A), S_A to -S_(1/A), U's diagonal to its reversal
    and q_k to (-1)^(n-k) q_k.  1/A past the float range is a NumericError."""
    top = max_order // 2 + 1
    mu = 4.0 * path2.epsilon * np.arange(top + 1)
    waves = tuple(map(_read_only, _trig(path2.grid.nodes, mu)))
    multiple, resonant, near = map(_read_only, _classify(mu))
    beyond = tuple(2 * n for n in range(2, top) if mu[n] > math.pi + RESONANCE_TOL)
    near_modes = np.flatnonzero(near).tolist()
    warnings = tuple((2 * n, k) for n in range(2, top) for k in near_modes if k <= n)
    A, eps = path2.A.values, path2.epsilon
    if path2.swapped_axes:
        with np.errstate(over="ignore"):
            A, eps = _read_only(1.0 / A), -eps
        if not np.isfinite(A).all():
            raise NumericError("1/A of the 2-jet path is past the float range")
    return JetHierarchy(path2, eps, A, path2.Z, node_tables(A, top), multiple, resonant, waves,
                        beyond, warnings)


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


def _k1_divided(hier: JetHierarchy, order: int) -> np.ndarray:
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
    nodes = hier.grid.node_count
    out = np.zeros((n + 1, nodes))
    conv, tmp = np.empty((2, n + 2, 3, nodes))
    for i in range(2, n):
        left = np.empty((i + 1, 3, nodes))
        left[:, 0] = hier.neg_laps[2 * i]
        left[:, 1:] = hier.factors[2 * i][:, 1:]
        right = hier.factors[2 * (n + 1 - i)]
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
    return out / hier.Z


def source_K1(lower: JetHierarchy, order: int) -> np.ndarray:
    """Divided source of the degree-`order` jet equation from lower orders.

    A read-only (n + 1, N) view of the memoised K1, rows ordered as in `lower.orders`.

    `order` may be at most two above the top order of `lower`; ValueError otherwise.
    """
    if order < 4 or order % 2:
        raise ValueError(f"source order must be even and >= 4, got {order}")
    lower._require_reach(order)
    return lower.source(order)


def _finite_mode_sources(hier: JetHierarchy, order: int):
    """U diagonal per node and K1 in the q basis of one order; NumericError if not finite."""
    n = order // 2
    with np.errstate(over="ignore", invalid="ignore"):
        u_nodes = hier.tables.u(n)
        k_modes = q_adjoint(n) @ (hier.source(order) / u_nodes)
    if not np.isfinite(k_modes).all():
        raise NumericError(f"the K1 source of order {order} is not finite")
    return u_nodes, k_modes


def order_residual(hier: JetHierarchy, order: int) -> float:
    """Max nodewise residual of the divided degree-`order` vector equation."""
    if order not in hier.orders:
        raise ValueError(f"order {order} is not stored in the hierarchy")
    n = order // 2
    lap = -hier.neg_laps[order][:-1]
    lhs = hier.factors[order][:, 0] + 4.0 * hier.eps**2 * ea_from_laplacian(hier.A, lap) \
        - 4.0 * hier.eps * (hier.tables.sa(n) * hier.dots[order])
    return float(np.max(np.abs(lhs - hier.source(order))))


def propagate(phi0_jets: dict, phi1_jets: dict, max_order: int, grid: TimeGrid):
    """Propagate jets up to max_order; stop with a report at a resonance.

    phi0_jets and phi1_jets map even orders to even-even monomial coefficient
    vectors (index i holds the x^(2m-2i) y^(2i) coefficient of the degree-2m
    part).  Returns a JetHierarchy, or an ObstructionReport when a mode of
    some order is resonant.  The 2-jets are classified before they are solved,
    and boundary jets that are not space-like raise GeodesicDomainError.  The
    modes of every order are classified from mu = 4 eps k first; a resonant top
    mode goes to the report unsolved, and otherwise one variation-of-constants call
    solves all n + 1 modes.  An order whose K1 or solution is not finite stops
    the propagation with NumericError.  A max_order whose hierarchy on the grid
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
    hier = _make_frame(path2, max_order)
    # the first order whose modes include a resonant one; a resonant top mode is reported,
    # a lower one refused
    resonant = np.flatnonzero(hier.resonant[:max_order // 2 + 1])
    stop = max(4, 2 * int(resonant[0])) if resonant.size else None
    for order in range(4, (stop or max_order) + 1, 2):
        n = order // 2
        p0, p1 = jets0.get(order, np.zeros(n + 1)), jets1.get(order, np.zeros(n + 1))
        if order == stop:
            warnings = tuple(w for w in hier.near_resonance_warnings if w[0] <= order)
            return _compatibility(hier, order, p0, p1, warnings)
        u_nodes, k_modes = _finite_mode_sources(hier, order)
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = q_adjoint(n) @ (p0 / u_nodes[:, 0])
            f1 = q_adjoint(n) @ (p1 / u_nodes[:, -1])
            c, s, mu2 = (rows[:n + 1] for rows in hier.waves)
            f, df = _vary_constants(grid, c, s, mu2, k_modes, f0, f1, np.zeros(n + 1, int))
            qm, (ell, dell) = q_matrix(n), hier.tables.log_derivative(n, hier.eps)
            g, dg, ddg = qm @ f, qm @ df, qm @ (k_modes - mu2 * f)
            derivs = (u_nodes * g, u_nodes * (dg + ell * g),
                      u_nodes * (ddg + 2.0 * ell * dg + (ell * ell + dell) * g))
            if not all(np.isfinite(d).all() for d in derivs):
                raise NumericError(f"the solution of order {order} is not finite")
            hier.store(order, *derivs)
    return hier


def _compatibility(hier: JetHierarchy, order: int, p0, p1, warnings) -> ObstructionReport:
    """Obstruction data of `order`, whose top mode must resonate.  No lower mode can:
    mode k tops order 2k, where propagate stops.  A K1 that is not finite is a NumericError."""
    n = order // 2
    if not hier.resonant[n]:
        raise ValueError(
            f"order {order} is not resonant: 4*|eps|*{n} = {4.0 * abs(hier.eps) * n} "
            "is not a multiple of pi"
        )
    w0, w1, K = hier.pairing(order)
    m = int(hier.multiple[n])
    terms0, terms1 = w0 * p0, w1 * p1
    lhs = math.fsum(terms0) - (-1.0) ** m * math.fsum(terms1)
    residual = abs(lhs - K)
    scale = math.fsum(np.abs(terms0)) + math.fsum(np.abs(terms1)) + abs(K)
    return ObstructionReport(
        resonant_order=order, u=w0, v=w1, K=K, lhs=lhs, residual=residual,
        satisfied=residual <= COMPAT_TOL * scale, epsilon=abs(hier.eps), resonant_mode=n,
        multiple=m, near_resonance_warnings=warnings,
    )


def compatibility_check(
    phi0_order_jets, phi1_order_jets, lower: JetHierarchy
) -> ObstructionReport:
    """Obstruction data for the order two above the top order of `lower`.

    That is the one order the check can answer: propagate stops at the first order
    with a resonant mode, so no stored order resonates, and K1 of any higher order
    reads an order `lower` lacks.  Its top mode must be resonant; ValueError
    otherwise.  As in propagate, a K1 source that is not finite raises NumericError.
    """
    order = max(lower.orders) + 2
    n = order // 2
    p0, p1 = np.asarray(phi0_order_jets, dtype=float), np.asarray(phi1_order_jets, dtype=float)
    if p0.shape != (n + 1,) or p1.shape != (n + 1,):
        raise ValueError(f"order-{order} jets need {n + 1} coefficients")
    return _compatibility(lower, order, p0, p1, ())
