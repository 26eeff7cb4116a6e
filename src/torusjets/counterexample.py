"""The explicit family of torus potentials with an obstructed top order.

h_n scales sin^2 x - sin^2 y so that the induced second-jet path has
eps = pi/(4n), which makes the top mode of order 2n resonant.  The perturbed
potential h~_n adds chi * sin^(2n-2k) x * sin^(2k) y, which leaves every jet
below order 2n untouched but shifts the order-2n compatibility pairing by an
exactly known amount.  obstruction_demo propagates h_n once, up to the order
below 2n, and checks both potentials against that one hierarchy.

The Taylor coefficients at the origin and the derivatives behind the C^B norm
are read off the power reduction of sin(u)^(2m) into cosines.  The former stay
exact rationals until the propagation routines take them, so resonance
detection never sees series roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError
from .jet_propagation import MAX_ORDER, ObstructionReport, compatibility_check, propagate
from .poly_ops import fischer_weights
from .timegrid import DEFAULT_NODES, TimeGrid, make_grid

EPSILON_TOL = 1e-10
WEIGHT_FLOOR = 1e-12
NORM_GRID = 256


@dataclass(frozen=True)
class TorusPotential:
    """Sum of coeff * sin(x)^px * sin(y)^py terms, even in both axes.

    Powers are even so every term is even in x and y separately; a constant
    term is excluded, which pins the value 0 at the origin.
    """

    terms: tuple[tuple[float, int, int], ...]
    n: int | None = None
    kappa: int | None = None
    chi: float | None = None

    def __post_init__(self):
        for coeff, px, py in self.terms:
            if not math.isfinite(coeff):
                raise ValueError(f"term coefficient {coeff} is not finite")
            if px < 0 or py < 0 or px % 2 or py % 2:
                raise ValueError(f"sin powers must be even and >= 0, got ({px}, {py})")
            if px == 0 and py == 0:
                raise ValueError("constant terms are not allowed")

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for coeff, px, py in self.terms:
            out += coeff * np.sin(x) ** px * np.sin(y) ** py
        return out


def build_h(n: int) -> TorusPotential:
    """Scaled difference of squared sines whose 2-jet path is resonant."""
    if n < 3:
        raise ValueError(f"the family needs n >= 3, got {n}")
    c = 0.5 * math.sin(math.pi / (2 * n))
    return TorusPotential(terms=((c, 2, 0), (-c, 0, 2)), n=n)


def build_h_tilde(n: int, kappa: int, chi: float) -> TorusPotential:
    """h_n plus a top-order perturbation chi sin^(2n-2k) x sin^(2k) y."""
    if n < 3:
        raise ValueError(f"the family needs n >= 3, got {n}")
    if not 0 <= kappa <= n:
        raise ValueError(f"kappa must lie in 0..{n}, got {kappa}")
    if chi == 0 or not math.isfinite(chi):
        raise ValueError("chi must be nonzero and finite")
    base = build_h(n)
    return TorusPotential(
        terms=base.terms + ((chi, 2 * n - 2 * kappa, 2 * kappa),),
        n=n,
        kappa=kappa,
        chi=chi,
    )


def _cosine_table(m: int) -> tuple[tuple[int, Fraction], ...]:
    """(f, a) pairs, exact, with sin(u)^(2m) = sum a cos(f u) by power reduction:
    sin(u)^(2m) = 4^-m sum_(j=-m..m) (-1)^j C(2m, m+j) cos(2ju)."""
    return tuple((2 * j, Fraction((-1) ** j * (1 + (j > 0)) * math.comb(2 * m, m + j), 4**m))
                 for j in range(m + 1))


def _sin_even_power(m: int, max_half: int) -> tuple[Fraction, ...]:
    """Coefficients of u^(2k), k = 0..max_half, of sin(u)^(2m), exact: the u^(2k)
    coefficient of cos(f u) is (-1)^k f^(2k) / (2k)!."""
    table = _cosine_table(m)
    return tuple((-1) ** k * sum(a * f ** (2 * k) for f, a in table) / math.factorial(2 * k)
                 for k in range(max_half + 1))


@lru_cache(maxsize=None)
def _taylor_products(mx: int, my: int, half: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(d, row) per degree d of sin(x)^(2mx) sin(y)^(2my): row[j - my] is the
    float of the exact coefficient of x^(2d-2j) y^(2j), j = my..d-mx."""
    xs = _sin_even_power(mx, half)
    ys = _sin_even_power(my, half)
    table = []
    for d in range(max(mx + my, 1), half + 1):
        row = np.array([float(xs[d - j] * ys[j]) for j in range(my, d - mx + 1)])
        row.flags.writeable = False
        table.append((d, row))
    return tuple(table)


def jets_at_origin(potential: TorusPotential, order: int) -> dict[int, np.ndarray]:
    """Monomial coefficients of the Taylor expansion at (0,0) per even order.

    Entry i of the degree-2d vector multiplies x^(2d-2i) y^(2i). The terms add
    coeff times their memoised float products in turn; a zero product adds
    +-0, which changes no entry, since no entry is ever -0.
    """
    if order < 2 or order % 2:
        raise ValueError(f"order must be even and >= 2, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}, got {order}")
    half = order // 2
    jets = {2 * d: np.zeros(d + 1) for d in range(1, half + 1)}
    for coeff, px, py in potential.terms:
        my = py // 2
        for d, row in _taylor_products(px // 2, my, half):
            jets[2 * d][my : my + row.size] += coeff * row
    return jets


def _chain_values(power: int, deriv: int, u: np.ndarray) -> np.ndarray:
    """d^deriv/du^deriv sin(u)^power at the samples u, from the cosine table of the power."""
    out = np.zeros_like(u)
    for f, a in _cosine_table(power // 2):
        out += float(a) * f**deriv * np.cos(f * u + deriv * math.pi / 2)
    return out


def cb_norm_report(potential: TorusPotential, B: int) -> float:
    """Grid-sup estimate of the C^B norm.

    Every mixed derivative up to total order B is read off the power-reduced
    cosine tables of the terms and sampled on a uniform 256x256 torus grid; the
    result is an estimate (a lower bound of the true sup), adequate for decay
    trends rather than certified bounds.
    """
    if B < 0:
        raise ValueError(f"B must be >= 0, got {B}")
    u = np.linspace(-math.pi, math.pi, NORM_GRID, endpoint=False)
    worst = 0.0
    for dx in range(B + 1):
        for dy in range(B + 1 - dx):
            grid = np.zeros((NORM_GRID, NORM_GRID))
            for coeff, px, py in potential.terms:
                fx = _chain_values(px, dx, u)
                fy = _chain_values(py, dy, u)
                grid += coeff * np.outer(fx, fy)
            worst = max(worst, float(np.max(np.abs(grid))))
    return worst


@dataclass(frozen=True)
class ObstructionDemo:
    """Side-by-side compatibility data of h_n and its perturbed twin."""

    n: int
    epsilon: float
    resonant_order: int
    multiple: int
    kappa: int
    chi: float
    u: np.ndarray
    v: np.ndarray
    K: float
    lhs_h: float
    lhs_htilde: float
    difference: float
    predicted_difference: float
    residual_h: float
    residual_htilde: float
    satisfied_h: bool
    satisfied_htilde: bool
    which_holds: str
    node_count: int


def obstruction_demo(n: int, grid: TimeGrid | None = None) -> ObstructionDemo:
    """Propagate (0, h_n) below order 2n once and check both potentials at 2n.

    h~_n has the jets of h_n below order 2n, so one hierarchy serves both
    compatibility checks; kappa = argmax |v| (smallest index on ties) and
    chi = exp(-n) are fixed by the check of h_n.
    """
    if n < 3:
        raise ValueError(f"the family needs n >= 3, got {n}")
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
    top = 2 * n
    jets_h = jets_at_origin(build_h(n), top)
    lower = propagate({2: np.zeros(2)}, jets_h, top - 2, grid)
    if isinstance(lower, ObstructionReport):
        raise ConsistencyError(f"resonance at order {lower.resonant_order}, expected {top}")
    zero_top = np.zeros(n + 1)
    try:
        rep = compatibility_check(zero_top, jets_h[top], lower, order=top)
    except ValueError:
        raise ConsistencyError(f"expected a resonance by order {top}, got a hierarchy") from None
    if abs(rep.epsilon - math.pi / (4 * n)) > EPSILON_TOL:
        raise ConsistencyError(
            f"epsilon {rep.epsilon} deviates from pi/(4n) by more than {EPSILON_TOL}"
        )
    if np.max(np.abs(rep.v)) < WEIGHT_FLOOR:
        raise ConsistencyError("all pairing weights vanish; no index to perturb")

    kappa = int(np.argmax(np.abs(rep.v)))
    chi = math.exp(-n)
    jets_ht = jets_at_origin(build_h_tilde(n, kappa, chi), top)
    if not all(np.array_equal(jets_ht[order], jets_h[order]) for order in range(2, top, 2)):
        raise ConsistencyError(f"the perturbed potential moves a jet below order {top}")
    rep_t = compatibility_check(zero_top, jets_ht[top], lower, order=top)

    predicted = rep.v[kappa] * fischer_weights(n)[kappa] * chi
    if rep.satisfied and rep_t.satisfied:
        raise ConsistencyError("both compatibility conditions hold; the shift is too small")
    which = "h" if rep.satisfied else ("h_tilde" if rep_t.satisfied else "neither")
    return ObstructionDemo(
        n=n,
        epsilon=rep.epsilon,
        resonant_order=rep.resonant_order,
        multiple=rep.multiple,
        kappa=kappa,
        chi=chi,
        u=rep.u,
        v=rep.v,
        K=rep.K,
        lhs_h=rep.lhs,
        lhs_htilde=rep_t.lhs,
        difference=rep_t.lhs - rep.lhs,
        predicted_difference=predicted,
        residual_h=rep.residual,
        residual_htilde=rep_t.residual,
        satisfied_h=rep.satisfied,
        satisfied_htilde=rep_t.satisfied,
        which_holds=which,
        node_count=grid.node_count,
    )
