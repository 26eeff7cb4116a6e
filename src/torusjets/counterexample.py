"""The explicit family of torus potentials with an obstructed top order.

h_n scales sin^2 x - sin^2 y so that the induced second-jet path has
eps = pi/(4n), which makes the top mode of order 2n resonant.  The perturbed
potential h~_n adds chi * sin^(2n-2k) x * sin^(2k) y, which leaves every jet
below order 2n untouched but shifts the order-2n compatibility pairing by an
exactly known amount.  obstruction_demo runs the propagation for both
potentials and packages the comparison.

Taylor coefficients are kept as exact rationals until they are handed to the
propagation routines, so resonance detection never sees series roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError
from .jet_propagation import JetHierarchy, ObstructionReport, propagate
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


@lru_cache(maxsize=None)
def _sin_even_power(m: int, max_half: int) -> tuple[Fraction, ...]:
    """Coefficients of u^(2k), k = 0..max_half, of sin(u)^(2m), exact."""
    if m == 0:
        return (Fraction(1),) + (Fraction(0),) * max_half
    if m == 1:
        out = [Fraction(0)] * (max_half + 1)
        for k in range(1, max_half + 1):
            out[k] = Fraction((-1) ** (k + 1) * 2 ** (2 * k - 1), math.factorial(2 * k))
        return tuple(out)
    prev = _sin_even_power(m - 1, max_half)
    base = _sin_even_power(1, max_half)
    out = [Fraction(0)] * (max_half + 1)
    for i in range(m - 1, max_half + 1):
        if prev[i] == 0:
            continue
        for j in range(1, max_half - i + 1):
            out[i + j] += prev[i] * base[j]
    return tuple(out)


def jets_at_origin(potential: TorusPotential, order: int) -> dict[int, np.ndarray]:
    """Monomial coefficients of the Taylor expansion at (0,0) per even order.

    Entry i of the degree-2d vector multiplies x^(2d-2i) y^(2i).
    """
    if order < 2 or order % 2:
        raise ValueError(f"order must be even and >= 2, got {order}")
    half = order // 2
    jets = {2 * d: np.zeros(d + 1) for d in range(1, half + 1)}
    for coeff, px, py in potential.terms:
        mx, my = px // 2, py // 2
        xs = _sin_even_power(mx, half)
        ys = _sin_even_power(my, half)
        for d in range(max(mx + my, 1), half + 1):
            vec = jets[2 * d]
            for j in range(my, d - mx + 1):
                c = xs[d - j] * ys[j]
                if c != 0:
                    vec[j] += coeff * float(c)
    return jets


@lru_cache(maxsize=None)
def _trig_chain(power: int, deriv: int) -> tuple[tuple[int, int, int], ...]:
    """(i, j, c) triples with d^deriv/du^deriv sin^power u = sum c sin^i cos^j."""
    if deriv == 0:
        return ((power, 0, 1),)
    out: dict[tuple[int, int], int] = {}
    for i, j, c in _trig_chain(power, deriv - 1):
        if i > 0:
            key = (i - 1, j + 1)
            out[key] = out.get(key, 0) + c * i
        if j > 0:
            key = (i + 1, j - 1)
            out[key] = out.get(key, 0) - c * j
    return tuple((i, j, c) for (i, j), c in out.items() if c != 0)


def _chain_values(power: int, deriv: int, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    for i, j, w in _trig_chain(power, deriv):
        out += float(w) * s**i * c**j
    return out


def cb_norm_report(potential: TorusPotential, B: int) -> float:
    """Grid-sup estimate of the C^B norm.

    Every mixed derivative up to total order B is formed symbolically on the
    sin/cos representation and sampled on a uniform 256x256 torus grid; the
    result is an estimate (a lower bound of the true sup), adequate for decay
    trends rather than certified bounds.
    """
    if B < 0:
        raise ValueError(f"B must be >= 0, got {B}")
    u = np.linspace(-math.pi, math.pi, NORM_GRID, endpoint=False)
    s, c = np.sin(u), np.cos(u)
    worst = 0.0
    for dx in range(B + 1):
        for dy in range(B + 1 - dx):
            grid = np.zeros((NORM_GRID, NORM_GRID))
            for coeff, px, py in potential.terms:
                fx = _chain_values(px, dx, s, c)
                fy = _chain_values(py, dy, s, c)
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
    """Run the propagation for (0, h_n) and (0, h~_n) and compare.

    The unperturbed run fixes kappa = argmax |v| (smallest index on ties) and
    chi = exp(-n); both runs must agree on u, v, K since those only see the
    shared jets below the resonant order.
    """
    if n < 3:
        raise ValueError(f"the family needs n >= 3, got {n}")
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
    h = build_h(n)
    jets_h = jets_at_origin(h, 2 * n)
    zero_jets = {2: np.zeros(2)}

    rep = propagate(zero_jets, jets_h, 2 * n, grid)
    if not isinstance(rep, ObstructionReport):
        raise ConsistencyError(f"expected a resonance by order {2 * n}, got a hierarchy")
    if rep.resonant_order != 2 * n:
        raise ConsistencyError(
            f"resonance at order {rep.resonant_order}, expected {2 * n}"
        )
    if abs(rep.epsilon - math.pi / (4 * n)) > EPSILON_TOL:
        raise ConsistencyError(
            f"epsilon {rep.epsilon} deviates from pi/(4n) by more than {EPSILON_TOL}"
        )
    if np.max(np.abs(rep.v)) < WEIGHT_FLOOR:
        raise ConsistencyError("all pairing weights vanish; no index to perturb")

    kappa = int(np.argmax(np.abs(rep.v)))
    chi = math.exp(-n)
    h_tilde = build_h_tilde(n, kappa, chi)
    jets_ht = jets_at_origin(h_tilde, 2 * n)
    rep_t = propagate(zero_jets, jets_ht, 2 * n, grid)
    if not isinstance(rep_t, ObstructionReport) or rep_t.resonant_order != 2 * n:
        raise ConsistencyError("perturbed potential lost the resonant order")
    shared = max(
        float(np.max(np.abs(rep_t.u - rep.u))),
        float(np.max(np.abs(rep_t.v - rep.v))),
        abs(rep_t.K - rep.K),
    )
    if shared > 1e-10:
        raise ConsistencyError(f"u, v, K should match across the pair, differ by {shared}")

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
