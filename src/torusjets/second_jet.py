"""Second-order jets of geodesics along the central fiber.

A potential that is even in x and y has a 2-jet a(t) x^2 + b(t) y^2 along the
fiber, and the geodesic equation reduces to

    a'' = 4 a'^2 / (1 + 2a + 2b),      b'' = 4 b'^2 / (1 + 2a + 2b).

The substitution Z = 1 + 2a + 2b, X = 2a - 2b turns this into the geodesic
flow of the Lorentz metric (dX^2 - dZ^2)/Z^2 on the upper half-plane.  The
causal class of a boundary pair is the sign of dX^2 - dZ^2 = -16 da db, with
da = a1 - a0, db = b1 - b0, and a difference within one ulp of max(Z0, Z1)
taken as zero.  Each class has a closed-form path: a constant (stationary), a
hyperbola arc Z^2 - (X - lam)^2 = C > 0 (space-like), an arc of one branch of
(X - lam)^2 - Z^2 = r^2 or a vertical line (time-like), and a null line
X -+ Z = const with 1/Z affine in t (light-like).  Every path must pass both
boundary jets within ENDPOINT_TOL * max(Z0, Z1), or it is refused.

sigma2 = a' b' / (1 + 2a + 2b)^2 = (Z'^2 - X'^2) / (16 Z^2) is a constant of
motion: -epsilon^2 for space-like data, with 4*epsilon the Lorentz arc length,
(ds/4)^2 for time-like data, with ds the proper time, and 0 for light-like
data.  On a space-like path a' / (1 + 2a + 2b) = epsilon * A with
A = tan(2*epsilon*t + theta0) > 0 once the axes are oriented so that a is the
increasing jet.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, GeodesicDomainError, NumericError
from .timegrid import CoefficientSeries, TimeGrid, integrate

ENDPOINT_TOL = 1e-9


class CausalClass(enum.Enum):
    SPACE_LIKE = "SpaceLike"
    TIME_LIKE = "TimeLike"
    LIGHT_LIKE = "LightLike"
    STATIONARY = "Stationary"


@dataclass(frozen=True)
class SecondJetBoundary:
    """Boundary 2-jets (a0, b0) at t=0 and (a1, b1) at t=1."""

    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self):
        for name, a, b in (("a0 + b0", self.a0, self.b0), ("a1 + b1", self.a1, self.b1)):
            if not (a + b + 0.5 > 0):
                raise ValueError(f"boundary requires {name} + 1/2 > 0")

    @property
    def causal_class(self) -> CausalClass:
        """Class of connectable jets, by the sign rule on their own da and db."""
        p0, p1 = to_halfplane(self)
        _require_connectable(p0, p1)
        return _causal_class(self.a1 - self.a0, self.b1 - self.b0, max(p0.Z, p1.Z))


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point (X, Z) of the Lorentz half-plane, Z > 0."""

    X: float
    Z: float

    def __post_init__(self):
        if not (self.Z > 0):
            raise ValueError(f"half-plane point needs Z > 0, got Z = {self.Z}")


@dataclass(frozen=True)
class Hyperbola:
    """Level set Z^2 - (X - lam)^2 = c_value carrying the path."""

    lam: float
    c_value: float


@dataclass(frozen=True)
class SecondJetPath:
    """Solved second-jet boundary value problem on a shared grid."""

    boundary: SecondJetBoundary
    causal_class: CausalClass
    a: CoefficientSeries
    b: CoefficientSeries
    sigma1: CoefficientSeries
    sigma2: float
    swapped_axes: bool
    epsilon: float | None = None
    A: CoefficientSeries | None = None
    hyperbola: Hyperbola | None = None

    @property
    def grid(self) -> TimeGrid:
        return self.a.grid


def to_halfplane(boundary: SecondJetBoundary) -> tuple[HalfPlanePoint, HalfPlanePoint]:
    """Map boundary jets to half-plane endpoints via Z = 1+2a+2b, X = 2a-2b."""
    p0 = HalfPlanePoint(2 * boundary.a0 - 2 * boundary.b0, 1 + 2 * boundary.a0 + 2 * boundary.b0)
    p1 = HalfPlanePoint(2 * boundary.a1 - 2 * boundary.b1, 1 + 2 * boundary.a1 + 2 * boundary.b1)
    return p0, p1


def connectable(p0: HalfPlanePoint, p1: HalfPlanePoint) -> bool:
    """Endpoints are joined by a geodesic iff Z1 + Z0 > |X1 - X0|."""
    return p1.Z + p0.Z > abs(p1.X - p0.X)


def _require_connectable(p0: HalfPlanePoint, p1: HalfPlanePoint) -> None:
    # Name the failing inequality in boundary terms: Z1+Z0 > X1-X0 is
    # a0 + b1 + 1/2 > 0 and Z1+Z0 > X0-X1 is a1 + b0 + 1/2 > 0.
    if not connectable(p0, p1):
        side = "a0 + b1" if p1.Z + p0.Z <= p1.X - p0.X else "a1 + b0"
        raise GeodesicDomainError(f"not connectable: {side} + 1/2 > 0 violated")


def _causal_class(da: float, db: float, scale: float) -> CausalClass:
    """The sign rule: dX^2 - dZ^2 = -16 da db exactly.  A difference within 2^-52 scale,
    one ulp of scale = max(Z0, Z1), is zero: the light-like or constant path that then
    stands in misses its endpoint by at most that much."""
    tie = 2.0**-52 * scale
    a_moves, b_moves = abs(da) > tie, abs(db) > tie
    if a_moves and b_moves:
        return CausalClass.SPACE_LIKE if (da < 0) != (db < 0) else CausalClass.TIME_LIKE
    return CausalClass.LIGHT_LIKE if a_moves or b_moves else CausalClass.STATIONARY


def classify(p0: HalfPlanePoint, p1: HalfPlanePoint) -> CausalClass:
    """Causal class of a connectable pair, by the sign rule on da, db = (dZ +- dX)/4."""
    _require_connectable(p0, p1)
    dx, dz = p1.X - p0.X, p1.Z - p0.Z
    return _causal_class(0.25 * (dz + dx), 0.25 * (dz - dx), max(p0.Z, p1.Z))


def distance(p0: HalfPlanePoint, p1: HalfPlanePoint) -> float:
    """Lorentz distance D < pi between space-like separated points."""
    cls = classify(p0, p1)
    if cls is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(f"distance needs space-like separation, got {cls.value}")
    dx, dz = p1.X - p0.X, p1.Z - p0.Z
    # each factor divided by its own Z, so that no product of small Z underflows
    return _arc_length(0.25 * ((dx - dz) / p0.Z) * ((dx + dz) / p1.Z))


def _arc_length(sin2: float) -> float:
    """D = 2 asin(sqrt(sin2)) from sin^2(D/2) = (dX^2 - dZ^2) / (4 Z0 Z1) < 1, rounding aside."""
    if not 0.0 < sin2 < math.inf:
        raise ConsistencyError(f"sin^2(D/2) = {sin2} is not positive and finite")
    return 2.0 * math.asin(math.sqrt(min(sin2, 1.0)))


def epsilon_from_boundary(boundary: SecondJetBoundary) -> float:
    """epsilon = D/4 < pi/4 for space-like boundary jets, with D taken from the jets."""
    cls = boundary.causal_class
    if cls is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(f"epsilon needs space-like boundary jets, got {cls.value}")
    return _arc_length(_jet_sin2(boundary, *to_halfplane(boundary))) / 4.0


def _jet_sin2(boundary: SecondJetBoundary, p0: HalfPlanePoint, p1: HalfPlanePoint) -> float:
    """sin^2(D/2) from the jets: dX^2 - dZ^2 = -16 da db cancels at no edge."""
    return -4.0 * (boundary.a1 - boundary.a0) * (boundary.b1 - boundary.b0) / (p0.Z * p1.Z)


def solve_bvp(boundary: SecondJetBoundary, grid: TimeGrid) -> SecondJetPath:
    """Solve the second-jet boundary value problem on the grid, in closed form.

    No class iterates.  A connectable pair (S = Z0 + Z1 > |dX|) has exactly
    one geodesic from p0 at t = 0 to p1 at t = 1.  sigma2 is constant along
    a geodesic, and sigma2 <= 0 means |X'| >= |Z'| all along, so the class
    of the chord is the class of every geodesic joining its ends: the sign
    rule of boundary.causal_class.  Every class meets one endpoint contract:
    a path that misses a boundary jet by more than ENDPOINT_TOL * max(Z0, Z1)
    is refused with ConsistencyError.

    - Space-like: sin^2(D/2) = (dX^2 - dZ^2)/(4 Z0 Z1) = -4 da db/(Z0 Z1) < 1
      by S > |dX|, so the arc of length D = 4*epsilon < pi exists and is
      unique.
    - Time-like: for dX != 0 the chord fixes lam, and 4 dX^2 r^2 =
      (dZ^2 - dX^2)(S^2 - dX^2) > 0.  X0 - lam = (dZ S - dX^2)/(2 dX) and
      X1 - lam = (dZ S + dX^2)/(2 dX) share the sign of dZ dX, because
      |dX| < |dZ| < S: both ends lie on one branch, Z = r/sinh(s), with the
      proper time s running affinely between s_i = asinh(r/Z_i) > 0.  The
      path is evaluated as Z = Z0/g and X = X0 - kappa Z sinh(h), with
      h = (s1 - s0) t, kappa = sign(dZ dX) Z0/r and
      g = sinh(s0 + h)/sinh(s0) = cosh(h) + coth(s0) sinh(h); lam, r and
      s_i, unbounded near a vertical chord, are never formed.  At dX = 0,
      kappa = 0 and this is the vertical line Z = Z0 (Z1/Z0)^t.
    - Light-like: both ends lie on one null line, X - Z = const (b fixed)
      or X + Z = const (a fixed), on which the moving jet obeys
      (1/Z)'' = 0; 1/Z interpolates 1/Z0 and 1/Z1 affinely and stays > 0.
    - Stationary: the light-like form, which is the constant path at dZ = 0.
    """
    cls = boundary.causal_class
    p0, p1 = to_halfplane(boundary)
    if cls is CausalClass.SPACE_LIKE:
        return _solve_spacelike(boundary, p0, p1, grid)
    if cls is CausalClass.TIME_LIKE:
        return _solve_timelike(boundary, p0, p1, grid)
    return _solve_lightlike(boundary, cls, p0, p1, grid)


def _solve_spacelike(boundary, p0, p1, grid) -> SecondJetPath:
    swapped = p1.X < p0.X
    x0 = -p0.X if swapped else p0.X
    sin2 = _jet_sin2(boundary, p0, p1)
    D = _arc_length(sin2)
    eps = D / 4.0
    # Normalize with the isometry (X, Z) -> ((X - X0)/Z0, Z/Z0); then
    # Z(t) = sin(2 theta0)/sin(psi) and X(t) = sin(D t)/sin(psi) with
    # psi = D t + 2 theta0 and cot(2 theta0) = w / sin D, where
    # w = Z0/Z1 - cos D = 2 sin^2(D/2) - dZ/Z1.  psi is carried as its angle
    # beta from the end of (0, pi) it starts nearer, so that sin(psi) keeps
    # its digits where psi comes within D of 0 or pi: psi = beta when w >= 0,
    # pi - beta when the chord rises steeply enough for w < 0.
    dz = 2.0 * ((boundary.a1 - boundary.a0) + (boundary.b1 - boundary.b0))
    w = 2.0 * sin2 - dz / p1.Z
    sign = 1.0 if w >= 0 else -1.0  # cos(psi) = sign cos(beta)
    beta0 = math.atan2(math.sin(D), abs(w))
    if not (0.0 < beta0 and 0.0 < beta0 + sign * D < math.pi):
        raise ConsistencyError("hyperbola angle left (0, pi); endpoints inconsistent")
    beta = beta0 + sign * D * grid.nodes
    ct, sin_psi = math.sin(beta0), np.sin(beta)
    Z = p0.Z * (ct / sin_psi)
    X = x0 + p0.Z * (np.sin(D * grid.nodes) / sin_psi)
    lam = x0 + p0.Z * (sign * math.cos(beta0))
    if swapped:
        X, lam = -X, -lam
    a, b = (Z + X - 1.0) / 4.0, (Z - X - 1.0) / 4.0
    # A = tan(psi/2) and sigma1 = eps (A - 1/A) = -2 eps cot(psi), both from beta
    half = np.tan(beta / 2.0)
    return _assemble(
        boundary, CausalClass.SPACE_LIKE, grid, a, b,
        sigma2=-(eps**2), swapped=swapped, epsilon=eps,
        A=half if sign > 0 else 1.0 / half, sigma1=-2.0 * eps * sign / np.tan(beta),
        hyperbola=Hyperbola(lam=lam, c_value=(p0.Z * ct) ** 2),
    )


def _solve_timelike(boundary, p0, p1, grid) -> SecondJetPath:
    da, db = boundary.a1 - boundary.a0, boundary.b1 - boundary.b0
    dz, dx = 2.0 * (da + db), 2.0 * (da - db)
    # kappa = sign(dZ dX) Z0 / r, with r from
    # 4 dX^2 r^2 = (dZ^2 - dX^2)(S^2 - dX^2) = 256 da db (a0+b1+1/2)(a1+b0+1/2),
    # written in the jets so that neither edge of the time-like cone cancels,
    # and rooted factor by factor so that da db neither overflows nor underflows.
    reach = (boundary.a0 + boundary.b1 + 0.5) * (boundary.a1 + boundary.b0 + 0.5)
    root = math.sqrt(abs(da)) * math.sqrt(abs(db)) * math.sqrt(reach)
    kappa = math.copysign(p0.Z, dz) * dx / (8.0 * root)
    c = math.hypot(1.0, kappa)  # coth(s0)
    c_m1 = kappa * (kappa / (1.0 + c))
    # ds = s1 - s0 = log y, where y = e^ds solves cosh(ds) + c sinh(ds) = Z0/Z1.
    # log1p gets y - 1 when Z falls and 1/y - 1 when it rises, each formed as
    # a product of positive factors.
    rho = p0.Z / p1.Z
    q1 = math.hypot(rho, kappa)
    gap = abs(dz) / p1.Z * (1.0 + (rho + 1.0) / (q1 + c))
    ds = math.log1p(gap / (1.0 + c)) if dz < 0 else -math.log1p(gap / (rho + q1))
    h = ds * grid.nodes
    # g = cosh(h) + c sinh(h) as e^h (1 - (c - 1)(e^-2h - 1)/2), which is e^h
    # on a vertical chord; g - 1 and g'/ds = sinh(h) + c cosh(h) as sums of
    # like-signed terms.  Past the float range they turn inf or nan, and the
    # endpoint check refuses the path.
    with np.errstate(over="ignore", invalid="ignore"):
        eh, sh = np.exp(h), np.sinh(h)
        g = eh * (1.0 - 0.5 * c_m1 * np.expm1(-2.0 * h))
        g_m1 = np.expm1(h) + c_m1 * sh
        Z = p0.Z / g
        # 4 (a - a0) = dZ + dX and 4 (b - b0) = dZ - dX along the path, with
        # dZ = -Z (g - 1) and dX = -kappa Z sinh(h).
        a = boundary.a0 - 0.25 * Z * (g_m1 + kappa * sh)
        b = boundary.b0 - 0.25 * Z * (g_m1 - kappa * sh)
        sigma1 = -0.5 * ds * (eh + c_m1 * np.cosh(h)) / g  # Z' / (2 Z)
    return _assemble(
        boundary, CausalClass.TIME_LIKE, grid, a, b,
        sigma2=(ds / 4.0) ** 2, swapped=False, sigma1=sigma1,
        hyperbola=_chord_hyperbola(p0, p1),
    )


def _solve_lightlike(boundary, cls, p0, p1, grid) -> SecondJetPath:
    t = grid.nodes
    dz = 2.0 * ((boundary.a1 - boundary.a0) + (boundary.b1 - boundary.b0))
    # 1/Z = (1 - t)/Z0 + t/Z1, so Z - Z0 = Z0 dZ t / ((1 - t) Z1 + t Z0).
    rate = 0.5 * p0.Z * dz
    if not math.isfinite(rate):
        raise NumericError(f"the light-like rise Z0 dZ / 2 = {rate} is past the float range")
    denom = (1.0 - t) * p1.Z + t * p0.Z
    a, b = np.full_like(t, boundary.a0), np.full_like(t, boundary.b0)
    moving = a if abs(boundary.b1 - boundary.b0) <= abs(boundary.a1 - boundary.a0) else b
    moving += rate * t / denom
    return _assemble(
        boundary, cls, grid, a, b,
        sigma2=0.0, swapped=False, sigma1=0.5 * dz / denom,
        hyperbola=_chord_hyperbola(p0, p1),
    )


def _assemble(boundary, cls, grid, a, b, *, sigma2, swapped, sigma1,
              epsilon=None, A=None, hyperbola=None) -> SecondJetPath:
    """The path of any class, which must meet both boundary jets within ENDPOINT_TOL max(Z0, Z1).
    The exact path never leaves the half-plane, so a node outside it is rounding: NumericError."""
    miss = np.abs([a[0] - boundary.a0, b[0] - boundary.b0,
                   a[-1] - boundary.a1, b[-1] - boundary.b1]).max()  # nan stays nan
    if not miss <= ENDPOINT_TOL * max(p.Z for p in to_halfplane(boundary)):
        raise ConsistencyError(f"{cls.value} closed form missed its endpoint by {miss:.3g}")
    if not np.all(1.0 + 2.0 * a + 2.0 * b > 0):
        raise NumericError("path leaves the half-plane: 1 + 2a + 2b <= 0 at a node")
    a, b, sigma1 = (CoefficientSeries(grid, v) for v in (a, b, sigma1))
    return SecondJetPath(boundary, cls, a, b, sigma1, sigma2, swapped, epsilon,
                         None if A is None else CoefficientSeries(grid, A), hyperbola)


def _chord_hyperbola(p0: HalfPlanePoint, p1: HalfPlanePoint) -> Hyperbola | None:
    dx = p1.X - p0.X
    if dx == 0.0:  # a vertical chord
        return None
    # differences and products, which overflow to inf where a ** would raise
    lam = ((p0.Z - p1.Z) * (p0.Z + p1.Z) + dx * (p1.X + p0.X)) / (2.0 * dx)
    return Hyperbola(lam=lam, c_value=(p0.Z - p0.X + lam) * (p0.Z + p0.X - lam))


def ode_residual(path: SecondJetPath) -> float:
    """Max nodewise residual of the jet equations on the path; NumericError if not finite."""
    d = path.grid.diff_matrix
    a, b = path.a.values, path.b.values
    z = 1.0 + 2.0 * a + 2.0 * b
    da, db = d @ a, d @ b
    with np.errstate(over="ignore", invalid="ignore"):
        ra = d @ da - 4.0 * da * da / z
        rb = d @ db - 4.0 * db * db / z
        residual = float(max(np.max(np.abs(ra)), np.max(np.abs(rb))))
    if not math.isfinite(residual):
        raise NumericError(f"the jet-equation residual of the path is {residual}")
    return residual


def arc_epsilon(path: SecondJetPath) -> float:
    """Quadrature of (1/4) sqrt((X'^2 - Z'^2)/Z^2) along a space-like path."""
    if path.causal_class is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError("arc length quadrature needs a space-like path")
    grid = path.grid
    dX = grid.diff_matrix @ (2.0 * path.a.values - 2.0 * path.b.values)
    dZ = grid.diff_matrix @ (2.0 * path.a.values + 2.0 * path.b.values)
    z = 1.0 + 2.0 * path.a.values + 2.0 * path.b.values
    return 0.25 * integrate(CoefficientSeries(grid, np.sqrt(dX**2 - dZ**2) / z))
