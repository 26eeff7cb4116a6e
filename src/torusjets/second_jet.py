"""Second-order jets of geodesics along the central fiber.

A potential that is even in x and y has a 2-jet a(t) x^2 + b(t) y^2 along the
fiber, and the geodesic equation reduces to

    a'' = 4 a'^2 / (1 + 2a + 2b),      b'' = 4 b'^2 / (1 + 2a + 2b).

The substitution Z = 1 + 2a + 2b, X = 2a - 2b turns this into the geodesic
flow of the Lorentz metric (dX^2 - dZ^2)/Z^2 on the upper half-plane: de
Sitter space dS2 in flat slicing.  It embeds as the quadric <P, P> = 1 of the
Minkowski form <P, P> = v^2 - p q through

    p = 1/Z,   v = X/Z,   q = (X^2 - Z^2)/Z,

and its geodesics are the sections by planes through the origin (Spradlin,
Strominger and Volovich, "Les Houches lectures on de Sitter space",
hep-th/0110007).  So the geodesic from P0 at t = 0 to P1 at t = 1 is the
Minkowski form of Shoemake's "slerp", P = S(1 - t) P0 + S(t) P1, and since
1/Z and X/Z are linear in P,

    1/Z = alpha/Z0 + beta/Z1,   X/Z = alpha X0/Z0 + beta X1/Z1,
    alpha = S(1 - t),  beta = S(t),

with S(tau) = sin(tau D)/sin D, sinh(tau D)/sinh D or tau as the ends are
space-like, time-like or light-like separated.  D is the Lorentz length of the
chord: 4 Z0 Z1 sin^2(D/2) = |dX^2 - dZ^2| = 16 |da db|, with da = a1 - a0 and
db = b1 - b0, and sinh in place of sin for time-like ends.

The causal class of a boundary pair is the sign of dX^2 - dZ^2 = -16 da db,
with a difference within one ulp of max(Z0, Z1) taken as zero.  Every path
must pass both boundary jets within ENDPOINT_TOL * max(Z0, Z1), or it is
refused.

sigma2 = a' b' / (1 + 2a + 2b)^2 = (Z'^2 - X'^2) / (16 Z^2) is a constant of
motion: -(D/4)^2 for space-like data, with epsilon = D/4, (D/4)^2 for
time-like data, with D the proper time, and 0 for light-like data.  On a
space-like path a' / (1 + 2a + 2b) = epsilon * A with
A = tan(2*epsilon*t + theta0) > 0 once the axes are oriented so that a is the
increasing jet.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, GeodesicDomainError, NumericError
from .timegrid import CoefficientSeries, TimeGrid, integrate

ENDPOINT_TOL = 1e-9
_TINY = sys.float_info.min


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

    def require_connectable(self) -> None:
        """Refuse jets that no geodesic joins, by Z0 + Z1 > |dX| read off the jets."""
        _require_reach(*_reaches(self))

    @property
    def causal_class(self) -> CausalClass:
        """Class of connectable jets, by the sign rule on their own da and db."""
        return _ends(self)[0]


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
    a_dot: CoefficientSeries  # a' and b', in closed form
    b_dot: CoefficientSeries
    sigma1: CoefficientSeries
    sigma2: float
    swapped_axes: bool
    epsilon: float | None = None
    A: CoefficientSeries | None = None

    @property
    def grid(self) -> TimeGrid:
        return self.a.grid

    @property
    def Z(self) -> np.ndarray:
        """Z = 1 + 2a + 2b at the nodes, formed from the node values of a and b."""
        return 1.0 + 2.0 * self.a.values + 2.0 * self.b.values

    @property
    def hyperbola(self) -> Hyperbola | None:
        """The level set through both ends; None for a vertical chord."""
        return _chord_hyperbola(*to_halfplane(self.boundary))


def to_halfplane(boundary: SecondJetBoundary) -> tuple[HalfPlanePoint, HalfPlanePoint]:
    """Map boundary jets to half-plane endpoints via Z = 1+2a+2b, X = 2a-2b."""
    p0 = HalfPlanePoint(2 * (boundary.a0 - boundary.b0), 1 + 2 * (boundary.a0 + boundary.b0))
    p1 = HalfPlanePoint(2 * (boundary.a1 - boundary.b1), 1 + 2 * (boundary.a1 + boundary.b1))
    return p0, p1


def connectable(p0: HalfPlanePoint, p1: HalfPlanePoint) -> bool:
    """Endpoints are joined by a geodesic iff Z1 + Z0 > |X1 - X0|."""
    return p1.Z + p0.Z > abs(p1.X - p0.X)


def _require_reach(r0: float, r1: float) -> None:
    """Z0 + Z1 > |dX| is r0 = (Z0 + Z1 - dX)/4 = a0 + b1 + 1/2 > 0 and
    r1 = (Z0 + Z1 + dX)/4 = a1 + b0 + 1/2 > 0; name the failing inequality."""
    if not (r0 > 0 and r1 > 0):
        side = "a1 + b0" if r0 > 0 else "a0 + b1"
        raise GeodesicDomainError(f"not connectable: {side} + 1/2 > 0 violated")


def _ends(boundary: SecondJetBoundary) -> tuple[CausalClass, float, float, float, float]:
    """(class, Z0, Z1, da, db) of connectable jets whose Z lie in the float range.
    Z = 1 + 2 (a + b) = 2 (a + b + 1/2) is positive wherever the boundary is valid."""
    boundary.require_connectable()
    z0, z1 = 1.0 + 2.0 * (boundary.a0 + boundary.b0), 1.0 + 2.0 * (boundary.a1 + boundary.b1)
    if not max(z0, z1) < math.inf:
        raise NumericError(f"Z0 = {z0} and Z1 = {z1}: Z = 1 + 2a + 2b is past the float range")
    da, db = boundary.a1 - boundary.a0, boundary.b1 - boundary.b0
    return _causal_class(da, db, max(z0, z1)), z0, z1, da, db


def _moves(d: float, scale: float) -> bool:
    """Whether a jet difference d is past the tie 2^-52 scale, one ulp of scale = max(Z0, Z1)."""
    return abs(d) > 2.0**-52 * scale


def _causal_class(da: float, db: float, scale: float) -> CausalClass:
    """The sign rule: dX^2 - dZ^2 = -16 da db exactly.  A difference within the tie is zero:
    the light-like or constant path that then stands in holds that jet still, and misses its
    endpoint by at most the tie."""
    a_moves, b_moves = _moves(da, scale), _moves(db, scale)
    if a_moves and b_moves:
        return CausalClass.SPACE_LIKE if (da < 0) != (db < 0) else CausalClass.TIME_LIKE
    return CausalClass.LIGHT_LIKE if a_moves or b_moves else CausalClass.STATIONARY


def classify(p0: HalfPlanePoint, p1: HalfPlanePoint) -> CausalClass:
    """Causal class of a connectable pair, by the sign rule on da, db = (dZ +- dX)/4."""
    dx, dz, s = p1.X - p0.X, p1.Z - p0.Z, p0.Z + p1.Z
    _require_reach(0.25 * (s - dx), 0.25 * (s + dx))
    return _causal_class(0.25 * (dz + dx), 0.25 * (dz - dx), max(p0.Z, p1.Z))


def _half_angle(da, db, r0, r1, z0, z1) -> tuple[float, float]:
    """sin(D/2) and cos(D/2) of space-like ends, sinh and cosh of time-like ones, from
    Z0 Z1 sin^2(D/2) = 4 |da db| and Z0 Z1 cos^2(D/2) = ((Z0 + Z1)^2 - dX^2)/4 = 4 r0 r1
    (the same with sinh and cosh), each factor divided by its own Z."""
    return 2.0 * _root(abs(da) / z0, abs(db) / z1), 2.0 * _root(r0 / z0, r1 / z1)


def _root(x: float, y: float) -> float:
    """sqrt(x y) in one rounding, or factor by factor where x y leaves the normal range."""
    xy = x * y
    return math.sqrt(xy) if _TINY < xy < math.inf else math.sqrt(x) * math.sqrt(y)


def _space_angle(da, db, r0, r1, z0, z1) -> tuple[float, float, float]:
    """(D, sin(D/2), cos(D/2)) of space-like ends, D in (0, pi), each half angle read off
    the smaller of its sine and cosine, where asin and acos keep their digits."""
    sn, cs = _half_angle(da, db, r0, r1, z0, z1)
    return 2.0 * (math.asin(sn) if sn <= cs else math.acos(cs)), sn, cs


def distance(p0: HalfPlanePoint, p1: HalfPlanePoint) -> float:
    """Lorentz distance D < pi between space-like separated points."""
    cls = classify(p0, p1)
    if cls is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(f"distance needs space-like separation, got {cls.value}")
    dx, dz, s = p1.X - p0.X, p1.Z - p0.Z, p0.Z + p1.Z
    return _space_angle(0.25 * (dz + dx), 0.25 * (dz - dx), 0.25 * (s - dx), 0.25 * (s + dx),
                        p0.Z, p1.Z)[0]


def epsilon_from_boundary(boundary: SecondJetBoundary) -> float:
    """epsilon = D/4 < pi/4 for space-like boundary jets, with D taken from the jets."""
    cls, z0, z1, da, db = _ends(boundary)
    if cls is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError(f"epsilon needs space-like boundary jets, got {cls.value}")
    return _space_angle(da, db, *_reaches(boundary), z0, z1)[0] / 4.0


def _reaches(boundary: SecondJetBoundary) -> tuple[float, float]:
    """r0 = a0 + b1 + 1/2 = (Z0 + Z1 - dX)/4 and r1 = a1 + b0 + 1/2 = (Z0 + Z1 + dX)/4."""
    return boundary.a0 + boundary.b1 + 0.5, boundary.a1 + boundary.b0 + 0.5


def solve_bvp(boundary: SecondJetBoundary, grid: TimeGrid) -> SecondJetPath:
    """Solve the second-jet boundary value problem on the grid, in closed form.

    No class iterates.  A connectable pair, r0 = a0 + b1 + 1/2 > 0 and
    r1 = a1 + b0 + 1/2 > 0, has exactly one geodesic from p0 at t = 0 to p1
    at t = 1, and one formula evaluates it for every class: the slerp of the
    module docstring.  <P0, P1> = 1 + 8 da db / (Z0 Z1), and
    4 Z0 Z1 (1 + <P0, P1>) = 32 r0 r1 > 0, so P1 != -P0 and P0, P1 span the
    one plane whose section is the geodesic; its class is the sign rule of
    boundary.causal_class.

    - Space-like: <P0, P1> = cos D, with sin^2(D/2) = -4 da db/(Z0 Z1) and
      cos^2(D/2) = 4 r0 r1/(Z0 Z1), so D = 4*epsilon is in (0, pi).  The
      section is an ellipse, and its arc of length D < pi from P0 to P1 is
      the only one on which alpha, beta >= 0 keep 1/Z > 0.
    - Time-like: <P0, P1> = cosh D > 1 puts both ends on one branch of the
      section's hyperbola, joined by the arc of proper time D.
    - Light-like: <P0, P1> = 1 and P1 - P0 is null, so the segment
      (1 - t) P0 + t P1 lies on the quadric: a null line X -+ Z = const on
      which 1/Z is affine in t.  Stationary pairs take the same form.  A jet
      that the class rule reads as still, its move within the tie, is held
      at its t = 0 value, so the path stays a null line (or a point) and
      misses that end by at most the tie.

    The jets are formed as increments from the end that dominates 1/Z:

        4 (a - a0) = Z (g + 4 beta da / Z1),   4 (a - a1) = Z (g - 4 alpha da / Z0),

    and the same for b, with the bend g = 1 - alpha - beta in a form that
    cancels nowhere; g = 0 on a null line, so a jet that does not move stays
    exact.  Every class reads its slopes off the rows S' of the same slerp, with
    g' = S'(1 - t) - S'(t) in product form: Z'/Z = (Z/Z1) (g' + dZ S'(1 - t)/Z0)
    and X'/Z = dX (S'(t) + S(t) Z'/Z)/Z1 when Z1 >= Z0, mirrored from t = 1
    otherwise; sigma1 = Z'/(2 Z) and a', b' = Z (Z'/Z +- X'/Z)/4.  Every class
    meets one endpoint contract: a path that misses a boundary jet by more
    than ENDPOINT_TOL * max(Z0, Z1) is refused with ConsistencyError, and one
    whose rounded jets leave the half-plane with NumericError.
    """
    cls, z0, z1, da, db = _ends(boundary)
    a1, b1 = boundary.a1, boundary.b1
    tau = grid.end_distances  # rows t and 1 - t
    sigma2, swapped, eps, A, bend, turn = 0.0, False, None, None, None, 0.0
    # shares: rows beta/Z1 and alpha/Z0, the two ends' parts of 1/Z; slopes: rows S'(t)/Z1
    # and S'(1 - t)/Z0; turn: g'; bend: g/4
    if cls is CausalClass.SPACE_LIKE:
        D, sn, cs = _space_angle(da, db, *_reaches(boundary), z0, z1)
        sin_d, h = 2.0 * sn * cs, (0.5 * D) * tau
        s, c = np.sin(h), np.cos(h)
        shares = s * c * _column(2.0 / sin_d / z1, 2.0 / sin_d / z0)  # sin(tau D)/sin D
        slopes = (c - s) * (c + s) * _column(D / sin_d / z1, D / sin_d / z0)
        turn = (D / cs) * np.sin(h[0] - h[1])  # D sin((2t - 1) D/2)/cos(D/2)
        bend = (-0.5 / cs) * s[0] * s[1]
        sigma2, swapped, eps = -(0.25 * D) ** 2, da < 0, 0.25 * D
        A = _tan_half_psi(h, sn, sin_d, 2.0 * (da + db), z0, z1)
    elif cls is CausalClass.TIME_LIKE:
        D = 2.0 * math.asinh(_half_angle(da, db, *_reaches(boundary), z0, z1)[0])
        h = -D * tau
        e, em = np.exp(h), np.expm1(h)
        # sinh(tau D)/sinh D = e^((tau - 1) D) (e^(-2 tau D) - 1)/(e^(-2D) - 1), with
        # e^(-2x) - 1 = (e^-x - 1)(e^-x + 1): a product of like-signed factors that
        # neither overflows nor cancels
        scale = 1.0 / math.expm1(-2.0 * D)
        shares = e[::-1] * em * (1.0 + e) * _column(scale / z1, scale / z0)
        # cosh(tau D)/sinh D, the farther end's e^(-tau D) read as e^(-D)/e^(-(1 - tau) D)
        half = math.exp(-0.5 * D)  # two rounded -tau D can miss summing to -D by an ulp of D
        e = np.where(tau <= tau[::-1], e, half / np.maximum(e[0], e[1]) * half)
        slopes = e[::-1] * (1.0 + e * e) * _column(-D * scale / z1, -D * scale / z0)
        turn = (D / (1.0 + math.exp(-D))) * (em[0] - em[1])  # D sinh((1 - 2t) D/2)/cosh(D/2)
        bend = (0.25 / (1.0 + math.exp(-D))) * em[0] * em[1]
        sigma2 = (0.25 * D) ** 2
    else:
        scale = max(z0, z1)
        if not _moves(da, scale):
            a1, da = boundary.a0, 0.0
        if not _moves(db, scale):
            b1, db = boundary.b0, 0.0
        z1 = 1.0 + 2.0 * (a1 + b1)
        shares = tau * _column(1.0 / z1, 1.0 / z0)
        slopes = _column(1.0 / z1, 1.0 / z0)
    u1, u0 = shares
    Z = 1.0 / (u0 + u1)
    # beta/alpha rises with t, so the nodes nearer p0 in 1/Z are a prefix
    k = int(np.count_nonzero(u1 <= u0))
    jets = np.multiply.outer((da, db), np.concatenate((u1[:k], -u0[k:])))
    if bend is not None:
        jets += bend
    jets *= Z
    jets += np.array(((boundary.a0, a1), (boundary.b0, b1))).repeat(
        (k, Z.size - k), axis=1)
    a, b = jets
    # Z'/Z off (Z - Z_hi)/Z and X'/Z off (X - X_lo)/Z: Z <= Z_hi, so Z/Z_hi amplifies nothing
    v1, v0 = slopes
    v_lo, v_hi, u_hi, z_hi = (v0, v1, u1, z1) if z1 >= z0 else (v1, v0, -u0, z0)
    with np.errstate(over="ignore", invalid="ignore"):  # past Z ~ 1e305 a' and b' are inf
        zrate = Z / z_hi * turn + Z * (2.0 * (da + db) / z_hi) * v_lo
        xrate = 2.0 * (da - db) * (v_hi + zrate * u_hi)
        a_dot, b_dot = (0.25 * Z) * (zrate + xrate), (0.25 * Z) * (zrate - xrate)

    miss = max(abs(a[0] - boundary.a0), abs(b[0] - boundary.b0),
               abs(a[-1] - boundary.a1), abs(b[-1] - boundary.b1))
    if not miss <= ENDPOINT_TOL * max(z0, z1):
        raise ConsistencyError(f"{cls.value} closed form missed its endpoint by {miss:.3g}")
    path = SecondJetPath(boundary, cls, CoefficientSeries(grid, a), CoefficientSeries(grid, b),
                         CoefficientSeries(grid, a_dot), CoefficientSeries(grid, b_dot),
                         CoefficientSeries(grid, 0.5 * zrate), sigma2, swapped, eps,
                         None if A is None else CoefficientSeries(grid, A))
    # the exact path never leaves the half-plane, so a node outside it, or nan, is rounding;
    # checked on the Z that every reader of the jets reads
    if not path.Z.min() > 0:
        raise NumericError("path leaves the half-plane: 1 + 2a + 2b <= 0 at a node")
    return path


def _column(x: float, y: float) -> np.ndarray:
    return np.array(((x,), (y,)))


def _tan_half_psi(h, sn, sin_d, dz, z0, z1) -> np.ndarray:
    """A = tan(psi/2) on a space-like path, with psi = psi0 + D t in (0, pi) and
    cot(psi0) = (Z0/Z1 - cos D)/sin D.  psi is carried from t = 0 when psi0 is the
    smaller end angle, and as pi - psi from t = 1 otherwise, so that a steep chord's small
    angle keeps its digits; one linear angle per path keeps A' = (D/2)(1 + A^2) to rounding."""
    w0 = 2.0 * sn * sn - dz / z1  # sin D cot(psi0)
    w1 = 2.0 * sn * sn + dz / z0  # sin D cot(chi1), chi1 = pi - psi at t = 1
    if w0 >= w1:
        return np.tan(h[0] + 0.5 * math.atan2(sin_d, w0))
    return 1.0 / np.tan(h[1] + 0.5 * math.atan2(sin_d, w1))


def _chord_hyperbola(p0: HalfPlanePoint, p1: HalfPlanePoint) -> Hyperbola | None:
    dx = p1.X - p0.X
    if dx == 0.0:  # a vertical chord
        return None
    # differences and products, which overflow to inf where a ** would raise
    lam = ((p0.Z - p1.Z) * (p0.Z + p1.Z) + dx * (p1.X + p0.X)) / (2.0 * dx)
    return Hyperbola(lam=lam, c_value=(p0.Z - p0.X + lam) * (p0.Z + p0.X - lam))


def ode_residual(path: SecondJetPath) -> float:
    """Max miss of a''/Z = 4 (a'/Z)^2 and b''/Z = 4 (b'/Z)^2 over the nodes, relative to their
    largest term, with a''/Z = 4 sigma1 a'/Z - 4 sigma2 from S'' = 16 sigma2 S and Z read off
    the node values; NumericError if it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        rates = np.array((path.a_dot.values, path.b_dot.values)) / path.Z
        terms = np.array((4.0 * path.sigma1.values * rates - 4.0 * path.sigma2, 4.0 * rates**2))
        residual = float(np.max(np.abs(terms[0] - terms[1])) / (np.max(np.abs(terms)) or 1.0))
    if not math.isfinite(residual):
        raise NumericError(f"the jet-equation residual of the path is {residual}")
    return residual


def arc_epsilon(path: SecondJetPath) -> float:
    """Quadrature of (1/4) sqrt((X'^2 - Z'^2)/Z^2) along a space-like path."""
    if path.causal_class is not CausalClass.SPACE_LIKE:
        raise GeodesicDomainError("arc length quadrature needs a space-like path")
    a_dot, b_dot = path.a_dot.values, path.b_dot.values
    dX, dZ = 2.0 * a_dot - 2.0 * b_dot, 2.0 * a_dot + 2.0 * b_dot
    return 0.25 * integrate(CoefficientSeries(path.grid, np.sqrt(dX**2 - dZ**2) / path.Z))
