"""Independent reference implementations used to pin expected test values.

Nothing here imports from torusjets: the jet ODE is integrated with a plain
RK4 shooting method, its path and sigma1 are evaluated at 50 and 60 digits
(mpmath) from the hyperbola geometry of its half-plane picture, polynomial
operators are rebuilt by symbolic differentiation on exact-rational
bivariate polynomials, linear systems
are solved by fraction-preserving elimination, and the obstruction of h_3 is
carried through the whole chain in exact arithmetic (sympy).  The order-2n
pairing weights come from the Fischer inner product of the exact q_n, and the
geodesic of a potential in x alone from the Legendre transform of its ends.  Agreement
between these routines and the package is what the tests assert.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# RK4 shooting for the second-jet system a'' = 4 a'^2 / z, b'' = 4 b'^2 / z,
# z = 1 + 2a + 2b, vectorized over a batch of boundary values.
# ---------------------------------------------------------------------------

def _rhs(state):
    a, b, da, db = state
    z = 1.0 + 2.0 * a + 2.0 * b
    return np.stack([da, db, 4.0 * da * da / z, 4.0 * db * db / z])


def _rk4_segment(state, t0, t1, steps):
    h = (t1 - t0) / steps
    for _ in range(steps):
        k1 = _rhs(state)
        k2 = _rhs(state + 0.5 * h * k1)
        k3 = _rhs(state + 0.5 * h * k2)
        k4 = _rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def _integrate(a0, b0, da0, db0, t_nodes, density=96):
    state = np.stack([a0, b0, da0, db0])
    a_path = np.empty((len(t_nodes),) + np.shape(a0))
    b_path = np.empty_like(a_path)
    a_path[0], b_path[0] = state[0], state[1]
    for i in range(1, len(t_nodes)):
        gap = t_nodes[i] - t_nodes[i - 1]
        steps = max(2, int(math.ceil(gap * density)))
        state = _rk4_segment(state, t_nodes[i - 1], t_nodes[i], steps)
        a_path[i], b_path[i] = state[0], state[1]
    return a_path, b_path


def shoot_jet_paths(a0, b0, a1, b1, t_nodes, density=96, iters=60):
    """Batched RK4 shooting solution of the jet boundary problem.

    Returns (a, b) sampled at t_nodes with shape (len(t_nodes), batch).
    Damped Newton iterates on the initial slopes with a finite-difference
    2x2 Jacobian, all boundaries advanced in lockstep; trial slopes whose
    integration blows up count as infinitely bad and get backtracked.
    """
    a0 = np.atleast_1d(np.asarray(a0, dtype=float))
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    a1 = np.atleast_1d(np.asarray(a1, dtype=float))
    b1 = np.atleast_1d(np.asarray(b1, dtype=float))

    def miss(sa_, sb_):
        with np.errstate(over="ignore", invalid="ignore"):
            ap, bp = _integrate(a0, b0, sa_, sb_, t_nodes, density)
        finite = np.isfinite(ap[-1]) & np.isfinite(bp[-1])
        ra = np.where(finite, ap[-1] - a1, np.inf)
        rb = np.where(finite, bp[-1] - b1, np.inf)
        return ra, rb

    def merit(ra, rb):
        with np.errstate(invalid="ignore"):
            return np.where(
                np.isfinite(ra) & np.isfinite(rb),
                np.maximum(np.abs(ra), np.abs(rb)),
                np.inf,
            )

    # start from the chord, shrunk per column until the integration is finite
    sa = a1 - a0
    sb = b1 - b0
    ra, rb = miss(sa, sb)
    m0 = merit(ra, rb)
    for _ in range(60):
        bad = ~np.isfinite(m0)
        if not bad.any():
            break
        sa = np.where(bad, 0.5 * sa, sa)
        sb = np.where(bad, 0.5 * sb, sb)
        ra, rb = miss(sa, sb)
        m0 = merit(ra, rb)

    for _ in range(iters):
        if np.max(m0) < 1e-13:
            break
        h = 1e-7 * (1.0 + np.abs(sa) + np.abs(sb))
        ra_a, rb_a = miss(sa + h, sb)
        ra_b, rb_b = miss(sa, sb + h)
        with np.errstate(invalid="ignore", over="ignore"):
            j11 = (ra_a - ra) / h
            j21 = (rb_a - rb) / h
            j12 = (ra_b - ra) / h
            j22 = (rb_b - rb) / h
            det = j11 * j22 - j12 * j21
            da = (j22 * ra - j12 * rb) / det
            db = (-j21 * ra + j11 * rb) / det
        da = np.where(np.isfinite(da), da, 0.0)
        db = np.where(np.isfinite(db), db, 0.0)
        alpha = np.ones_like(sa)
        accepted = np.zeros_like(sa, dtype=bool)
        best_sa, best_sb, best_m = sa.copy(), sb.copy(), m0.copy()
        for _ in range(25):
            trial_sa = np.where(accepted, best_sa, sa - alpha * da)
            trial_sb = np.where(accepted, best_sb, sb - alpha * db)
            tra, trb = miss(trial_sa, trial_sb)
            tm = merit(tra, trb)
            better = ~accepted & (tm < best_m)
            best_sa = np.where(better, trial_sa, best_sa)
            best_sb = np.where(better, trial_sb, best_sb)
            best_m = np.where(better, tm, best_m)
            accepted |= better
            if accepted.all():
                break
            alpha = np.where(accepted, alpha, 0.5 * alpha)
        sa, sb = best_sa, best_sb
        ra, rb = miss(sa, sb)
        m0 = merit(ra, rb)
    return _integrate(a0, b0, sa, sb, t_nodes, density)


# ---------------------------------------------------------------------------
# The 2-jet path at 50 digits from the hyperbola and branch geometry of the
# half-plane Z = 1 + 2a + 2b, X = 2a - 2b with metric (dX^2 - dZ^2)/Z^2.
# ---------------------------------------------------------------------------

def jet_path_mp(a0, b0, a1, b1, t_nodes, dps=50):
    """(a, b) at t_nodes, each rounded to float from a 50-digit evaluation.

    Through two ends with dX != 0 passes one level set Z^2 - (X - lam)^2 = C.
    For C > 0 (space-like) the arc is Z = sqrt(C)/sin(psi), X = lam - sqrt(C) cot(psi),
    with the Lorentz arc length psi affine in t.  For C < 0 (time-like) it is the branch
    Z = r/sinh(s), X = lam + sign(X0 - lam) r coth(s), r^2 = -C, with the proper time s
    affine in t; a vertical chord is Z = Z0 (Z1/Z0)^t.  For C = 0 (light-like) the
    path runs along the null line X - X0 = (dX/dZ)(Z - Z0) with 1/Z affine in t.
    """
    import mpmath

    with mpmath.workdps(dps):
        points = _geodesic_mp(mpmath, a0, b0, a1, b1, t_nodes)
        a = np.array([float((z + x - 1) / 4) for x, z, _ in points])
        b = np.array([float((z - x - 1) / 4) for x, z, _ in points])
    return a, b


def sigma1_mp(a0, b0, a1, b1, t_nodes, dps=60):
    """sigma1 = Z'/(2 Z) at t_nodes, each rounded to float from a 60-digit evaluation.

    On the paths of jet_path_mp, Z'/Z is -psi' cot(psi) on a space-like arc,
    -s' coth(s) on a time-like branch, log(Z1/Z0) on a vertical chord and
    -p'/p, p = 1/Z, on a null line.
    """
    import mpmath

    with mpmath.workdps(dps):
        return np.array([float(s) for _, _, s in _geodesic_mp(mpmath, a0, b0, a1, b1, t_nodes)])


def _geodesic_mp(mpmath, a0, b0, a1, b1, t_nodes):
    """(X, Z, sigma1) of the geodesic at each of t_nodes, at the working precision."""
    mp = mpmath.mpf
    a0, b0, a1, b1 = (mp(float(v)) for v in (a0, b0, a1, b1))
    z0, z1 = 1 + 2 * (a0 + b0), 1 + 2 * (a1 + b1)
    x0, x1 = 2 * (a0 - b0), 2 * (a1 - b1)
    dx, dz = x1 - x0, z1 - z0
    ts = [mp(float(t)) for t in t_nodes]
    if dx == 0:
        rate = mpmath.log(z1 / z0) / 2
        return [(x0, z0 * (z1 / z0) ** t, rate) for t in ts]
    if dx * dx == dz * dz:
        ps = [(1 - t) / z0 + t / z1 for t in ts]
        dp = 1 / z1 - 1 / z0
        return [(x0 + dx / dz * (1 / p - z0), 1 / p, -dp / (2 * p)) for p in ps]
    lam = ((z0 - z1) * (z0 + z1) + dx * (x1 + x0)) / (2 * dx)
    c = z0 * z0 - (x0 - lam) ** 2
    if c > 0:
        root = mpmath.sqrt(c)
        psi0, psi1 = (mpmath.atan2(root, lam - x) for x in (x0, x1))
        psis = [psi0 + (psi1 - psi0) * t for t in ts]
        return [(lam - root * mpmath.cot(p), root / mpmath.sin(p),
                 -(psi1 - psi0) * mpmath.cot(p) / 2) for p in psis]
    r, side = mpmath.sqrt(-c), mpmath.sign(x0 - lam)
    s0, s1 = mpmath.asinh(r / z0), mpmath.asinh(r / z1)
    ss = [s0 + (s1 - s0) * t for t in ts]
    return [(lam + side * r * mpmath.coth(s), r / mpmath.sinh(s), -(s1 - s0) * mpmath.coth(s) / 2)
            for s in ss]


# ---------------------------------------------------------------------------
# The geodesic of a potential in x alone as the Legendre transform of a straight
# line (Semmes 1992; Donaldson 1999; Rubinstein and Zelditch 2012): with
# u_t = x^2/2 + phi(t, x), phi_tt (1 + phi_xx) - phi_tx^2 = 0 is the 2-D homogeneous
# real Monge-Ampere equation, and u_t* = (1 - t) u_0* + t u_1*.
# ---------------------------------------------------------------------------

def _sin_powers(terms, s):
    """phi1(s) = sum c sin(s)^p over terms (c, p), p >= 2, and its first two derivatives."""
    sin, cos = np.sin(s), np.cos(s)
    phi1, d1, d2 = (np.zeros_like(s) for _ in range(3))
    for c, p in terms:
        phi1 += c * sin**p
        d1 += c * p * sin ** (p - 1) * cos
        d2 += c * p * ((p - 1) * sin ** (p - 2) * cos**2 - sin**p)
    return phi1, d1, d2


def legendre_geodesic(terms, t, x):
    """phi(t, x) of the geodesic from phi0 = 0 to phi1 = sum c sin(x)^p, terms (c, p).

    Each point solves x = s + (1 - t) phi1'(s) for s by scalar Newton from s = x,
    monotone while 1 + phi1'' > 0. Then p = s + phi1'(s), u1(s) = s^2/2 + phi1(s) and
    phi = p x - (1 - t) p^2/2 - t (p s - u1(s)) - x^2/2. t and x broadcast.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    s = x.copy()
    for _ in range(50):
        _, d1, d2 = _sin_powers(terms, s)
        step = (s + (1.0 - t) * d1 - x) / (1.0 + (1.0 - t) * d2)
        s = s - step
        if np.max(np.abs(step)) <= 1e-15 * (1.0 + np.max(np.abs(s))):
            break
    else:
        raise AssertionError("the Legendre inversion did not converge")
    phi1, d1, _ = _sin_powers(terms, s)
    p = s + d1
    u1 = s * s / 2.0 + phi1
    return p * x - (1.0 - t) * p * p / 2.0 - t * (p * s - u1) - x * x / 2.0


# ---------------------------------------------------------------------------
# Exact bivariate polynomials as {(i, j): Fraction or float} dictionaries.
# ---------------------------------------------------------------------------

def poly_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def poly_scale(p, s):
    return {k: c * s for k, c in p.items() if c * s != 0}


def poly_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def poly_diff(p, var):
    out = {}
    for (i, j), c in p.items():
        if var == "x" and i > 0:
            out[(i - 1, j)] = out.get((i - 1, j), 0) + c * i
        if var == "y" and j > 0:
            out[(i, j - 1)] = out.get((i, j - 1), 0) + c * j
    return out


def poly_pow(p, m):
    out = {(0, 0): 1}
    for _ in range(m):
        out = poly_mul(out, p)
    return out


def even_even_from_poly(p, degree):
    """Coefficient vector (index = y half-exponent) of the degree-`degree` part."""
    n = degree // 2
    vec = [p.get((degree - 2 * i, 2 * i), 0) for i in range(n + 1)]
    mixed = [
        key for key in p
        if key[0] + key[1] == degree and (key[0] % 2 or key[1] % 2) and p[key] != 0
    ]
    if mixed:
        raise AssertionError(f"odd-exponent contamination at degree {degree}: {mixed}")
    return vec


def poly_from_even_even(vec, degree):
    n = degree // 2
    return {(degree - 2 * i, 2 * i): c for i, c in enumerate(vec) if c != 0}


def basis_even_even(degree):
    n = degree // 2
    return [{(degree - 2 * i, 2 * i): Fraction(1)} for i in range(n + 1)]


def basis_full(degree):
    return [{(degree - k, k): Fraction(1)} for k in range(degree + 1)]


def matrix_of_operator(op, basis, degree, parity="even_even"):
    """Columns are op(basis vector) expanded over the same-degree monomials."""
    cols = []
    for mono in basis:
        image = op(mono)
        if parity == "even_even":
            cols.append(even_even_from_poly(image, degree))
        else:
            cols.append([image.get((degree - k, k), 0) for k in range(degree + 1)])
    return [list(row) for row in zip(*cols)]


def boost_op(p):
    """x d_y + y d_x as a symbolic operator."""
    x = {(1, 0): Fraction(1)}
    y = {(0, 1): Fraction(1)}
    return poly_add(poly_mul(x, poly_diff(p, "y")), poly_mul(y, poly_diff(p, "x")))


def ea_op(p, A: Fraction):
    """(A^2 x^2 + y^2 / A^2) (d_xx + d_yy) as a symbolic operator."""
    lap = poly_add(poly_diff(poly_diff(p, "x"), "x"), poly_diff(poly_diff(p, "y"), "y"))
    wx = poly_scale({(2, 0): Fraction(1)}, A * A)
    wy = poly_scale({(0, 2): Fraction(1)}, 1 / (A * A))
    return poly_mul(poly_add(wx, wy), lap)


def sa_op(p, A: Fraction):
    """A x d_x - (y / A) d_y as a symbolic operator."""
    tx = poly_mul({(1, 0): A}, poly_diff(p, "x"))
    ty = poly_mul({(0, 1): -1 / A}, poly_diff(p, "y"))
    return poly_add(tx, ty)


def q_poly(n: int, k: int):
    """(x+y)^(n+k) (x-y)^(n-k) + (x+y)^(n-k) (x-y)^(n+k), exact."""
    plus = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    minus = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    first = poly_mul(poly_pow(plus, n + k), poly_pow(minus, n - k))
    second = poly_mul(poly_pow(plus, n - k), poly_pow(minus, n + k))
    return poly_add(first, second)


def sin_power_series(power: int, half: int):
    """Coefficients of u^(2k), k = 0..half, of sin(u)^power, exact.

    A repeated Cauchy product with the sine series u - u^3/3! + ..., truncated
    at degree 2*half.
    """
    size = 2 * half + 1
    sine = [Fraction(0)] * size
    for d in range(1, size, 2):
        sine[d] = Fraction((-1) ** (d // 2), math.factorial(d))
    out = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for _ in range(power):
        out = [sum((out[i] * sine[d - i] for i in range(d) if sine[d - i]), Fraction(0))
               for d in range(size)]
    return out[::2]


def u_eigenvalue_exact(n: int, i: int, A: Fraction) -> Fraction:
    """Eigenvalue of U on x^(2n-2i) y^(2i) for rational A (exact)."""
    return (A * A + 1) ** (n - i) * (1 + 1 / (A * A)) ** i


def solve_fraction_system(matrix, rhs):
    """Gaussian elimination over Fractions with partial pivoting by magnitude."""
    n = len(rhs)
    m = [[Fraction(matrix[r][c]) for c in range(n)] + [Fraction(rhs[r])] for r in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def dtilde_weights_exact(n: int):
    """Exact nu_j: sum_j nu_j d_x^(2j) d_y^(2n-2j) maps q_k to delta_kn.

    Built by genuinely differentiating the q polynomials and evaluating at 0.
    """
    rows = []
    for k in range(n + 1):
        qk = q_poly(n, k)
        row = []
        for j in range(n + 1):
            p = qk
            for _ in range(2 * j):
                p = poly_diff(p, "x")
            for _ in range(2 * n - 2 * j):
                p = poly_diff(p, "y")
            row.append(p.get((0, 0), Fraction(0)))
        rows.append(row)
    rhs = [Fraction(0)] * n + [Fraction(1)]
    return solve_fraction_system(rows, rhs)


def pairing_weights_mp(n: int, A: float, dps: int = 50):
    """Monomial weights of the order-2n boundary pairing D at A, as `dps`-digit mpf.

    Dtilde(g) = <q_n, g>_F / ||q_n||_F^2 is formed in Fractions from the exact
    coefficients of q_n and the Fischer norms a! b! of its monomials, and
    D(p) = Dtilde(U^-1 p) divides by U's exact eigenvalues at the rational A.
    Entry i multiplies the x^(2n-2i) y^(2i) coefficient of p; over (2n-2i)! (2i)!
    it is the weight of the raw derivative D_x^(2n-2i) D_y^(2i) p.
    """
    import mpmath

    qn = even_even_from_poly(q_poly(n, n), 2 * n)
    fischer = [math.factorial(2 * n - 2 * i) * math.factorial(2 * i) for i in range(n + 1)]
    norm = sum(c * c * f for c, f in zip(qn, fischer))
    a = Fraction(A)
    exact = [qn[i] * fischer[i] / norm / u_eigenvalue_exact(n, i, a) for i in range(n + 1)]
    with mpmath.workdps(dps):
        return [mpmath.mpf(w.numerator) / w.denominator for w in exact]


def k1_from_node_data(order_data, degree):
    """Degree-`degree` part of -(Lap L) L'' + |grad L'|^2 at one time node.

    order_data maps even order -> (coeffs, dcoeffs, ddcoeffs) even-even
    vectors of the jet and its first two time derivatives at the node.
    """
    L = {}
    Ld = {}
    Ldd = {}
    for order, (c, dc, ddc) in order_data.items():
        L = poly_add(L, poly_from_even_even(c, order))
        Ld = poly_add(Ld, poly_from_even_even(dc, order))
        Ldd = poly_add(Ldd, poly_from_even_even(ddc, order))
    lap = poly_add(poly_diff(poly_diff(L, "x"), "x"), poly_diff(poly_diff(L, "y"), "y"))
    grad_sq = poly_add(
        poly_mul(poly_diff(Ld, "x"), poly_diff(Ld, "x")),
        poly_mul(poly_diff(Ld, "y"), poly_diff(Ld, "y")),
    )
    total = poly_add(poly_scale(poly_mul(lap, Ldd), -1), grad_sq)
    part = {k: c for k, c in total.items() if k[0] + k[1] == degree}
    return [part.get((degree - 2 * i, 2 * i), 0.0) for i in range(degree // 2 + 1)]


# ---------------------------------------------------------------------------
# The obstruction of h_3 in exact arithmetic (sympy).  Every quantity of the
# chain is a rational function of w = exp(i psi), psi the angle of the 2-jet
# path on its hyperbola, with coefficients in Q(sqrt 3, i, pi); psi itself,
# where it stands outside an exponential, is kept as a second symbol.
# ---------------------------------------------------------------------------

def obstruction_n3_exact():
    """(K, lhs_h) of h_3 = c sin^2 x - c sin^2 y, c = sin(pi/6)/2, as exact Fractions.

    The chain: the 2-jet path (0, 0) -> (c, -c) from its hyperbola, eps from its
    Lorentz arc length and A = a' / (eps Z) from the divided jet equation; order
    4 mode by mode, f(t) = f0 cos(mu t) + (f1 - f0 cos mu) sin(mu t) / sin mu with
    mu = 4 eps k, times U, checked against the divided order-4 equation; K1 of
    order 6 by the polynomial algebra above; its q_3 coefficient k_top through
    the Dtilde weights; K = (1/(m pi)) int_0^1 k_top sin(m pi t) dt by partial
    fractions in w, term by term; and lhs_h from the Taylor jets and the D
    weights at the end A.  It takes about 30 s.
    """
    import sympy as sp

    I, pi = sp.I, sp.pi
    w, psi = sp.symbols("w psi")

    def exact(expr):
        return sp.radsimp(sp.simplify(sp.expand_complex(expr)))

    # the path: Z = sqrt(C) / sin(psi), X = lam - sqrt(C) cot(psi), psi affine in t
    c = sp.sin(pi / 6) / 2
    a0, b0, a1, b1 = sp.S(0), sp.S(0), c, -c
    (x0, z0), (x1, z1) = ((2 * (a - b), 1 + 2 * (a + b)) for a, b in ((a0, b0), (a1, b1)))
    lam = ((z0 - z1) * (z0 + z1) + (x1 - x0) * (x1 + x0)) / (2 * (x1 - x0))
    root = sp.sqrt(z0**2 - (x0 - lam) ** 2)
    psi0, psi1 = (sp.atan2(root, lam - x) for x in (x0, x1))
    speed = psi1 - psi0
    t = (psi - psi0) / speed
    cos_psi, sin_psi = (w + 1 / w) / 2, (w - 1 / w) / (2 * I)
    Z = root / sin_psi
    X = lam - root * cos_psi / sin_psi
    a, b = (Z + X - 1) / 4, (Z - X - 1) / 4

    def ddt(f):
        """d/dt = speed d/dpsi, which is i w d/dw + d/dpsi on f(exp(i psi), psi)."""
        return sp.together(speed * (I * w * sp.diff(f, w) + sp.diff(f, psi)))

    def at(f, end):
        return exact(f.subs({w: sp.exp(I * end), psi: end}))

    eps = sp.sqrt(sp.cancel((ddt(X) ** 2 - ddt(Z) ** 2) / (16 * Z**2)))
    A = sp.cancel(ddt(a) / (eps * Z))  # a'' / Z = 4 eps^2 A^2 and a' / Z = eps A
    assert not eps.has(w) and eps == pi / 12
    assert (at(A, psi0), at(A, psi1)) == (sp.tan(pi / 6), sp.tan(pi / 3))

    def cis(r):
        """exp(i r speed t), which is w^r up to a constant for integer r."""
        assert r.is_integer
        return w**r * (sp.cos(r * psi0) - I * sp.sin(r * psi0))

    def u(n, i):
        """U on x^(2n-2i) y^(2i)."""
        return (A * A + 1) ** (n - i) * (1 + 1 / (A * A)) ** i

    def q_columns(n):
        return sp.Matrix([[sp.Rational(v.numerator, v.denominator)
                           for v in even_even_from_poly(q_poly(n, k), 2 * n)]
                          for k in range(n + 1)]).T

    sines = [sp.Rational(v.numerator, v.denominator) for v in sin_power_series(2, 3)]
    jets0 = {4: [0] * 3, 6: [0] * 4}
    jets1 = {4: [c * sines[2], 0, -c * sines[2]], 6: [c * sines[3], 0, 0, -c * sines[3]]}

    # order 4 has no K1 source: each mode solves f'' + mu^2 f = 0 between f0 and f1
    n = 2
    qm = q_columns(n)
    f0, f1 = (qm.solve(sp.Matrix([exact(jets[4][i] / at(u(n, i), end)) for i in range(n + 1)]))
              for jets, end in ((jets0, psi0), (jets1, psi1)))
    modes = []
    for k in range(n + 1):
        mu = 4 * eps * k
        if mu == 0:
            modes.append(f0[k] + (f1[k] - f0[k]) * t)
            continue
        r = mu / speed
        cos_t, sin_t = (cis(r) + cis(-r)) / 2, (cis(r) - cis(-r)) / (2 * I)
        modes.append(f0[k] * cos_t + (f1[k] - f0[k] * sp.cos(mu)) * sin_t / sp.sin(mu))
    g = qm * sp.Matrix(modes)
    p4 = {(4 - 2 * i, 2 * i): sp.together(u(n, i) * g[i]) for i in range(n + 1)}
    dp4 = {key: ddt(v) for key, v in p4.items()}
    ddp4 = {key: ddt(v) for key, v in dp4.items()}

    def lap(p):
        return poly_add(poly_diff(poly_diff(p, "x"), "x"), poly_diff(poly_diff(p, "y"), "y"))

    # P'' + ((a'' x^2 + b'' y^2) / Z) Lap P - (4 / Z)(a' x d_x + b' y d_y) P' = K1 / Z = 0
    metric = {(2, 0): ddt(ddt(a)) / Z, (0, 2): ddt(ddt(b)) / Z}
    drift = poly_add(poly_mul({(1, 0): -4 * ddt(a) / Z}, poly_diff(dp4, "x")),
                     poly_mul({(0, 1): -4 * ddt(b) / Z}, poly_diff(dp4, "y")))
    equation = poly_add(poly_add(ddp4, poly_mul(metric, lap(p4))), drift)
    assert all(sp.cancel(v) == 0 for v in equation.values())

    # order 6: K1 / Z, divided by U, projected on q_3 by the Dtilde weights
    n = 3
    k1 = poly_add(poly_scale(poly_mul(lap(p4), ddp4), -1),
                  poly_add(poly_mul(poly_diff(dp4, "x"), poly_diff(dp4, "x")),
                           poly_mul(poly_diff(dp4, "y"), poly_diff(dp4, "y"))))
    nu = [sp.Rational(v.numerator, v.denominator) for v in dtilde_weights_exact(n)]
    fischer = [sp.factorial(2 * n - 2 * i) * sp.factorial(2 * i) for i in range(n + 1)]
    k_top = sum(nu[n - i] * fischer[i] * k1.get((2 * n - 2 * i, 2 * i), 0) / (Z * u(n, i))
                for i in range(n + 1))
    m = 4 * eps * n / pi
    assert m.is_integer, "the top mode of order 6 must resonate"
    r = m * pi / speed
    integrand = sp.cancel(k_top * (cis(r) - cis(-r)) / (2 * I) / (I * w))  # dpsi = dw / (i w)
    assert not integrand.has(psi)

    # int dpsi = int dw / (i w) along w = exp(i psi), term by term over partial fractions
    num, den = sp.fraction(integrand)
    den = sp.Poly(den, w)
    pieces = sum(coeff * sp.apart(w**k / den.monic().as_expr(), w)
                 for (k,), coeff in sp.Poly(sp.expand(num / den.LC()), w).terms())
    w0, w1 = sp.exp(I * psi0), sp.exp(I * psi1)
    total = 0
    for term in sp.Add.make_args(sp.expand(pieces)):
        top, bottom = sp.fraction(sp.factor(term))
        const, factors = sp.factor_list(bottom, w)
        if not factors:  # coeff w^k, k >= 0
            (k,), coeff = sp.Poly(top / const, w).terms()[0]
            total += coeff * (w1 ** (k + 1) - w0 ** (k + 1)) / (k + 1)
            continue
        assert not top.has(w)
        (linear, power), = factors
        lead, pole = sp.Poly(linear, w).LC(), sp.solve(linear, w)[0]
        coeff = top / (const * lead**power)
        if power > 1:
            total += coeff * ((w0 - pole) ** (1 - power) - (w1 - pole) ** (1 - power)) / (power - 1)
        elif pole == 0:
            total += coeff * I * speed
        else:  # for the poles +-1, w - pole stays off the negative real axis on the arc
            total += coeff * (sp.log(w1 - pole) - sp.log(w0 - pole))
    K = exact(total / (speed * m * pi))

    # lhs: D weights nu_(n-i) A^(2i) / (1 + A^2)^n times the Fischer weights, at each end
    def pairing(jets, end):
        A_end = at(A, end)
        return sum(nu[n - i] * A_end ** (2 * i) / (1 + A_end**2) ** n * fischer[i] * jets[6][i]
                   for i in range(n + 1))

    lhs = exact(pairing(jets0, psi0) - (-1) ** m * pairing(jets1, psi1))
    assert K.is_Rational and lhs.is_Rational, (K, lhs)
    return Fraction(int(K.p), int(K.q)), Fraction(int(lhs.p), int(lhs.q))
