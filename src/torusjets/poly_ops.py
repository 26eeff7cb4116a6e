"""Operator algebra on homogeneous polynomials in (x, y).

Higher-order jets of even potentials live in the space of even-even
homogeneous polynomials of degree 2n (dimension n+1).  The divided jet
equation involves the multiplication-differentiation operators

    E_A = (A^2 x^2 + A^-2 y^2) (d_xx + d_yy)
    S_A = A x d_x - A^-1 y d_y

and the time-dependent dilation U = exp(log(A^2+1)/2 x d_x) exp(log(1+A^-2)/2 y d_y),
which is diagonal on monomials.  Conjugating the first-order mixing term by U
produces the constant operator B = x d_y + y d_x, whose square preserves the
even-even space and diagonalizes on

    q_k = (x+y)^(n+k) (x-y)^(n-k) + (x+y)^(n-k) (x-y)^(n+k),   B^2 q_k = (2k)^2 q_k.

The order-2n boundary pairing is the constant-coefficient operator
Dtilde = sum_j nu_j d_x^(2j) d_y^(2n-2j) normalized by Dtilde(q_j) = delta_jn,
and its time-dependent form D = sum_j nu_j A^(2n-2j)/(1+A^2)^n d_x^(2j) d_y^(2n-2j)
satisfies D(U g) = Dtilde(g).

B is self-adjoint in the Fischer (Bombieri) inner product <x^a y^b, x^c y^d>_F =
a! b! delta_ac delta_bd, so the q_k are orthogonal in it; the product is rotation
invariant, so ||q_k||_F^2 = 2^(2n+1) (n+k)! (n-k)!, twice that at k = 0.  Hence
Q^-1 = diag(1/||q_k||_F^2) Q^T W, with W the Fischer weights (2n-2i)! (2i)!, and
Dtilde(g) = <q_n, g>_F / ||q_n||_F^2, in closed form without a linear solve.

The pairing is a point evaluation.  On the even-even basis q_n is 2 (x+y)^(2n),
and <(x+y)^(2n), g>_F = (2n)! g(1, 1) is the reproducing property of the Fischer
product (Beauzamy, Bombieri, Enflo and Montgomery, J. Number Theory 36, 1990), so
Dtilde(g) = 4^-n g(1, 1) = g(1/2, 1/2), and D(p) = Dtilde(U^-1 p) = p(X, Y) with
X = 1/(2 sqrt(1+A^2)) and Y = A X.  Its monomial weights need no factorial.  This
module owns the node tables of U, S_A, U'/U and D along an array of A, which
u_eigenvalues, apply_SA, u_log_derivative and the propagator all slice.

Monomial coefficient vectors are ordered by descending x exponent, so index i
of an even-even degree-2n vector is the monomial x^(2n-2i) y^(2i).  Operators
taking an array of A act on arrays whose axis 0 runs over this basis, with A
broadcast against the other axes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


class Parity(enum.Enum):
    EVEN_EVEN = "EvenEven"
    FULL = "Full"


@dataclass(frozen=True)
class PolyBasis:
    """Monomial basis of homogeneous degree-2n polynomials."""

    degree: int
    parity: Parity

    def __post_init__(self):
        if self.degree < 2 or self.degree % 2:
            raise ValueError(f"degree must be even and >= 2, got {self.degree}")

    @property
    def n(self) -> int:
        return self.degree // 2

    @property
    def dimension(self) -> int:
        return self.n + 1 if self.parity is Parity.EVEN_EVEN else self.degree + 1

    @property
    def monomials(self) -> tuple[tuple[int, int], ...]:
        step = 2 if self.parity is Parity.EVEN_EVEN else 1
        return tuple((self.degree - e, e) for e in range(0, self.degree + 1, step))


@dataclass(frozen=True)
class PolyVector:
    basis: PolyBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.basis.dimension,):
            raise ValueError(f"expected {self.basis.dimension} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class PolyOperator:
    domain: PolyBasis
    codomain: PolyBasis
    matrix: np.ndarray

    def apply(self, vec: PolyVector) -> PolyVector:
        if vec.basis != self.domain:
            raise ValueError("operator domain does not match vector basis")
        return PolyVector(self.codomain, self.matrix @ vec.coeffs)


def _check_A(A) -> np.ndarray:
    """A as a float array (0-d for a scalar), every entry positive and finite."""
    A = np.asarray(A, dtype=float)
    bad = ~(np.isfinite(A) & (A > 0))
    if bad.any():
        raise ValueError(f"A must be positive and finite, got {A[bad][0]}")
    return A


@functools.lru_cache(maxsize=256)
def _exponents(n: int, parity: Parity, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y exponents of the degree-2n basis as columns over `ndim` trailing axes.

    Memoised per (n, parity, ndim) and read-only, like q_matrix.
    """
    ex, ey = np.array(PolyBasis(2 * n, parity).monomials).T
    shape = (-1,) + (1,) * ndim
    ex, ey = ex.reshape(shape), ey.reshape(shape)
    ex.setflags(write=False)
    ey.setflags(write=False)
    return ex, ey


def boost(n: int) -> PolyOperator:
    """Matrix of B = x d_y + y d_x on the full degree-2n basis."""
    basis = PolyBasis(2 * n, Parity.FULL)
    dim = basis.dimension
    mat = np.zeros((dim, dim))
    for col, (j, k) in enumerate(basis.monomials):
        # x d_y: (j, k) -> (j+1, k-1) with factor k; rows indexed by y exponent.
        if k >= 1:
            mat[k - 1, col] += k
        if j >= 1:
            mat[k + 1, col] += j
    return PolyOperator(basis, basis, mat)


def boost_squared(n: int) -> PolyOperator:
    """B^2 restricted to the even-even degree-2n subspace."""
    full = boost(n)
    sq = full.matrix @ full.matrix
    idx = np.arange(0, 2 * n + 1, 2)
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    return PolyOperator(basis, basis, sq[np.ix_(idx, idx)])


def eigenbasis_q(n: int) -> list[PolyVector]:
    """Vectors q_k, k = 0..n, with B^2 q_k = (2k)^2 q_k.

    y -> -y swaps the two products of q_k and fixes even-even coefficients, so
    on this basis q_k is twice (x+y)^(n+k) (x-y)^(n-k), for k = 0 too."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    return [PolyVector(basis, np.array([float(2 * c) for c in _binom_product(n + k, n - k)[::2]]))
            for k in range(n + 1)]


def _binom_product(p: int, m: int) -> list[int]:
    """Coefficients c_e of (x+y)^p (x-y)^m by ascending y exponent e (exact ints).

    f = (1+y)^p (1-y)^m solves (1 - y^2) f' = (p - m - (p+m) y) f, so c_0 = 1 and
    (e+1) c_(e+1) = (p-m) c_e - (p+m-e+1) c_(e-1): O(p+m) steps, not O(p m).
    """
    c = [0, 1]  # c[e + 1] holds c_e, after c_(-1) = 0
    for e in range(p + m):
        c.append(((p - m) * c[e + 1] - (p + m - e + 1) * c[e]) // (e + 1))
    return c[1:]


@functools.lru_cache(maxsize=64)
def q_matrix(n: int) -> np.ndarray:
    """Columns are the q_k coefficient vectors on the even-even basis.

    Memoised for the 64 most recently used n, and read-only: every caller
    shares the array, so copy it before writing.
    """
    qm = np.column_stack([q.coeffs for q in eigenbasis_q(n)])
    qm.setflags(write=False)
    return qm


@functools.lru_cache(maxsize=64)
def q_adjoint(n: int) -> np.ndarray:
    """Inverse of q_matrix(n) in closed form, diag(1/||q_k||_F^2) Q^T W.

    Norms and weights are divided by (2n)!, so W_i = 1/C(2n, 2i), no factorial
    is formed and nothing overflows for n in the hundreds.  Memoised and
    read-only like q_matrix.
    """
    weights = np.array([1.0 / math.comb(2 * n, 2 * i) for i in range(n + 1)])
    inv_norms = np.array(
        [math.comb(2 * n, n + k) / 2 ** (2 * n + 1 + (k == 0)) for k in range(n + 1)]
    )
    adj = inv_norms[:, None] * q_matrix(n).T * weights
    adj.setflags(write=False)
    return adj


def fischer_weights(n: int) -> np.ndarray:
    """Fischer norms (2n-2i)! (2i)! of the even-even basis; NumericError once (2n)! overflows."""
    weights = [math.factorial(2 * n - 2 * i) * math.factorial(2 * i) for i in range(n + 1)]
    try:
        return np.array(weights, dtype=float)
    except OverflowError:
        raise NumericError(f"the Fischer weights of degree {2 * n} overflow a float") from None


def apply_laplacian(n: int, p: np.ndarray) -> np.ndarray:
    """d_xx + d_yy from even-even degree-2n coefficient arrays p to degree 2n-2.

    Row i of the result, x^(2n-2-2i) y^(2i), takes d_xx of row i and d_yy of row i+1.
    """
    p = np.asarray(p, dtype=float)
    j, k = _exponents(n, Parity.EVEN_EVEN, p.ndim - 1)
    jx, ky = j[:-1], k[1:]
    return p[:-1] * jx * (jx - 1) + p[1:] * ky * (ky - 1)


def apply_EA(n: int, A, p: np.ndarray) -> np.ndarray:
    """E_A = (A^2 x^2 + A^-2 y^2) Laplacian applied to even-even coefficient arrays p."""
    return ea_from_laplacian(_check_A(A), apply_laplacian(n, p))


def ea_from_laplacian(A: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """E_A of an even-even array from its Laplacian rows `lap` (apply_laplacian), A checked."""
    pad = np.zeros_like(lap[:1])
    return A * A * np.concatenate([lap, pad]) + np.concatenate([pad, lap]) / (A * A)


def apply_SA(n: int, A, p: np.ndarray) -> np.ndarray:
    """S_A = A x d_x - A^-1 y d_y applied to even-even coefficient arrays p."""
    return node_tables(A, n, np.ndim(p) - 1).sa(n) * np.asarray(p, dtype=float)


def op_EA(n: int, A: float) -> PolyOperator:
    """E_A = (A^2 x^2 + A^-2 y^2) Laplacian on the even-even basis."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    return PolyOperator(basis, basis, apply_EA(n, float(A), np.eye(basis.dimension)))


def op_SA(n: int, A: float) -> PolyOperator:
    """S_A = A x d_x - A^-1 y d_y, diagonal on monomials."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    return PolyOperator(basis, basis, apply_SA(n, float(A), np.eye(basis.dimension)))


@dataclass(frozen=True)
class NodeTables:
    """U, S_A, U'/U and D along an array A, in rows m = 0..top that each degree 2n <= 2 top reads.

    Monomial i = x^(2n-2i) y^(2i) pairs row n - i of an x table with row i of a y table:
    U's diagonal is (A^2 + 1)^(n-i) (1 + A^-2)^i and S_A weighs it by 2(n-i) A - 2i/A.
    Every degree of one A slices the same arrays, so it has the same bits.  Rows run along
    axis 0, A along the trailing axes, and a power past the float range reads inf.
    """

    two_m: np.ndarray
    one_plus_A2: np.ndarray
    x_powers: np.ndarray
    y_powers: np.ndarray
    x_weights: np.ndarray
    y_weights: np.ndarray
    y_curvatures: np.ndarray

    def u(self, n: int) -> np.ndarray:
        """Diagonal of U on the degree-2n monomials."""
        return self.x_powers[n::-1] * self.y_powers[:n + 1]

    def sa(self, n: int) -> np.ndarray:
        """Weights of S_A = A x d_x - A^-1 y d_y on the degree-2n monomials."""
        return self.x_weights[n::-1] - self.y_weights[:n + 1]

    def log_derivative(self, n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """U'/U = 2 eps S_A along A = tan(2 eps t + theta0), and its time derivative."""
        return (2.0 * eps * self.sa(n),
                4.0 * eps**2 * self.one_plus_A2 * (self.two_m[n::-1] + self.y_curvatures[:n + 1]))

    def d(self, n: int) -> np.ndarray:
        """Float weights of D, 4^-n / u_i = (X^2)^(n-i) (Y^2)^i as D(p) = Dtilde(U^-1 p): the
        point evaluation that d_weights forms exactly."""
        return 4.0**-n / self.u(n)


def node_tables(A, top: int, ndim: int | None = None) -> NodeTables:
    """Read-only NodeTables of rows 0..top, A broadcast against `ndim` (or A.ndim) trailing axes."""
    A = _check_A(A)
    m = np.arange(top + 1.0).reshape((-1,) + (1,) * (A.ndim if ndim is None else ndim))
    two_m, one_plus_A2 = 2.0 * m, A * A + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        tables = NodeTables(two_m, one_plus_A2, one_plus_A2 ** m, (1.0 + A ** -2.0) ** m,
                            A * two_m, two_m / A, two_m / (A * A))
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def u_eigenvalues(n: int, A, parity: Parity = Parity.EVEN_EVEN) -> np.ndarray:
    """Diagonal of U on monomials: (A^2+1)^(j/2) (A^-2+1)^(k/2).

    On the full basis it is the square root of the even-even diagonal of twice the degree."""
    if parity is Parity.FULL:
        return np.sqrt(node_tables(A, 2 * n).u(2 * n))
    return node_tables(A, n).u(n)


def u_log_derivative(n: int, A, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """U'/U = 2 eps S_A on monomials and its time derivative, along A = tan(2 eps t + theta0)."""
    return node_tables(A, n).log_derivative(n, eps)


def op_U(n: int, A: float, parity: Parity = Parity.EVEN_EVEN) -> PolyOperator:
    basis = PolyBasis(2 * n, parity)
    return PolyOperator(basis, basis, np.diag(u_eigenvalues(n, float(A), parity)))


def conjugation_identity_residual(n: int, A: float) -> float:
    """Max entry error of U^-1 (A x d_y + A^-1 y d_x) U = x d_y + y d_x."""
    A = _check_A(A)
    b = boost(n).matrix
    mixing = A * np.triu(b) + np.tril(b) / A    # x d_y lowers the y exponent, the row index
    u = u_eigenvalues(n, A, Parity.FULL)
    conj = mixing * u[None, :] / u[:, None]
    return float(np.max(np.abs(conj - b)))


def dtilde_coefficients(n: int) -> np.ndarray:
    """Weights nu_j of Dtilde = sum nu_j d_x^(2j) d_y^(2n-2j), Dtilde(q_k) = delta_kn.

    Dtilde(g) = <q_n, g>_F / ||q_n||_F^2 in the Fischer inner product, so nu_j
    is the x^(2j) y^(2n-2j) coefficient of q_n over ||q_n||_F^2: row n of
    q_adjoint over the Fischer weights, read at basis index n-j.
    """
    return (q_adjoint(n)[n] / fischer_weights(n))[::-1]


def d_weights(n: int, A: float) -> np.ndarray:
    """Weights of D on the even-even monomials: D(p) = sum_i w_i p_i = p(X, Y).

    Entry i is the monomial x^(2n-2i) y^(2i) at (X, Y), (X^2)^(n-i) (Y^2)^i with
    X^2 = 1/(4(1+A^2)) and Y^2 = 1/(4(1+A^-2)).  With A = a/b as exact integers it
    is b^(2n-2i) a^(2i) / (4(a^2+b^2))^n, rounded once: at most 4^-n, so it never
    overflows, and it underflows only where the true weight does.  A raw
    derivative D_x^(2n-2i) D_y^(2i) phi(0) takes w_i / ((2n-2i)! (2i)!).
    """
    a, b = float(_check_A(A)).as_integer_ratio()
    scale = (4 * (a * a + b * b)) ** n
    return np.array([b ** (2 * n - 2 * i) * a ** (2 * i) / scale for i in range(n + 1)])


def apply_d_operator(n: int, A: float, poly: PolyVector) -> float:
    """Evaluate D on an even-even degree-2n monomial coefficient vector."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    if poly.basis != basis:
        raise ValueError(f"expected even-even degree-{2*n} vector, got {poly.basis}")
    return float(math.fsum(d_weights(n, A) * poly.coeffs))
