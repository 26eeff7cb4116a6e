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
    A = _check_A(A)
    p = np.asarray(p, dtype=float)
    j, k = _exponents(n, Parity.EVEN_EVEN, p.ndim - 1)
    return (A * j - k / A) * p


def op_EA(n: int, A: float) -> PolyOperator:
    """E_A = (A^2 x^2 + A^-2 y^2) Laplacian on the even-even basis."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    return PolyOperator(basis, basis, apply_EA(n, float(A), np.eye(basis.dimension)))


def op_SA(n: int, A: float) -> PolyOperator:
    """S_A = A x d_x - A^-1 y d_y, diagonal on monomials."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    return PolyOperator(basis, basis, apply_SA(n, float(A), np.eye(basis.dimension)))


def u_eigenvalues(n: int, A, parity: Parity = Parity.EVEN_EVEN) -> np.ndarray:
    """Diagonal of U on monomials: (A^2+1)^(j/2) (A^-2+1)^(k/2)."""
    A = _check_A(A)
    ex, ey = _exponents(n, parity, A.ndim)
    return (A * A + 1.0) ** (ex / 2.0) * (1.0 + A ** -2.0) ** (ey / 2.0)


def u_log_derivative(n: int, A, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """U'/U = 2 eps S_A on monomials and its time derivative, along A = tan(2 eps t + theta0)."""
    A = _check_A(A)
    ex, ey = _exponents(n, Parity.EVEN_EVEN, A.ndim)
    return 2.0 * eps * (A * ex - ey / A), 4.0 * eps**2 * (1.0 + A * A) * (ex + ey / (A * A))


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
    """Raw-derivative weights of D indexed like the even-even basis.

    Entry i multiplies the derivative value D_x^(2n-2i) D_y^(2i) phi(0); it is
    nu_(n-i) A^(2i) / (1+A^2)^n.
    """
    A = _check_A(A)
    i = np.arange(n + 1)
    return dtilde_coefficients(n)[::-1] * A ** (2 * i) / (1.0 + A * A) ** n


def apply_d_operator(n: int, A: float, poly: PolyVector) -> float:
    """Evaluate D on an even-even degree-2n monomial coefficient vector."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    if poly.basis != basis:
        raise ValueError(f"expected even-even degree-{2*n} vector, got {poly.basis}")
    return float(math.fsum(d_weights(n, A) * poly.coeffs * fischer_weights(n)))
