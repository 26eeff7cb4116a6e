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

Monomial coefficient vectors are ordered by descending x exponent, so index i
of an even-even degree-2n vector is the monomial x^(2n-2i) y^(2i).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np


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


def _check_A(A: float) -> float:
    A = float(A)
    if not (A > 0) or not math.isfinite(A):
        raise ValueError(f"A must be positive and finite, got {A}")
    return A


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
    """Vectors q_k, k = 0..n, with B^2 q_k = (2k)^2 q_k."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    out = []
    for k in range(n + 1):
        full = _binom_product(n + k, n - k)
        if k:
            mirror = _binom_product(n - k, n + k)
            full = [u + v for u, v in zip(full, mirror)]
        else:
            full = [2 * u for u in full]
        coeffs = np.array([float(full[e]) for e in range(0, 2 * n + 1, 2)])
        out.append(PolyVector(basis, coeffs))
    return out


def _binom_product(p: int, m: int) -> list[int]:
    """Coefficients of (x+y)^p (x-y)^m by ascending y exponent (exact ints)."""
    u = [math.comb(p, i) for i in range(p + 1)]
    v = [math.comb(m, i) * (-1) ** i for i in range(m + 1)]
    out = [0] * (p + m + 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


@functools.lru_cache(maxsize=64)
def q_matrix(n: int) -> np.ndarray:
    """Columns are the q_k coefficient vectors on the even-even basis.

    Memoised for the 64 most recently used n, and read-only: every caller
    shares the array, so copy it before writing.
    """
    qm = np.column_stack([q.coeffs for q in eigenbasis_q(n)])
    qm.setflags(write=False)
    return qm


def op_EA(n: int, A: float) -> PolyOperator:
    """E_A = (A^2 x^2 + A^-2 y^2) Laplacian on the even-even basis."""
    A = _check_A(A)
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    dim = basis.dimension
    mat = np.zeros((dim, dim))
    for col, (j, k) in enumerate(basis.monomials):
        lap_x = j * (j - 1)
        lap_y = k * (k - 1)
        mat[col, col] += A * A * lap_x + lap_y / (A * A)
        if lap_y:
            mat[col - 1, col] += A * A * lap_y      # x^2 * d_yy term
        if lap_x:
            mat[col + 1, col] += lap_x / (A * A)    # y^2 * d_xx term
    return PolyOperator(basis, basis, mat)


def op_SA(n: int, A: float) -> PolyOperator:
    """S_A = A x d_x - A^-1 y d_y, diagonal on monomials."""
    A = _check_A(A)
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    diag = np.array([A * j - k / A for j, k in basis.monomials])
    return PolyOperator(basis, basis, np.diag(diag))


def u_eigenvalues(n: int, A: float, parity: Parity = Parity.EVEN_EVEN) -> np.ndarray:
    """Diagonal of U on monomials: (A^2+1)^(j/2) (A^-2+1)^(k/2)."""
    A = _check_A(A)
    basis = PolyBasis(2 * n, parity)
    ex = np.array([m[0] for m in basis.monomials], dtype=float)
    ey = np.array([m[1] for m in basis.monomials], dtype=float)
    return (A * A + 1.0) ** (ex / 2.0) * (1.0 + A ** -2.0) ** (ey / 2.0)


def op_U(n: int, A: float, parity: Parity = Parity.EVEN_EVEN) -> PolyOperator:
    basis = PolyBasis(2 * n, parity)
    return PolyOperator(basis, basis, np.diag(u_eigenvalues(n, A, parity)))


def conjugation_identity_residual(n: int, A: float) -> float:
    """Max entry error of U^-1 (A x d_y + A^-1 y d_x) U = x d_y + y d_x."""
    A = _check_A(A)
    basis = PolyBasis(2 * n, Parity.FULL)
    dim = basis.dimension
    mixing = np.zeros((dim, dim))
    for col, (j, k) in enumerate(basis.monomials):
        if k >= 1:
            mixing[k - 1, col] += A * k
        if j >= 1:
            mixing[k + 1, col] += j / A
    u = u_eigenvalues(n, A, Parity.FULL)
    conj = mixing * u[None, :] / u[:, None]
    return float(np.max(np.abs(conj - boost(n).matrix)))


def dtilde_coefficients(n: int) -> np.ndarray:
    """Weights nu_j of Dtilde = sum nu_j d_x^(2j) d_y^(2n-2j), Dtilde(q_k) = delta_kn.

    Index j counts the x derivatives; applied to the even-even coefficient
    vector of q_k (index i = y half-exponent) the term j pairs with i = n-j.
    """
    qm = q_matrix(n)
    fact = np.array(
        [math.factorial(2 * j) * math.factorial(2 * n - 2 * j) for j in range(n + 1)],
        dtype=float,
    )
    # row k, column j: nu_j extracts monomial x^(2j) y^(2n-2j), basis index n-j.
    system = (qm[::-1, :] * fact[:, None]).T
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    return np.linalg.solve(system, rhs)


def d_weights(n: int, A: float) -> np.ndarray:
    """Raw-derivative weights of D indexed like the even-even basis.

    Entry i multiplies the derivative value D_x^(2n-2i) D_y^(2i) phi(0); it is
    nu_(n-i) A^(2i) / (1+A^2)^n.
    """
    A = _check_A(A)
    nu = dtilde_coefficients(n)
    j = np.arange(n + 1)
    weights = nu * A ** (2 * n - 2 * j) / (1.0 + A * A) ** n
    return weights[::-1]


def apply_d_operator(n: int, A: float, poly: PolyVector) -> float:
    """Evaluate D on an even-even degree-2n monomial coefficient vector."""
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    if poly.basis != basis:
        raise ValueError(f"expected even-even degree-{2*n} vector, got {poly.basis}")
    i = np.arange(n + 1)
    fact = np.array(
        [math.factorial(2 * n - 2 * k) * math.factorial(2 * k) for k in i], dtype=float
    )
    return float(math.fsum(d_weights(n, A) * poly.coeffs * fact))
