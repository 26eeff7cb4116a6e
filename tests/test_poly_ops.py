import math
from fractions import Fraction

import numpy as np
import pytest

from torusjets.poly_ops import (
    Parity,
    PolyBasis,
    PolyOperator,
    PolyVector,
    apply_EA,
    apply_SA,
    apply_laplacian,
    apply_d_operator,
    boost,
    boost_squared,
    conjugation_identity_residual,
    d_weights,
    dtilde_coefficients,
    eigenbasis_q,
    fischer_weights,
    node_tables,
    op_EA,
    op_SA,
    op_U,
    q_adjoint,
    q_matrix,
    u_eigenvalues,
    u_log_derivative,
)
from torusjets.errors import NumericError
from torusjets.timegrid import make_grid

from _oracles import (
    basis_even_even,
    basis_full,
    dtilde_weights_exact,
    ea_op,
    even_even_from_poly,
    matrix_of_operator,
    pairing_weights_mp,
    poly_add,
    poly_diff,
    poly_from_even_even,
    q_poly,
    sa_op,
    solve_fraction_system,
    u_eigenvalue_exact,
)


def oracle_matrix(op, degree, parity="even_even"):
    basis = basis_even_even(degree) if parity == "even_even" else basis_full(degree)
    rows = matrix_of_operator(op, basis, degree, parity=parity)
    return np.array([[float(c) for c in row] for row in rows])


# --- basis plumbing -----------------------------------------------------------

def test_basis_validation():
    with pytest.raises(ValueError):
        PolyBasis(3, Parity.EVEN_EVEN)
    with pytest.raises(ValueError):
        PolyBasis(0, Parity.FULL)
    basis = PolyBasis(6, Parity.EVEN_EVEN)
    assert basis.dimension == 4
    assert basis.monomials == ((6, 0), (4, 2), (2, 4), (0, 6))
    assert PolyBasis(6, Parity.FULL).dimension == 7


def test_vector_validation():
    basis = PolyBasis(4, Parity.EVEN_EVEN)
    PolyVector(basis, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PolyVector(basis, [1.0, 0.0])


def test_operator_domain_check():
    op = op_SA(2, 1.0)
    wrong = PolyVector(PolyBasis(6, Parity.EVEN_EVEN), np.zeros(4))
    with pytest.raises(ValueError):
        op.apply(wrong)


def test_positive_A_required():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            op_EA(2, bad)


def test_boost_needs_degree_two():
    with pytest.raises(ValueError):
        boost(0)


# --- operator matrices against the symbolic oracle -----------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boost_matrix_exact(n):
    from _oracles import boost_op

    ours = boost(n).matrix
    ref = oracle_matrix(boost_op, 2 * n, parity="full")
    assert np.array_equal(ours, ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixing_derivation_on_powers_of_x_plus_y(n):
    # (x d_y + y d_x)(x+y)^m = m (x+y)^m; even m only, the basis is degree 2n
    m = 2 * n
    coeffs = np.array([float(math.comb(m, k)) for k in range(m + 1)])
    vec = PolyVector(PolyBasis(m, Parity.FULL), coeffs)
    image = boost(n).apply(vec)
    assert np.array_equal(image.coeffs, m * coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
def test_apply_laplacian_matches_exact_differentiation(n):
    # integer coefficients keep every product exact, so the match is exact
    rng = np.random.default_rng(40 + n)
    vecs = [[int(c) for c in rng.integers(-50, 51, n + 1)] for _ in range(3)]
    refs = []
    for vec in vecs:
        p = poly_from_even_even(vec, 2 * n)
        lap = poly_add(poly_diff(poly_diff(p, "x"), "x"), poly_diff(poly_diff(p, "y"), "y"))
        refs.append([float(c) for c in even_even_from_poly(lap, 2 * n - 2)])
    assert np.array_equal(apply_laplacian(n, np.array(vecs[0])), refs[0])
    assert np.array_equal(apply_laplacian(n, np.array(vecs).T), np.array(refs).T)


@pytest.mark.parametrize("n,A", [(2, 2.0), (3, 2.0), (4, 2.0)])
def test_op_EA_matrix_exact_dyadic(n, A):
    # A = 2 keeps A^2 and A^-2 exactly representable, so entries match exactly
    ours = op_EA(n, A).matrix
    ref = oracle_matrix(lambda p: ea_op(p, Fraction(2)), 2 * n)
    assert np.array_equal(ours, ref)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_op_EA_matrix_rational(n):
    A = Fraction(3, 2)
    ours = op_EA(n, float(A)).matrix
    ref = oracle_matrix(lambda p: ea_op(p, A), 2 * n)
    scale = np.max(np.abs(ref)) or 1.0
    assert np.max(np.abs(ours - ref)) < 1e-13 * scale


@pytest.mark.parametrize("n,A", [(2, 2.0), (3, 2.0), (4, 0.5)])
def test_op_SA_matrix_exact_dyadic(n, A):
    ours = op_SA(n, A).matrix
    ref = oracle_matrix(lambda p: sa_op(p, Fraction(A)), 2 * n)
    assert np.array_equal(ours, ref)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_u_eigenvalues_match_exact(n):
    A = Fraction(3, 2)
    ours = u_eigenvalues(n, float(A))
    for i in range(n + 1):
        ref = float(u_eigenvalue_exact(n, i, A))
        assert abs(ours[i] - ref) < 1e-13 * ref
    dyadic = u_eigenvalues(n, 2.0)
    for i in range(n + 1):
        assert dyadic[i] == float(u_eigenvalue_exact(n, i, Fraction(2)))


def test_operators_broadcast_over_an_array_of_A():
    rng = np.random.default_rng(23)
    for n in (2, 5, 9):
        A = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 6))
        p = rng.standard_normal((n + 1, 6))
        broadcast = {op_U: u_eigenvalues(n, A) * p, op_EA: apply_EA(n, A, p), op_SA: apply_SA(n, A, p)}
        for op, out in broadcast.items():
            for i, a in enumerate(A):
                ref = op(n, a).matrix @ p[:, i]
                assert np.max(np.abs(out[:, i] - ref)) <= 1e-15 * np.max(np.abs(ref))
    for bad in (0.0, -1.0, math.nan, math.inf):
        A = np.array([0.5, bad, 2.0])
        p = np.ones((3, 3))
        for call in (lambda: u_eigenvalues(2, A), lambda: apply_EA(2, A, p), lambda: apply_SA(2, A, p)):
            with pytest.raises(ValueError):
                call()


def test_u_log_derivative_along_the_path():
    # along A = tan(2 eps t + theta0), U'/U and its derivative against D on a fine grid
    grid = make_grid(64)
    eps, theta0 = 0.2, 0.4
    A = np.tan(2.0 * eps * grid.nodes + theta0)
    for n in (2, 5, 9):
        ell, dell = u_log_derivative(n, A, eps)
        assert ell.shape == dell.shape == (n + 1, 64)
        for closed, values in ((ell, np.log(u_eigenvalues(n, A))), (dell, ell)):
            assert np.max(np.abs(closed - values @ grid.diff_matrix.T)) <= 1e-9 * np.max(np.abs(closed))


def test_node_tables_hold_the_exact_values_bit_for_bit():
    # at dyadic A and eps every value is a float, so each must be its exact rational; one
    # table of A = (2, 1/2) serves every degree, as in the propagator
    eps, top = Fraction(1, 8), 22
    A = np.array([2.0, 0.5])
    tables = node_tables(A, top)
    assert not any(table.flags.writeable for table in vars(tables).values())
    for n in range(2, top + 1):
        ell, dell = u_log_derivative(n, A, float(eps))
        sliced_ell, sliced_dell = tables.log_derivative(n, float(eps))
        ours = {"u": (u_eigenvalues(n, A), tables.u(n)),
                "sa": (apply_SA(n, A, np.ones((n + 1, 2))), tables.sa(n)),
                "ell": (ell, sliced_ell), "dell": (dell, sliced_dell)}
        for col, a in enumerate(map(Fraction, A)):
            rows = range(n + 1)
            sa = [2 * (n - i) * a - 2 * i / a for i in rows]
            exact = {"u": [u_eigenvalue_exact(n, i, a) for i in rows], "sa": sa,
                     "ell": [2 * eps * s for s in sa],
                     "dell": [4 * eps**2 * (1 + a * a) * (2 * (n - i) + 2 * i / (a * a))
                              for i in rows]}
            for name, values in exact.items():
                ref = np.array([float(v) for v in values])
                assert [Fraction(v) for v in ref] == values  # every value is a float
                for arr in ours[name]:
                    assert np.array_equal(arr[:, col], ref), (name, n, a)
            # 4^-n / u rounds once, as d_weights does, so the float D has its bits here
            assert np.array_equal(tables.d(n)[:, col], d_weights(n, float(a)))


def test_exponents_are_memoised_read_only_columns():
    from torusjets import poly_ops

    for parity, ndim in ((Parity.EVEN_EVEN, 1), (Parity.FULL, 0)):
        ex, ey = poly_ops._exponents(3, parity, ndim)
        assert poly_ops._exponents(3, parity, ndim)[0] is ex
        monomials = PolyBasis(6, parity).monomials
        assert ex.shape == ey.shape == (len(monomials),) + (1,) * ndim
        assert [(int(j), int(k)) for j, k in zip(ex.ravel(), ey.ravel())] == list(monomials)
        for arr in (ex, ey):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def test_op_U_diagonal():
    op = op_U(3, 1.7)
    assert np.array_equal(np.diag(np.diag(op.matrix)), op.matrix)
    assert np.array_equal(np.diag(op.matrix), u_eigenvalues(3, 1.7))


# --- eigenstructure ------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 30])
def test_q_vectors_exact(n):
    vecs = eigenbasis_q(n)
    for k, vec in enumerate(vecs):
        ref = even_even_from_poly(q_poly(n, k), 2 * n)
        assert np.array_equal(vec.coeffs, np.array([float(c) for c in ref]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 10])
def test_q_vectors_are_boost_squared_eigenvectors(n):
    sq = boost_squared(n).matrix
    qm = q_matrix(n)
    for k in range(n + 1):
        image = sq @ qm[:, k]
        assert np.array_equal(image, (2 * k) ** 2 * qm[:, k])


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_boost_squared_spectrum(n):
    eig = np.sort(np.linalg.eigvals(boost_squared(n).matrix).real)
    expected = np.sort([(2 * k) ** 2 for k in range(n + 1)])
    assert np.max(np.abs(eig - expected)) < 1e-9 * max(1.0, expected[-1])


def test_q_matrix_invertible_roundtrip():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6):
        qm = q_matrix(n)
        f = rng.standard_normal(n + 1)
        p = qm @ f
        back = np.linalg.solve(qm, p)
        assert np.max(np.abs(back - f)) < 1e-11 * max(1.0, np.max(np.abs(f)))


def test_q_matrix_is_memoised_and_read_only():
    qm = q_matrix(5)
    assert q_matrix(5) is qm
    assert np.array_equal(qm, np.column_stack([q.coeffs for q in eigenbasis_q(5)]))
    with pytest.raises(ValueError):
        qm[0, 0] = 1.0


@pytest.mark.parametrize("n", range(2, 21))
def test_q_adjoint_is_the_exact_inverse(n):
    exact_q = [[int(c) for c in even_even_from_poly(q_poly(n, k), 2 * n)] for k in range(n + 1)]
    exact_q = [list(row) for row in zip(*exact_q)]  # columns are the q_k
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        b = rng.standard_normal(n + 1)
        exact = np.array([float(x) for x in solve_fraction_system(exact_q, [Fraction(x) for x in b])])
        assert np.max(np.abs(q_adjoint(n) @ b - exact)) <= 1e-15 * np.max(np.abs(exact))
    # the q_k are orthogonal in the Fischer inner product, with the closed-form norms
    qm = q_matrix(n)
    gram = qm.T @ (fischer_weights(n)[:, None] * qm)
    diag = np.diag(gram)
    off = gram - np.diag(diag)
    assert np.max(np.abs(off) / np.sqrt(np.outer(diag, diag))) <= 1e-15
    norms = [2 ** (2 * n + 1 + (k == 0)) * math.factorial(n + k) * math.factorial(n - k)
             for k in range(n + 1)]
    assert np.max(np.abs(diag / np.array(norms, dtype=float) - 1.0)) <= 1e-15
    assert q_adjoint(n) is q_adjoint(n)
    with pytest.raises(ValueError):
        q_adjoint(n)[0, 0] = 1.0


def test_conjugation_identity_small():
    for n in (1, 2, 3, 4, 6, 8):
        for A in (0.05, 0.3, 1.0, 2.5, 20.0):
            assert conjugation_identity_residual(n, A) < 1e-9


def test_conjugation_identity_random_sweep():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        worst = max(worst, conjugation_identity_residual(n, A))
    assert worst < 1e-9


# --- order-2n boundary pairing --------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12, 16])
def test_dtilde_weights_match_exact(n):
    nu = dtilde_coefficients(n)
    exact = dtilde_weights_exact(n)
    for j in range(n + 1):
        ref = float(exact[j])
        assert abs(nu[j] - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dtilde_weights_symmetric(n):
    exact = dtilde_weights_exact(n)
    assert all(exact[j] == exact[n - j] for j in range(n + 1))
    nu = dtilde_coefficients(n)
    assert np.max(np.abs(nu - nu[::-1])) < 1e-12 * np.max(np.abs(nu))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dtilde_is_dual_to_q_basis(n):
    # applying the constant-coefficient operator to q_k by real differentiation
    nu = dtilde_coefficients(n)
    for k in range(n + 1):
        poly = q_poly(n, k)
        total = Fraction(0)
        for j in range(n + 1):
            c = poly.get((2 * j, 2 * n - 2 * j), Fraction(0))
            total += (
                Fraction(nu[j]).limit_denominator(10**12)
                * c
                * math.factorial(2 * j)
                * math.factorial(2 * n - 2 * j)
            )
        expected = 1 if k == n else 0
        assert abs(float(total) - expected) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_d_of_Ug_equals_dtilde_of_g(n):
    rng = np.random.default_rng(n)
    basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
    nu = dtilde_coefficients(n)
    fact = np.array(
        [math.factorial(2 * n - 2 * i) * math.factorial(2 * i) for i in range(n + 1)],
        dtype=float,
    )
    for _ in range(25):
        A = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        g = rng.uniform(-1, 1, n + 1)
        ug = PolyVector(basis, u_eigenvalues(n, A) * g)
        lhs = apply_d_operator(n, A, ug)
        rhs = math.fsum(nu[::-1] * g * fact)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_fischer_weights_past_170_factorial_are_numeric_errors():
    assert np.isfinite(fischer_weights(85)).all()  # 170! still fits a float
    for call in (fischer_weights, dtilde_coefficients):
        with pytest.raises(NumericError, match="degree 172"):
            call(86)


def test_d_weights_formula():
    # D(p) = p(X, Y): entry i is the monomial x^(2n-2i) y^(2i) at X^2 = 1/(4(1+A^2)),
    # Y^2 = 1/(4(1+A^-2)), and the raw-derivative weight nu_(n-i) A^(2i)/(1+A^2)^n times
    # the Fischer weight (2n-2i)! (2i)!
    n, A = 3, 1.3
    nu, fact = dtilde_coefficients(n), fischer_weights(n)
    w = d_weights(n, A)
    for i in range(n + 1):
        ref = nu[n - i] * fact[i] * A ** (2 * i) / (1 + A * A) ** n
        assert abs(w[i] - ref) < 1e-15 * abs(ref)
        point = (0.25 / (1 + A * A)) ** (n - i) * (0.25 / (1 + A**-2)) ** i
        assert abs(w[i] - point) < 1e-15 * point


# the n = 53 rows lose entries to underflow if the weights are formed as nu times
# A^(2i)/(1+A^2)^n times (2n-2i)! (2i)!
@pytest.mark.parametrize("n, A", [(3, 1.3), (16, 1.1), (53, 14.157), (53, 0.0535),
                                  (100, 1.0), (200, 0.5)])
def test_d_weights_match_the_fischer_oracle(n, A):
    ref = pairing_weights_mp(n, A)
    w = d_weights(n, A)
    normal = [i for i in range(n + 1) if ref[i] >= np.finfo(float).tiny]
    assert normal and max(abs(w[i] - ref[i]) / ref[i] for i in normal) <= 1e-14


def test_apply_d_operator_validates_basis():
    with pytest.raises(ValueError):
        apply_d_operator(3, 1.0, PolyVector(PolyBasis(4, Parity.EVEN_EVEN), np.zeros(3)))
