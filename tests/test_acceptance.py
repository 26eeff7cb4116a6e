"""End-to-end acceptance checks, one test per criterion.

Tolerances are fixed here and nowhere else; each test prints one pass/fail
line under pytest -v.  Reference values come from tests/_oracles.py (RK4
shooting and exact-rational symbolic operators), never from the modules
under test.
"""

import math
import time
from fractions import Fraction

import numpy as np

from torusjets.counterexample import (
    TorusPotential,
    build_h,
    build_h_tilde,
    cb_norm_report,
    obstruction_demo,
)
from torusjets.jet_propagation import ModeProblem, solve_mode
from torusjets.pde_crosscheck import (
    crosscheck_report,
    extract_second_jets,
    solve_geodesic,
)
from torusjets.poly_ops import (
    boost,
    boost_squared,
    conjugation_identity_residual,
    dtilde_coefficients,
    eigenbasis_q,
    op_EA,
    op_SA,
    u_eigenvalues,
)
from torusjets.second_jet import (
    SecondJetBoundary,
    epsilon_from_boundary,
    ode_residual,
    solve_bvp,
)
from torusjets.timegrid import CoefficientSeries, derivative, make_grid, sample

from _oracles import (
    basis_even_even,
    basis_full,
    boost_op,
    dtilde_weights_exact,
    ea_op,
    even_even_from_poly,
    matrix_of_operator,
    q_poly,
    sa_op,
    shoot_jet_paths,
    u_eigenvalue_exact,
)

GRID = make_grid(64)


def random_spacelike_boundaries(rng, count):
    a0 = rng.uniform(-0.2, 0.6, count)
    b0 = np.maximum(rng.uniform(-0.2, 0.6, count), -0.45 - a0 + 0.05)
    da = rng.uniform(0.05, 0.5, count)
    db = rng.uniform(0.05, 0.5, count)
    sign = rng.choice([-1.0, 1.0], count)
    a1 = a0 + sign * da
    b1 = b0 - sign * db
    ok = np.minimum.reduce([a0 + b0, a1 + b1, a0 + b1, a1 + b0]) > -0.45
    return a0[ok], b0[ok], a1[ok], b1[ok]


def test_criterion_1_second_jet_paths_match_shooting_oracle():
    rng = np.random.default_rng(2024)
    a0, b0, a1, b1 = random_spacelike_boundaries(rng, 200)
    assert len(a0) >= 150

    start = time.perf_counter()
    paths = [solve_bvp(SecondJetBoundary(*bd), GRID) for bd in zip(a0, b0, a1, b1)]
    a_ref, b_ref = shoot_jet_paths(a0, b0, a1, b1, GRID.nodes)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    for i, path in enumerate(paths):
        assert ode_residual(path) < 1e-8
        assert abs(path.a.values[0] - a0[i]) < 1e-9
        assert abs(path.b.values[0] - b0[i]) < 1e-9
        assert abs(path.a.values[-1] - a1[i]) < 1e-9
        assert abs(path.b.values[-1] - b1[i]) < 1e-9
        z = 1.0 + 2.0 * path.a.values + 2.0 * path.b.values
        s2 = derivative(path.a).values * derivative(path.b).values / z**2
        assert np.max(s2) - np.min(s2) < 1e-9
        assert np.max(np.abs(path.a.values - a_ref[:, i])) < 1e-6
        assert np.max(np.abs(path.b.values - b_ref[:, i])) < 1e-6


def test_criterion_2_epsilon_of_symmetric_family():
    for n in range(3, 13):
        c = 0.5 * math.sin(math.pi / (2 * n))
        eps = epsilon_from_boundary(SecondJetBoundary(0.0, 0.0, c, -c))
        assert abs(eps - math.pi / (4 * n)) < 1e-10


def test_criterion_3_conjugation_and_mixing_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        assert conjugation_identity_residual(n, A) < 1e-9
    for n in range(1, 11):
        eig = np.sort(np.linalg.eigvals(boost_squared(n).matrix).real)
        expected = np.sort([(2 * k) ** 2 for k in range(n + 1)])
        assert np.max(np.abs(eig - expected)) < 1e-9 * max(1.0, expected[-1])


def test_criterion_4_pairing_conjugation_identity():
    from torusjets.poly_ops import Parity, PolyBasis, PolyVector, apply_d_operator

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        g = rng.uniform(-1.0, 1.0, n + 1)
        basis = PolyBasis(2 * n, Parity.EVEN_EVEN)
        ug = PolyVector(basis, u_eigenvalues(n, A) * g)
        lhs = apply_d_operator(n, A, ug)
        nu = dtilde_coefficients(n)
        fact = np.array(
            [math.factorial(2 * n - 2 * i) * math.factorial(2 * i) for i in range(n + 1)],
            dtype=float,
        )
        rhs = math.fsum(nu[::-1] * g * fact)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_criterion_5_mode_solver_residuals_and_obstruction_value():
    rng = np.random.default_rng(17)
    d2 = GRID.diff_matrix @ GRID.diff_matrix
    for _ in range(20):
        lam = float(rng.uniform(0.0, 60.0))
        if min(abs(math.sqrt(lam) - m * math.pi) for m in (1, 2)) < 1e-3:
            lam += 0.1
        coeffs = rng.uniform(-1.0, 1.0, 6)
        k = sample(GRID, lambda t: sum(c * t**p for p, c in enumerate(coeffs)))
        f0, f1 = rng.uniform(-1.0, 1.0, 2)
        sol = solve_mode(ModeProblem(lam, k, f0, f1), GRID)
        res = d2 @ sol.values.values + lam * sol.values.values - k.values
        assert np.max(np.abs(res[1:-1])) < 1e-7
        assert abs(sol.values.values[0] - f0) < 1e-12
        assert abs(sol.values.values[-1] - f1) < 1e-12

    k = sample(GRID, lambda t: math.sin(math.pi * t))
    sol = solve_mode(ModeProblem(math.pi**2, k, 0.0, 0.0), GRID)
    assert sol.resonant and not sol.compatible
    assert abs(sol.compat_residual - 1.0 / (2.0 * math.pi)) < 1e-10


def test_criterion_6_obstruction_demos_small_n():
    start = time.perf_counter()
    for n in range(3, 7):
        demo = obstruction_demo(n)
        assert demo.resonant_order == 2 * n
        assert abs(demo.epsilon - math.pi / (4 * n)) < 1e-10
        assert np.max(np.abs(demo.v)) > 1e-12
        # the pairing shift must match the linear prediction to 12 digits
        rel = abs(demo.difference - demo.predicted_difference)
        assert rel < 1e-12 * abs(demo.predicted_difference)
        assert not (demo.satisfied_h and demo.satisfied_htilde)
    assert time.perf_counter() - start < 30.0


def test_criterion_7_norm_decay_of_perturbed_family():
    # kappa = n and chi = exp(-n); the C^10 estimate must decay monotonically
    values = [
        cb_norm_report(build_h_tilde(n, n, math.exp(-n)), 10) for n in range(10, 21)
    ]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] < 180.0


def test_criterion_8_pde_crosscheck_matches_closed_form():
    amp = 0.02
    saddle = TorusPotential(terms=((amp, 2, 0), (-amp, 0, 2)))
    start = time.perf_counter()
    reports = {}
    for nx in (32, 48):
        sol = solve_geodesic(saddle, 33, nx, nx, [1e-1, 1e-2, 1e-3])
        a, b = extract_second_jets(sol)
        ref = solve_bvp(SecondJetBoundary(0.0, 0.0, a[-1], b[-1]), GRID)
        reports[nx] = crosscheck_report(sol, ref.epsilon)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    final = reports[48]
    assert final.relative_spread < 0.05
    assert final.epsilon_relative_error < 0.05
    # refining the spatial grid strictly tightens sigma_2 constancy
    assert reports[48].relative_spread < reports[32].relative_spread


def test_criterion_9_operator_matrices_match_exact_symbolics():
    for n in range(1, 5):
        ref = matrix_of_operator(boost_op, basis_full(2 * n), 2 * n, parity="full")
        assert np.array_equal(boost(n).matrix, np.array(ref, dtype=float))

        two = Fraction(2)
        ref = matrix_of_operator(lambda p: ea_op(p, two), basis_even_even(2 * n), 2 * n)
        assert np.array_equal(op_EA(n, 2.0).matrix, np.array(ref, dtype=float))
        ref = matrix_of_operator(lambda p: sa_op(p, two), basis_even_even(2 * n), 2 * n)
        assert np.array_equal(op_SA(n, 2.0).matrix, np.array(ref, dtype=float))

        half = Fraction(3, 2)
        ref = np.array(
            matrix_of_operator(lambda p: ea_op(p, half), basis_even_even(2 * n), 2 * n),
            dtype=float,
        )
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(op_EA(n, 1.5).matrix - ref)) < 1e-13 * scale

        for i in range(n + 1):
            assert u_eigenvalues(n, 2.0)[i] == float(u_eigenvalue_exact(n, i, two))
        for k, vec in enumerate(eigenbasis_q(n)):
            ref = even_even_from_poly(q_poly(n, k), 2 * n)
            assert np.array_equal(vec.coeffs, np.array([float(c) for c in ref]))

        nu = dtilde_coefficients(n)
        exact = dtilde_weights_exact(n)
        for j in range(n + 1):
            assert abs(nu[j] - float(exact[j])) < 1e-12 * abs(float(exact[j]))
