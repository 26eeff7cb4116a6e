import math
from collections import Counter

import numpy as np
import pytest

from torusjets import jet_propagation
from torusjets.counterexample import build_h, jets_at_origin
from torusjets.errors import ConsistencyError, GeodesicDomainError, NumericError
from torusjets.jet_propagation import (
    JetHierarchy,
    ModeProblem,
    ObstructionReport,
    compatibility_check,
    order_residual,
    propagate,
    solve_mode,
    source_K1,
)
from torusjets.second_jet import SecondJetBoundary, solve_bvp
from torusjets.timegrid import CoefficientSeries, make_grid, sample

from _oracles import k1_from_node_data

GRID = make_grid(64)
ZERO = CoefficientSeries(GRID, np.zeros(GRID.node_count))


def family_boundary(theta):
    c = 0.5 * math.sin(theta)
    return SecondJetBoundary(0.0, 0.0, c, -c)


# --- single-mode solver ---------------------------------------------------------

def test_mode_problem_validation():
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ModeProblem(lam, ZERO, 0.0, 0.0)


def test_mode_requires_matching_grid():
    other = CoefficientSeries(make_grid(32), np.zeros(32))
    with pytest.raises(ValueError):
        solve_mode(ModeProblem(1.0, other, 0.0, 0.0), GRID)


def test_mode_linear_solution():
    sol = solve_mode(ModeProblem(0.0, ZERO, 0.25, 1.0), GRID)
    assert not sol.resonant and not sol.near_resonance
    assert np.max(np.abs(sol.values.values - (0.25 + 0.75 * GRID.nodes))) < 1e-11


def test_mode_manufactured_nonresonant():
    # f = sin(3 pi t) solves f'' + 4 f = (4 - 9 pi^2) sin(3 pi t)
    k = sample(GRID, lambda t: (4.0 - 9.0 * math.pi**2) * math.sin(3 * math.pi * t))
    sol = solve_mode(ModeProblem(4.0, k, 0.0, 0.0), GRID)
    exact = np.sin(3 * math.pi * GRID.nodes)
    assert np.max(np.abs(sol.values.values - exact)) < 1e-9


def test_mode_interior_residual():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, 5)
    k = sample(GRID, lambda t: sum(c * t**p for p, c in enumerate(coeffs)))
    lam = 7.3
    sol = solve_mode(ModeProblem(lam, k, 0.2, -0.4), GRID)
    d2 = GRID.diff_matrix @ GRID.diff_matrix
    res = d2 @ sol.values.values + lam * sol.values.values - k.values
    assert np.max(np.abs(res[1:-1])) < 1e-7
    assert abs(sol.values.values[0] - 0.2) < 1e-13
    assert abs(sol.values.values[-1] + 0.4) < 1e-13


def test_mode_resonant_zero_source():
    sol = solve_mode(ModeProblem(math.pi**2, ZERO, 0.0, 0.0), GRID)
    assert sol.resonant and sol.multiple == 1
    assert sol.compatible
    assert sol.compat_residual < 1e-12
    assert np.max(np.abs(sol.values.values)) < 1e-9


def test_mode_resonant_cosine():
    # f = cos(pi t) is compatible data; orthogonality to sin(pi t) pins it
    sol = solve_mode(ModeProblem(math.pi**2, ZERO, 1.0, -1.0), GRID)
    assert sol.resonant and sol.compatible
    assert abs(sol.boundary_term) < 1e-14
    assert np.max(np.abs(sol.values.values - np.cos(math.pi * GRID.nodes))) < 1e-8


def test_mode_resonant_incompatible_frozen_value():
    # k = sin(pi t): the source pairing is (1/pi) * int sin^2 = 1/(2 pi)
    k = sample(GRID, lambda t: math.sin(math.pi * t))
    sol = solve_mode(ModeProblem(math.pi**2, k, 0.0, 0.0), GRID)
    assert sol.resonant and not sol.compatible
    assert abs(sol.compat_residual - 1.0 / (2.0 * math.pi)) < 1e-12
    assert abs(sol.source_term - 1.0 / (2.0 * math.pi)) < 1e-12
    assert abs(sol.boundary_term) == 0.0


def test_mode_resonant_second_multiple():
    k = sample(GRID, lambda t: math.sin(2 * math.pi * t))
    sol = solve_mode(ModeProblem(4 * math.pi**2, k, 0.3, 0.3), GRID)
    assert sol.resonant and sol.multiple == 2
    # boundary term f0 - f1 vanishes; source pairing is 1/(4 pi)
    assert abs(sol.boundary_term) < 1e-14
    assert abs(sol.compat_residual - 1.0 / (4.0 * math.pi)) < 1e-12
    assert not sol.compatible


def test_mode_near_resonance_flag():
    sol = solve_mode(ModeProblem((math.pi + 5e-7) ** 2, ZERO, 0.0, 1.0), GRID)
    assert not sol.resonant and sol.near_resonance
    sol = solve_mode(ModeProblem((math.pi + 1e-5) ** 2, ZERO, 0.0, 1.0), GRID)
    assert not sol.resonant and not sol.near_resonance


@pytest.mark.parametrize("mu", [0.0, 3.0, 20.0, 50.0])
def test_mode_manufactured_with_homogeneous_part(mu):
    # f = cos(mu t) + e^t + t^3 solves f'' + mu^2 f = (1 + mu^2) e^t + 6 t + mu^2 t^3
    grid = make_grid(65)
    t = grid.nodes
    k = CoefficientSeries(grid, (1.0 + mu**2) * np.exp(t) + 6.0 * t + mu**2 * t**3)
    exact = np.cos(mu * t) + np.exp(t) + t**3
    sol = solve_mode(ModeProblem(mu**2, k, exact[0], exact[-1]), grid)
    assert not sol.resonant
    assert np.max(np.abs(sol.values.values - exact)) <= 1e-12 * np.max(np.abs(exact))
    # the closed-form derivative that propagate uses, without differentiating
    f, df = jet_propagation._vary_constants(
        grid, np.array([mu]), k.values[None], exact[:1], exact[-1], np.zeros(1, int)
    )
    exact_dot = -mu * np.sin(mu * t) + np.exp(t) + 3.0 * t**2
    assert np.array_equal(f[0], sol.values.values)
    assert np.max(np.abs(df[0] - exact_dot)) <= 1e-12 * np.max(np.abs(exact_dot))


# --- quadratic source assembly ---------------------------------------------------

def test_source_zero_at_order_four():
    path2 = solve_bvp(SecondJetBoundary(0.0, 0.0, 0.25, -0.25), GRID)
    lower = JetHierarchy(path2=path2, orders={})
    src = source_K1(lower, 4)
    assert len(src) == 3
    assert all(np.all(s.values == 0.0) for s in src)
    with pytest.raises(ValueError):
        source_K1(lower, 3)
    with pytest.raises(ValueError):
        source_K1(lower, 2)


@pytest.mark.parametrize("theta", [0.3, -0.3])
def test_source_matches_symbolic_oracle(theta):
    jets0, jets1 = family_jets(theta, 12, seed=11)
    hier = propagate(jets0, jets1, 12, GRID)
    assert isinstance(hier, JetHierarchy)
    assert hier.path2.swapped_axes == (theta < 0)
    dt = GRID.diff_matrix.T
    z = 1.0 + 2.0 * hier.path2.a.values + 2.0 * hier.path2.b.values
    for order in (6, 8, 10, 12):
        src = np.vstack([s.values for s in source_K1(hier, order)])
        for idx in (3, 17, 31, 44, 60):
            data = {}
            for stored in hier.orders:
                if stored < 4 or stored >= order:
                    continue
                mat = hier.order_matrix(stored)
                dmat = mat @ dt
                ddmat = dmat @ dt
                data[stored] = (mat[:, idx], dmat[:, idx], ddmat[:, idx])
            ref = np.array(k1_from_node_data(data, order)) / z[idx]
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(src[:, idx] - ref)) < 1e-9 * scale


# --- propagation -----------------------------------------------------------------

def test_propagate_validation():
    zeros2 = {2: [0.0, 0.0]}
    with pytest.raises(ValueError, match="even"):
        propagate({2: [0, 0], 3: [0, 0]}, zeros2, 4, GRID)
    with pytest.raises(ValueError, match="order 2"):
        propagate({4: [0, 0, 0]}, zeros2, 4, GRID)
    with pytest.raises(ValueError, match="coefficients"):
        propagate({2: [0, 0], 4: [0, 0]}, zeros2, 4, GRID)
    with pytest.raises(ValueError, match="max_order"):
        propagate(zeros2, zeros2, 3, GRID)
    with pytest.raises(ValueError, match="max_order"):
        propagate(zeros2, zeros2, 2, GRID)
    with pytest.raises(ValueError, match=f"max_order must be <= {jet_propagation.MAX_ORDER}"):
        propagate(zeros2, zeros2, jet_propagation.MAX_ORDER + 2, GRID)


def test_propagate_needs_spacelike_path():
    with pytest.raises(GeodesicDomainError):
        propagate({2: [0.0, 0.0]}, {2: [0.1, 0.1]}, 4, GRID)


def test_propagate_pure_two_jet_is_exactly_zero():
    hier = propagate({2: [0.0, 0.0]}, {2: [0.2, -0.2]}, 8, GRID)
    assert isinstance(hier, JetHierarchy)
    assert sorted(hier.orders) == [4, 6, 8]
    for order in (4, 6, 8):
        assert np.max(np.abs(hier.order_matrix(order))) == 0.0
    # 4 eps n crosses pi at n = 4 for this boundary
    assert hier.beyond_scope_orders == (8,)


def test_propagate_solves_boundary_jets():
    rng = np.random.default_rng(5)
    jets0 = {2: np.zeros(2), 4: rng.uniform(-1, 1, 3)}
    jets1 = {2: np.array([0.2, -0.2]), 4: rng.uniform(-1, 1, 3), 6: rng.uniform(-1, 1, 4)}
    hier = propagate(jets0, jets1, 6, GRID)
    for order, (j0, j1) in ((4, (jets0[4], jets1[4])), (6, (np.zeros(4), jets1[6]))):
        mat = hier.order_matrix(order)
        assert np.max(np.abs(mat[:, 0] - j0)) < 1e-9
        assert np.max(np.abs(mat[:, -1] - j1)) < 1e-9
        assert order_residual(hier, order) < 1e-6


def test_order_residual_needs_stored_order():
    hier = propagate({2: [0, 0]}, {2: [0.2, -0.2]}, 4, GRID)
    with pytest.raises(ValueError):
        order_residual(hier, 6)


def test_propagate_deterministic():
    rng = np.random.default_rng(9)
    jets0 = {2: np.zeros(2), 4: rng.uniform(-1, 1, 3)}
    jets1 = {2: np.array([0.25, -0.25]), 4: rng.uniform(-1, 1, 3)}
    a = propagate(dict(jets0), dict(jets1), 4, GRID)
    b = propagate(dict(jets0), dict(jets1), 4, GRID)
    assert np.array_equal(a.order_matrix(4), b.order_matrix(4))


def test_mode_transform_roundtrip():
    from torusjets.jet_propagation import _make_frame
    from torusjets.poly_ops import q_matrix, u_eigenvalues

    rng = np.random.default_rng(13)
    jets0 = {2: np.zeros(2), 4: rng.uniform(-1, 1, 3)}
    jets1 = {2: np.array([0.2, -0.2]), 4: rng.uniform(-1, 1, 3)}
    hier = propagate(jets0, jets1, 4, GRID)
    frame = _make_frame(hier.path2)
    p = hier.order_matrix(4)
    u_nodes = u_eigenvalues(2, frame.A)
    q = np.linalg.solve(q_matrix(2), p / u_nodes)
    back = u_nodes * (q_matrix(2) @ q)
    assert np.max(np.abs(back - p)) < 1e-11 * max(1.0, np.max(np.abs(p)))


# --- one variation-of-constants solve per order -----------------------------------

def family_jets(theta, max_order, seed):
    """Random jets of orders 4..max_order at both ends of the family chord of angle theta."""
    rng = np.random.default_rng(seed)
    c = 0.5 * math.sin(theta)
    jets0, jets1 = {2: np.zeros(2)}, {2: np.array([c, -c])}
    for order in range(4, max_order + 1, 2):
        jets0[order] = 0.1 * rng.uniform(-1, 1, order // 2 + 1)
        jets1[order] = 0.1 * rng.uniform(-1, 1, order // 2 + 1)
    return jets0, jets1


def reference_propagate(jets0, jets1, max_order, grid):
    """The propagation loop with one public solve_mode call per mode, K1 from values."""
    from torusjets.jet_propagation import _make_frame
    from torusjets.poly_ops import q_adjoint, q_matrix, u_eigenvalues

    boundary = SecondJetBoundary(jets0[2][0], jets0[2][1], jets1[2][0], jets1[2][1])
    path2 = solve_bvp(boundary, grid)
    A = _make_frame(path2).A
    flip = (lambda m: m[::-1]) if path2.swapped_axes else (lambda m: m)
    orders, warnings = {}, []
    for order in range(4, max_order + 1, 2):
        n = order // 2
        src = np.vstack([s.values for s in source_K1(JetHierarchy(path2, dict(orders)), order)])
        qm, u = q_matrix(n), u_eigenvalues(n, A)
        k_modes = q_adjoint(n) @ (flip(src) / u)
        f0 = q_adjoint(n) @ (flip(jets0[order]) / u[:, 0])
        f1 = q_adjoint(n) @ (flip(jets1[order]) / u[:, -1])
        rows = []
        for mode in range(n + 1):
            lam = 16.0 * path2.epsilon**2 * mode**2
            problem = ModeProblem(lam, CoefficientSeries(grid, k_modes[mode]), f0[mode], f1[mode])
            sol = solve_mode(problem, grid)
            assert not sol.resonant
            if sol.near_resonance:
                warnings.append((order, mode))
            rows.append(sol.values.values)
        mat = flip(u * (qm @ np.array(rows)))
        orders[order] = [CoefficientSeries(grid, row) for row in mat]
    return orders, tuple(warnings)


NEAR = (math.pi + 3e-7) / 10  # 4 eps k = pi + 3e-7 at k = 5


def test_propagate_builds_J_once_and_solves_no_linear_system(monkeypatch):
    import numpy.linalg
    import scipy.linalg

    from torusjets import timegrid

    built, solved = [], []
    real_build = timegrid._integration_matrix

    def counting_build(n):
        built.append(n)
        return real_build(n)

    def refused(name):
        return lambda *args, **kwargs: solved.append(name)

    timegrid._make_grid.cache_clear()  # an earlier test may have formed J on the shared grid
    monkeypatch.setattr(timegrid, "_integration_matrix", counting_build)
    monkeypatch.setattr(numpy.linalg, "solve", refused("numpy.linalg.solve"))
    monkeypatch.setattr(scipy.linalg, "lu_factor", refused("scipy.linalg.lu_factor"))
    jets0, jets1 = family_jets(0.05, 40, seed=21)
    hier = propagate(jets0, jets1, 40, make_grid(64))
    assert isinstance(hier, JetHierarchy) and max(hier.orders) == 40
    assert built == [63]  # J is formed once, on first use, and kept on the grid
    assert solved == []
    propagate(jets0, jets1, 40, make_grid(64))
    assert built == [63]  # a later call of the same size shares the grid and its J


@pytest.mark.parametrize("theta", [0.3, -0.3, NEAR, -NEAR])
def test_propagate_matches_per_mode_reference(theta):
    jets0, jets1 = family_jets(theta, 12, seed=17)
    hier = propagate(jets0, jets1, 12, GRID)
    orders, warnings = reference_propagate(jets0, jets1, 12, GRID)
    assert hier.path2.swapped_axes == (theta < 0)
    assert warnings == (((10, 5), (12, 5)) if abs(theta) == NEAR else ())
    assert hier.near_resonance_warnings == warnings
    assert sorted(hier.orders) == sorted(orders)
    for order, rows in orders.items():
        ref = np.vstack([s.values for s in rows])
        assert np.max(np.abs(hier.order_matrix(order) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_order_residual_reads_the_memoised_frame():
    from torusjets.jet_propagation import _make_frame

    jets0, jets1 = family_jets(-0.3, 12, seed=19)
    hier = propagate(jets0, jets1, 12, GRID)
    assert "_frame" in vars(hier)  # propagate hands over the frame it built
    memo = hier._frame
    residuals = {order: order_residual(hier, order) for order in sorted(hier.orders)[::-1]}
    fresh = _make_frame(hier.path2, hier.orders)
    for order in hier.orders:
        assert np.array_equal(memo.orders[order], fresh.orders[order])
        assert order_residual(hier, order) == residuals[order]
    assert hier._frame is memo


def test_k1_formed_once_per_order(monkeypatch):
    formed, stored = Counter(), Counter()
    real_k1 = jet_propagation._k1_divided
    real_store = jet_propagation._Frame.store

    def counting_k1(frame, order):
        formed[order] += 1
        return real_k1(frame, order)

    def counting_store(frame, order, mat, dot, ddot):
        stored[order] += 1
        return real_store(frame, order, mat, dot, ddot)

    monkeypatch.setattr(jet_propagation, "_k1_divided", counting_k1)
    monkeypatch.setattr(jet_propagation._Frame, "store", counting_store)
    jets0, jets1 = family_jets(-0.05, 20, seed=23)
    hier = propagate(jets0, jets1, 20, GRID)
    assert sorted(hier.orders) == list(range(4, 21, 2))
    for order in hier.orders:
        assert order_residual(hier, order) < 1e-6
    source_K1(hier, 20)
    once = {order: 1 for order in range(4, 21, 2)}
    assert formed == once  # propagate formed each K1; the residuals read it
    assert stored == once  # and no order was stored twice


def k1_left_row_loop(frame, order):
    """K1 / (1 + 2a + 2b) with every pair looping over the left factor's rows r."""
    n = order // 2
    out = np.zeros((n + 1, frame.grid.node_count))
    for i in range(2, n):
        fi, fj = frame.factors.get(2 * i), frame.factors.get(2 * (n + 1 - i))
        if fi is not None and fj is not None:
            left, right = fi[[0, 2, 3]], fj[1:]
            conv = np.zeros((3, n + 2, frame.grid.node_count))
            for r in range(i + 1):
                conv[:, r:r + n + 2 - i] += left[:, r, None] * right
            out += conv[0, :-1]
            out += conv[1, :-1]
            out += conv[2, 1:]
    return out / frame.Z


@pytest.mark.parametrize("theta, swapped", [(0.05, False), (-0.05, True)])
def test_k1_matches_the_left_row_loop_bit_for_bit(theta, swapped):
    jets0, jets1 = family_jets(theta, 24, seed=29)
    frame = propagate(jets0, jets1, 24, GRID)._frame
    assert frame.swapped == swapped
    for order in range(6, 25, 2):
        k1, reference = jet_propagation._k1_divided(frame, order), k1_left_row_loop(frame, order)
        assert np.array_equal(k1, reference)
        assert np.array_equal(np.signbit(k1), np.signbit(reference))


@pytest.mark.parametrize("theta, max_order, seed", [(0.05, 20, 21), (-0.3, 12, 11), (0.3, 12, 11)])
def test_orders_and_residuals_do_not_drift_with_node_count(theta, max_order, seed):
    # the 33 Lobatto nodes are every 16th of the 513, so the runs compare node by node
    coarse, fine = make_grid(33), make_grid(513)
    assert np.array_equal(coarse.nodes, fine.nodes[::16])
    jets0, jets1 = family_jets(theta, max_order, seed)
    low, high = propagate(jets0, jets1, max_order, coarse), propagate(jets0, jets1, max_order, fine)
    for order in high.orders:
        ref = high.order_matrix(order)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(low.order_matrix(order) - ref[:, ::16])) <= 1e-11 * scale
        assert order_residual(high, order) <= 1e-10 * scale


def test_overflowing_order_stops_with_numeric_error():
    jets1 = {2: np.array([0.2, -0.2]), 4: np.full(3, 1e200)}
    hier = propagate({2: np.zeros(2)}, jets1, 4, GRID)  # order 4 itself is finite
    assert np.isfinite(hier.order_matrix(4)).all()
    with pytest.raises(NumericError, match="K1 source of order 6 is not finite"):
        propagate({2: np.zeros(2)}, jets1, 6, GRID)
    with pytest.raises(NumericError, match="solution of order 4 is not finite"):
        propagate({2: np.zeros(2)}, {2: np.array([0.2, -0.2]), 4: np.full(3, np.inf)}, 4, GRID)


# --- resonance and obstruction ----------------------------------------------------

def h_family_jets(n, max_order):
    jets1 = jets_at_origin(build_h(n), max_order)
    jets0 = {order: np.zeros(order // 2 + 1) for order in jets1}
    return jets0, jets1


def test_resonance_appears_exactly_at_doubled_index():
    for n in (3, 4):
        jets0, jets1 = h_family_jets(n, 2 * n)
        below = propagate(jets0, jets1, 2 * n - 2, GRID) if n > 2 else None
        assert isinstance(below, JetHierarchy)
        assert below.near_resonance_warnings == ()
        report = propagate(jets0, jets1, 2 * n, GRID)
        assert isinstance(report, ObstructionReport)
        assert report.resonant_order == 2 * n
        assert report.resonant_mode == n
        assert report.multiple == 1
        assert abs(report.epsilon - math.pi / (4 * n)) < 1e-10


def test_compatibility_check_matches_propagate():
    jets0, jets1 = h_family_jets(3, 6)
    direct = propagate(jets0, jets1, 6, GRID)
    assert isinstance(direct, ObstructionReport)
    lower = propagate(jets0, jets1, 4, GRID)
    via_check = compatibility_check(jets0[6], jets1[6], lower)
    assert via_check.resonant_order == 6
    assert via_check.lhs == direct.lhs
    assert via_check.K == direct.K
    assert via_check.residual == direct.residual
    assert np.array_equal(via_check.u, direct.u)
    assert np.array_equal(via_check.v, direct.v)


def test_compatibility_check_rejects_nonresonant_order():
    hier = propagate({2: [0, 0]}, {2: [0.2, -0.2]}, 4, GRID)
    with pytest.raises(ValueError, match="not resonant"):
        compatibility_check(np.zeros(4), np.zeros(4), hier, order=6)


def test_compatibility_check_rejects_bad_shape():
    jets0, jets1 = h_family_jets(3, 6)
    lower = propagate(jets0, jets1, 4, GRID)
    with pytest.raises(ValueError, match="coefficients"):
        compatibility_check(np.zeros(3), np.zeros(4), lower)


def test_compatibility_check_refuses_a_resonant_lower_mode():
    # eps = pi/8: mode 4 tops the resonant order 8, and mode 2 of order 4 resonates too
    path2 = solve_bvp(family_boundary(math.pi / 4), GRID)
    assert abs(path2.epsilon - math.pi / 8) < 1e-12
    with pytest.raises(ConsistencyError, match="mode of order 8 resonated after its own order"):
        compatibility_check(np.zeros(5), np.zeros(5), JetHierarchy(path2, {}), order=8)


def test_compatibility_check_refuses_a_source_that_is_not_finite():
    # eps = pi/16 resonates at order 8, whose K1 pairs orders 4 and 6: 1e200^2 overflows
    jets0, jets1 = h_family_jets(4, 2)
    path2 = solve_bvp(SecondJetBoundary(*jets0[2], *jets1[2]), GRID)
    huge = CoefficientSeries(GRID, 1e200 * GRID.nodes**2)
    lower = JetHierarchy(path2, {4: [huge] * 3, 6: [huge] * 4})
    with pytest.raises(NumericError, match="K1 source of order 8 is not finite"):
        compatibility_check(np.zeros(5), np.zeros(5), lower, order=8)


def test_reversed_orientation_swaps_pairing_weights():
    jets0, jets1 = h_family_jets(3, 6)
    fwd = propagate(jets0, jets1, 6, GRID)
    rev = propagate(jets1, jets0, 6, GRID)
    assert isinstance(fwd, ObstructionReport) and isinstance(rev, ObstructionReport)
    scale = np.max(np.abs(fwd.u))
    assert np.max(np.abs(rev.u - fwd.v)) < 1e-14 * scale
    assert np.max(np.abs(rev.v - fwd.u)) < 1e-14 * scale
    # the top mode is an odd multiple here, so the pairing is symmetric
    assert abs(rev.lhs - fwd.lhs) < 1e-14 * max(1.0, abs(fwd.lhs))
    assert abs(rev.K - fwd.K) < 1e-14 * max(1.0, abs(fwd.K))


def test_beyond_scope_orders_flagged():
    c = 0.5 * math.sin(1.0)
    hier = propagate({2: [0, 0]}, {2: [c, -c]}, 4, GRID)
    assert isinstance(hier, JetHierarchy)
    assert abs(hier.path2.epsilon - 0.5) < 1e-12
    assert hier.beyond_scope_orders == (4,)
