import dataclasses
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from torusjets import counterexample, jet_propagation
from torusjets.counterexample import (
    TorusPotential,
    _chain_values,
    _sin_even_power,
    build_h,
    build_h_tilde,
    cb_norm_report,
    jets_at_origin,
    obstruction_demo,
)
from torusjets.errors import ConsistencyError, NumericError
from torusjets.jet_propagation import (
    MAX_ORDER, JetHierarchy, ObstructionReport, compatibility_check, propagate,
)
from torusjets.poly_ops import q_adjoint, u_eigenvalues
from torusjets.second_jet import SecondJetBoundary, solve_bvp
from torusjets.timegrid import make_grid

from _oracles import obstruction_n3_exact, pairing_weights_mp, sin_power_series

GRID = make_grid(64)


# --- potentials ------------------------------------------------------------------

def test_potential_validation():
    with pytest.raises(ValueError, match="even"):
        TorusPotential(terms=((1.0, 3, 0),))
    with pytest.raises(ValueError, match="even"):
        TorusPotential(terms=((1.0, 2, -2),))
    with pytest.raises(ValueError, match="constant"):
        TorusPotential(terms=((1.0, 0, 0),))
    with pytest.raises(ValueError, match="finite"):
        TorusPotential(terms=((math.inf, 2, 0),))


def test_potential_evaluate_broadcasts():
    p = TorusPotential(terms=((2.0, 2, 0), (1.0, 0, 2)))
    x = np.linspace(0, 1, 5)[:, None]
    y = np.linspace(0, 1, 3)[None, :]
    vals = p.evaluate(x, y)
    assert vals.shape == (5, 3)
    assert abs(vals[2, 1] - (2 * math.sin(0.5) ** 2 + math.sin(0.5) ** 2)) < 1e-15
    assert p.evaluate(0.0, 0.0) == 0.0


def test_build_h():
    h = build_h(3)
    c = 0.5 * math.sin(math.pi / 6)
    assert h.terms == ((c, 2, 0), (-c, 0, 2))
    assert abs(c - 0.25) < 1e-16
    assert h.n == 3
    with pytest.raises(ValueError):
        build_h(2)
    # odd under swapping the axes
    x, y = 0.7, -0.3
    assert abs(h.evaluate(x, y) + h.evaluate(y, x)) < 1e-16


def test_build_h_tilde():
    ht = build_h_tilde(3, 1, math.exp(-3))
    assert ht.terms[:2] == build_h(3).terms
    assert ht.terms[2] == (math.exp(-3), 4, 2)
    assert (ht.n, ht.kappa, ht.chi) == (3, 1, math.exp(-3))
    with pytest.raises(ValueError, match="kappa"):
        build_h_tilde(3, 4, 0.1)
    with pytest.raises(ValueError, match="kappa"):
        build_h_tilde(3, -1, 0.1)
    with pytest.raises(ValueError, match="chi"):
        build_h_tilde(3, 1, 0.0)
    with pytest.raises(ValueError, match="chi"):
        build_h_tilde(3, 1, math.nan)


# --- jets ------------------------------------------------------------------------

def test_jets_sin_squared_series():
    # sin^2 x = x^2 - x^4/3 + 2 x^6/45 - ...
    p = TorusPotential(terms=((1.0, 2, 0),))
    jets = jets_at_origin(p, 6)
    assert np.array_equal(jets[2], [1.0, 0.0])
    assert np.array_equal(jets[4], [-1.0 / 3.0, 0.0, 0.0])
    assert np.array_equal(jets[6], [2.0 / 45.0, 0.0, 0.0, 0.0])


def test_jets_validation():
    p = build_h(3)
    with pytest.raises(ValueError):
        jets_at_origin(p, 0)
    with pytest.raises(ValueError):
        jets_at_origin(p, 5)
    with pytest.raises(ValueError, match=f"<= {MAX_ORDER}"):
        jets_at_origin(p, MAX_ORDER + 2)
    assert sorted(jets_at_origin(p, MAX_ORDER)) == list(range(2, MAX_ORDER + 1, 2))


def test_jets_h3_second_order():
    c = 0.5 * math.sin(math.pi / 6)
    jets = jets_at_origin(build_h(3), 2)
    assert np.array_equal(jets[2], [c, -c])


def test_jets_swap_axes_reverses_vectors():
    p = TorusPotential(terms=((0.3, 2, 4), (-0.1, 6, 0)))
    swapped = TorusPotential(terms=tuple((c, py, px) for c, px, py in p.terms))
    jets = jets_at_origin(p, 8)
    jets_sw = jets_at_origin(swapped, 8)
    for order in jets:
        assert np.array_equal(jets_sw[order], jets[order][::-1])


def test_a_term_past_the_order_is_skipped_before_its_tables():
    # sin^P x is O(|x|^P), so no jet up to order 4 sees it; its exact cosine table of
    # P / 2 + 1 binomials took minutes at P = 6e4 and passed math.comb's range at 10^30
    base = ((0.001, 2, 0), (-0.001, 0, 2))
    start = time.perf_counter()
    jets = jets_at_origin(TorusPotential(terms=((0.001, 10**30, 0),) + base), 4)
    assert time.perf_counter() - start < 1.0
    expected = jets_at_origin(TorusPotential(terms=base), 4)
    assert sorted(jets) == sorted(expected)
    assert all(np.array_equal(jets[order], expected[order]) for order in expected)


def test_jets_perturbation_sits_at_top_order():
    n, kappa, chi = 4, 1, math.exp(-4)
    jets_h = jets_at_origin(build_h(n), 2 * n)
    jets_ht = jets_at_origin(build_h_tilde(n, kappa, chi), 2 * n)
    for order in range(2, 2 * n, 2):
        assert np.array_equal(jets_h[order], jets_ht[order])
    diff = jets_ht[2 * n] - jets_h[2 * n]
    expected = np.zeros(n + 1)
    expected[kappa] = chi
    assert np.array_equal(diff, expected)


def test_sin_powers_match_the_cauchy_product_series():
    for m in range(13):
        ref = tuple(sin_power_series(2 * m, 30))
        for half in range(31):
            assert _sin_even_power(m, half) == ref[:half + 1]


def fraction_loop_jets(potential, order):
    """Taylor jets by the exact-rational loop, one nonzero product at a time."""
    half = order // 2
    jets = {2 * d: np.zeros(d + 1) for d in range(1, half + 1)}
    for coeff, px, py in potential.terms:
        mx, my = px // 2, py // 2
        xs = _sin_even_power(mx, half)
        ys = _sin_even_power(my, half)
        for d in range(max(mx + my, 1), half + 1):
            for j in range(my, d - mx + 1):
                c = xs[d - j] * ys[j]
                if c != 0:
                    jets[2 * d][j] += coeff * float(c)
    return jets


@pytest.mark.parametrize("terms", [
    ((0.3, 2, 4), (-0.1, 6, 0), (0.07, 4, 4), (-1.3, 0, 2)),
    ((-0.0, 2, 0), (0.25, 2, 2), (-0.0, 0, 6), (1e-3, 8, 2)),
    ((-0.0, 4, 2),),
    ((0.1, 2, 0), (-0.1, 0, 2), (math.exp(-5), 6, 4)),
])
def test_jets_match_the_fraction_loop_bit_for_bit(terms):
    # the memoised float products add term by term in the loop's order; a
    # skipped zero product would add a signed zero, which changes no entry
    pot = TorusPotential(terms=terms)
    for order in (2, 10, 16):
        got, want = jets_at_origin(pot, order), fraction_loop_jets(pot, order)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes()


# --- norms -----------------------------------------------------------------------

def test_cb_norm_of_zero_potential():
    assert cb_norm_report(TorusPotential(terms=()), 3) == 0.0
    with pytest.raises(ValueError):
        cb_norm_report(build_h(3), -1)


def test_cb_norm_sup_of_family():
    # sup |h_n| = c * sup |sin^2 x - sin^2 y| = c, and the grid hits pi/2; for
    # B >= 1, d^B/dx^B sin^2 x = -2^(B-1) cos(2x + B pi/2) peaks at 2^(B-1) on
    # the grid, and the mixed derivatives of h_n vanish
    for n in (3, 5, 10):
        c = 0.5 * math.sin(math.pi / (2 * n))
        assert abs(cb_norm_report(build_h(n), 0) - c) < 1e-13
        for B in range(1, 11):
            want = c * 2.0 ** (B - 1)
            assert abs(cb_norm_report(build_h(n), B) - want) <= 1e-13 * want


def test_chain_values_match_mpmath_taylor():
    # The cosine sum is accurate relative to its largest terms: 1e-12 relative
    # where sin^12 u is not small, but 2e-11 at u = 0.3, where sin^12 u = 4.4e-7
    # is a sum of terms as large as 0.39.  There it stays within 1e-14 of the
    # largest value of the same derivative over the points.
    mpmath = pytest.importorskip("mpmath")
    points = np.array([0.3, 1.1, 2.5, -2.0])
    with mpmath.workdps(40):
        series = [mpmath.taylor(lambda v: mpmath.sin(v) ** 12, x, 10) for x in points]
    for d in range(11):
        want = np.array([float(s[d] * mpmath.factorial(d)) for s in series])
        err = np.abs(_chain_values(12, d, points) - want)
        assert np.all(err[1:] <= 1e-12 * np.abs(want[1:]))
        assert err[0] <= 1e-14 * np.max(np.abs(want))


def test_cb_norm_family_decreases_with_n():
    vals = [cb_norm_report(build_h(n), 0) for n in (3, 6, 12)]
    assert vals[0] > vals[1] > vals[2]


def test_cb_norm_grows_with_derivative_order():
    h = build_h(3)
    assert cb_norm_report(h, 4) > cb_norm_report(h, 2) > cb_norm_report(h, 0)


# --- the demo ---------------------------------------------------------------------

def test_obstruction_demo_n3():
    demo = obstruction_demo(3)
    assert demo.n == 3
    assert demo.resonant_order == 6
    assert demo.multiple == 1
    assert abs(demo.epsilon - math.pi / 12) < 1e-10
    assert demo.node_count == 64
    assert demo.kappa == int(np.argmax(np.abs(demo.v)))
    assert demo.kappa == 2
    assert demo.chi == math.exp(-3)
    assert np.max(np.abs(demo.v)) > 1e-12
    # the shift in the pairing is linear in the perturbation
    rel = abs(demo.difference - demo.predicted_difference) / abs(demo.predicted_difference)
    assert rel < 1e-12
    assert demo.difference == demo.lhs_htilde - demo.lhs_h
    assert demo.which_holds in ("h", "h_tilde", "neither")
    assert not (demo.satisfied_h and demo.satisfied_htilde)
    assert demo.residual_h == abs(demo.lhs_h - demo.K)
    assert demo.residual_htilde == abs(demo.lhs_htilde - demo.K)


# K and lhs_h of h_3 are rationals; obstruction_n3_exact derives them in about 30 s, so
# they are kept here and test_n3_oracle_derives_the_exact_values reruns the derivation
K3_EXACT = Fraction(41, 55296)
LHS3_EXACT = Fraction(-13, 184320)


def relative_to(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / abs(exact))


# 10x the deviations measured: K 4.29e-15, 3.85e-16 and 9.21e-17; lhs_h 9.82e-17 at each size
@pytest.mark.parametrize("nodes, k_tol", [(17, 4.3e-14), (64, 3.9e-15), (129, 9.3e-16)])
def test_n3_obstruction_matches_its_exact_values(nodes, k_tol):
    demo = obstruction_demo(3, make_grid(nodes))
    assert relative_to(demo.K, K3_EXACT) <= k_tol
    assert relative_to(demo.lhs_h, LHS3_EXACT) <= 9.9e-16


@pytest.mark.slow
def test_n3_oracle_derives_the_exact_values():
    assert obstruction_n3_exact() == (K3_EXACT, LHS3_EXACT)


def test_obstruction_demo_deterministic():
    a = obstruction_demo(3)
    b = obstruction_demo(3)
    assert a.lhs_h == b.lhs_h
    assert a.lhs_htilde == b.lhs_htilde
    assert a.K == b.K
    assert np.array_equal(a.v, b.v)


def test_obstruction_demo_rejects_small_n():
    with pytest.raises(ValueError):
        obstruction_demo(2)


def test_pairing_shift_linear_in_chi():
    n, kappa = 3, 2
    zero = {2: np.zeros(2)}
    base = propagate(zero, jets_at_origin(build_h(n), 2 * n), 2 * n, GRID)
    one = propagate(
        zero, jets_at_origin(build_h_tilde(n, kappa, 1e-3), 2 * n), 2 * n, GRID
    )
    two = propagate(
        zero, jets_at_origin(build_h_tilde(n, kappa, 2e-3), 2 * n), 2 * n, GRID
    )
    assert isinstance(base, ObstructionReport)
    d1 = one.lhs - base.lhs
    d2 = two.lhs - base.lhs
    assert abs(d2 - 2 * d1) < 1e-10 * abs(d1)


@pytest.mark.parametrize("n", range(3, 17))
def test_single_run_demo_matches_two_full_runs(n):
    # |K| falls about 8x per n, to 6.7e-16 at n = 16: the verdict is relative to the pairing
    demo = obstruction_demo(n, GRID)
    assert demo.which_holds == "neither"
    assert abs(demo.difference - demo.predicted_difference) <= 1e-12 * abs(demo.predicted_difference)
    zero = {2: np.zeros(2)}
    rep = propagate(zero, jets_at_origin(build_h(n), 2 * n), 2 * n, GRID)
    rep_t = propagate(
        zero, jets_at_origin(build_h_tilde(n, demo.kappa, demo.chi), 2 * n), 2 * n, GRID
    )
    assert isinstance(rep, ObstructionReport) and isinstance(rep_t, ObstructionReport)
    # the runs weigh monomials, the demo raw derivatives: 1/((2n-2i)! (2i)!) apart
    raw = [1 / (math.factorial(2 * n - 2 * i) * math.factorial(2 * i)) for i in range(n + 1)]
    for old in (rep, rep_t):
        assert np.array_equal(demo.u, old.u * raw)
        assert np.array_equal(demo.v, old.v * raw)
        assert demo.K == old.K
    assert demo.lhs_h == rep.lhs
    assert demo.lhs_htilde == rep_t.lhs
    assert demo.difference == rep_t.lhs - rep.lhs


@pytest.mark.parametrize("n", [3, 9, 16])
def test_a_compatible_top_datum_reads_satisfied(n):
    jets = jets_at_origin(build_h(n), 2 * n)
    lower = propagate({2: np.zeros(2)}, jets, 2 * n - 2, GRID)
    zero = np.zeros(n + 1)
    rep = compatibility_check(zero, jets[2 * n], lower)
    # with p0 = 0 the pairing is lhs = -(-1)^m sum_i v_i p1_i; move one p1 entry to lhs = K
    weights = -((-1.0) ** rep.multiple) * rep.v
    kappa = int(np.argmax(np.abs(weights)))
    p1 = jets[2 * n].copy()
    p1[kappa] += (rep.K - rep.lhs) / weights[kappa]
    held = compatibility_check(zero, p1, lower)
    assert held.K == rep.K and held.satisfied
    scale = math.fsum(np.abs(weights * p1)) + abs(held.K)
    p1[kappa] += 1e-6 * scale / weights[kappa]
    moved = compatibility_check(zero, p1, lower)
    assert moved.residual > 0.5e-6 * scale and not moved.satisfied


def near_resonant_limit(n, eta, grid):
    """Mean over c(1 + eta) and c(1 - eta) of g f_n, where g = 4 eps n - pi is the gap of
    the top mode of order 2n and f_n its q coordinate, with the order-2n jets held at h_n's."""
    h = build_h(n)
    jets_h = jets_at_origin(h, 2 * n)
    products = []
    for scale in (1.0 + eta, 1.0 - eta):
        scaled = TorusPotential(tuple((scale * c, px, py) for c, px, py in h.terms), n=n)
        jets = jets_at_origin(scaled, 2 * n)
        jets[2 * n] = jets_h[2 * n]
        hier = propagate({2: np.zeros(2)}, jets, 2 * n, grid)
        assert isinstance(hier, JetHierarchy)  # no mode resonates off c
        frame = hier
        f_n = (q_adjoint(n) @ (frame.orders[2 * n] / u_eigenvalues(n, frame.A)))[n]
        products.append((4.0 * frame.eps * n - math.pi) * f_n)
    return 0.5 * (products[0] + products[1])


# 10x the disagreement measured at 64 nodes, eta = 1e-5, relative to |lhs - K|; it grows
# as the O(eta^2) term does, about as n^2
LIMIT_TOL = {3: 2.6e-8, 4: 4.6e-8, 5: 7.4e-8, 6: 1.2e-7, 7: 1.7e-7, 8: 2.3e-7, 9: 3.1e-7,
             10: 4.0e-7, 11: 5.1e-7, 12: 6.4e-7, 13: 7.8e-7, 14: 9.4e-7, 15: 1.2e-6, 16: 1.4e-6,
             20: 2.4e-6, 40: 1.4e-5, 60: 3.6e-5, 100: 1.3e-4}


@pytest.mark.parametrize("n", [*range(3, 17), 20, 40, pytest.param(60, marks=pytest.mark.slow),
                               pytest.param(100, marks=pytest.mark.slow)])
def test_obstruction_is_the_limit_of_near_resonant_solves(n):
    # f'' + mu^2 f = k with mu = pi + g: g f_n(t) -> -(lhs - K) sin(pi t) as g -> 0, and
    # the O(g) error cancels in the mean over +-g
    demo = obstruction_demo(n, GRID)
    assert demo.multiple == 1
    limit = near_resonant_limit(n, 1e-5, GRID)
    wave = np.sin(math.pi * GRID.nodes)

    def disagreement(K):
        return np.max(np.abs(limit + (demo.lhs_h - K) * wave)) / abs(demo.lhs_h - K)

    assert disagreement(demo.K) <= LIMIT_TOL[n]
    moved = demo.K + 10.0 * LIMIT_TOL[n] * abs(demo.lhs_h - demo.K)
    assert disagreement(moved) > LIMIT_TOL[n]


def end_weights_mp(n):
    """pairing_weights_mp at the t=1 end of h_n's 2-jet path, indexed like the demo's v."""
    jets = jets_at_origin(build_h(n), 2)[2]
    path = solve_bvp(SecondJetBoundary(0.0, 0.0, jets[0], jets[1]), GRID)
    weights = pairing_weights_mp(n, path.A.values[-1])
    return weights[::-1] if path.swapped_axes else weights


# the demo holds for every n = 3..200; with nu and (2n-2i)! (2i)! formed apart, lhs_h
# would read 0.0 at n = 74..82, and n >= 83 would be refused
@pytest.mark.parametrize("n", [20, 74, 83, 86, *(pytest.param(n, marks=pytest.mark.slow)
                                                 for n in (100, 128, 160, 200))])
def test_the_family_reaches_its_obstruction(n):
    demo = obstruction_demo(n, GRID)
    assert demo.resonant_order == 2 * n and demo.which_holds == "neither"
    assert demo.difference == demo.predicted_difference
    assert demo.lhs_htilde == demo.lhs_h + demo.difference
    weights = end_weights_mp(n)
    # kappa is the largest raw-derivative weight, here where those underflow as well
    raw = [w / (math.factorial(2 * n - 2 * i) * math.factorial(2 * i))
           for i, w in enumerate(weights)]
    assert demo.kappa == raw.index(max(raw))
    # with p0 = 0, lhs = -(-1)^m sum_i v_i p1_i; it is a normal float up to n = 79
    p1 = jets_at_origin(build_h(n), 2 * n)[2 * n]
    ref = -((-1) ** demo.multiple) * sum(w * p for w, p in zip(weights, p1))
    if n < 80:
        assert abs(demo.lhs_h - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("n", [3, 5])
def test_demo_forms_each_mode_source_once(monkeypatch, n):
    formed = {name: Counter() for name in ("_finite_mode_sources", "_k1_divided")}

    def counting(name):
        real = getattr(jet_propagation, name)

        def count(frame, order):
            formed[name][order] += 1
            return real(frame, order)
        return count

    for name in formed:
        monkeypatch.setattr(jet_propagation, name, counting(name))
    obstruction_demo(n, GRID)
    # propagate forms the mode sources of orders 4..2n-2; order 2n pairs K1 with D, and
    # its two checks share one K1
    assert formed["_finite_mode_sources"] == {order: 1 for order in range(4, 2 * n, 2)}
    assert formed["_k1_divided"] == {order: 1 for order in range(4, 2 * n + 1, 2)}


@pytest.mark.parametrize("n", [3, 5])
def test_demo_forms_the_end_weights_once(monkeypatch, n):
    calls = []
    real = jet_propagation.d_weights

    def counting(n, A):
        calls.append(A)
        return real(n, A)

    monkeypatch.setattr(jet_propagation, "d_weights", counting)
    obstruction_demo(n, GRID)
    assert len(calls) == 2  # t = 0 and t = 1, shared by the checks of h_n and h~_n


def test_demo_refuses_a_perturbation_below_the_top_order(monkeypatch):
    def moved(n, kappa, chi):
        base = build_h_tilde(n, kappa, chi)
        return TorusPotential(base.terms + ((1e-3, 2 * n - 2, 0),), n=n, kappa=kappa, chi=chi)

    monkeypatch.setattr(counterexample, "build_h_tilde", moved)
    with pytest.raises(ConsistencyError, match="below order 8"):
        obstruction_demo(4)


def _h_with(extra, base_n=None):
    """A build_h stand-in: h_(base_n or n) with `extra` terms added."""
    return lambda n: TorusPotential(build_h(base_n or n).terms + extra, n=n)


@pytest.mark.parametrize("n, patch, error, message", [
    # h_n scaled by 0.9: eps < pi/(4n), so no order up to 2n resonates
    (3, ("build_h", lambda n: TorusPotential(tuple((0.9 * c, px, py) for c, px, py in
                                                   build_h(n).terms), n=n)),
     ConsistencyError, "expected a resonance by order 6, got a hierarchy"),
    (6, ("build_h", _h_with((), base_n=3)), ConsistencyError, "resonance at order 6, expected 12"),
    (3, ("EPSILON_TOL", -1.0), ConsistencyError, "deviates from pi/"),
    # argmax |v| has nothing to pick only when every weight is exactly zero
    (3, ("d_weights", lambda n, A: np.zeros(n + 1)), ConsistencyError,
     "all pairing weights vanish"),
    (3, ("COMPAT_TOL", math.inf), ConsistencyError, "both compatibility conditions hold"),
    # the huge order-4 jets overflow K1 at the resonant order 6 for n = 3, below it for n = 4
    (3, ("build_h", _h_with(((1e300, 4, 0),))), NumericError, "K1 source of order 6"),
    (4, ("build_h", _h_with(((1e300, 4, 0),))), NumericError, "K1 source of order 6"),
    (3, ("build_h", _h_with(((1e308, 4, 0),))), NumericError, "solution of order 4"),
])
def test_every_demo_guard_still_fires(monkeypatch, n, patch, error, message):
    name, value = patch
    module = jet_propagation if name in ("COMPAT_TOL", "d_weights") else counterexample
    monkeypatch.setattr(module, name, value)
    with pytest.raises(error, match=message):
        obstruction_demo(n, GRID)


def test_epsilon_is_held_to_pi_over_4n_relatively(monkeypatch):
    # at n = 40, pi/(4n) is about 2e-2, so a shift of 1e-9 of it is 2e-11: inside an
    # absolute 1e-10, but ten times the relative EPSILON_TOL
    n = 40
    check = counterexample.compatibility_check

    def shifted(*args):
        rep = check(*args)
        return dataclasses.replace(rep, epsilon=rep.epsilon * (1.0 + 1e-9))

    monkeypatch.setattr(counterexample, "compatibility_check", shifted)
    with pytest.raises(ConsistencyError, match="deviates from pi/"):
        obstruction_demo(n, GRID)
