import math
from collections import Counter

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
from torusjets.jet_propagation import MAX_ORDER, ObstructionReport, propagate
from torusjets.timegrid import make_grid

from _oracles import sin_power_series

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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_single_run_demo_matches_two_full_runs(n):
    demo = obstruction_demo(n, GRID)
    zero = {2: np.zeros(2)}
    rep = propagate(zero, jets_at_origin(build_h(n), 2 * n), 2 * n, GRID)
    rep_t = propagate(
        zero, jets_at_origin(build_h_tilde(n, demo.kappa, demo.chi), 2 * n), 2 * n, GRID
    )
    assert isinstance(rep, ObstructionReport) and isinstance(rep_t, ObstructionReport)
    for old in (rep, rep_t):
        assert np.array_equal(demo.u, old.u)
        assert np.array_equal(demo.v, old.v)
        assert demo.K == old.K
    assert demo.lhs_h == rep.lhs
    assert demo.lhs_htilde == rep_t.lhs
    assert demo.difference == rep_t.lhs - rep.lhs


@pytest.mark.parametrize("n", [3, 5])
def test_demo_forms_each_mode_source_once(monkeypatch, n):
    formed = Counter()
    real = jet_propagation._finite_mode_sources

    def counting(frame, order):
        formed[order] += 1
        return real(frame, order)

    monkeypatch.setattr(jet_propagation, "_finite_mode_sources", counting)
    obstruction_demo(n, GRID)
    # propagate forms orders 4..2n-2, and the two checks of order 2n share one top source
    assert formed == {order: 1 for order in range(4, 2 * n + 1, 2)}


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
    (7, None, ConsistencyError, "all pairing weights vanish"),
    (3, ("COMPAT_TOL", math.inf), ConsistencyError, "both compatibility conditions hold"),
    # the huge order-4 jets overflow K1 at the resonant order 6 for n = 3, below it for n = 4
    (3, ("build_h", _h_with(((1e300, 4, 0),))), NumericError, "K1 source of order 6"),
    (4, ("build_h", _h_with(((1e300, 4, 0),))), NumericError, "K1 source of order 6"),
    (3, ("build_h", _h_with(((1e308, 4, 0),))), NumericError, "solution of order 4"),
])
def test_every_demo_guard_still_fires(monkeypatch, n, patch, error, message):
    if patch is not None:
        name, value = patch
        module = jet_propagation if name == "COMPAT_TOL" else counterexample
        monkeypatch.setattr(module, name, value)
    with pytest.raises(error, match=message):
        obstruction_demo(n, GRID)
