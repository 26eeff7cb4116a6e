import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjets import timegrid
from torusjets.timegrid import (
    MAX_NODES,
    CoefficientSeries,
    DEFAULT_NODES,
    MIN_NODES,
    derivative,
    integrate,
    make_grid,
    require_same_grid,
    same_grid,
    sample,
)


def test_min_node_count_enforced():
    with pytest.raises(ValueError):
        make_grid(MIN_NODES - 1)
    make_grid(MIN_NODES)


def test_make_grid_shares_one_grid_per_node_count():
    assert make_grid(17) is make_grid(17)
    assert make_grid(17) is not make_grid(33)


def test_grid_arrays_are_read_only():
    g = make_grid(17)
    for arr in (g.nodes, g.diff_matrix, g.quad_weights, g.integration_matrix):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0


def test_out_of_range_sizes_raise_before_the_memo():
    before = timegrid._make_grid.cache_info()
    for count in (MIN_NODES - 1, MAX_NODES + 1):
        with pytest.raises(ValueError, match="node_count"):
            make_grid(count)
    assert timegrid._make_grid.cache_info() == before


def test_nodes_endpoints_and_symmetry():
    g = make_grid(9)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)
    assert np.max(np.abs(g.nodes + g.nodes[::-1] - 1.0)) == 0.0


def test_default_grid_size():
    assert DEFAULT_NODES == 64
    assert make_grid(DEFAULT_NODES).node_count == 64


def test_differentiate_square():
    g = make_grid(9)
    d = derivative(CoefficientSeries(g, g.nodes**2))
    assert np.max(np.abs(d.values - 2.0 * g.nodes)) < 1e-12


def test_differentiate_constant_and_linear():
    g = make_grid(16)
    assert np.max(np.abs(derivative(CoefficientSeries(g, np.ones(16))).values)) < 1e-12
    assert np.max(np.abs(derivative(CoefficientSeries(g, g.nodes)).values - 1.0)) < 1e-12


@pytest.mark.parametrize("nodes", [17, 64, 129])
def test_integration_matrix_integrates_chebyshev_series(nodes):
    # the sampled values carry rounding of about eps * max|v|, which J carries into
    # the integral, so the error is measured against max|v|, the most that
    # int_0^t |v| can be on [0, 1]
    from numpy.polynomial import chebyshev

    g = make_grid(nodes)
    x = 2.0 * g.nodes - 1.0
    rng = np.random.default_rng(nodes)
    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, nodes)  # degree nodes - 1
        v = chebyshev.chebval(x, coeffs)
        exact = 0.5 * chebyshev.chebval(x, chebyshev.chebint(coeffs, lbnd=-1))
        assert np.max(np.abs(g.integration_matrix @ v - exact)) <= 1e-14 * np.max(np.abs(v))
    assert g.integration_matrix is g.integration_matrix  # formed once per grid


def test_diff_matrix_row_sums_vanish():
    g = make_grid(48)
    assert np.max(np.abs(g.diff_matrix.sum(axis=1))) < 1e-12


def test_differentiate_tangent_closed_form():
    # A = tan(2 eps t + theta0) must satisfy A' = 2 eps (A^2 + 1)
    g = make_grid(64)
    eps, theta0 = 0.1, 0.3
    A = np.tan(2 * eps * g.nodes + theta0)
    d = derivative(CoefficientSeries(g, A))
    assert np.max(np.abs(d.values - 2 * eps * (A**2 + 1))) < 1e-9


def test_integrate_constant_and_cubic():
    g = make_grid(16)
    assert abs(integrate(CoefficientSeries(g, np.ones(16))) - 1.0) < 1e-14
    assert abs(integrate(CoefficientSeries(g, g.nodes**3)) - 0.25) < 1e-14


def test_integrate_sin_squared():
    g = make_grid(64)
    vals = np.sin(math.pi * g.nodes) ** 2
    assert abs(integrate(CoefficientSeries(g, vals)) - 0.5) < 1e-12
    assert abs(integrate(CoefficientSeries(g, vals / math.pi)) - 1 / (2 * math.pi)) < 1e-12


def test_weights_sum_to_one():
    for n in (8, 9, 33, 64):
        assert abs(make_grid(n).quad_weights.sum() - 1.0) < 1e-14


def test_polynomial_quadrature_exact():
    g = make_grid(12)
    for k in range(10):
        exact = 1.0 / (k + 1)
        assert abs(integrate(CoefficientSeries(g, g.nodes**k)) - exact) < 1e-13


def test_fundamental_theorem_roundtrip():
    g = make_grid(32)
    f = np.exp(g.nodes) * np.sin(3 * g.nodes)
    d = derivative(CoefficientSeries(g, f))
    assert abs(integrate(d) - (f[-1] - f[0])) < 1e-10


def test_series_shape_validation():
    g = make_grid(16)
    with pytest.raises(ValueError):
        CoefficientSeries(g, np.zeros(15))


def test_grid_identity_and_mixing():
    g1 = make_grid(16)
    g2 = make_grid(16)
    g3 = make_grid(24)
    assert same_grid(g1, g1)
    assert same_grid(g1, g2)
    assert not same_grid(g1, g3)
    s = CoefficientSeries(g1, np.zeros(16))
    require_same_grid(s, g2)
    with pytest.raises(ValueError):
        require_same_grid(s, g3)


def test_sample_helper():
    g = make_grid(16)
    s = sample(g, lambda t: t**2 + 1.0)
    assert np.array_equal(s.values, g.nodes**2 + 1.0)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=3, max_size=6),
    n=st.sampled_from([16, 24, 33]),
)
def test_property_polynomial_derivative_exact(coeffs, n):
    g = make_grid(n)
    poly = np.polynomial.Polynomial(coeffs)
    d = derivative(CoefficientSeries(g, poly(g.nodes)))
    assert np.max(np.abs(d.values - poly.deriv()(g.nodes))) < 1e-10
