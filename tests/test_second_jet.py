import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusjets.errors import ConsistencyError, GeodesicDomainError
from torusjets.second_jet import (
    CausalClass,
    HalfPlanePoint,
    SecondJetBoundary,
    arc_epsilon,
    classify,
    connectable,
    distance,
    epsilon_from_boundary,
    ode_residual,
    solve_bvp,
    to_halfplane,
)
from torusjets.timegrid import CoefficientSeries, TimeGrid, derivative, make_grid

from _oracles import jet_path_mp, shoot_jet_paths, sigma1_mp

GRID = make_grid(64)


def spacelike_boundaries():
    """Boundary tuples that stay valid, connectable and space-like."""
    small = st.floats(-0.2, 0.6, allow_nan=False, allow_infinity=False)
    gap = st.floats(0.05, 0.5)

    @st.composite
    def build(draw):
        a0 = draw(small)
        b0 = draw(st.floats(max(-0.2, -0.45 - a0), 0.6))
        da = draw(gap)
        db = draw(gap)
        sign = draw(st.sampled_from([1.0, -1.0]))
        a1 = a0 + sign * da
        b1 = b0 - sign * db
        if min(a0 + b0, a1 + b1, a0 + b1, a1 + b0) <= -0.45:
            return None
        return (a0, b0, a1, b1)

    return build().filter(lambda t: t is not None)


# --- boundary and half-plane basics -----------------------------------------

def test_boundary_validation():
    SecondJetBoundary(0.0, 0.0, 0.25, -0.25)
    with pytest.raises(ValueError, match="a0 \\+ b0"):
        SecondJetBoundary(-0.3, -0.3, 0.0, 0.0)
    with pytest.raises(ValueError, match="a1 \\+ b1"):
        SecondJetBoundary(0.0, 0.0, 2.0, -3.0)


def test_halfplane_point_validation():
    with pytest.raises(ValueError):
        HalfPlanePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        HalfPlanePoint(0.0, -1.0)


def test_to_halfplane_examples():
    p0, p1 = to_halfplane(SecondJetBoundary(0.0, 0.0, 0.0, 0.0))
    assert (p0.X, p0.Z) == (0.0, 1.0) and (p1.X, p1.Z) == (0.0, 1.0)
    p0, p1 = to_halfplane(SecondJetBoundary(0.25, -0.25, 0.0, 0.0))
    assert (p0.X, p0.Z) == (1.0, 1.0) and (p1.X, p1.Z) == (0.0, 1.0)
    p0, p1 = to_halfplane(SecondJetBoundary(0.0, 0.0, 0.1, 0.2))
    assert (p0.X, p0.Z) == (0.0, 1.0)
    assert abs(p1.X - (-0.2)) < 1e-15 and abs(p1.Z - 1.6) < 1e-15


def test_connectable_examples():
    assert connectable(HalfPlanePoint(0, 1), HalfPlanePoint(0, 1))
    assert not connectable(HalfPlanePoint(0, 1), HalfPlanePoint(3, 1))
    assert connectable(HalfPlanePoint(0, 1), HalfPlanePoint(1.5, 1))


def test_classify_examples():
    assert classify(HalfPlanePoint(0, 1), HalfPlanePoint(1.5, 1)) is CausalClass.SPACE_LIKE
    assert classify(HalfPlanePoint(0, 1), HalfPlanePoint(0, 2)) is CausalClass.TIME_LIKE
    assert classify(HalfPlanePoint(0, 1), HalfPlanePoint(1, 2)) is CausalClass.LIGHT_LIKE
    assert classify(HalfPlanePoint(0, 1), HalfPlanePoint(0, 1)) is CausalClass.STATIONARY
    with pytest.raises(GeodesicDomainError, match="not connectable"):
        classify(HalfPlanePoint(0, 1), HalfPlanePoint(3, 1))
    # near-ties: (0, 0) to (1/2 - db, db) has max(Z0, Z1) = 2, so the tie is 2^-51;
    # db at half of it is zero, at twice it moves, in both sign senses
    near_ties = [
        (2.0**-52, CausalClass.LIGHT_LIKE), (-(2.0**-52), CausalClass.LIGHT_LIKE),
        (2.0**-50, CausalClass.TIME_LIKE), (-(2.0**-50), CausalClass.SPACE_LIKE),
    ]
    for db, cls in near_ties:
        boundary = SecondJetBoundary(0.0, 0.0, 0.5 - db, db)
        p0, p1 = to_halfplane(boundary)
        assert max(p0.Z, p1.Z) == 2.0
        assert classify(p0, p1) is cls, db
        path = solve_bvp(boundary, GRID)
        assert path.causal_class is cls, db
        ends = [path.a.values[0], path.b.values[0], path.a.values[-1], path.b.values[-1]]
        assert np.max(np.abs(np.subtract(ends, [0.0, 0.0, 0.5 - db, db]))) <= 1e-9 * 2.0


def test_distance_examples():
    d = distance(HalfPlanePoint(0, 1), HalfPlanePoint(1, 1))
    assert abs(d - math.pi / 3) < 1e-14
    d = distance(HalfPlanePoint(0, 1), HalfPlanePoint(2 * math.sin(math.pi / 8), 1))
    assert abs(d - math.pi / 4) < 1e-14
    with pytest.raises(GeodesicDomainError):
        distance(HalfPlanePoint(0, 1), HalfPlanePoint(0, 2))
    # the first pair scaled by 1e-200, where Z0 Z1 underflows to 0; the relative tie
    # keeps it space-like
    d = distance(HalfPlanePoint(0, 1e-200), HalfPlanePoint(1e-200, 1e-200))
    assert abs(d - math.pi / 3) < 1e-14


@settings(max_examples=60, deadline=None)
@given(spacelike_boundaries())
def test_property_distance_symmetric(bdry):
    a0, b0, a1, b1 = bdry
    p0, p1 = to_halfplane(SecondJetBoundary(a0, b0, a1, b1))
    if classify(p0, p1) is not CausalClass.SPACE_LIKE:
        return
    assert abs(distance(p0, p1) - distance(p1, p0)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(spacelike_boundaries(), st.floats(-2, 2), st.floats(0.3, 3))
def test_property_distance_isometry_invariant(bdry, shift, scale):
    # translating X and scaling both coordinates are isometries
    a0, b0, a1, b1 = bdry
    p0, p1 = to_halfplane(SecondJetBoundary(a0, b0, a1, b1))
    if classify(p0, p1) is not CausalClass.SPACE_LIKE:
        return
    q0 = HalfPlanePoint((p0.X + shift) * scale, p0.Z * scale)
    q1 = HalfPlanePoint((p1.X + shift) * scale, p1.Z * scale)
    assert abs(distance(p0, p1) - distance(q0, q1)) < 1e-12


def test_epsilon_family_values():
    c8 = 0.5 * math.sin(math.pi / 8)
    eps = epsilon_from_boundary(SecondJetBoundary(0, 0, c8, -c8))
    assert abs(eps - math.pi / 16) < 1e-14
    c6 = 0.5 * math.sin(math.pi / 6)
    eps = epsilon_from_boundary(SecondJetBoundary(0, 0, c6, -c6))
    assert abs(eps - math.pi / 12) < 1e-14
    with pytest.raises(GeodesicDomainError):
        epsilon_from_boundary(SecondJetBoundary(0, 0, 0, 0))


# --- solve_bvp ----------------------------------------------------------------

def test_stationary_path():
    path = solve_bvp(SecondJetBoundary(0.1, 0.2, 0.1, 0.2), GRID)
    assert path.causal_class is CausalClass.STATIONARY
    assert np.all(path.a.values == 0.1)
    assert np.all(path.b.values == 0.2)
    assert np.all(path.sigma1.values == 0.0)
    assert path.sigma2 == 0.0
    assert path.epsilon is None
    assert ode_residual(path) < 1e-9


def test_spacelike_family_path():
    c = 0.5 * math.sin(math.pi / 6)
    path = solve_bvp(SecondJetBoundary(0, 0, c, -c), GRID)
    assert path.causal_class is CausalClass.SPACE_LIKE
    assert ode_residual(path) < 1e-8
    assert abs(path.sigma2 + (math.pi / 12) ** 2) < 1e-9
    assert abs(path.epsilon - math.pi / 12) < 1e-12
    assert path.a.values[0] == 0.0 and path.b.values[0] == 0.0
    assert abs(path.a.values[-1] - c) < 1e-9
    assert abs(path.b.values[-1] + c) < 1e-9


def test_spacelike_invariants_on_family():
    c = 0.5 * math.sin(math.pi / 6)
    path = solve_bvp(SecondJetBoundary(0, 0, c, -c), GRID)
    a, b = path.a.values, path.b.values
    da = derivative(path.a).values
    db = derivative(path.b).values
    z = 1 + 2 * a + 2 * b
    sigma2_nodes = da * db / z**2
    assert np.max(sigma2_nodes) - np.min(sigma2_nodes) < 1e-9
    assert np.max(np.abs(sigma2_nodes - path.sigma2)) < 1e-9
    # sigma1' = 2 sigma1^2 - 8 sigma2, so sigma1 never decreases
    s1 = path.sigma1.values
    ds1 = derivative(path.sigma1).values
    assert np.max(np.abs(ds1 - (2 * s1**2 - 8 * path.sigma2))) < 1e-8
    # A > 0 and A' = 2 eps (A^2 + 1)
    A = path.A.values
    assert np.all(A > 0)
    dA = derivative(path.A).values
    assert np.max(np.abs(dA - 2 * path.epsilon * (A**2 + 1))) < 1e-8
    # hyperbola invariant Z^2 - (X - lam)^2 = C
    X = 2 * a - 2 * b
    hyp = path.hyperbola
    assert np.max(np.abs(z**2 - (X - hyp.lam) ** 2 - hyp.c_value)) < 1e-9


def test_swapped_axes_orientation():
    c = 0.5 * math.sin(math.pi / 6)
    fwd = solve_bvp(SecondJetBoundary(0, 0, c, -c), GRID)
    rev = solve_bvp(SecondJetBoundary(c, -c, 0, 0), GRID)
    assert not fwd.swapped_axes
    assert rev.swapped_axes
    # same geometry traversed backwards: a(t) <-> a(1-t) etc.
    assert abs(fwd.epsilon - rev.epsilon) < 1e-12
    assert np.max(np.abs(rev.a.values - fwd.a.values[::-1])) < 1e-9
    assert np.max(np.abs(rev.b.values - fwd.b.values[::-1])) < 1e-9


def test_timelike_vertical_chord():
    path = solve_bvp(SecondJetBoundary(0, 0, 0.1, 0.1), GRID)
    assert path.causal_class is CausalClass.TIME_LIKE
    z0, z1 = 1.0, 1.4
    z = 1 + 2 * path.a.values + 2 * path.b.values
    assert np.max(np.abs(z - z0 * np.exp(GRID.nodes * math.log(z1 / z0)))) < 1e-12
    assert abs(path.sigma2 - (math.log(z1 / z0) / 4) ** 2) < 1e-12
    assert ode_residual(path) < 1e-8


def test_timelike_generic_shooting():
    path = solve_bvp(SecondJetBoundary(0, 0, 0.3, 0.1), GRID)
    assert path.causal_class is CausalClass.TIME_LIKE
    assert ode_residual(path) < 1e-8
    assert abs(path.a.values[-1] - 0.3) < 1e-9
    assert abs(path.b.values[-1] - 0.1) < 1e-9
    assert path.sigma2 > 0


def test_lightlike_shooting():
    path = solve_bvp(SecondJetBoundary(0, 0, 0.2, 0.0), GRID)
    assert path.causal_class is CausalClass.LIGHT_LIKE
    assert ode_residual(path) < 1e-8
    assert abs(path.sigma2) < 1e-9


def test_not_connectable_named_inequality():
    with pytest.raises(GeodesicDomainError, match="a0 \\+ b1 \\+ 1/2 > 0"):
        solve_bvp(SecondJetBoundary(0, 0, 1.0, -0.6), GRID)
    with pytest.raises(GeodesicDomainError, match="a1 \\+ b0 \\+ 1/2 > 0"):
        solve_bvp(SecondJetBoundary(1.0, -0.6, 0, 0), GRID)


def test_ode_residual_detects_perturbation():
    c = 0.5 * math.sin(math.pi / 6)
    path = solve_bvp(SecondJetBoundary(0, 0, c, -c), GRID)
    base = ode_residual(path)
    bent = path.a.values + 1e-3 * GRID.nodes * (1 - GRID.nodes)
    import dataclasses

    perturbed = dataclasses.replace(path, a=CoefficientSeries(GRID, bent))
    assert base < 1e-8
    assert ode_residual(perturbed) > 1e-4


def test_agreement_with_shooting_oracle():
    boundaries = [
        (0.0, 0.0, 0.25, -0.25),
        (0.1, -0.05, -0.1, 0.3),
        (0.3, 0.0, 0.0, 0.45),
        (-0.1, 0.4, 0.2, 0.1),
    ]
    for bdry in boundaries:
        path = solve_bvp(SecondJetBoundary(*bdry), GRID)
        a_or, b_or = shoot_jet_paths(
            bdry[0], bdry[1], bdry[2], bdry[3], GRID.nodes
        )
        assert np.max(np.abs(path.a.values - a_or[:, 0])) < 1e-6
        assert np.max(np.abs(path.b.values - b_or[:, 0])) < 1e-6


def test_uniqueness_against_oracle_restart():
    # shooting from a very different initial guess lands on the same path
    c = 0.5 * math.sin(math.pi / 4)
    path = solve_bvp(SecondJetBoundary(0, 0, c, -c), GRID)
    a1, b1 = shoot_jet_paths(0.0, 0.0, c, -c, GRID.nodes, density=128)
    assert np.max(np.abs(path.a.values - a1[:, 0])) < 1e-6


def test_arc_length_recovers_epsilon():
    c = 0.5 * math.sin(math.pi / 5)
    path = solve_bvp(SecondJetBoundary(0, 0, c, -c), GRID)
    assert abs(arc_epsilon(path) - path.epsilon) < 1e-7


def seeded_spacelike_chords(count: int, seed: int = 7) -> list:
    """Space-like chords drawn as spacelike_boundaries draws them, from a seeded generator."""
    rng = np.random.default_rng(seed)
    chords = []
    while len(chords) < count:
        a0, b0 = rng.uniform(-0.2, 0.6, 2)
        da, db = rng.uniform(0.05, 0.5, 2)
        sign = rng.choice([1.0, -1.0])
        a1, b1 = a0 + sign * da, b0 - sign * db
        if min(a0 + b0, a1 + b1, a0 + b1, a1 + b0) > -0.45:
            chords.append((a0, b0, a1, b1))
    return chords


@pytest.mark.parametrize("nodes", [16, 64, 257])
def test_arc_length_reads_closed_form_slopes(nodes):
    # the speed along the path is constant, so its quadrature is exact; a spectral
    # derivative of the node values missed by up to 8.8e-3 at 16 nodes.  A grid of its
    # own, since make_grid's shared ones may hold D from other callers
    grid = TimeGrid(make_grid(nodes).nodes)
    for bdry in seeded_spacelike_chords(300):
        path = solve_bvp(SecondJetBoundary(*bdry), grid)
        assert abs(arc_epsilon(path) - path.epsilon) <= 1e-13 * path.epsilon, bdry
    assert "diff_matrix" not in vars(grid)


@settings(max_examples=50, deadline=None)
@given(spacelike_boundaries())
def test_property_spacelike_paths(bdry):
    boundary = SecondJetBoundary(*bdry)
    p0, p1 = to_halfplane(boundary)
    if classify(p0, p1) is not CausalClass.SPACE_LIKE:
        return
    path = solve_bvp(boundary, GRID)
    assert path.causal_class is CausalClass.SPACE_LIKE
    assert ode_residual(path) < 1e-8
    assert abs(path.a.values[-1] - boundary.a1) < 1e-9
    assert abs(path.b.values[-1] - boundary.b1) < 1e-9
    assert 0 < 4 * path.epsilon < math.pi
    assert abs(path.sigma2 + path.epsilon**2) < 1e-10
    z = 1 + 2 * path.a.values + 2 * path.b.values
    assert np.all(z > 0)
    # space-like iff the jets move in opposite senses
    assert (boundary.a0 - boundary.a1) * (boundary.b0 - boundary.b1) < 0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.02, 0.45),
    st.floats(0.02, 0.45),
)
def test_property_classification_vs_sigma2_sign(da, db):
    # same-sense motion is time-like with sigma2 > 0
    boundary = SecondJetBoundary(0.0, 0.0, da, db)
    path = solve_bvp(boundary, GRID)
    assert path.causal_class is CausalClass.TIME_LIKE
    assert path.sigma2 > 0


# --- closed-form time-like and light-like paths against the RK4 oracle --------

# name -> (boundary, causal class, expected sign of X0 - lam or None)
CLOSED_FORM_CASES = {
    "timelike_rising_x0_above_lam": ((0.0, 0.0, 0.3, 0.1), "TimeLike", 1),
    "timelike_rising_x0_below_lam": ((0.0, 0.0, 0.1, 0.3), "TimeLike", -1),
    "timelike_falling_x0_above_lam": ((0.3, 0.1, 0.0, 0.0), "TimeLike", 1),
    "timelike_falling_x0_below_lam": ((0.1, 0.3, 0.0, 0.0), "TimeLike", -1),
    "timelike_steep": ((0.0, 0.0, 2.0, 1.5), "TimeLike", 1),
    "lightlike_a_rises": ((0.0, 0.0, 0.2, 0.0), "LightLike", None),
    "lightlike_b_rises": ((0.0, 0.0, 0.0, 0.2), "LightLike", None),
    "lightlike_a_falls": ((0.2, 0.0, 0.0, 0.0), "LightLike", None),
    "lightlike_b_falls": ((0.0, 0.1, 0.0, -0.1), "LightLike", None),
    # |X1 - X0| = 1e-9 and 1e-11: next to the vertical chord
    "near_vertical_1e-9": ((0.0, 0.0, 0.2, 0.2 - 0.5e-9), "TimeLike", 1),
    "near_vertical_1e-11": ((0.0, 0.0, 0.2, 0.2 - 0.5e-11), "TimeLike", 1),
    "near_vertical_1e-11_falling": ((0.2, 0.2 - 0.5e-11, 0.0, 0.0), "TimeLike", 1),
    # |Z1 - Z0| - |X1 - X0| = 4 db = 1e-9 and 1e-11: next to the light-like edge
    "near_lightlike_1e-9": ((0.0, 0.0, 0.2, 0.25e-9), "TimeLike", 1),
    "near_lightlike_1e-11": ((0.0, 0.0, 0.2, 0.25e-11), "TimeLike", 1),
    "near_lightlike_1e-11_falling": ((0.2, 0.25e-11, 0.0, 0.0), "TimeLike", 1),
    # their space-like twins: b moves against a by 1e-9 and 1e-11
    "near_lightlike_spacelike_1e-9": ((0.0, 0.0, 0.2, -1e-9), "SpaceLike", None),
    "near_lightlike_spacelike_1e-11": ((0.0, 0.0, 0.2, -1e-11), "SpaceLike", None),
    "near_lightlike_spacelike_1e-11_falling": ((0.2, -1e-11, 0.0, 0.0), "SpaceLike", None),
}


@pytest.fixture(scope="module")
def closed_form_oracle():
    names = list(CLOSED_FORM_CASES)
    cols = np.array([CLOSED_FORM_CASES[name][0] for name in names]).T
    a_or, b_or = shoot_jet_paths(*cols, GRID.nodes, density=768)
    return {name: (a_or[:, i], b_or[:, i]) for i, name in enumerate(names)}


@pytest.mark.parametrize("name", list(CLOSED_FORM_CASES))
def test_closed_form_matches_oracle(name, closed_form_oracle):
    bdry, cls, side = CLOSED_FORM_CASES[name]
    path = solve_bvp(SecondJetBoundary(*bdry), GRID)
    assert path.causal_class.value == cls
    if side is not None:
        X0 = 2 * bdry[0] - 2 * bdry[1]
        assert np.sign(X0 - path.hyperbola.lam) == side
    a, b = path.a.values, path.b.values
    a_or, b_or = closed_form_oracle[name]
    scale = max(np.max(np.abs(a_or)), np.max(np.abs(b_or)))
    assert np.max(np.abs(a - a_or)) <= 1e-12 * scale
    assert np.max(np.abs(b - b_or)) <= 1e-12 * scale
    assert abs(a[0] - bdry[0]) <= 1e-12 and abs(b[0] - bdry[1]) <= 1e-12
    assert abs(a[-1] - bdry[2]) <= 1e-12 and abs(b[-1] - bdry[3]) <= 1e-12
    assert ode_residual(path) < 1e-8
    if path.epsilon is not None:
        assert epsilon_from_boundary(SecondJetBoundary(*bdry)) == path.epsilon
    da = derivative(path.a).values
    db = derivative(path.b).values
    sigma2_nodes = da * db / (1 + 2 * a + 2 * b) ** 2
    assert np.max(np.abs(sigma2_nodes - path.sigma2)) <= 1e-12


def test_lightlike_path_off_its_endpoint_is_refused():
    # a grid whose last node stops short of t = 1 nudges the light-like path off
    # its endpoint by about 2e-7, far past 1e-9 max(Z0, Z1) = 1.4e-9
    short = dataclasses.replace(GRID, nodes=GRID.nodes * (1.0 - 1e-6))
    boundary = SecondJetBoundary(0.0, 0.0, 0.2, 0.0)
    assert solve_bvp(boundary, GRID).causal_class is CausalClass.LIGHT_LIKE
    with pytest.raises(ConsistencyError, match="LightLike closed form missed its endpoint"):
        solve_bvp(boundary, short)


def assert_matches_mp_oracle(bdry, tol=1e-13):
    """The path within tol * max(Z0, Z1) of the 50-digit oracle at every node."""
    path = solve_bvp(SecondJetBoundary(*bdry), GRID)
    a_mp, b_mp = jet_path_mp(*bdry, GRID.nodes)
    scale = max(1 + 2 * (bdry[0] + bdry[1]), 1 + 2 * (bdry[2] + bdry[3]))
    err = max(np.max(np.abs(path.a.values - a_mp)), np.max(np.abs(path.b.values - b_mp)))
    assert err <= tol * scale, (bdry, err / scale)
    return path


def test_vertical_chord_to_1e200_matches_oracle():
    # a proper time of about 462: the sinh ratio is formed from e^-x and e^-x - 1 alone
    path = assert_matches_mp_oracle((0.0, 0.0, 1e200, 1e200))
    assert path.causal_class is CausalClass.TIME_LIKE
    assert path.a.values[-1] == 1e200 and path.b.values[-1] == 1e200


# chords whose jets have size s: two of each class with both ends of size s; a space-like
# rise and fall of Z by a factor of about 1e6; a time-like rise from (0, 0) and the vertical
# chord; and, up to s = 1e12, ROADMAP item 14's steep chords (0, 0) -> (s, -0.1), (s, 0.125)
ORACLE_CHORDS = {
    "SpaceLike": lambda s: [(s, s, 2 * s, 0.5 * s), (0.5 * s, 0.25 * s, 0.25 * s, 0.75 * s),
                            (1e-6 * s, 0.0, s, -0.5e-6 * s), (s, -0.5e-6 * s, 1e-6 * s, 0.0),
                            *([(0.0, 0.0, s, -0.1)] if s <= 1e12 else [])],
    "TimeLike": lambda s: [(s, s, 3 * s, 2 * s), (2 * s, 0.5 * s, 0.0, 0.0),
                           (0.0, 0.0, s, 1e-6 * s), (0.0, 0.0, s, s),
                           *([(0.0, 0.0, s, 0.125)] if s <= 1e12 else [])],
}


ORACLE_SIZES = [1e-8, 1e-3, 1.0, 1e4, 1e7, 1e12, 1e50, 1e100, 1e150]


@pytest.mark.parametrize("size", ORACLE_SIZES)
@pytest.mark.parametrize("cls", list(ORACLE_CHORDS))
def test_paths_match_mp_oracle_at_every_node(size, cls):
    for bdry in ORACLE_CHORDS[cls](size):
        assert solve_bvp(SecondJetBoundary(*bdry), GRID).causal_class.value == cls, bdry
        assert_matches_mp_oracle(bdry)


def oracle_chords():
    return [bdry for size in ORACLE_SIZES for chords in ORACLE_CHORDS.values()
            for bdry in chords(size)]


# Z0 = Z1 to rounding and D = 2.5e-12: Z'/Z is of order D^2 and of the rounding of da + db,
# where forms that difference S'(1 - t) and S'(t) keep no digit
NEAR_STATIONARY = (0.1, 0.2, 0.1 + 1e-12, 0.2 - 1e-12)


def test_sigma1_matches_mp_oracle():
    chords = oracle_chords() + [case[0] for case in CLOSED_FORM_CASES.values()] + [NEAR_STATIONARY]
    for bdry in chords:
        sigma1 = solve_bvp(SecondJetBoundary(*bdry), GRID).sigma1.values
        ref = sigma1_mp(*bdry, GRID.nodes)
        assert np.max(np.abs(sigma1 - ref)) <= 1e-13 * np.max(np.abs(ref)), bdry


@pytest.mark.parametrize("nodes", [17, 64, 513, 2049])
def test_ode_residual_of_oracle_chords_is_rounding(nodes):
    # read off closed forms, the residual does not grow with the node count as a spectral
    # derivative's rounding would
    grid = make_grid(nodes)
    for bdry in oracle_chords():
        assert ode_residual(solve_bvp(SecondJetBoundary(*bdry), grid)) <= 1e-13, bdry
