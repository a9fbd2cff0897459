"""Tests for the convex body catalog: membership, sampling, convexity,
diameters, recentering witnesses, and the coordinate model."""
from __future__ import annotations

import json

import numpy as np
import pytest

from fptlab import (
    BumpSimplex,
    ConeHull,
    CoordPoint,
    DensitySimplex,
    GridFunction,
    UnitBall,
    body_from_spec,
    bump_tail_family,
    coord_basis,
    distance_to_set,
    embed_coord,
    limsup_tail,
    measure_distance,
    norm,
    peak_family,
    peak_sequence,
    rademacher_family,
)

LEVEL = 7


def catalog():
    return [
        DensitySimplex(LEVEL),
        ConeHull(0.0, LEVEL),
        ConeHull(0.5, LEVEL),
        ConeHull(1.0, LEVEL),
        UnitBall(LEVEL),
        BumpSimplex(1.5, 16),
    ]


def test_density_simplex_membership():
    body = DensitySimplex(5)
    assert body.membership(GridFunction.constant(1.0, 5))
    for k in range(0, 6):
        assert body.membership(peak_sequence(2 ** k, 5))
    violation = body.violation(GridFunction.zero(5))
    assert violation is not None and "integral" in violation


def test_unit_ball_membership():
    body = UnitBall(4)
    assert body.membership(GridFunction.zero(4))
    assert body.membership(GridFunction.constant(-1.0, 4))
    assert not body.membership(GridFunction.constant(1.5, 4))


def test_cone_hull_vertex_membership():
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        body = ConeHull(a, 5)
        assert body.membership(GridFunction.constant(a, 5))
        assert body.membership(GridFunction.constant(1.0, 5))
        assert body.membership(peak_sequence(4, 5))
    assert not ConeHull(0.5, 5).membership(GridFunction.zero(5))
    assert ConeHull(0.0, 5).membership(GridFunction.zero(5))


def test_cone_hull_rejects_bad_a():
    with pytest.raises(ValueError):
        ConeHull(-0.1, 4)
    with pytest.raises(ValueError):
        ConeHull(1.1, 4)


def test_bump_simplex_membership():
    body = BumpSimplex(1.5, 8)
    for k in range(8):
        assert body.membership(coord_basis(1.5, 8, k))
    assert not body.membership(CoordPoint(1.5, np.zeros(8)))
    assert not body.membership(CoordPoint(1.25, np.eye(8)[0]))


def test_sample_membership_round_trip():
    rng = np.random.default_rng(5)
    for body in catalog():
        for _ in range(1000):
            assert body.membership(body.sample(rng)), body.name


def test_convexity_probe():
    rng = np.random.default_rng(6)
    for body in catalog():
        for _ in range(500):
            x = body.sample(rng)
            y = body.sample(rng)
            for lam in (0.25, 0.5, 0.75):
                z = lam * x + (1.0 - lam) * y
                assert body.membership(z, tol=1e-7), body.name


def test_exact_diameters():
    for body in catalog():
        assert body.diameter == 2.0
    # attained: disjoint densities in C, antipodes in the ball, late bumps
    f = peak_sequence(2, 3)
    g = GridFunction(3, np.array([0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]))
    assert norm(f - g) == 2.0
    assert norm(coord_basis(1.5, 8, 2) - coord_basis(1.5, 8, 3)) == 2.0


def test_recenter_ball_returns_interior_point():
    body = UnitBall(6)
    rng = np.random.default_rng(7)
    x = 0.5 * body.sample(rng)
    seq = [body.sample(rng) for _ in range(8)]
    res = body.recenter(x, seq)
    assert res.bound_type == "exact"
    assert norm(res.point - x) <= 1e-12


def test_recenter_cone_hull_vertex_witness():
    # the drift point of the peak family is 0; the best recenter point is the
    # extra vertex, giving the ratio 1 + a
    level = 12
    fam = peak_family(level, k_min=4)
    for a in (0.0, 0.25, 0.5, 0.75):
        body = ConeHull(a, level)
        res = body.recenter(GridFunction.zero(level), fam.points)
        assert res.bound_type == "exact"
        assert res.point.allclose(GridFunction.constant(a, level))
        ratio = limsup_tail([norm(res.point - p) for p in fam.points], 0.5)
        assert abs(ratio - (1.0 + a)) <= 0.02 * (1.0 + a)


def test_recenter_witness_for_member_is_identity():
    rng = np.random.default_rng(8)
    for body in catalog():
        x = body.sample(rng)
        res = body.recenter(x, (x,))
        assert res.bound_type == "exact"
        assert norm(res.point - x) <= 1e-9, body.name


def test_recenter_bump_tail_ratio_exact():
    slots = 32
    for t in (1.25, 1.5, 1.75):
        body = BumpSimplex(t, slots)
        fam = bump_tail_family(t, slots, k_min=2)
        res = body.recenter(body.zero_point(), fam.points)
        assert res.bound_type == "exact"
        # witness is the shrunken first vertex, norm t - 1
        assert abs(norm(res.point) - (t - 1.0)) <= 1e-12
        ratio = limsup_tail([norm(res.point - p) for p in fam.points], 0.5)
        assert abs(ratio - t) <= 1e-9


def test_recenter_output_always_member():
    rng = np.random.default_rng(9)
    for body in catalog():
        x = body.zero_point()
        seq = [body.sample(rng) for _ in range(8)]
        res = body.recenter(x, seq, rng=rng)
        assert body.membership(res.point, tol=1e-6), body.name


def test_recenter_rejects_empty_sequence():
    body = DensitySimplex(4)
    with pytest.raises(ValueError):
        body.recenter(GridFunction.zero(4), ())


def test_distance_to_set_member_is_zero():
    rng = np.random.default_rng(10)
    for body in catalog():
        x = body.sample(rng)
        value, _ = distance_to_set(body, x)
        assert value == 0.0


def test_distance_to_set_zero_to_simplex():
    body = DensitySimplex(6)
    value, bound = distance_to_set(body, GridFunction.zero(6),
                                   rng=np.random.default_rng(11))
    assert bound == "exact"
    assert abs(value - 1.0) <= 1e-12


def test_distance_to_set_zero_to_bump():
    for t in (1.1, 1.5, 1.9):
        body = BumpSimplex(t, 16)
        value, bound = distance_to_set(body, body.zero_point())
        assert bound == "exact"
        assert abs(value - (t - 1.0)) <= 1e-12


def test_coord_point_arithmetic_and_norm():
    t = 1.5
    x = CoordPoint(t, np.array([1.0, 0.5, 0.0, 0.25]))
    y = CoordPoint(t, np.array([0.0, 1.0, 0.5, 0.0]))
    assert abs(norm(x) - ((t - 1.0) * 1.0 + 0.75)) <= 1e-15
    d = norm(x - y)
    assert abs(d - ((t - 1.0) * 1.0 + 0.5 + 0.5 + 0.25)) <= 1e-15
    assert norm(2.0 * x) == 2.0 * norm(x)
    with pytest.raises(ValueError):
        x._compat(CoordPoint(1.25, np.zeros(4)))


def test_coord_point_needs_two_slots():
    with pytest.raises(ValueError):
        CoordPoint(1.5, np.array([1.0]))


def test_embedding_matches_coordinate_norm():
    rng = np.random.default_rng(12)
    for t in (1.1, 1.5, 1.9):
        for _ in range(25):
            c = rng.dirichlet(np.ones(8))
            x = CoordPoint(t, c)
            f = embed_coord(x, 8)
            assert abs(norm(f) - norm(x)) <= 1e-12


def test_embedding_matches_coordinate_measure_distance():
    rng = np.random.default_rng(13)
    for t in (1.1, 1.25, 1.5, 1.9):
        for _ in range(25):
            x = CoordPoint(t, rng.dirichlet(np.ones(8)))
            y = CoordPoint(t, rng.dirichlet(np.ones(8)))
            dg = measure_distance(embed_coord(x, 8), embed_coord(y, 8))
            dc = measure_distance(x, y)
            assert abs(dg - dc) <= 1e-12


def test_embedding_requires_enough_resolution():
    x = CoordPoint(1.5, np.zeros(8))
    with pytest.raises(ValueError):
        embed_coord(x, 5)


def test_norm_dispatch_rejects_mixed_types():
    with pytest.raises(TypeError):
        norm("not a point")
    with pytest.raises(TypeError):
        measure_distance(GridFunction.zero(3), CoordPoint(1.5, np.zeros(4)))
    with pytest.raises(TypeError):
        measure_distance(CoordPoint(1.5, np.zeros(4)), GridFunction.zero(3))
    with pytest.raises(TypeError):
        measure_distance("not a point", "not a point")
    with pytest.raises(ValueError):
        measure_distance(CoordPoint(1.5, np.zeros(4)), CoordPoint(1.25, np.zeros(4)))


def test_coord_json_round_trip():
    x = CoordPoint(1.5, np.array([0.25, 0.75, 0.0, 0.0]))
    data = json.loads(x.to_json())
    assert set(data) == {"t", "coeffs"}
    y = CoordPoint.from_json(x.to_json())
    assert y.t == x.t and np.all(y.coeffs == x.coeffs)


def test_families_drift_verdicts():
    peaks = peak_family(10, k_min=2)
    assert peaks.drift_defect() <= 2.0 ** -6
    bumps = bump_tail_family(1.5, 32)
    assert bumps.drift_defect() <= 2.0 ** -16
    # sign blocks oscillate: the declared limit 0 is wrong in measure
    rad = rademacher_family(8)
    assert rad.drift_defect() >= 0.99


def test_family_needs_two_points():
    with pytest.raises(ValueError):
        peak_family(3, k_min=3, k_max=3)


def test_body_from_spec_round_trip():
    body = body_from_spec({"set": "density_simplex", "level": 6})
    assert isinstance(body, DensitySimplex) and body.level == 6
    body = body_from_spec({"set": "cone_hull", "a": 0.5, "level": 5})
    assert isinstance(body, ConeHull) and body.a == 0.5
    body = body_from_spec({"set": "ball", "level": 4})
    assert isinstance(body, UnitBall)
    body = body_from_spec({"set": "ct", "t": 1.25, "M": 32})
    assert isinstance(body, BumpSimplex) and body.t == 1.25 and body.slots == 32


def test_body_from_spec_rejects_unknown():
    with pytest.raises(ValueError, match=r"unknown body kind 'torus'; "
                                         r"expected one of \['ball', 'cone_hull'"):
        body_from_spec({"set": "torus"})
    with pytest.raises(ValueError, match="unknown body kind"):
        body_from_spec({"set": ["ball"]})
    with pytest.raises(ValueError, match=r"unknown body parameters \['radius'\]"):
        body_from_spec({"set": "ball", "radius": 2})
    with pytest.raises(ValueError):
        body_from_spec({"op": "ball"})


@pytest.mark.parametrize("spec, message", [
    ({"set": "ball", "level": 1.7}, "level must be an integer"),
    ({"set": "ball", "level": True}, "level must be a number"),
    ({"set": "ball", "level": "5"}, "level must be a number"),
    ({"set": "ct", "t": None}, "t must be a number"),
    ({"set": "ct", "M": [3]}, "M must be a number"),
    ({"set": "cone_hull", "a": False}, "a must be a number"),
    ({"set": "cone_hull", "a": 10 ** 400}, "a is out of range"),
])
def test_body_from_spec_checks_value_types(spec, message):
    with pytest.raises(ValueError, match=message):
        body_from_spec(spec)


def test_body_from_spec_fill_and_defaults():
    # an integral float is an integer; a fill value lands only where the
    # kind takes that parameter and the spec leaves it out; None fills nothing
    assert body_from_spec({"set": "ball", "level": 5.0}).level == 5
    assert body_from_spec({"set": "ball"}).level == 12
    assert body_from_spec({"set": "ball"}, level=5, a=0.5, M=8).level == 5
    assert body_from_spec({"set": "ball", "level": 4}, level=5).level == 4
    hull = body_from_spec({"set": "cone_hull", "a": 0.25}, a=0.5, level=None)
    assert hull.a == 0.25 and hull.level == 12
    bump = body_from_spec({"set": "ct"}, t=None, M=32)
    assert bump.t == 1.5 and bump.slots == 32


@pytest.mark.parametrize("level", [-1, 1.7, True, 25])
def test_grid_bodies_check_their_level(level):
    for make in (DensitySimplex, UnitBall, lambda lvl: ConeHull(0.5, lvl)):
        with pytest.raises(ValueError, match="level must be"):
            make(level)
