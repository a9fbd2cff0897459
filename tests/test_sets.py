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
    disjoint_additivity_defect,
    komlos_extract,
    limsup_tail,
    measure_distance,
    norm,
    peak_family,
    peak_sequence,
    rademacher,
)
from fptlab import sets
from fptlab.grid import MAX_LEVEL, window_length
from fptlab.sets import (
    PHI_BLOCK_FLOATS,
    PointRows,
    SequenceFamily,
    _phi_values,
    measure_distances,
    point_rows,
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


def origin(body):
    """The origin of the body's space, which need not be a member."""
    if isinstance(body, BumpSimplex):
        return CoordPoint(body.t, np.zeros(body.slots))
    return GridFunction.zero(body.level)


def embed_coord(x: CoordPoint, level: int) -> GridFunction:
    """Exact grid representation of a coordinate point (needs level >= slots):
    the oracle of the coordinate metrics."""
    if level < x.slots:
        raise ValueError(f"level {level} cannot resolve {x.slots} bump slots")
    vals = np.zeros(2 ** level)
    for k in range(x.slots):
        height = x.coeffs[k] * 2.0 ** (k + 1)
        if k == 0:
            height *= x.t - 1.0
        vals[2 ** (level - k - 1):2 ** (level - k)] = height
    return GridFunction(level, vals)


def test_density_simplex_membership():
    body = DensitySimplex(5)
    assert body.membership(GridFunction.constant(1.0, 5), 1e-9)
    for k in range(0, 6):
        assert body.membership(peak_sequence(2 ** k, 5), 1e-9)
    violation = body.violation(GridFunction.zero(5), 1e-9)
    assert violation is not None and "integral" in violation


def test_unit_ball_membership():
    body = UnitBall(4)
    assert body.membership(GridFunction.zero(4), 1e-9)
    assert body.membership(GridFunction.constant(-1.0, 4), 1e-9)
    assert not body.membership(GridFunction.constant(1.5, 4), 1e-9)


def test_cone_hull_vertex_membership():
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        body = ConeHull(a, 5)
        assert body.membership(GridFunction.constant(a, 5), 1e-9)
        assert body.membership(GridFunction.constant(1.0, 5), 1e-9)
        assert body.membership(peak_sequence(4, 5), 1e-9)
    assert not ConeHull(0.5, 5).membership(GridFunction.zero(5), 1e-9)
    assert ConeHull(0.0, 5).membership(GridFunction.zero(5), 1e-9)


def test_cone_hull_rejects_bad_a():
    with pytest.raises(ValueError):
        ConeHull(-0.1, 4)
    with pytest.raises(ValueError):
        ConeHull(1.1, 4)


def test_bump_simplex_membership():
    body = BumpSimplex(1.5, 8)
    for k in range(8):
        assert body.membership(coord_basis(1.5, 8, k), 1e-9)
    assert not body.membership(CoordPoint(1.5, np.zeros(8)), 1e-9)
    assert not body.membership(CoordPoint(1.25, np.eye(8)[0]), 1e-9)


def test_bump_simplex_bounds_its_slot_count():
    # constructors allocate nothing, so the bound is tested without a solve
    top = 2 ** MAX_LEVEL
    assert BumpSimplex(1.5, top).slots == top
    for slots in (3, top + 1, 10 ** 12):
        with pytest.raises(ValueError, match="slots"):
            BumpSimplex(1.5, slots)
    with pytest.raises(ValueError, match=f"at most 2\\*\\*{MAX_LEVEL} slots"):
        body_from_spec({"set": "ct", "M": 10 ** 12})


def test_sample_membership_round_trip():
    rng = np.random.default_rng(5)
    for body in catalog():
        for _ in range(1000):
            assert body.membership(body.sample(rng), 1e-9), body.name


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
    assert norm(body.recenter(x) - x) <= 1e-12


def test_recenter_ball_scales_an_outside_point_onto_the_sphere():
    # a drift point of norm above 1 is pulled back along its ray: every
    # cell keeps its sign, and the witness lies on the unit sphere
    body = UnitBall(4)
    w = body.recenter(GridFunction.constant(2.0, 4))
    assert w.array.tolist() == [1.0] * 16
    rng = np.random.default_rng(9)
    for scale in (1.5, 40.0, 1e6):
        x = GridFunction(4, rng.standard_normal(16))
        x = x * (scale / norm(x))
        w = body.recenter(x)
        assert abs(norm(w) - 1.0) <= 1e-12
        assert np.array_equal(np.sign(w.array), np.sign(x.array))
        assert norm(w - x) == pytest.approx(scale - 1.0, rel=1e-9)


def test_recenter_cone_hull_vertex_witness():
    # the drift point of the peak family is 0; the best recenter point is the
    # extra vertex, giving the ratio 1 + a
    level = 12
    fam = peak_family(level, k_min=4)
    for a in (0.0, 0.25, 0.5, 0.75):
        body = ConeHull(a, level)
        w = body.recenter(GridFunction.zero(level))
        assert np.max(np.abs(w.values - a)) <= 1e-9
        ratio = limsup_tail([norm(w - p) for p in fam.points])
        assert abs(ratio - (1.0 + a)) <= 0.02 * (1.0 + a)


def _foreign_points(body):
    """Points of another space than ``body``'s, each with the message the
    body refuses it with: the other point kind, a grid point of another
    level, a coordinate point of another t or slot count."""
    if isinstance(body, BumpSimplex):
        kind = "expected CoordPoint, got GridFunction"
        return [(GridFunction.constant(1.0, level), kind) for level in (0, 4, LEVEL)] + [
            (coord_basis(t, slots, 1), "coordinate space mismatch")
            for t, slots in ((1.25, body.slots), (body.t, body.slots - 1),
                             (body.t, body.slots + 1))]
    return [(GridFunction.constant(1.0, level),
             f"expected a level-{LEVEL} point, got level {level}")
            for level in (0, 4, LEVEL + 1)] + [
        (coord_basis(1.5, slots, 1), "expected GridFunction, got CoordPoint")
        for slots in (4, 2 ** LEVEL)]


def test_bodies_refuse_points_of_another_space():
    # the space test comes before every constraint, and a refused point never
    # reaches a recenter witness: recenter refuses it with the space message
    for body in catalog():
        def witness(x, _name=body.name):
            raise AssertionError(f"{_name}: witness called on {x!r}")

        body._recenter_witness = witness
        for x, message in _foreign_points(body):
            assert body.violation(x, 1e-7) == message, body.name
            assert not body.membership(x, 1e-7)
            with pytest.raises(ValueError) as err:
                body.recenter(x)
            assert str(err.value) == f"no recenter point in {body.name}: {message}"


def test_cone_hull_at_one_is_the_density_simplex():
    # the rows, the messages and the witness of the simplex, on seeded rows
    # in and out of it
    rng = np.random.default_rng(20)
    for level in (0, 1, 5, 9):
        hull, simplex = ConeHull(1.0, level), DensitySimplex(level)
        space = GridFunction.zero(level)
        for message in ("integral 5 != 1", "integral 0.5 != 1"):
            value = float(message.split()[1])
            assert hull.violation(GridFunction.constant(value, level), 1e-9) == message
        members = np.stack([simplex.sample(rng).values for _ in range(8)])
        rows = np.concatenate([
            members,
            members * rng.uniform(0.5, 1.5, size=(8, 1)),
            members - rng.uniform(0.0, 2.0, size=(8, 1)),
            rng.standard_normal((8, 2 ** level)),
        ])
        for tol in (0.0, 1e-9, 1e-7):
            want = simplex.violations(space, rows, tol)
            assert hull.violations(space, rows, tol) == want
            assert [hull.violation(space.like(r), tol) for r in rows] == want
        for row in rows:
            got = hull._recenter_witness(space.like(row))
            ref = simplex._recenter_witness(space.like(row))
            assert got.values.tobytes() == ref.values.tobytes()


def test_recenter_witness_for_member_is_identity():
    rng = np.random.default_rng(8)
    for body in catalog():
        x = body.sample(rng)
        assert norm(body.recenter(x) - x) <= 1e-9, body.name


def test_recenter_bump_tail_ratio_exact():
    slots = 32
    for t in (1.25, 1.5, 1.75):
        body = BumpSimplex(t, slots)
        fam = bump_tail_family(t, slots, k_min=2)
        w = body.recenter(origin(body))
        # witness is the shrunken first vertex, norm t - 1
        assert abs(norm(w) - (t - 1.0)) <= 1e-12
        ratio = limsup_tail([norm(w - p) for p in fam.points])
        assert abs(ratio - t) <= 1e-9


def test_recenter_output_always_member():
    for body in catalog():
        assert body.membership(body.recenter(origin(body)), tol=1e-6), body.name


def test_recenter_refuses_a_median_that_left_the_simplex():
    # a cellwise median of members need not be a member: the median of
    # these three densities has integral 1.5, and no constant shift brings
    # the integral down, so the witness fails the body's check
    body = DensitySimplex(2)
    members = [GridFunction(2, np.array(v, dtype=float))
               for v in ((2, 2, 0, 0), (0, 2, 2, 0), (2, 0, 2, 0))]
    assert all(body.membership(m, 1e-12) for m in members)
    median = GridFunction(2, np.median([m.values for m in members], axis=0))
    assert median.values.tolist() == [2.0, 2.0, 2.0, 0.0]
    with pytest.raises(ValueError, match=r"^no recenter point in density_simplex: "
                                         r"integral 1\.5 != 1$"):
        body.recenter(median)


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


def test_mixed_point_kinds_raise_type_error_in_both_orders():
    grid, coord = GridFunction.zero(3), CoordPoint(1.5, np.zeros(4))
    for a, b, want in ((grid, coord, "expected GridFunction operands"),
                       (coord, grid, "expected CoordPoint operands")):
        with pytest.raises(TypeError, match=want):
            a + b
        with pytest.raises(TypeError, match=want):
            a - b
        with pytest.raises(TypeError, match=want):
            point_rows([a, b])


def test_coord_json_round_trip():
    x = CoordPoint(1.5, np.array([0.25, 0.75, 0.0, 0.0]))
    data = json.loads(x.to_json())
    assert set(data) == {"t", "coeffs"}
    y = CoordPoint(data["t"], np.asarray(data["coeffs"]))
    assert y.t == x.t and np.all(y.coeffs == x.coeffs)


def test_families_drift_verdicts():
    peaks = peak_family(10, k_min=2)
    assert peaks.drift_defect() <= 2.0 ** -6
    bumps = bump_tail_family(1.5, 32)
    assert bumps.drift_defect() <= 2.0 ** -16
    # sign blocks oscillate: the declared limit 0 is wrong in measure
    rad = SequenceFamily("rademacher(level=8)",
                         tuple(rademacher(n, 8) for n in range(1, 9)),
                         GridFunction.zero(8))
    assert rad.drift_defect() >= 0.99
    # every prefix of 2 to 31 terms, so that each window length is read
    for fam in (peaks, bumps, rad):
        for n in range(2, len(fam.points) + 1):
            sub = SequenceFamily(fam.name, fam.points[:n], fam.limit)
            loop = limsup_tail([measure_distance(p, fam.limit) for p in sub.points])
            assert sub.drift_defect() == loop, (fam.name, n)


def test_family_needs_two_points():
    with pytest.raises(ValueError):
        peak_family(3, k_min=3)


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


def test_cone_hull_sample_matches_the_four_point_expression():
    # one point built from the arrays rounds exactly as lam * f + constant
    # did, and draws the same numbers from the generator
    cases = 0
    for level in range(13):
        for a in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
            body = ConeHull(a, level)
            for seed in range(16):
                rng = np.random.default_rng([level, seed])
                old_rng = np.random.default_rng([level, seed])
                got = body.sample(rng)
                f = DensitySimplex(level).sample(old_rng)
                lam = old_rng.random()
                old = lam * f + GridFunction.constant((1.0 - lam) * a, level)
                assert got.values.tobytes() == old.values.tobytes(), (level, a, seed)
                assert rng.random() == old_rng.random()
                cases += 1
    assert cases == 1248


def test_bump_tail_family_respects_the_byte_budget(monkeypatch):
    # arithmetic only: the budget is lowered, never a large family built
    monkeypatch.setattr(sets, "BYTE_BUDGET", 4096)
    with pytest.raises(ValueError, match="more than the budget of 4096"):
        bump_tail_family(1.5, 64)  # 63 points of 64 slots: 32256 bytes
    assert len(bump_tail_family(1.5, 8).points) == 7  # 448 bytes
    # 22 points of 23 slots fit; 23 points of 24 slots are refused
    assert len(bump_tail_family(1.5, 23).points) == 22  # 4048 bytes
    with pytest.raises(ValueError, match="23 points of 24 slots needs 4416 bytes"):
        bump_tail_family(1.5, 24)
    # 8 points of 64 slots fill the budget exactly; a ninth is refused
    assert len(bump_tail_family(1.5, 64, k_min=56).points) == 8
    with pytest.raises(ValueError, match="9 points of 64 slots needs 4608 bytes"):
        bump_tail_family(1.5, 64, k_min=55)


# ---------------------------------------------------------------------------
# the trailing-radius kernel


def _norm_loops(points, means):
    return [limsup_tail([norm(y - p) for p in means]) for y in points]


def test_phi_values_many_points_match_the_norm_loop():
    # the table-path shapes: 65 candidates against a 9-term grid family and
    # against the 63-term bump family, every value == the per-norm loop;
    # then against every trailing run of 1 to 40 of those terms, so that
    # each window length is read
    rng = np.random.default_rng(11)
    level = 12
    peaks = peak_family(level, k_min=level - 8)
    body = ConeHull(0.5, level)
    grid_points = [body.sample(rng) for _ in range(64)] + [peaks.limit]
    bumps = bump_tail_family(1.5, 64)
    simplex = BumpSimplex(1.5, 64)
    coord_points = [simplex.sample(rng) for _ in range(64)] + [bumps.limit]
    for points, fam in ((grid_points, peaks), (coord_points, bumps)):
        assert len(points) == 65
        got = _phi_values(points, fam.points)
        assert got.tolist() == _norm_loops(points, fam.points)
        for n in range(1, min(40, len(fam.points)) + 1):
            means = fam.points[-n:]
            assert _phi_values(points, means).tolist() == _norm_loops(points, means), n


def test_phi_values_blocks_match_the_norm_loop():
    # point counts just below, at and above one block, and past two
    rng = np.random.default_rng(12)
    for space, n_means in ((CoordPoint(1.25, np.zeros(64)), 8),
                           (GridFunction.zero(8), 5)):
        size = space.array.size
        means = [space.like(rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3))
                 for _ in range(n_means)]
        block = PHI_BLOCK_FLOATS // (((n_means + 1) // 2) * size)
        assert block > 1
        for n in (block - 1, block, block + 1, 2 * block + 1):
            points = [space.like(rng.standard_normal(size)) for _ in range(n)]
            got = _phi_values(points, means)
            assert got.tolist() == _norm_loops(points, means), (space.kind, n)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_phi_values_window_blocks_match_the_one_shot_difference():
    # windows of one row under, at and one row over PHI_BLOCK_FLOATS, and of
    # two full blocks and a short one: a window over the cap is priced a
    # block of rows at a time, each radius bit-equal to the max of the one
    # difference array of the whole window
    rng = np.random.default_rng(21)
    for space in (GridFunction.zero(8), CoordPoint(1.5, np.zeros(1024))):
        size = space.array.size
        rows = PHI_BLOCK_FLOATS // size
        for n_w in (rows - 1, rows, rows + 1, 2 * rows + 3):
            W = rng.standard_normal((n_w, size))
            # the farthest row comes again in the short last block: the
            # maximum is tied across blocks
            W[0] *= 100.0
            W[-1] = W[0]
            W[:, ::7] = -0.0
            points = rng.standard_normal((5, size))
            points[:, ::5] = 0.0
            points[:, ::11] = -0.0
            means = PointRows(space, np.concatenate([rng.standard_normal((n_w, size)), W]))
            assert window_length(len(means)) == n_w
            want = [float(space.row_norms(p - W).max()) for p in points]
            label = (space.kind, n_w)
            assert _phi_values(PointRows(space, points), means).tolist() == want, label
            assert _phi_values([space.like(p) for p in points], means).tolist() == want, label
            if space.kind == "grid":
                assert want == _norm_loops([space.like(p) for p in points], means), label
            # a difference that overflows in any block, the short last one
            # included, is refused
            big = points.copy()
            big[:, 1] = -np.finfo(float).max
            for row in (*range(0, n_w, rows), n_w - 1):
                over = W.copy()
                over[row, 1] = np.finfo(float).max
                means = PointRows(space, np.concatenate([W, over]))
                with pytest.raises(ValueError, match="terms must be finite"):
                    _phi_values(PointRows(space, big), means)


def test_phi_values_rejects_mixed_spaces():
    with pytest.raises(ValueError, match="mixed coordinate spaces"):
        _phi_values([CoordPoint(1.5, np.zeros(8))],
                    [CoordPoint(1.9, np.ones(8))] * 2)
    with pytest.raises(ValueError, match="mixed grid levels"):
        _phi_values([GridFunction.zero(4)], [GridFunction.zero(5)] * 2)


def test_measure_distances_are_bit_equal_to_measure_distance():
    # the row kernel must round exactly as one measure_distance per point,
    # on lists and on stacked rows, with slots both under and over the cap
    rng = np.random.default_rng(17)
    spaces = [GridFunction.zero(level) for level in range(11)]
    spaces += [CoordPoint(t, np.zeros(m)) for t in (1.1, 1.5, 1.9)
               for m in (4, 64, 257)]
    for space in spaces:
        size = space.array.size
        for n in (1, 2, 7, int(rng.integers(8, 300))):
            scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            points = [space.like(row) for row in rng.standard_normal((n, size)) * scale]
            x = space.like(rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3))
            loop = [measure_distance(x, p) for p in points]
            assert measure_distances(x, points).tolist() == loop
            assert measure_distances(x, point_rows(points)).tolist() == loop


def test_measure_distances_reject_mixed_points():
    with pytest.raises(TypeError, match="mixed or unsupported"):
        measure_distances(GridFunction.zero(2), [CoordPoint(1.5, np.zeros(4))])
    with pytest.raises(ValueError, match="mixed grid levels"):
        measure_distances(GridFunction.zero(4), [GridFunction.zero(5)])
    with pytest.raises(ValueError, match="mixed coordinate spaces"):
        measure_distances(CoordPoint(1.5, np.zeros(8)), [CoordPoint(1.9, np.ones(8))])


def test_an_empty_sequence_is_refused_with_value_error():
    # point_rows refuses the empty sequence before it reads a point, for
    # every kernel that stacks points through it
    z = GridFunction.zero(4)
    with pytest.raises(ValueError, match="need at least one point"):
        point_rows(())
    with pytest.raises(ValueError, match="need at least one point"):
        komlos_extract([], extraction_tol=0.05)
    with pytest.raises(ValueError, match="need at least one point"):
        measure_distances(z, [])
    for points in ([], [z]):
        with pytest.raises(ValueError, match="need at least"):
            disjoint_additivity_defect(points, z)
        with pytest.raises(ValueError, match="need at least"):
            SequenceFamily("short", points, z)


def _scalar_violation(body, x, tol):
    """The one-point constraint checks of the catalog bodies as each body
    stated them before the row check, copied, with the hull at a = 1 held
    to the simplex's rule: the reference of ``violations``."""
    if isinstance(body, BumpSimplex):
        if float(x.coeffs.min()) < -tol:
            return f"negative coefficient {float(x.coeffs.min()):.6g}"
        total = float(x.coeffs.sum())
        if abs(total - 1.0) > tol:
            return f"coefficient sum {total:.6g} != 1"
        return None
    if isinstance(body, UnitBall):
        nrm = x.norm()
        if nrm > 1.0 + tol:
            return f"norm {nrm:.6g} exceeds 1"
        return None
    a = getattr(body, "a", 1.0)
    if a >= 1.0 - 1e-12:
        # the density simplex, and the hull with a = 1, which is the simplex
        if float(x.values.min()) < -tol:
            return f"negative part: min value {float(x.values.min()):.6g}"
        integral = x.integral()
        if abs(integral - 1.0) > tol:
            return f"integral {integral:.6g} != 1"
        return None
    integral = x.integral()
    lam = (integral - a) / (1.0 - a)
    if lam < -tol:
        return f"integral {integral:.6g} below vertex level {a:g}"
    if lam > 1.0 + tol:
        return f"integral {integral:.6g} exceeds 1"
    floor = (1.0 - min(max(lam, 0.0), 1.0)) * a
    if float(x.values.min()) < floor - tol:
        return (f"min value {float(x.values.min()):.6g} below mixture floor "
                f"{floor:.6g}")
    return None


def _nudged(row, cell=None):
    """``row`` a few ulps either way, for k in -4..4: every slot scaled by
    1 + k 2**-53, or the slots ``cell`` (an index or a slice) moved k ulps."""
    out = []
    for k in range(-4, 5):
        if cell is None:
            out.append(row * (1.0 + k * 2.0 ** -53))
            continue
        r = row.copy()
        for _ in range(abs(k)):
            r[cell] = np.nextafter(r[cell], np.copysign(np.inf, k))
        out.append(r)
    return out


def _boundary_rows(body, space, tol, rng):
    """Rows a few ulps either side of each constraint of ``body``, in
    groups, each with the start of the message of its constraint."""
    size = space.array.size
    positive = rng.exponential(size=size)
    if isinstance(body, BumpSimplex):
        c = rng.dirichlet(np.ones(size))
        low = np.r_[-tol, c[1:] * ((1.0 + tol) / c[1:].sum())]
        return [("coefficient sum", _nudged(c * (1.0 + tol))),
                ("coefficient sum", _nudged(c * (1.0 - tol))),
                ("negative coefficient", _nudged(low, 0))]
    w = space.cell_width
    density = positive / (positive.sum() * w)
    if isinstance(body, UnitBall):
        signed = density * rng.choice([-1.0, 1.0], size=size)
        return [("norm", _nudged(signed * ((1.0 + tol) / norm(space.like(signed)))))]
    a = getattr(body, "a", 1.0)
    if a >= 1.0:
        # the density simplex, and the hull with a = 1, which is the simplex
        groups = [("integral", _nudged(density * (1.0 + tol))),
                  ("integral", _nudged(density * (1.0 - tol)))]
    else:
        # mixture weight lam just below 0 and just above 1
        groups = [("integral", _nudged(np.full(size, a - tol * (1.0 - a)), slice(None))),
                  ("integral", _nudged(density * (1.0 + tol * (1.0 - a))))]
    # weight one half (1 for the simplex): the floor (1 - lam) a, less tol,
    # in the lowest cell
    floor = 0.5 * a if a < 1.0 else 0.0
    mass = 0.5 + 0.5 * a if a < 1.0 else 1.0
    dip = positive - positive.min()
    row = dip * ((mass - floor) / max(dip.sum() * w, 1e-300)) + floor
    cell = int(np.argmin(dip))
    for _ in range(60):
        # the lowest cell moves the integral, and so the floor: iterate to
        # the fixed point, which contracts by at least the cell width 1/2
        integral = space.like(row).integral()
        lam = min(max((integral - a) / (1.0 - a), 0.0), 1.0) if a < 1.0 else 1.0
        row[cell] = (1.0 - lam) * a - tol
    low = "negative part" if a >= 1.0 else "min value"
    groups.append((low, _nudged(row, cell)))
    return groups


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-7])
def test_row_constraints_match_the_point_checks(tol):
    # the row check of every catalog body gives each row the verdict and the
    # message of the one-point check, on rows a few ulps either side of
    # every constraint
    rng = np.random.default_rng(41)
    bodies = [(body, GridFunction.zero(level)) for level in (0, 1, 5, 12)
              for body in (UnitBall(level), DensitySimplex(level), ConeHull(0.0, level),
                           ConeHull(0.5, level), ConeHull(1.0, level))]
    bodies += [(BumpSimplex(t, m), CoordPoint(t, np.zeros(m)))
               for t in (1.1, 1.9) for m in (4, 64)]
    for body, space in bodies:
        for kind, group in _boundary_rows(body, space, tol, rng):
            rows = np.stack(group)
            got = body.violations(space, rows, tol)
            want = [_scalar_violation(body, space.like(r), tol) for r in rows]
            assert got == want, (body.name, space.array.size, tol)
            assert [body.violation(space.like(r), tol) for r in rows] == want
            if space.array.size > 1:
                # each group straddles its constraint
                broken = [m is not None and m.startswith(kind) for m in got]
                assert any(broken) and not all(broken), (body.name, kind, tol, got)
