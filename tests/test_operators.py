"""Tests for the operator catalog: exact images, affinity, Lipschitz data,
orbits, Cesaro means, and the residual identity."""
from __future__ import annotations

import numpy as np
import pytest

from fptlab import (
    BumpShift,
    BumpSimplex,
    ConeHull,
    CoordPoint,
    CyclicShift,
    DensitySimplex,
    DomainError,
    DoublingShift,
    GridFunction,
    IdentityOperator,
    MassOverflowError,
    NormalizingRetraction,
    RetractionDoubling,
    UnitBall,
    affinity_defect,
    afps_residual,
    cesaro_means,
    cesaro_residual_series,
    coord_basis,
    lipschitz_estimate,
    mean_lipschitz,
    norm,
    operator_from_spec,
    orbit,
    peak_sequence,
    running_means,
)


def catalog(level: int = 7, slots: int = 16):
    simplex = DensitySimplex(level)
    sub = ConeHull(0.0, level)
    ball = UnitBall(level)
    bump = BumpSimplex(1.5, slots)
    return [
        IdentityOperator(simplex),
        DoublingShift(simplex),
        CyclicShift(ball),
        NormalizingRetraction(sub),
        RetractionDoubling(sub),
        BumpShift(bump),
    ]


def test_doubling_image_of_constant():
    T = DoublingShift(DensitySimplex(3))
    f = T.apply(GridFunction.constant(1.0, 3))
    assert list(f.values) == [2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert norm(f) == 1.0


def test_retraction_image_of_zero():
    R = NormalizingRetraction(ConeHull(0.0, 4))
    f = R.apply(GridFunction.zero(4))
    assert f.allclose(GridFunction.constant(1.0, 4))


def test_bump_shift_moves_vertex():
    T = BumpShift(BumpSimplex(1.5, 8))
    image = T.apply(coord_basis(1.5, 8, 0))
    assert np.all(image.coeffs == np.eye(8)[1])


def test_apply_rejects_points_outside_domain():
    T = DoublingShift(DensitySimplex(4))
    with pytest.raises(DomainError):
        T.apply(GridFunction.constant(2.0, 4))


def test_orbit_error_names_the_iterate():
    # start two slots from the end: the second application would push mass
    # off the final slot
    body = BumpSimplex(1.5, 6)
    T = BumpShift(body)
    start = coord_basis(1.5, 6, 4)
    with pytest.raises(MassOverflowError):
        orbit(T, start, 3)
    with pytest.raises(DomainError, match="iterate 1"):
        orbit(IdentityOperator(DensitySimplex(3)), GridFunction.zero(3), 2)


def test_affinity_certificate_all_operators():
    rng = np.random.default_rng(14)
    for T in catalog():
        assert affinity_defect(T, rng, pairs=100) <= 1e-9, T.name


def test_cesaro_means_identity():
    body = DensitySimplex(5)
    T = IdentityOperator(body)
    x0 = body.sample(np.random.default_rng(15))
    for z in cesaro_means(T, x0, 8):
        assert norm(z - x0) <= 1e-12


def test_running_means_match_the_reference_loop():
    rng = np.random.default_rng(22)
    grids = [GridFunction(5, rng.normal(size=32)) for _ in range(17)]
    coords = [CoordPoint(1.5, rng.normal(size=8)) for _ in range(17)]
    for points in (grids, coords, grids[:1], coords[:1]):
        means = running_means(points)
        assert len(means) == len(points)
        total = None
        for s, (p, z) in enumerate(zip(points, means), start=1):
            total = p.array if total is None else total + p.array
            assert type(z) is type(p)
            assert np.array_equal(z.array, total * (1.0 / s))


def test_cesaro_mean_doubling_hand_computed():
    T = DoublingShift(DensitySimplex(3))
    one = GridFunction.constant(1.0, 3)
    z2 = cesaro_means(T, one, 2)[1]
    assert list(z2.values) == [3.0, 3.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert norm(z2) == 1.0
    assert np.all(z2.values[4:] == 0.0)


def test_residual_identity_exact():
    rng = np.random.default_rng(16)
    for T in catalog(level=7, slots=96):
        x0 = T.default_start(rng)
        means, residuals = cesaro_residual_series(T, x0, 30)
        for s, (z, r) in enumerate(zip(means, residuals), start=1):
            direct = afps_residual(T, z)
            assert abs(direct - r) <= 1e-9, (T.name, s)


def test_residual_is_order_one_over_s():
    body = DensitySimplex(8)
    T = DoublingShift(body)
    x0 = GridFunction.constant(1.0, 8)
    means, residuals = cesaro_residual_series(T, x0, 8)
    for s, r in enumerate(residuals, start=1):
        assert r <= body.diameter / s + 1e-12


def test_cyclic_constant_is_fixed():
    ball = UnitBall(5)
    S = CyclicShift(ball)
    assert afps_residual(S, GridFunction.constant(0.5, 5)) == 0.0


def test_cyclic_shift_rotates_by_one_cell():
    # the slice copy moves the same bytes as np.roll, one cell included
    rng = np.random.default_rng(23)
    for level in range(9):
        f = GridFunction(level, rng.standard_normal(2 ** level))
        got = CyclicShift(UnitBall(level))._transform(f)
        assert got.values.tobytes() == np.roll(f.values, 1).tobytes()


def test_cyclic_means_close_after_full_cycle():
    ball = UnitBall(4)
    S = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(17))
    cycle = S.cycle_length()
    z = cesaro_means(S, x0, cycle)[-1]
    target = GridFunction.constant(x0.integral(), 4)
    assert norm(z - target) <= 1e-12
    assert afps_residual(S, z) <= 1e-15


def test_doubling_support_halving():
    level = 6
    T = DoublingShift(DensitySimplex(level))
    f = GridFunction.constant(1.0, level)
    for n in range(1, level + 1):
        f = T.apply(f)
        assert np.all(f.values[2 ** (level - n):] == 0.0)
    assert T.is_saturated(f)
    assert not T.is_saturated(GridFunction.constant(1.0, level))


def test_doubling_nonexpansive_and_sign_constant_isometry():
    level = 6
    body = UnitBall(level)
    T = DoublingShift(DensitySimplex(level))
    rng = np.random.default_rng(18)
    for _ in range(50):
        f = body.sample(rng)
        g = body.sample(rng)
        lhs = norm(T.apply(f, check_domain=False)
                      - T.apply(g, check_domain=False))
        assert lhs <= norm(f - g) + 1e-12
    # sibling-sign-constant differences contract isometrically
    for _ in range(50):
        f = DensitySimplex(level).sample(rng)
        g = DensitySimplex(level).sample(rng)
        h = GridFunction(level, np.maximum(f.values, g.values))
        lhs = norm(T.apply(h, check_domain=False)
                      - T.apply(f, check_domain=False))
        assert abs(lhs - norm(h - f)) <= 1e-12


def test_lipschitz_estimate_identity():
    body = DensitySimplex(5)
    T = IdentityOperator(body)
    rng = np.random.default_rng(19)
    for n in (1, 3):
        assert lipschitz_estimate(T, n, rng, pairs=16) == 1.0


def test_lipschitz_witness_bump_exact_ratio():
    t = 1.5
    body = BumpSimplex(t, 16)
    T = BumpShift(body)
    f = coord_basis(t, 16, 0)
    g = coord_basis(t, 16, 1)
    assert abs(coord_norm_gap(f, g) - t) <= 1e-15
    for n in (1, 2, 5):
        fn, gn = f, g
        for _ in range(n):
            fn, gn = T.apply(fn), T.apply(gn)
        ratio = norm(fn - gn) / norm(f - g)
        assert abs(ratio - 2.0 / t) <= 1e-12
        assert T.lipschitz_exact(n) == 2.0 / t


def coord_norm_gap(f: CoordPoint, g: CoordPoint) -> float:
    return norm(f - g)


def test_lipschitz_estimate_never_exceeds_exact():
    rng = np.random.default_rng(20)
    for T in catalog(level=6, slots=16):
        exact = T.lipschitz_exact(1)
        if exact is None:
            continue
        est = lipschitz_estimate(T, 1, rng, pairs=48)
        assert est <= exact + 1e-9, T.name


def test_lipschitz_estimate_rejects_degenerate_sampler():
    body = DensitySimplex(4)
    T = IdentityOperator(body)

    class FixedBody:
        def sample(self, rng):
            return GridFunction.constant(1.0, 4)

    T.domain = FixedBody()
    with pytest.raises(ValueError):
        lipschitz_estimate(T, 1, np.random.default_rng(0), pairs=8,
                           include_witnesses=False)


def test_mean_lipschitz_exact_values():
    level, slots = 7, 16
    simplex = DensitySimplex(level)
    sub = ConeHull(0.0, level)
    assert mean_lipschitz(IdentityOperator(simplex), 8) == 1.0
    assert mean_lipschitz(DoublingShift(simplex), 8) == 1.0
    assert mean_lipschitz(CyclicShift(UnitBall(level)), 8) == 1.0
    assert mean_lipschitz(RetractionDoubling(sub), 8) == 2.0
    for t in (1.1, 1.25, 1.5, 1.75, 1.9):
        T = BumpShift(BumpSimplex(t, slots))
        assert abs(mean_lipschitz(T, 8) - 2.0 / t) <= 1e-12


def test_mean_lipschitz_sampled_composition():
    # the sampled surrogate for the retraction composition must sit in the
    # declared bracket around 2 even without the closed form; the level
    # leaves headroom so iterates do not hit the mesh floor
    sub = ConeHull(0.0, 12)
    G = RetractionDoubling(sub)
    sampled = mean_lipschitz(G, 8, rng=np.random.default_rng(21),
                             use_exact=False, pairs=32)
    assert 2.0 - 0.05 <= sampled <= 2.0 + 1e-9


def test_mean_lipschitz_series_is_prefix_min():
    T = BumpShift(BumpSimplex(1.5, 16))
    value, constants, averages = mean_lipschitz(T, 6, return_series=True)
    assert value == min(averages)
    assert len(constants) == len(averages) == 6
    assert all(c == 2.0 / 1.5 for c in constants)


def test_bump_shift_mass_overflow():
    body = BumpSimplex(1.5, 6)
    T = BumpShift(body)
    edge = coord_basis(1.5, 6, 5)
    with pytest.raises(MassOverflowError):
        T.apply(edge)
    assert T.max_faithful_steps(coord_basis(1.5, 6, 1)) == 4


def test_operator_from_spec_round_trip():
    level = 6
    simplex = DensitySimplex(level)
    assert isinstance(operator_from_spec({"op": "identity"}, simplex),
                      IdentityOperator)
    assert isinstance(operator_from_spec({"op": "doubling"}, simplex),
                      DoublingShift)
    assert isinstance(operator_from_spec({"op": "cyclic"}, UnitBall(level)),
                      CyclicShift)
    sub = ConeHull(0.0, level)
    assert isinstance(operator_from_spec({"op": "retraction"}, sub),
                      NormalizingRetraction)
    assert isinstance(operator_from_spec({"op": "retraction_compose"}, sub),
                      RetractionDoubling)
    bump = BumpSimplex(1.5, 16)
    T = operator_from_spec({"op": "ct_shift", "t": 1.5}, bump)
    assert isinstance(T, BumpShift) and T.t == 1.5
    # a fill value lands only where the kind takes it; the spec's own wins
    T = operator_from_spec({"op": "ct_shift", "t": 1.5}, bump, t=1.25, level=3)
    assert isinstance(T, BumpShift) and T.t == 1.5
    assert isinstance(operator_from_spec({"op": "cyclic"}, UnitBall(level), t=1.5),
                      CyclicShift)


def test_operator_from_spec_rejects_mismatches():
    with pytest.raises(ValueError, match=r"unknown operator kind 'warp'; "
                                         r"expected one of \['ct_shift', 'cyclic'"):
        operator_from_spec({"op": "warp"}, DensitySimplex(5))
    with pytest.raises(ValueError):
        operator_from_spec({"op": "doubling"}, ConeHull(0.5, 5))
    with pytest.raises(ValueError, match="does not match body t=1.5"):
        operator_from_spec({"op": "ct_shift", "t": 1.25}, BumpSimplex(1.5, 8))
    with pytest.raises(ValueError, match="does not match body t=1.5"):
        operator_from_spec({"op": "ct_shift"}, BumpSimplex(1.5, 8), t=1.25)
    with pytest.raises(ValueError, match="t must be a number"):
        operator_from_spec({"op": "ct_shift", "t": "1.5"}, BumpSimplex(1.5, 8))
    with pytest.raises(ValueError, match="bump shift needs the bump simplex"):
        operator_from_spec({"op": "ct_shift"}, DensitySimplex(5))
    with pytest.raises(ValueError):
        operator_from_spec({"op": "retraction"}, DensitySimplex(5))
    with pytest.raises(ValueError, match=r"unknown operator parameters \['t'\]"):
        operator_from_spec({"op": "identity", "t": 1.5}, DensitySimplex(5))


def test_operators_map_body_into_itself():
    rng = np.random.default_rng(22)
    for T in catalog(level=6, slots=24):
        for _ in range(25):
            x = T.default_start(rng)
            assert T.domain.membership(T.apply(x), tol=1e-7), T.name
