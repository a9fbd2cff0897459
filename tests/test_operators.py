"""Tests for the operator catalog: exact images, affinity, Lipschitz data,
orbits, Cesaro means, and the residual identity."""
from __future__ import annotations

import re

import numpy as np
import pytest

from fptlab import (
    AffineOperator,
    BumpShift,
    BumpSimplex,
    ConeHull,
    ConvexBody,
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
    build_afps_record,
    coord_basis,
    lipschitz_estimate,
    mean_lipschitz,
    norm,
    operator_from_spec,
    orbit_rows,
    running_means,
)
from fptlab import operators


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
    assert np.max(np.abs(f.values - 1.0)) <= 1e-9


def test_composite_is_the_two_step_composition_bit_for_bit():
    # the composite builds one point; it must equal retracting and then
    # compressing with a point in between
    rng = np.random.default_rng(13)
    for level in range(13):
        sub = ConeHull(0.0, level)
        T = RetractionDoubling(sub)
        R, D = NormalizingRetraction(sub), DoublingShift(sub)
        for _ in range(20):
            # a sample and two orbit points, which carry top-up residue
            f = sub.sample(rng)
            for _ in range(3):
                two_step = D.apply(R.apply(f), check_domain=False)
                image = T.apply(f, check_domain=False)
                assert image.values.tobytes() == two_step.values.tobytes(), level
                f = image


def test_bump_shift_moves_vertex():
    T = BumpShift(BumpSimplex(1.5, 8))
    image = T.apply(coord_basis(1.5, 8, 0))
    assert np.all(image.coeffs == np.eye(8)[1])


def test_apply_rejects_points_outside_domain():
    T = DoublingShift(DensitySimplex(4))
    with pytest.raises(DomainError):
        T.apply(GridFunction.constant(2.0, 4))


def _orbit(T, x0, count, *, check_domain=True):
    """Rows x0, T x0, ..., T**count x0 and the steps ``orbit_rows`` made."""
    rows = np.empty((count + 1, x0.array.size))
    rows[0] = x0.array
    return rows, orbit_rows(T, x0, rows, count, check_domain=check_domain)


def test_orbit_error_names_the_iterate():
    # start two slots from the end: the second application would push mass
    # off the final slot, so the march stops after the first
    body = BumpSimplex(1.5, 6)
    T = BumpShift(body)
    start = coord_basis(1.5, 6, 4)
    rows, steps = _orbit(T, start, 3)
    assert steps == 1
    assert np.array_equal(rows[1], np.eye(6)[5])
    with pytest.raises(MassOverflowError):
        T.apply(start.like(rows[1]))
    # the start breaks the domain: the march is refused before any step,
    # with the error of T.apply, unless the domain goes unchecked
    zero = GridFunction.zero(3)
    identity = IdentityOperator(DensitySimplex(3))
    with pytest.raises(DomainError, match="integral 0 != 1"):
        _orbit(identity, zero, 2)
    assert _orbit(identity, zero, 2, check_domain=False)[1] == 2


def test_affinity_certificate_all_operators():
    rng = np.random.default_rng(14)
    for T in catalog():
        assert affinity_defect(T, rng) <= 1e-9, T.name


def test_cesaro_means_identity():
    body = DensitySimplex(5)
    T = IdentityOperator(body)
    x0 = body.sample(np.random.default_rng(15))
    for z in build_afps_record(T, x0, 8).points:
        assert norm(z - x0) <= 1e-12


def test_running_means_match_the_reference_loop():
    # the cumulative sum after the carry, against one add per point, at
    # every split of the rows into a first run and a carried second one
    rng = np.random.default_rng(22)
    for slots in (2, 8, 16, 17, 18, 32, 4096):
        rows = rng.normal(size=(17, slots)) * 10.0 ** rng.uniform(-3, 3, size=(17, 1))
        rows[rng.random(rows.shape) < 0.1] = -0.0
        for split in (0, 1, 2, 9, 16, 17):
            carry = np.empty(slots)
            means = np.concatenate([
                running_means(rows[:split], carry=carry),
                running_means(rows[split:], carry=carry, start=split)])
            assert means.shape == rows.shape
            total = None
            for s, (p, z) in enumerate(zip(rows, means), start=1):
                total = p if total is None else total + p
                assert type(z) is type(p)
                assert z.tobytes() == (total * (1.0 / s)).tobytes(), (slots, split, s)
            assert carry.tobytes() == total.tobytes()
        assert running_means(rows[:1]).tobytes() == rows[0].tobytes()
    # blocks on both sides of the switch between one accumulate (rows >=
    # slots) and one add per row (rows < slots), and exactly at it: with no
    # carry, with a carry that is only written, and after earlier terms
    for n_rows, slots in ((1, 32), (31, 32), (32, 32), (33, 32), (512, 32),
                          (4, 4096), (128, 4096)):
        rows = rng.normal(size=(n_rows, slots)) * 10.0 ** rng.uniform(-3, 3, size=(n_rows, 1))
        rows[rng.random(rows.shape) < 0.1] = -0.0
        earlier = rng.normal(size=slots) * 50.0
        earlier[rng.random(slots) < 0.1] = -0.0
        given = rows.tobytes()
        for start in (None, 0, 7):
            carry = None if start is None else earlier.copy()
            into = np.full_like(rows, np.nan)
            means = running_means(rows, carry=carry, start=start or 0, out=into)
            assert means is into and rows.tobytes() == given
            total = earlier.copy() if start else None
            for s, p in enumerate(rows, start=(start or 0) + 1):
                total = p.copy() if total is None else np.add(total, p)
                assert means[s - (start or 0) - 1].tobytes() == (total * (1.0 / s)).tobytes(), (
                    n_rows, slots, start, s)
            if carry is not None:
                assert carry.tobytes() == total.tobytes(), (n_rows, slots, start)


def test_cesaro_mean_doubling_hand_computed():
    T = DoublingShift(DensitySimplex(3))
    one = GridFunction.constant(1.0, 3)
    z2 = build_afps_record(T, one, 2).points[1]
    assert list(z2.values) == [3.0, 3.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert norm(z2) == 1.0
    assert np.all(z2.values[4:] == 0.0)


def _identity_residuals(T, x0, m):
    """norm(T x0 - T**(s+1) x0) / s for s = 1, ..., m: the residuals of the
    Cesaro means by the affine two-point identity."""
    rows, steps = _orbit(T, x0, m + 1)
    assert steps == m + 1, T.name
    return [norm(x0.like(rows[1] - rows[s + 1])) / s for s in range(1, m + 1)]


def test_residual_identity_exact():
    rng = np.random.default_rng(16)
    for T in catalog(level=7, slots=96):
        x0 = T.default_start(rng)
        record = build_afps_record(T, x0, 30)
        residuals = _identity_residuals(T, x0, len(record.points))
        for s, (z, r) in enumerate(zip(record.points, residuals), start=1):
            direct = afps_residual(T, z)
            assert abs(direct - r) <= 1e-9, (T.name, s)


def test_residual_is_order_one_over_s():
    body = DensitySimplex(8)
    T = DoublingShift(body)
    x0 = GridFunction.constant(1.0, 8)
    record = build_afps_record(T, x0, 8)
    residuals = _identity_residuals(T, x0, 8)
    for s, (z, r) in enumerate(zip(record.points, residuals), start=1):
        assert r <= body.diameter / s + 1e-12
        assert afps_residual(T, z) <= body.diameter / s + 1e-12


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


def _looped(T):
    """``T`` with its one-pass powers hidden, so that ``orbit_rows`` makes
    one ``map_array`` call per step."""
    T.map_powers = None
    return T


def test_rotation_block_is_bit_equal_to_repeated_map_array():
    # orbit_rows writes a rotation block with map_powers in one copy; every
    # row must hold the bytes of that many map_array calls, signed zeros
    # included, before, at and past each wrap of the cycle.  Blocks above
    # 64 MiB are not built: at level 11 the counts stop at cells + 1 and at
    # level 12 at 2
    rng = np.random.default_rng(24)
    for level in range(13):
        cells = 2 ** level
        ball = UnitBall(level)
        T = CyclicShift(ball)
        v = ball.sample(rng).values.copy()
        v[rng.random(cells) < 0.25] = -0.0
        v[0] = -0.0
        x0 = GridFunction(level, v)
        for count in (1, 2, cells - 1, cells, cells + 1, 3 * cells + 5):
            if count < 1 or (count + 1) * cells * 8 > 2 ** 26:
                continue
            for check_domain in (True, False):
                rows = np.empty((count + 1, cells))
                rows[0] = v
                assert orbit_rows(T, x0, rows, count, check_domain=check_domain) == count
                want, step = v.copy(), np.empty(cells)
                for j in range(1, count + 1):
                    want, step = T.map_array(x0, want, step), want
                    assert rows[j].tobytes() == want.tobytes(), (level, count, j)


class _CappedHead(ConvexBody):
    """Grid points whose first cell holds at most ``cap``; the message names
    the value, so it tells the rows of a rotation apart."""

    name = "capped_head"

    def __init__(self, cap):
        self.cap = cap

    def violation(self, x, tol=1e-9):
        head = float(x.values[0])
        return None if head <= self.cap else f"first cell {head:.17g} above the cap"


def _orbit_outcome(T, x0, count, check_domain):
    """The rows and step count of ``orbit_rows``, or what it raised."""
    rows = np.empty((count + 1, x0.values.size))
    rows[0] = x0.values
    try:
        steps = orbit_rows(T, x0, rows, count, check_domain=check_domain)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return rows.tobytes(), steps


def test_rotation_block_breaks_the_domain_at_the_loop_row():
    # distinct cells under a cap: the rotation brings cell (-j) mod n to the
    # head at step j, so the first row above the cap is known, and the block
    # must refuse it with the message of the per-step loop, naming its value
    rng = np.random.default_rng(25)
    for level in (0, 1, 3, 5, 7, 9):
        cells = 2 ** level
        v = (rng.permutation(cells) + 1.0) / cells
        x0 = GridFunction(level, v)
        heads = v[-np.arange(3 * cells + 6) % cells]
        # every row refused, none refused, and cells picked at random
        for cap in np.r_[0.0, 2.0, rng.choice(v, size=min(cells, 6), replace=False)]:
            for count in (1, 2, cells - 1, cells, cells + 1, 3 * cells + 5):
                if count < 1:
                    continue
                for check_domain in (True, False):
                    block, loop = CyclicShift(UnitBall(level)), _looped(CyclicShift(UnitBall(level)))
                    block.domain = loop.domain = _CappedHead(cap)
                    got = _orbit_outcome(block, x0, count, check_domain)
                    assert got == _orbit_outcome(loop, x0, count, check_domain), (
                        level, cap, count, check_domain)
                    # rows 0 .. count - 1 are checked; rows[count] is not
                    above = np.flatnonzero(heads[:count] > cap)
                    if check_domain and above.size:
                        assert got == ("DomainError", "cyclic: point outside domain: "
                                       f"first cell {heads[above[0]]:.17g} above the cap")
                    else:
                        assert got[1] == count


def test_orbit_rows_keep_finite_rows_whose_sum_overflows():
    # cells at 0.9 max: a block's sum overflows to inf, or to nan when half
    # the cells are negative, yet every row is finite and none is refused,
    # on both map paths
    top = 0.9 * np.finfo(float).max
    count = 8
    for level in (0, 3, 6):
        cells = 2 ** level
        for v in (np.full(cells, top), np.where(np.arange(cells) < cells // 2, top, -top)):
            x0 = GridFunction(level, v)
            for T in (IdentityOperator(DensitySimplex(level)), CyclicShift(UnitBall(level)),
                      _looped(CyclicShift(UnitBall(level)))):
                T.domain = _CappedHead(np.inf)
                for check_domain in (True, False):
                    rows, steps = _orbit(T, x0, count, check_domain=check_domain)
                    assert steps == count
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert not np.isfinite(rows[1:].sum()), (level, T.name)
                    want = x0
                    for j in range(1, count + 1):
                        want = T.apply(want, check_domain=False)
                        assert rows[j].tobytes() == want.values.tobytes(), (level, T.name, j)


class _PoisonAt(AffineOperator):
    """x -> 2 x, writing ``bad`` into the last slot of the image at the map
    call ``step``: an orbit that leaves the floats at a chosen row."""

    name = "poison"

    def __init__(self, domain, step, bad):
        self.domain = domain
        self.step = step
        self.bad = bad
        self.calls = 0

    def map_array(self, space, v, out):
        self.calls += 1
        np.multiply(v, 2.0, out=out)
        if self.calls == self.step:
            out[-1] = self.bad
        return out


def test_orbit_rows_refuse_a_non_finite_cell_at_its_row():
    # NaN, inf or -inf written into row ``step`` of an eight-row block, at
    # every offset: the point class refuses it with its own error, after
    # the domain checks of the rows before it and before that of its own
    count = 8
    grid = GridFunction(3, np.eye(8)[0])
    coord = CoordPoint(1.5, np.eye(4)[0])
    for x0 in (grid, coord):
        with pytest.raises(ValueError) as info:
            x0.like(np.full(x0.array.size, np.nan))
        message = str(info.value)
        for step in range(1, count + 1):
            for bad in (np.nan, np.inf, -np.inf):
                rows = np.empty((count + 1, x0.array.size))
                rows[0] = x0.array
                with pytest.raises(ValueError) as info:
                    orbit_rows(_PoisonAt(None, step, bad), x0, rows, count,
                               check_domain=False)
                assert str(info.value) == message, (x0.kind, step, bad)
                if x0 is not grid:
                    continue
                # the head doubles a row: a cap just under 2**r refuses
                # rows r, r + 1, ...; the poisoned row is refused before
                # its own domain check, and after that of the row before
                T = _PoisonAt(_CappedHead(2.0 ** step - 0.5), step, bad)
                with pytest.raises(ValueError) as info:
                    _orbit(T, x0, count)
                assert str(info.value) == message, (step, bad)
                T = _PoisonAt(_CappedHead(2.0 ** (step - 1) - 0.5), step, bad)
                with pytest.raises(DomainError) as info:
                    _orbit(T, x0, count)
                assert str(info.value) == ("poison: point outside domain: first cell "
                                           f"{2.0 ** (step - 1):.17g} above the cap")


def test_cyclic_means_close_after_full_cycle():
    ball = UnitBall(4)
    S = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(17))
    cycle = S.cycle_length()
    z = build_afps_record(S, x0, cycle).points[-1]
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
    # the identity states no witness pairs, so every pair is degenerate
    assert T.witness_pairs() == []
    with pytest.raises(ValueError):
        lipschitz_estimate(T, 1, np.random.default_rng(0), pairs=8)


def test_cyclic_lipschitz_estimate_draws_from_the_callers_rng(monkeypatch):
    # an isometry needs no witness pairs: every sampled pair attains 1, and
    # no generator but the caller's is made
    rng = np.random.default_rng(3)

    def no_generator(*args, **kwargs):
        raise AssertionError("a generator other than the caller's was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    est = lipschitz_estimate(CyclicShift(UnitBall(6)), 2, rng, pairs=64)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_mean_lipschitz_exact_values():
    level, slots = 7, 16
    simplex = DensitySimplex(level)
    sub = ConeHull(0.0, level)
    assert operators.GROWTH_HORIZON == 8
    assert mean_lipschitz(IdentityOperator(simplex)) == 1.0
    assert mean_lipschitz(DoublingShift(simplex)) == 1.0
    assert mean_lipschitz(CyclicShift(UnitBall(level))) == 1.0
    assert mean_lipschitz(RetractionDoubling(sub)) == 2.0
    for t in (1.1, 1.25, 1.5, 1.75, 1.9):
        T = BumpShift(BumpSimplex(t, slots))
        assert abs(mean_lipschitz(T) - 2.0 / t) <= 1e-12


def test_mean_lipschitz_sampled_composition():
    # the sampled surrogate for the retraction composition must sit in the
    # declared bracket around 2 even without the closed form; the level
    # leaves headroom so iterates do not hit the mesh floor
    sub = ConeHull(0.0, 12)
    G = RetractionDoubling(sub)
    sampled = mean_lipschitz(G, rng=np.random.default_rng(21),
                             use_exact=False, pairs=32)
    assert 2.0 - 0.05 <= sampled <= 2.0 + 1e-9


def test_mean_lipschitz_series_is_prefix_min(monkeypatch):
    T = RetractionDoubling(ConeHull(0.0, 6))
    # the least prefix average of the iterate constants over the horizon,
    # exact or sampled
    for use_exact in (True, False):
        for n_max in (1, 3, 6):
            monkeypatch.setattr(operators, "GROWTH_HORIZON", n_max)
            constants = []
            ref = np.random.default_rng(n_max)
            for k in range(1, n_max + 1):
                exact = T.lipschitz_exact(k) if use_exact else None
                constants.append(exact if exact is not None
                                 else lipschitz_estimate(T, k, ref, pairs=4))
            averages = np.cumsum(constants) / np.arange(1, n_max + 1)
            got = mean_lipschitz(T, rng=np.random.default_rng(n_max),
                                 pairs=4, use_exact=use_exact)
            assert got == min(averages), (use_exact, n_max)


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
    # the bump shift reads its t from the body
    T = operator_from_spec({"op": "ct_shift"}, BumpSimplex(1.25, 16))
    assert isinstance(T, BumpShift) and T.lipschitz_exact(3) == 2.0 / 1.25


def test_operator_from_spec_rejects_mismatches():
    with pytest.raises(ValueError, match=r"unknown operator kind 'warp'; "
                                         r"expected one of \['ct_shift', 'cyclic'"):
        operator_from_spec({"op": "warp"}, DensitySimplex(5))
    with pytest.raises(ValueError):
        operator_from_spec({"op": "doubling"}, ConeHull(0.5, 5))
    with pytest.raises(ValueError, match="bump shift needs the bump simplex"):
        operator_from_spec({"op": "ct_shift"}, DensitySimplex(5))
    with pytest.raises(ValueError):
        operator_from_spec({"op": "retraction"}, DensitySimplex(5))
    # no kind takes a parameter, the bump shift's t included, even when the
    # value is the body's own
    for op, body in (("identity", DensitySimplex(5)), ("ct_shift", BumpSimplex(1.5, 8))):
        for t in (1.5, 1.25, "1.5"):
            with pytest.raises(ValueError, match=r"unknown operator parameters \['t'\]"):
                operator_from_spec({"op": op, "t": t}, body)
    with pytest.raises(TypeError):
        operator_from_spec({"op": "ct_shift"}, BumpSimplex(1.5, 8), t=1.5)


def test_operators_map_body_into_itself():
    rng = np.random.default_rng(22)
    for T in catalog(level=6, slots=24):
        for _ in range(25):
            x = T.default_start(rng)
            assert T.domain.membership(T.apply(x), tol=1e-7), T.name


def _point_image(T, x):
    """The image of ``x`` as each catalog operator built its point before
    the maps were stated on arrays, copied: the reference of ``map_array``."""
    if isinstance(T, IdentityOperator):
        return x
    if isinstance(T, BumpShift):
        if x.coeffs[-1] != 0.0:
            raise MassOverflowError(
                f"{T.name}: last slot holds {x.coeffs[-1]:.6g}; shifting would lose mass")
        out = np.empty_like(x.coeffs)
        out[0] = 0.0
        out[1:] = x.coeffs[:-1]
        return CoordPoint(x.t, out)
    v = x.values
    if isinstance(T, CyclicShift):
        out = np.empty_like(v)
        out[0] = v[-1]
        out[1:] = v[:-1]
        return GridFunction(x.level, out)
    if isinstance(T, (NormalizingRetraction, RetractionDoubling)):
        v = v + (1.0 - x.integral())
    if isinstance(T, (DoublingShift, RetractionDoubling)) and v.size > 1:
        out = np.zeros_like(v)
        out[:v.size // 2] = v[0::2] + v[1::2]
        v = out
    return GridFunction(x.level, v)


def test_array_maps_are_bit_equal_to_the_point_images():
    # one statement of each map: apply builds its point from map_array, and
    # map_array writes a block row, both bit-equal to the old point images
    rng = np.random.default_rng(29)
    for level in range(13):
        for T in catalog(level=level, slots=max(4, 2 ** level)):
            x = T.default_start(rng)
            for _ in range(3):
                try:
                    want = _point_image(T, x)
                except MassOverflowError as exc:
                    with pytest.raises(MassOverflowError, match=re.escape(str(exc))):
                        T.apply(x)
                    break
                got = T.apply(x)
                assert type(got) is type(want)
                assert got.array.tobytes() == want.array.tobytes(), (T.name, level)
                rows = np.full((2, x.array.size), np.nan)
                rows[0] = x.array
                out = rows[1]
                assert T.map_array(x, rows[0], out) is out
                assert rows[1].tobytes() == want.array.tobytes(), (T.name, level)
                x = got
    # the bump shift refuses its last slot with the old message
    shift = BumpShift(BumpSimplex(1.5, 8))
    last = coord_basis(1.5, 8, 7) * 0.5
    with pytest.raises(MassOverflowError) as old:
        _point_image(shift, last)
    with pytest.raises(MassOverflowError, match=re.escape(str(old.value))):
        shift.apply(last, check_domain=False)
