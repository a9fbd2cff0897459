"""Tests for the fixed-point machinery: in-measure subsequence extraction,
approximate fixed-point records, admissible contraction parameters, the
certified step, and both solvers end to end."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fptlab import (
    AfpsRecord,
    BranchConditionError,
    BumpShift,
    BumpSimplex,
    ConeHull,
    CoordPoint,
    CyclicShift,
    DensitySimplex,
    DomainError,
    DoublingShift,
    ExtendSequenceError,
    GridFunction,
    IdentityOperator,
    MassOverflowError,
    RetractionDoubling,
    UnitBall,
    admissible_eps,
    build_afps_record,
    cesaro_means,
    cesaro_solve,
    komlos_extract,
    limsup_tail,
    measure_distance,
    nearest_afps_radius,
    norm,
    peak_sequence,
    proof_step,
    running_means,
    solve,
)
from fptlab.solver import _phi_values

FIXED = "fixed_point"
ESCAPED = "escaped_in_measure"
BUDGET = "budget_exhausted"


@pytest.fixture(scope="module")
def doubling_means():
    """Trailing Cesaro means of the doubling orbit of the constant density.

    The orbit escapes in measure, yet the means admit an in-measure cluster
    point: the pinned companion values below were frozen from a direct run
    of this exact construction.
    """
    T = DoublingShift(DensitySimplex(14))
    return cesaro_means(T, GridFunction.constant(1.0, 14), 200)[1:]


@pytest.fixture(scope="module")
def cyclic_means():
    """Cesaro means of a cyclic orbit at level 6 from a seeded ball point."""
    ball = UnitBall(6)
    x0 = ball.sample(np.random.default_rng(3))
    return x0, cesaro_means(CyclicShift(ball), x0, 1024)[1:]


# ---------------------------------------------------------------------------
# komlos_extract


def test_extract_constant_sequence_returns_it():
    c = GridFunction.constant(0.5, 4)
    idx, limit = komlos_extract([c] * 16)
    assert idx == sorted(idx)
    assert len(idx) >= 4
    assert all(i >= 8 for i in idx)
    assert norm(limit - c) == 0.0


def test_extract_needs_eight_terms():
    c = GridFunction.constant(1.0, 3)
    with pytest.raises(ValueError, match="at least 8 terms"):
        komlos_extract([c] * 7)


def test_extract_rejects_unbounded_sequence():
    huge = GridFunction.constant(2e9, 3)
    with pytest.raises(ValueError, match="not bounded"):
        komlos_extract([huge] * 16)
    # norms are reduced a few rows at a time at level 12: the last block counts
    late = [GridFunction.zero(12)] * 15 + [GridFunction.constant(2e9, 12)]
    with pytest.raises(ValueError, match="not bounded"):
        komlos_extract(late)


def test_extract_rejects_bad_trailing_fraction():
    c = GridFunction.constant(1.0, 3)
    with pytest.raises(ValueError, match="trailing_fraction"):
        komlos_extract([c] * 16, trailing_fraction=0.0)


def test_extract_short_escaping_run_asks_for_more(doubling_means):
    # 12 early means never cluster at the default tolerance: the extractor
    # must say so instead of silently returning a bogus limit.
    with pytest.raises(ExtendSequenceError, match="extend the sequence"):
        komlos_extract(doubling_means[:12])


def test_extract_doubling_means_cluster_in_measure(doubling_means):
    idx, limit = komlos_extract(doubling_means)
    assert len(idx) >= 4
    quality = max(measure_distance(limit, doubling_means[i]) for i in idx)
    assert quality <= 1e-3
    assert quality == pytest.approx(8.285662395882787e-4, rel=1e-6)
    # the in-measure limit concentrates near zero while keeping its mass
    assert measure_distance(limit, 0.0 * limit) <= 0.04
    assert norm(limit) == pytest.approx(1.0, abs=1e-9)


def test_extract_cyclic_means_converge_in_norm(cyclic_means):
    x0, means = cyclic_means
    idx, limit = komlos_extract(means)
    assert len(idx) >= 40
    assert min(idx) >= len(means) // 2 - 1
    # cyclic means converge in norm, so the in-measure limit is the constant
    # at the starting integral
    const = GridFunction.constant(float(np.mean(x0.values)), 6)
    assert norm(limit - const) <= 1e-3


# ---------------------------------------------------------------------------
# build_afps_record and nearest_afps_radius


def test_record_residuals_obey_diameter_law(cyclic_means):
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 128, extraction_tol=0.05)
    assert len(rec.points) == len(rec.residuals) == 128
    for s, r in enumerate(rec.residuals, start=1):
        assert r <= 2.0 / s + 1e-12
    assert rec.limit is not None
    assert rec.limit_quality <= 0.05


def test_record_radius_and_spread_agree(cyclic_means):
    x0, _ = cyclic_means
    rec = build_afps_record(CyclicShift(UnitBall(6)), x0, 128,
                            extraction_tol=0.05)
    assert rec.radius_from(rec.limit) == rec.limit_spread()
    blind = AfpsRecord(rec.points, rec.residuals, None, None)
    assert blind.limit_spread() is None


def test_record_radius_is_bit_equal_to_the_norm_loop():
    # The stacked window radius must round exactly as the per-mean loop it
    # replaces, for both point types: the coordinate rows fail this if they
    # are reduced by one matrix-vector product.
    rng = np.random.default_rng(5)
    spaces = [GridFunction.zero(level) for level in range(11)]
    spaces += [CoordPoint(t, np.zeros(m)) for t in (1.1, 1.5, 1.9)
               for m in (4, 64, 257)]
    for space in spaces:
        size = space.array.size
        for n in (1, 2, 7, int(rng.integers(8, 600))):
            scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            means = [space.like(row) for row in rng.standard_normal((n, size)) * scale]
            ys = [space.like(rng.standard_normal(size)) for _ in range(3)]
            rows = np.stack([(ys[0] - p).array for p in means])
            assert space.row_norms(rows).tolist() == [norm(ys[0] - p) for p in means]
            for wf in (0.3, 0.5, 1.0):
                rec = AfpsRecord(means, [0.0] * n, window_fraction=wf)
                loops = [limsup_tail([norm(y - p) for p in means], wf) for y in ys]
                assert [rec.radius_from(y) for y in ys] == loops
                assert _phi_values(ys, means, wf).tolist() == loops


def _orbit_loop_record(T, x0, n):
    """Means and residuals of build_afps_record from the whole orbit list:
    running_means of orbit[1:m+1] and norm(orbit[1] - orbit[s+1]) / s."""
    orb = [x0]
    try:
        for _ in range(n + 1):
            orb.append(T.apply(orb[-1]))
    except MassOverflowError:
        pass
    m = len(orb) - 2
    residuals = [norm(orb[1] - orb[s + 1]) / s for s in range(1, m + 1)]
    return running_means(orb[1:m + 1]), residuals


def test_streamed_record_is_bit_equal_to_the_orbit_loops():
    rng = np.random.default_rng(9)
    cases = []
    for level in range(9):
        ball = UnitBall(level)
        cases.append((CyclicShift(ball), ball.sample(rng), min(8 * 2 ** level, 600)))
    cases.append((DoublingShift(DensitySimplex(10)), GridFunction.constant(1.0, 10), 40))
    sub = ConeHull(0.0, 8)
    cases.append((RetractionDoubling(sub), sub.sample(rng), 300))
    bumps = BumpSimplex(1.5, 64)
    shift = BumpShift(bumps)
    # 48 free slots: the orbit overflows after 49 applications, so the
    # record stops at 47 of the 100 means asked for
    cases.append((shift, shift.default_start(rng), 100))
    cases.append((shift, shift.default_start(rng), 30))
    for T, x0, n in cases:
        rec = build_afps_record(T, x0, n, extraction_tol=0.05)
        means, residuals = _orbit_loop_record(T, x0, n)
        assert len(rec.points) == len(means) == len(residuals), T.name
        assert rec.points.rows.tobytes() == np.stack([z.array for z in means]).tobytes()
        assert rec.residuals == tuple(residuals), T.name
        # the point objects are built once, from the rows
        assert all(a is b for a, b in zip(rec.points, rec.points))
        assert [p.array.tobytes() for p in rec.points] == [z.array.tobytes() for z in means]
        assert dataclasses.replace(rec, limit=None).points is rec.points
        assert (_phi_values(rec.points[-40:], rec.points, 0.5).tolist()
                == _phi_values(means[-40:], means, 0.5).tolist())
        if len(means) < 8:
            continue
        try:
            idx, limit = komlos_extract(means, extraction_tol=0.05)
        except ExtendSequenceError:
            assert rec.limit is None
            continue
        assert komlos_extract(rec.points, extraction_tol=0.05)[0] == idx
        assert rec.limit.array.tobytes() == limit.array.tobytes()
        assert rec.limit_quality == max(measure_distance(limit, means[i]) for i in idx)
    assert len(build_afps_record(shift, cases[-2][1], 100).points) == 47


def test_record_validation():
    T = IdentityOperator(DensitySimplex(3))
    with pytest.raises(ValueError, match="n_inner"):
        build_afps_record(T, GridFunction.constant(1.0, 3), 0)
    with pytest.raises(ValueError, match="at least one mean"):
        AfpsRecord((), ())


def test_nearest_radius_default_and_error(cyclic_means):
    x0, _ = cyclic_means
    with pytest.raises(ValueError, match="at least one record"):
        nearest_afps_radius(x0, [])
    rec_a = build_afps_record(CyclicShift(UnitBall(6)), x0, 32)
    rec_b = build_afps_record(CyclicShift(UnitBall(6)), x0, 64)
    got = nearest_afps_radius(x0, [rec_a, rec_b])
    assert got == min(rec_a.radius_from(x0), rec_b.radius_from(x0))


# ---------------------------------------------------------------------------
# admissible_eps


def test_admissible_eps_cyclic_value():
    # mean_lip 1, recentering 1, duality sum 2: the quadratic root is
    # sqrt(5) - 2 and the returned parameter is half of it
    eps = admissible_eps(1.0, 1.0, 2.0)
    assert eps == pytest.approx((math.sqrt(5.0) - 2.0) / 2.0, abs=1e-12)
    assert eps == pytest.approx(0.1180339887498949, abs=1e-12)


def test_admissible_eps_none_when_gate_closed():
    assert admissible_eps(2.0, 1.0, 2.0) is None
    assert admissible_eps(1.0, 2.0, 2.0) is None
    assert admissible_eps(2.0, 1.5, 2.0) is None


def test_admissible_eps_satisfies_strict_inequality():
    for mean_lip, t_coeff in [(1.0, 1.0), (1.0, 1.5), (1.2, 1.25),
                              (1.9, 1.05), (0.5, 1.0)]:
        eps = admissible_eps(mean_lip, t_coeff)
        assert eps is not None
        assert 0.0 < eps <= 0.5
        assert mean_lip < (2.0 / t_coeff) * (1.0 - eps) / (1.0 + eps) ** 2


def test_admissible_eps_validation():
    with pytest.raises(ValueError, match="positive"):
        admissible_eps(0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        admissible_eps(1.0, -1.0)


# ---------------------------------------------------------------------------
# proof_step


def test_proof_step_contracts_cyclic_radius():
    ball = UnitBall(6)
    T = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(3))
    rec = build_afps_record(T, x0, 512, extraction_tol=0.05)
    eps = admissible_eps(1.0, 1.0)
    w, report = proof_step(T, ball, x0, eps, [rec], mean_lip=1.0, t_coeff=1.0,
                           rng=np.random.default_rng(0))
    assert report.branch == "x_limit"
    assert report.r_before == pytest.approx(0.1984312043891967, rel=1e-6)
    assert report.r_after <= (1.0 - eps) * report.r_before + 1e-6
    assert report.rho == pytest.approx(
        report.r_before * (1.0 - eps) / (1.0 + eps))
    assert report.displacement <= report.displacement_bound
    assert report.recenter_bound in ("exact", "upper")
    assert report.near_achieving
    assert report.phi_min is None and report.limit_gap_means is None
    assert ball.membership(w, 1e-7)


def test_proof_step_takes_the_mean_branch():
    # A record whose detected limit is the start point itself has limit gap
    # r0 > rho, so the step must fall back to the limit of selected means.
    ball = UnitBall(6)
    T = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(3))
    rec = dataclasses.replace(build_afps_record(T, x0, 512, extraction_tol=0.05),
                              limit=x0)
    eps = admissible_eps(1.0, 1.0)
    w, report = proof_step(T, ball, x0, eps, [rec], mean_lip=1.0, t_coeff=1.0,
                           rng=np.random.default_rng(0))
    assert report.limit_gap_x == report.r_before > report.rho
    assert report.branch == "mean_limit"
    assert report.phi_min is not None and report.phi_ratio is not None
    assert report.limit_gap_means <= report.rho + 1e-6
    assert report.r_after <= (1.0 - eps) * report.r_before + 1e-6
    assert report.displacement <= report.displacement_bound
    assert ball.membership(w, 1e-7)


def test_proof_step_alone_does_not_detect_escape():
    # One certified step can succeed even for the escaping doubling map:
    # its means do have an in-measure cluster point, and recentering that
    # point contracts the radius.  Escape detection belongs to the growth
    # gate and the restart diagnosis, not to the step certificates.
    simplex = DensitySimplex(12)
    T = DoublingShift(simplex)
    one = GridFunction.constant(1.0, 12)
    rec = build_afps_record(T, one, 200, extraction_tol=0.05)
    w, report = proof_step(T, simplex, one, 0.1, [rec], mean_lip=1.0,
                           t_coeff=2.0, rng=np.random.default_rng(0))
    assert report.r_after <= 0.9 * report.r_before + 1e-6
    assert simplex.membership(w, 1e-7)


def test_proof_step_requires_detected_limit(cyclic_means):
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 128, extraction_tol=0.05)
    blind = AfpsRecord(rec.points, rec.residuals, None, None)
    with pytest.raises(BranchConditionError, match="no record detected"):
        proof_step(CyclicShift(ball), ball, x0, 0.1, [blind],
                   mean_lip=1.0, t_coeff=1.0)


def test_proof_step_rejects_target_overshoot(cyclic_means):
    # An absurd recentering coefficient shrinks the contraction target rho
    # below what any detected limit can meet: the step must refuse rather
    # than return an uncertified point.
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 128, extraction_tol=0.05)
    with pytest.raises(BranchConditionError, match="no branch within rho"):
        proof_step(CyclicShift(ball), ball, x0, 0.1, [rec],
                   mean_lip=1.0, t_coeff=1000.0)


def test_proof_step_validation(cyclic_means):
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 32)
    with pytest.raises(ValueError, match="eps"):
        proof_step(CyclicShift(ball), ball, x0, 0.0, [rec],
                   mean_lip=1.0, t_coeff=1.0)
    with pytest.raises(ValueError, match="at least one afps record"):
        proof_step(CyclicShift(ball), ball, x0, 0.1, [],
                   mean_lip=1.0, t_coeff=1.0)


# ---------------------------------------------------------------------------
# solve: certified mode


def test_solve_cyclic_converges_with_contraction_trace():
    ball = UnitBall(4)
    out = solve(CyclicShift(ball), ball, seed=0)
    assert out.status == FIXED
    assert out.residual <= 1e-8
    assert out.residual == pytest.approx(1.7402684e-09, rel=1e-3)
    assert ball.membership(out.point, 1e-7)
    assert out.diagnostics["gate_open"]
    eps = out.diagnostics["eps"]
    assert eps == pytest.approx(0.1180339887498949, abs=1e-12)
    branches = [row["branch"] for row in out.trace]
    assert branches[-1] == "converged"
    assert all(b == "x_limit" for b in branches[:-1])
    radii = [row["r_estimate"] for row in out.trace]
    for before, after in zip(radii, radii[1:]):
        assert after <= (1.0 - eps) * before + 1e-6
    assert 0 < out.diagnostics["applications"] < 2000


def test_solve_identity_is_immediate():
    simplex = DensitySimplex(5)
    T = IdentityOperator(simplex)
    x0 = simplex.sample(np.random.default_rng(1))
    out = solve(T, simplex, x0)
    assert out.status == FIXED
    assert out.residual == 0.0
    assert norm(out.point - x0) == 0.0
    assert len(out.trace) == 1 and out.trace[0]["branch"] == "converged"


def test_solve_doubling_escapes_in_measure():
    simplex = DensitySimplex(10)
    out = solve(DoublingShift(simplex), simplex, GridFunction.constant(1.0, 10))
    assert out.status == ESCAPED
    assert not out.diagnostics["gate_open"]
    assert out.diagnostics["violation"].startswith("integral")
    assert out.diagnostics["limit_measure_to_zero"] <= 0.02
    assert out.point is not None
    assert not simplex.membership(out.point, 1e-6)


def test_solve_composed_map_exhausts_budget_without_escape():
    # the retraction keeps every mean inside the sub-probability body, so
    # the closed gate ends in budget exhaustion, never in a false escape
    # and never in a fixed point
    sub = ConeHull(0.0, 8)
    out = solve(RetractionDoubling(sub), sub, seed=0)
    assert out.status == BUDGET
    assert not out.diagnostics["gate_open"]
    assert out.diagnostics["mean_lip"] == pytest.approx(2.0, abs=1e-12)


def test_solve_bump_shift_escapes():
    bump = BumpSimplex(1.5, 64)
    out = solve(BumpShift(bump), bump, seed=0)
    assert out.status == ESCAPED
    assert not out.diagnostics["gate_open"]
    assert out.diagnostics["mean_lip"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert out.diagnostics["t_coeff"] == pytest.approx(1.5)
    assert "coefficient sum" in out.diagnostics["violation"]


def test_solve_rejects_non_affine_map():
    class SquareMap(IdentityOperator):
        def apply(self, x, *, check_domain=True, tol=1e-7):
            y = x.values ** 2
            return GridFunction(x.level, y / float(y.mean()))

    simplex = DensitySimplex(5)
    with pytest.raises(ValueError, match="affinity certificate"):
        solve(SquareMap(simplex), simplex)


def test_solve_rejects_start_outside_body():
    ball = UnitBall(4)
    with pytest.raises(DomainError, match="starting point outside"):
        solve(CyclicShift(ball), ball, GridFunction.constant(2.0, 4))


def test_solve_never_reports_mesh_artifact_as_fixed():
    # the finest peak is pinned by the doubling map only because the grid
    # cannot refine further; its residual is exactly zero, yet neither
    # solver may accept it
    simplex = DensitySimplex(5)
    T = DoublingShift(simplex)
    finest = peak_sequence(2 ** 5, 5)
    assert T.is_saturated(finest)
    assert norm(finest - T.apply(finest)) == 0.0
    out = solve(T, simplex, finest)
    assert out.status != FIXED
    assert "gate closed" in out.diagnostics["branch_failure"]
    outc = cesaro_solve(T, simplex, finest, n_max=64)
    assert outc.status != FIXED


def test_solve_eps_schedule_forms():
    ball = UnitBall(4)
    for schedule in (0.05, lambda k: 0.1 / (1 + k), [0.1, 0.08, 0.06, 0.05]):
        out = solve(CyclicShift(ball), ball, seed=0, eps_schedule=schedule)
        assert out.status == FIXED
        assert out.residual <= 1e-8
    with pytest.raises(ValueError, match="not admissible"):
        solve(CyclicShift(ball), ball, seed=0, eps_schedule=0.9)


# ---------------------------------------------------------------------------
# cesaro_solve: practical mode


def test_cesaro_solve_identity_is_immediate():
    simplex = DensitySimplex(5)
    out = cesaro_solve(IdentityOperator(simplex), simplex, seed=0)
    assert out.status == FIXED
    assert out.residual == 0.0
    assert out.diagnostics["stopped_at"] == 1
    assert out.diagnostics["applications"] == 3


def test_cesaro_solve_cyclic_exact_at_full_cycle():
    # a full cycle of the shift averages to the constant function exactly,
    # so the residual collapses at s equal to the cycle length
    ball = UnitBall(6)
    T = CyclicShift(ball)
    out = cesaro_solve(T, ball, seed=3, tol=1e-12, n_max=256)
    assert out.status == FIXED
    assert out.diagnostics["stopped_at"] == T.cycle_length() == 64
    assert out.residual <= 1e-15
    assert ball.membership(out.point, 1e-7)
    spread = float(np.ptp(out.point.values))
    assert spread <= 1e-12
    last = out.trace[-1]
    assert set(last) == {"s", "residual", "norm", "ky_fan_to_detected_limit"}
    assert last["ky_fan_to_detected_limit"] == 0.0


def test_cesaro_solve_composed_map_never_fixes():
    sub = ConeHull(0.0, 8)
    out = cesaro_solve(RetractionDoubling(sub), sub, seed=0, n_max=64)
    assert out.status == BUDGET
    assert "pinned" in out.diagnostics["stop_reason"]


def test_cesaro_solve_doubling_escapes():
    simplex = DensitySimplex(10)
    out = cesaro_solve(DoublingShift(simplex), simplex,
                       GridFunction.constant(1.0, 10), n_max=128)
    assert out.status == ESCAPED
    assert out.diagnostics["violation"].startswith("integral")
    assert out.diagnostics["limit_measure_to_zero"] <= 0.02


def test_cesaro_solve_bump_overflow_escapes():
    bump = BumpSimplex(1.5, 64)
    out = cesaro_solve(BumpShift(bump), bump, seed=0, n_max=256)
    assert out.status == ESCAPED
    assert "ran out of tracked slots" in out.diagnostics["stop_reason"]
