"""Acceptance suite: one test per documented contract of the laboratory.

Each test pins an exact value or a property of the shipped catalog at the
benchmark scale (grid level 12, coordinate size 64) with fixed tolerances.
The suite is the go/no-go signal for a release: every line must pass.
"""
from __future__ import annotations

import numpy as np
import pytest

from fptlab import (
    BumpShift,
    BumpSimplex,
    ConeHull,
    CyclicShift,
    DensitySimplex,
    DoublingShift,
    GridFunction,
    IdentityOperator,
    NormalizingRetraction,
    RetractionDoubling,
    UnitBall,
    bump_tail_family,
    cesaro_solve,
    disjoint_additivity_defect,
    fixed_point_gate,
    limsup_tail,
    mean_lipschitz,
    norm,
    opial_cross_check,
    opial_sum,
    orlicz_coefficient,
    peak_family,
    peak_sequence,
    recentering_bounds,
    solve,
)
from fptlab.cli import main

LEVEL = 12
SLOTS = 64
A_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
T_GRID = (1.1, 1.25, 1.5, 1.75, 1.9)


def _peaks(k_min: int, k_max: int) -> list:
    """The level-``LEVEL`` peaks of heights 2**k, k_min <= k <= k_max."""
    return [peak_sequence(2 ** k, LEVEL) for k in range(k_min, k_max + 1)]


def test_c01_cone_hull_recentering_bracket_contains_one_plus_a():
    # the hull of the density simplex and the constant a has recentering
    # coefficient exactly 1 + a; the measured bracket must trap it tightly
    peaks = peak_family(LEVEL, k_min=4)
    rng = np.random.default_rng(0)
    for a in A_GRID:
        body = ConeHull(a, LEVEL)
        rep = recentering_bounds(body, [peaks], rng=rng)
        ref = 1.0 + a
        assert rep.estimate_low <= ref + 1e-9
        assert ref <= rep.estimate_high + 1e-9
        assert rep.gap <= 0.02 * ref
        assert abs(rep.estimate_low - ref) <= 0.02 * ref
        assert abs(rep.estimate_high - ref) <= 0.02 * ref


def test_c02_bump_body_coefficients_are_exact():
    # coordinate arithmetic gives the recentering coefficient t and the
    # mean growth 2/t of the shift without discretization error
    rng = np.random.default_rng(0)
    for t in T_GRID:
        body = BumpSimplex(t, SLOTS)
        rep = recentering_bounds(body, [bump_tail_family(t, SLOTS)], rng=rng)
        assert abs(rep.estimate_low - t) <= 1e-9
        assert abs(rep.estimate_high - t) <= 1e-9
        growth = mean_lipschitz(BumpShift(body), 8)
        assert abs(growth - 2.0 / t) <= 1e-9


def test_c03_duality_sum_cross_check():
    # drifting unit peaks sit at distance approaching 2 from the constant:
    # the numerical cross-check must land within 2% of the exact sum
    value = opial_cross_check(1.0, 14)
    assert abs(value - opial_sum()) <= 0.02 * opial_sum()


def test_c04_additivity_defect_bounded_by_peak_measure():
    # against the right-half indicator the trailing peaks are disjoint, so
    # the norm-additivity defect must fall below the peak support measure
    # 2**-k and never increase as the family grows finer.  The scan starts
    # at the first family whose trailing peaks vanish within VANISH_TOL in
    # measure; the one before it is refused.
    z = GridFunction(LEVEL, np.where(
        np.arange(2 ** LEVEL) >= 2 ** (LEVEL - 1), 1.0, 0.0))
    with pytest.raises(ValueError, match="does not vanish"):
        disjoint_additivity_defect(_peaks(4, 8), z)
    defects = []
    for k in range(9, 13):
        fam = _peaks(4, k)
        defect = disjoint_additivity_defect(fam, z)
        assert defect <= 2.0 ** -k
        defects.append(defect)
    assert all(b <= a + 1e-15 for a, b in zip(defects, defects[1:]))


def test_c05_drift_radius_within_half_diameter():
    # every catalog body keeps its drifting generator sequences within half
    # the diameter of their in-measure limit, in the trailing-limsup sense
    peaks = peak_family(LEVEL, k_min=4)
    cases = [(DensitySimplex(LEVEL), peaks)]
    cases += [(ConeHull(a, LEVEL), peaks) for a in (0.0, 0.5, 1.0)]
    cases += [(UnitBall(LEVEL), peaks)]
    cases += [(BumpSimplex(t, SLOTS), bump_tail_family(t, SLOTS))
              for t in (1.1, 1.5, 1.9)]
    for body, fam in cases:
        radius = limsup_tail([norm(fam.limit - p) for p in fam.points])
        assert radius <= body.diameter / 2.0 + 1e-6, body.name


def test_c06_affine_residual_identity_for_all_operators():
    # the s-th mean's displacement equals (T x0 - T**(s+1) x0)/s exactly;
    # the identity must hold to 1e-9 across the catalog and random starts
    level = 10
    simplex = DensitySimplex(level)
    sub = ConeHull(0.0, level)
    ops = [
        IdentityOperator(simplex),
        DoublingShift(simplex),
        CyclicShift(UnitBall(level)),
        NormalizingRetraction(sub),
        RetractionDoubling(sub),
        BumpShift(BumpSimplex(1.5, 96)),
    ]
    rng = np.random.default_rng(7)
    worst = 0.0
    for T in ops:
        for _ in range(20):
            x0 = T.default_start(rng)
            orb = [x0]
            for _ in range(65):
                orb.append(T.apply(orb[-1], check_domain=False))
            total = None
            for s in range(1, 65):
                total = orb[s] if total is None else total + orb[s]
                z = total * (1.0 / s)
                lhs = z - T.apply(z, check_domain=False)
                rhs = (orb[1] - orb[s + 1]) * (1.0 / s)
                worst = max(worst, norm(lhs - rhs))
    assert worst <= 1e-9


def test_c07_cyclic_shift_positive_solve():
    # the rotation of the ball must be solved in both modes: the certified
    # run contracts the radius by (1 - eps) each outer step, the practical
    # run needs exactly one full cycle of applications
    ball = UnitBall(8)
    T = CyclicShift(ball)
    out = solve(T, ball, seed=0)
    assert out.status == "fixed_point"
    assert out.residual <= 1e-8
    assert ball.membership(out.point, 1e-7)
    eps = out.diagnostics["eps"]
    radii = [row["r_estimate"] for row in out.trace]
    for before, after in zip(radii, radii[1:]):
        assert after <= (1.0 - eps) * before + 1e-6

    cycle = T.cycle_length()
    outc = cesaro_solve(T, ball, tol=1e-8, n_max=2 * cycle, seed=0)
    assert outc.status == "fixed_point"
    assert outc.residual <= 1e-8
    assert outc.diagnostics["stopped_at"] <= cycle
    assert outc.diagnostics["applications"] <= cycle + 2


def test_c08_structural_failures_never_fix():
    # the doubling map escapes in measure with the mass constraint named;
    # the retraction composite and the bump shift stay fixed-point-free in
    # both modes under the full budget
    simplex = DensitySimplex(LEVEL)
    out = solve(DoublingShift(simplex), simplex,
                GridFunction.constant(1.0, LEVEL))
    assert out.status == "escaped_in_measure"
    assert out.diagnostics["violation"].startswith("integral")
    assert out.diagnostics["limit_measure_to_zero"] <= 0.02

    sub = ConeHull(0.0, LEVEL)
    bump = BumpSimplex(1.5, SLOTS)
    for T, body in ((RetractionDoubling(sub), sub), (BumpShift(bump), bump)):
        proof = solve(T, body, tol=1e-8, seed=0)
        assert proof.status != "fixed_point", T.name
        practical = cesaro_solve(T, body, tol=1e-8, seed=0)
        assert practical.status != "fixed_point", T.name


def test_c09_boundary_gate_and_solver_agree():
    # at growth exactly 2/t the inequality chain closes and no fixed point
    # may be reported; a growth of 2/t - 0.01 reopens the gate
    for t in T_GRID:
        assert not fixed_point_gate(2.0 / t, t)
        assert fixed_point_gate(2.0 / t - 0.01, t)
        bump = BumpSimplex(t, SLOTS)
        out = cesaro_solve(BumpShift(bump), bump, tol=1e-8, n_max=64, seed=0)
        assert out.status != "fixed_point"


def test_c10_orlicz_growth_coefficient():
    for p in (1.0, 2.0, 4.0):
        value = orlicz_coefficient(lambda v, _p=p: v ** (1.0 / _p), 0.5)
        assert value == pytest.approx(2.0 ** (1.0 / p), abs=1e-6)


def test_c11_reproduce_runs_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["reproduce", "--out", str(out_a), "--seed", "123"]) == 0
    assert main(["reproduce", "--out", str(out_b), "--seed", "123"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
