"""Tests for the geometric coefficients: recentering brackets, the disjoint
additivity law, the in-measure modulus, the gate, and the gauge coefficient."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fptlab import (
    BumpSimplex,
    CoordPoint,
    ConeHull,
    DensitySimplex,
    GridFunction,
    UnitBall,
    bump_tail_family,
    disjoint_additivity_defect,
    fixed_point_gate,
    limsup_tail,
    measure_distance,
    norm,
    opial_cross_check,
    opial_sum,
    orlicz_coefficient,
    peak_family,
    peak_sequence,
    rademacher,
    recentering_bounds,
)
from fptlab import coefficients
from fptlab.sets import SequenceFamily


def test_recentering_ball_brackets_one():
    rep = recentering_bounds(UnitBall(10), rng=np.random.default_rng(23))
    assert rep.estimate_low <= 1.0 + 1e-9
    assert rep.estimate_high <= 1.0 + 1e-9
    assert rep.bound_type == "bracket"


def test_recentering_cone_hull_brackets():
    level = 10
    fam = peak_family(level, k_min=3)
    for a in (0.0, 0.5, 1.0):
        body = ConeHull(a, level)
        rep = recentering_bounds(body, fam, rng=np.random.default_rng(24))
        assert rep.estimate_low <= 1.0 + a <= rep.estimate_high + 1e-12
        assert rep.gap <= 0.02 * (1.0 + a)


def test_recentering_bump_exact():
    for t in (1.25, 1.75):
        body = BumpSimplex(t, 64)
        rep = recentering_bounds(body, bump_tail_family(t, 64),
                                 rng=np.random.default_rng(25))
        assert abs(rep.estimate_low - t) <= 1e-9
        assert abs(rep.estimate_high - t) <= 1e-9


def test_recentering_rejects_non_drifting_family():
    body = DensitySimplex(8)
    with pytest.raises(ValueError, match="does not drift"):
        # sign blocks oscillate: the declared limit 0 is wrong in measure
        signs = SequenceFamily("rademacher(level=8)",
                               tuple(rademacher(n, 8) for n in range(1, 9)),
                               GridFunction.zero(8))
        recentering_bounds(body, signs, rng=np.random.default_rng(0))


def test_default_family_drifts_at_every_level():
    # the least k_min >= max(1, level - 10) whose trailing window drifts;
    # below level 5 no family of two or more peaks does, and the bracket is
    # the cap
    for level in range(1, 15):
        fam = coefficients._default_family(UnitBall(level))
        rep = recentering_bounds(UnitBall(level), rng=np.random.default_rng(0))
        if level <= 4:
            assert fam is None
            assert (rep.estimate_low, rep.estimate_high, rep.bound_type) == \
                (1.0, coefficients.RECENTERING_CAP, "cap")
            continue
        assert fam.drift_defect() <= coefficients.DRIFT_TOL, level
        assert len(fam.points) >= 2
        k_min = level + 1 - len(fam.points)
        assert k_min >= max(1, level - 10)
        if k_min > max(1, level - 10):
            # one more peak would put a peak that does not drift in the window
            wider = peak_family(level, k_min=k_min - 1)
            assert wider.drift_defect() > coefficients.DRIFT_TOL, level
        assert rep.bound_type == "bracket"
        assert abs(rep.estimate_high - 1.0) <= 1e-9, level


def test_default_bump_family_drifts_at_every_slot_count():
    # the least k_min >= 1 whose trailing window of bump coordinates drifts;
    # at M = 4 no family of two or more coordinates does, and the bracket is
    # the cap, named after the body
    for slots in range(4, 70):
        body = BumpSimplex(1.5, slots)
        fam = coefficients._default_family(body)
        if slots == 4:
            assert fam is None
            rep = recentering_bounds(body, rng=np.random.default_rng(0))
            assert (rep.estimate_low, rep.estimate_high, rep.bound_type) == \
                (1.0, coefficients.RECENTERING_CAP, "cap")
            assert rep.quantity == "recentering(bump_simplex(t=1.5))"
            continue
        assert fam.drift_defect() <= coefficients.DRIFT_TOL, slots
        assert len(fam.points) >= 2
        k_min = slots - len(fam.points)
        if k_min > 1:
            # one more coordinate would put one that does not drift in the
            # window
            wider = bump_tail_family(1.5, slots, k_min=k_min - 1)
            assert wider.drift_defect() > coefficients.DRIFT_TOL, slots
        else:
            assert slots >= 7
    # from 7 slots on, the family is every coordinate past the first, as
    # the sharpness scan read it before
    fam = coefficients._default_family(BumpSimplex(1.5, 64))
    assert [p.coeffs.tobytes() for p in fam.points] == \
        [p.coeffs.tobytes() for p in bump_tail_family(1.5, 64).points]


def test_coefficient_report_holds_the_bracket_and_its_gap():
    rep = recentering_bounds(UnitBall(8), rng=np.random.default_rng(26))
    assert rep.quantity == "recentering(ball)"
    assert [f.name for f in dataclasses.fields(rep)] == [
        "quantity", "estimate_low", "estimate_high", "bound_type"]
    assert rep.gap == rep.estimate_high - rep.estimate_low


def test_additivity_defect_zero_z():
    fam = peak_family(10, k_min=4)
    assert disjoint_additivity_defect(fam.points, GridFunction.zero(10)) == 0.0


def test_additivity_defect_disjoint_z_is_exactly_zero():
    # peaks live near 0 and z on the right half, and both are nonnegative,
    # so additivity is exact at every window size; from k = 9 on, the
    # peaks in the window vanish within VANISH_TOL
    level = 12
    z = GridFunction(level, np.where(np.arange(2 ** level) >= 2 ** (level - 1),
                                     1.0, 0.0))
    last = None
    for k in range(9, level + 1):
        fam = [peak_sequence(2 ** j, level) for j in range(4, k + 1)]
        defect = disjoint_additivity_defect(fam, z)
        assert defect <= 2.0 ** -4 + 1e-12
        if last is not None:
            assert defect <= last + 1e-12
        last = defect
    assert last == 0.0


def test_additivity_defect_cancelling_z_law():
    # a z that is negative where the peaks live cancels 2**(1-j) of the mass
    # of peak j, so the trailing-window defect is exactly 2**(1-k) when the
    # family stops at peak k; the window of peaks k - 1 and k vanishes
    # within VANISH_TOL from k = 8 on
    level = 12
    z = GridFunction(level, np.where(np.arange(2 ** level) < 2 ** (level - 1),
                                     -1.0, 0.0))
    for k in range(8, level + 1):
        fam = [peak_sequence(2 ** j, level) for j in range(k - 2, k + 1)]
        defect = disjoint_additivity_defect(fam, z)
        assert abs(defect - 2.0 ** (1 - k)) <= 1e-12


def test_additivity_defect_matches_the_norm_loops(monkeypatch):
    # the kernel prices |p + z| as |(-z) - p| and |p| as |0 - p|: both are
    # exact, so the defect equals the one from the per-point loops, on every
    # trailing run of the families, so that each window length is read
    rng = np.random.default_rng(21)

    def loops(points, z):
        with_z = limsup_tail([norm(p + z) for p in points])
        alone = limsup_tail([norm(p) for p in points])
        return abs(with_z - alone - norm(z))

    cases = []
    for level in (8, 10, 12):
        fam = peak_family(level, k_min=max(1, level - 8))
        cases += [(fam, GridFunction(level, rng.standard_normal(2 ** level)
                                     * 10.0 ** rng.uniform(-2, 2)))
                  for _ in range(4)]
    for t, slots in ((1.1, 16), (1.5, 64), (1.9, 257)):
        fam = bump_tail_family(t, slots, k_min=4)
        cases += [(fam, CoordPoint(t, rng.standard_normal(slots))) for _ in range(4)]
    for fam, z in cases:
        zero = 0.0 * fam.points[0]
        for n in range(2, min(40, len(fam.points)) + 1):
            points = fam.points[-n:]
            # the vanishing check compares the per-point loop's defect
            vanish = limsup_tail([measure_distance(p, zero) for p in points])
            monkeypatch.setattr(coefficients, "VANISH_TOL", vanish)
            got = disjoint_additivity_defect(points, z)
            assert type(got) is float
            assert got == loops(points, z), (fam.name, n)
            monkeypatch.setattr(coefficients, "VANISH_TOL",
                                float(np.nextafter(vanish, -1.0)))
            with pytest.raises(ValueError, match="does not vanish"):
                disjoint_additivity_defect(points, z)


def test_additivity_rejects_oscillating_sequence():
    points = [rademacher(n, 8) for n in range(1, 9)]
    with pytest.raises(ValueError, match="vanish in measure"):
        disjoint_additivity_defect(points, GridFunction.constant(1.0, 8))


def test_opial_sum_exact_and_cross_check():
    assert opial_sum() == 2.0
    measured = opial_cross_check(14)
    assert abs(measured - 2.0) <= 0.02 * 2.0


def test_opial_cross_check_converges_from_below():
    values = [opial_cross_check(level) for level in (8, 10, 12, 14)]
    assert all(v <= 2.0 for v in values)
    assert values == sorted(values)


def test_gate_basic_verdicts():
    assert fixed_point_gate(1.0, 1.0) is True
    assert fixed_point_gate(1.99, 1.0) is True
    assert fixed_point_gate(1.0, 2.0) is False
    for t in (1.1, 1.25, 1.5, 1.75, 1.9):
        assert fixed_point_gate(2.0 / t, t) is False
        assert fixed_point_gate(2.0 / t - 0.01, t) is True


def test_gate_scale_consistency():
    # scaling mean_lip by a power of two and t_coeff by its inverse keeps
    # the float product exact, so the verdict cannot move
    cases = [(1.0, 1.0), (1.99, 1.0), (2.0, 1.0), (1.0, 2.0),
             (2.0 / 1.1, 1.1), (2.0 / 1.1 - 0.01, 1.1),
             (2.0 * (1.0 - 1e-12), 1.0), (2.0 * (1.0 - 1e-8), 1.0)]
    verdicts = [fixed_point_gate(m, t) for m, t in cases]
    assert True in verdicts and False in verdicts
    for (m, t), verdict in zip(cases, verdicts):
        for e in range(-40, 41, 4):
            kappa = 2.0 ** e
            assert fixed_point_gate(m * kappa, t / kappa) is verdict, (m, t, e)


def test_gate_margin_and_validation():
    with pytest.raises(ValueError):
        fixed_point_gate(1.0, 0.0)
    with pytest.raises(ValueError):
        fixed_point_gate(1.0, -2.0)
    # a product within the relative margin of the bound keeps the gate shut
    assert fixed_point_gate(2.0 * (1.0 - 1e-12), 1.0) is False
    assert fixed_point_gate(2.0 * (1.0 - 1e-8), 1.0) is True


def test_orlicz_identity_gauge():
    for delta in (0.25, 0.5, 0.75):
        value = orlicz_coefficient(lambda u: u, delta)
        assert abs(value - 1.0 / delta) <= 1e-12


def test_orlicz_power_gauges():
    for p in (1.0, 2.0, 4.0):
        value = orlicz_coefficient(lambda u, _p=p: u ** (1.0 / _p), 0.5)
        assert abs(value - 2.0 ** (1.0 / p)) <= 1e-6


def test_orlicz_validation():
    with pytest.raises(ValueError):
        orlicz_coefficient(lambda u: u, 0.0)
    with pytest.raises(ValueError):
        orlicz_coefficient(lambda u: u, 1.0)
    with pytest.raises(ValueError):
        orlicz_coefficient(lambda u: -u, 0.5)
    with pytest.raises(ValueError):
        orlicz_coefficient(lambda u: 1.0 / u, 0.5)
