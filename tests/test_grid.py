"""Tests for the dyadic grid model: norms, the convergence-in-measure metric,
generator sequences, and the finite limsup window."""
from __future__ import annotations

import json

import numpy as np
import pytest

from fptlab import (
    CoordPoint,
    GridFunction,
    liminf_tail,
    limsup_tail,
    measure_distance,
    norm,
    peak_sequence,
    rademacher,
)
from fptlab.grid import WINDOW_FRACTION, window_length


def test_l1_norm_unit_constant():
    for level in (0, 1, 3, 6):
        assert norm(GridFunction.constant(1.0, level)) == 1.0


def test_l1_norm_mass_one_peak():
    f = GridFunction(2, np.array([4.0, 0.0, 0.0, 0.0]))
    assert norm(f) == 1.0


def test_l1_norm_rademacher_unit():
    assert norm(rademacher(3, 3)) == 1.0


def test_l1_norm_homogeneous_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = GridFunction(4, rng.normal(size=16))
        g = GridFunction(4, rng.normal(size=16))
        c = float(rng.normal())
        assert abs(norm(c * f) - abs(c) * norm(f)) <= 1e-12
        assert norm(f + g) <= norm(f) + norm(g) + 1e-12


def test_ky_fan_identity_of_indiscernibles():
    rng = np.random.default_rng(1)
    f = GridFunction(5, rng.normal(size=32))
    assert measure_distance(f, f) == 0.0


def test_ky_fan_peak_to_zero_is_one_over_n():
    for k in range(0, 7):
        n = 2 ** k
        f = peak_sequence(n, 7)
        assert abs(measure_distance(f, GridFunction.zero(7)) - 1.0 / n) <= 1e-15


def test_ky_fan_shifted_rademacher():
    one = GridFunction.constant(1.0, 5)
    for n in (1, 2, 4):
        f = one + rademacher(n, 5)
        assert abs(measure_distance(f, one) - 1.0) <= 1e-15


def test_ky_fan_distinct_rademacher_pairs():
    # |r_n - r_m| is 0 on half the cells and 2 on the other half, so the
    # capped integral is exactly 1/2.  Frozen against brute-force summation
    # at level max(n, m) + 1.
    for n, m in [(1, 2), (1, 3), (2, 3), (2, 5)]:
        level = max(n, m) + 1
        d = measure_distance(rademacher(n, level), rademacher(m, level))
        diff = np.abs(rademacher(n, level).values - rademacher(m, level).values)
        brute = float(np.minimum(diff, 1.0).mean())
        assert d == brute
        assert abs(d - 0.5) <= 1e-15


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(2)
    for i in range(400):
        if i % 2:
            t = float(rng.uniform(1.05, 1.95))
            f, g, h = (CoordPoint(t, rng.normal(size=16)) for _ in range(3))
        else:
            f, g, h = (GridFunction(4, rng.normal(size=16)) for _ in range(3))
        assert measure_distance(f, f) == 0.0
        dfg = measure_distance(f, g)
        assert dfg == measure_distance(g, f)
        assert dfg >= 0.0
        assert dfg <= measure_distance(f, h) + measure_distance(h, g) + 1e-12
        assert dfg <= norm(f - g) + 1e-15


def test_mixed_level_arithmetic_is_rejected():
    f = GridFunction(1, np.array([2.0, 0.0]))
    g = GridFunction.constant(1.0, 3)
    for combine in (lambda: f + g, lambda: f - g, lambda: measure_distance(f, g)):
        with pytest.raises(ValueError, match="mixed grid levels"):
            combine()


def test_peak_sequence_basics():
    assert np.max(np.abs(peak_sequence(1, 0).values - 1.0)) <= 1e-9
    f = peak_sequence(4, 3)
    assert list(f.values) == [4.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert norm(f) == 1.0


@pytest.mark.parametrize("level", [-1, 1.7, True, 25])
def test_grid_function_checks_its_level(level):
    with pytest.raises(ValueError, match="level must be"):
        GridFunction(level, [0.0])


def test_grid_function_level_is_a_python_int():
    f = GridFunction(np.int64(2), np.zeros(4))
    assert type(f.level) is int and f.level == 2


def test_peak_sequence_rejects_bad_n():
    with pytest.raises(ValueError):
        peak_sequence(3, 4)
    with pytest.raises(ValueError):
        peak_sequence(32, 4)


def test_peaks_certify_topology_gap():
    level = 10
    zero = GridFunction.zero(level)
    for k in range(1, level + 1):
        n = 2 ** k
        f = peak_sequence(n, level)
        assert norm(f) == 1.0
        assert abs(measure_distance(f, zero) - 1.0 / n) <= 1e-15


def test_rademacher_definition_and_mean():
    r1 = rademacher(1, 1)
    assert list(r1.values) == [1.0, -1.0]
    for n in range(1, 7):
        assert abs(rademacher(n, 7).integral()) <= 1e-15


def test_rademacher_rejects_coarse_level():
    with pytest.raises(ValueError):
        rademacher(4, 3)


def test_limsup_tail_constant():
    # every run length from 1 to 40: the window is the last half, rounded
    # up, so the least term inside it of 0, 1, ..., n - 1 is n // 2
    assert WINDOW_FRACTION == 0.5
    for n in range(1, 41):
        assert window_length(n) == (n + 1) // 2
        assert limsup_tail([1.0] * n) == liminf_tail([1.0] * n) == 1.0
        assert limsup_tail(range(n)) == n - 1
        assert liminf_tail(range(n)) == n // 2


def test_limsup_tail_harmonic_window():
    terms = [1.0 / k for k in range(1, 101)]
    assert limsup_tail(terms) == 1.0 / 51.0
    assert liminf_tail(terms) == 1.0 / 100.0


def test_limsup_tail_norm_vs_measure_gap():
    level = 10
    zero = GridFunction.zero(level)
    peaks = [peak_sequence(2 ** k, level) for k in range(1, level + 1)]
    norms = [norm(p) for p in peaks]
    gaps = [measure_distance(p, zero) for p in peaks]
    assert limsup_tail(norms) == 1.0
    assert limsup_tail(gaps) <= 2.0 ** -(level // 2) + 1e-15


def test_limsup_tail_rejects_empty():
    with pytest.raises(ValueError):
        limsup_tail([])


def test_real_sequence_window_object():
    terms = (3.0, 2.0, 1.0, 5.0)
    assert limsup_tail(terms) == 5.0
    assert liminf_tail(terms) == 1.0
    assert limsup_tail(iter(terms)) == 5.0
    with pytest.raises(ValueError, match="finite"):
        limsup_tail([1.0, float("nan")])
    with pytest.raises(ValueError, match="empty"):
        liminf_tail([])


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(2, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GridFunction(1, np.array([1.0, np.inf]))


def test_grid_function_values_immutable():
    f = GridFunction.constant(1.0, 2)
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_json_round_trip():
    rng = np.random.default_rng(4)
    f = GridFunction(3, rng.normal(size=8))
    payload = f.to_json()
    data = json.loads(payload)
    assert set(data) == {"level", "values"}
    g = GridFunction(data["level"], np.asarray(data["values"]))
    assert g.level == f.level
    assert np.max(np.abs(g.values - f.values)) <= 1e-9
