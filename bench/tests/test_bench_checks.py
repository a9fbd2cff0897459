"""Each independent check accepts a correct output and rejects a perturbed one."""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

GRID = {"set": "density_simplex", "level": 4}
BALL = {"set": "ball", "level": 4}
HULL = {"set": "cone_hull", "a": 0.5, "level": 4}
SUB = {"set": "cone_hull", "a": 0.0, "level": 4}
BUMP = {"set": "ct", "t": 1.5, "M": 8}


def density(seed=0, cells=16):
    v = np.random.default_rng(seed).exponential(size=cells)
    return v / v.mean()


def fixed(op, body, point, **kw):
    res = checks.norm(body, point - checks.apply_map(op, body, point))
    return checks.verdict_problems(op, body, checks.FIXED, point, res, **kw)


# ------------------------------------------------------------- the space

def test_norm_and_ky_fan_on_the_grid():
    x = np.zeros(16)
    x[0] = 16.0  # unit peak on the first cell
    assert checks.norm(GRID, x) == 1.0
    # the peak differs from 0 by more than 1 on one cell of measure 1/16
    assert checks.ky_fan(GRID, x, np.zeros(16)) == 1 / 16
    assert checks.ky_fan(GRID, np.full(16, 0.25), np.zeros(16)) == 0.25


def test_norm_and_ky_fan_on_the_bumps():
    e0, e3 = np.eye(8)[0], np.eye(8)[3]
    assert checks.norm(BUMP, e0) == 0.5  # first vertex weighs t - 1
    assert checks.norm(BUMP, e3) == 1.0
    # a unit bump on a support of measure 2**-4 is a full-height block there
    assert checks.ky_fan(BUMP, e3, np.zeros(8)) == 2.0 ** -4


def test_catalog_maps():
    x = np.arange(16.0)
    assert checks.apply_map("cyclic", GRID, x)[0] == 15.0
    halved = checks.apply_map("doubling", GRID, x)
    assert halved[0] == 1.0 and halved[7] == 29.0 and not halved[8:].any()
    sub = np.full(16, 0.25)
    assert np.all(checks.apply_map("retraction", SUB, sub) == 1.0)
    shifted = checks.apply_map("ct_shift", BUMP, np.eye(8)[2])
    assert shifted[3] == 1.0 and shifted.sum() == 1.0
    with pytest.raises(ValueError):
        checks.apply_map("ct_shift", BUMP, np.eye(8)[7])


def test_body_constraints():
    assert checks.violation(GRID, density()) is None
    assert checks.violation(GRID, 1.1 * density()) is not None
    neg = density()
    neg[:2] = [-0.5, neg[1] + 0.5]
    assert checks.violation(GRID, neg) is not None
    assert checks.violation(BALL, 0.9 * density() * np.resize([1, -1], 16)) is None
    assert checks.violation(BALL, 1.1 * density()) is not None
    assert checks.violation(HULL, 0.5 * density() + 0.25) is None
    low = 0.5 * density() + 0.25
    low[3] = 0.2  # below the floor (1 - lam) a = 0.25 at lam = 1/2 ...
    low[4] += 0.05  # ... with the integral kept
    assert checks.violation(HULL, low) is not None
    assert checks.violation(HULL, np.full(16, 0.4)) is not None  # integral < a
    assert checks.violation(SUB, 0.3 * density()) is None
    assert checks.violation(BUMP, np.full(8, 1 / 8)) is None
    assert checks.violation(BUMP, np.full(8, 1 / 7)) is not None


# ------------------------------------------------------------- verdicts

def test_fixed_point_residual_check():
    const = np.full(16, 0.5)
    assert fixed("cyclic", BALL, const) == []
    moved = const.copy()
    moved[3] += 1e-3
    assert any("residual" in p for p in fixed("cyclic", BALL, moved))


def test_reported_residual_must_match():
    const = np.full(16, 0.5)
    problems = checks.verdict_problems("cyclic", BALL, checks.FIXED, const, 1e-9)
    assert any("reported residual" in p for p in problems)


def test_fixed_point_membership_check():
    assert any("outside the body" in p for p in fixed("cyclic", BALL, np.full(16, 1.5)))


def test_mesh_saturated_point_is_no_fixed_point():
    peak = np.zeros(16)
    peak[0] = 16.0  # doubling pins it only because the mesh stops there
    assert checks.apply_map("doubling", GRID, peak).tolist() == peak.tolist()
    problems = fixed("doubling", GRID, peak)
    assert any("mesh floor" in p for p in problems)
    assert any("no fixed point" in p for p in problems)


@pytest.mark.parametrize("op, body", [("retraction_compose", SUB),
                                      ("ct_shift", BUMP),
                                      ("doubling", GRID)])
def test_boundary_examples_never_fix(op, body):
    problems = checks.verdict_problems(op, body, checks.FIXED, None, None)
    assert any("has no fixed point" in p for p in problems)


def test_practical_cyclic_verdict_is_the_constant_at_the_mean():
    start = density(3)
    assert fixed("cyclic", GRID, np.full(16, start.mean()), start=start,
                 practical=True) == []
    # a constant is fixed by the rotation, but the wrong one is no Cesaro mean
    problems = fixed("cyclic", GRID, np.full(16, 1.0 + 1e-6), start=start,
                     practical=True)
    assert any("off the constant" in p for p in problems)


def test_escape_limit_must_break_a_constraint():
    limit = np.zeros(16)
    limit[:8] = 1.5  # integral 3/4: mass escaped
    dist = checks.ky_fan(GRID, limit, np.zeros(16))
    ok = checks.verdict_problems("doubling", GRID, checks.ESCAPED, limit, None,
                                 measure_to_zero=dist)
    assert ok == []
    inside = checks.verdict_problems("doubling", GRID, checks.ESCAPED, density(),
                                     None)
    assert any("satisfies every body constraint" in p for p in inside)
    wrong = checks.verdict_problems("doubling", GRID, checks.ESCAPED, limit, None,
                                    measure_to_zero=dist + 1e-6)
    assert any("measure distance" in p for p in wrong)


def test_unknown_status_is_rejected():
    assert checks.verdict_problems("cyclic", BALL, "converged", None, None)


# --------------------------------------------------------------- tables

A_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
T_GRID = (1.1, 1.25, 1.5, 1.75, 1.9)
P_GRID = (1.0, 2.0, 4.0)


def reproduce_csv(**change) -> str:
    rows = [[f"recentering(cone_hull,a={a:g})", 1 + a, 1 + a - 1e-4, 1 + a]
            for a in A_GRID]
    rows.append(["recentering(ball)", 1, 1, 1])
    for t in T_GRID:
        rows.append([f"recentering(bump,t={t:g})", t, t, t])
        rows.append([f"growth(ct_shift,t={t:g})", 2 / t, 2 / t, 2 / t])
    rows += [["growth(retraction_compose)", 2, 2, 2],
             ["growth(retraction_compose,sampled)", 2, 1.97, 2],
             ["opial_sum", 2, 1.99, 2],
             ["drift_radius(density_simplex)", 1, 1, 1],
             ["drift_radius(bump,t=1.5)", 1, 1, 1],
             ["additivity_defect", 0, 0, 0]]
    rows += [[f"orlicz(p={p:g})", 2 ** (1 / p), 2 ** (1 / p), 2 ** (1 / p)]
             for p in P_GRID]
    lines = [",".join(checks.REPRODUCE_HEADER)]
    for q, ref, low, high in rows:
        low, high, status = change.get(q, (low, high, "pass"))
        lines.append(f'"{q}",{ref:.12g},{low:.12g},{high:.12g},{high - low:.12g},'
                     f"0.02,{status}")
    return "\n".join(lines) + "\n"


def repro(text):
    return checks.reproduce_problems(text, level=12, a_grid=A_GRID, t_grid=T_GRID,
                                     orlicz_p=P_GRID)


def test_reproduce_table_accepted():
    assert repro(reproduce_csv()) == []


@pytest.mark.parametrize("quantity, values", [
    ("growth(ct_shift,t=1.5)", (1.34, 1.34, "pass")),            # not 2/t
    ("recentering(cone_hull,a=0.5)", (1.4, 1.5, "pass")),        # low too far
    ("recentering(bump,t=1.9)", (1.9, 1.95, "pass")),            # not t
    ("orlicz(p=2)", (1.5, 1.5, "pass")),                         # not 2**(1/p)
    ("additivity_defect", (0.01, 0.01, "pass")),                 # not zero
    ("opial_sum", (1.99, 2.0, "fail")),                          # status fail
])
def test_reproduce_table_rejects_a_perturbed_row(quantity, values):
    assert repro(reproduce_csv(**{quantity: values}))


def test_reproduce_table_rejects_a_missing_row():
    text = "".join(line + "\n" for line in reproduce_csv().splitlines()
                   if "opial" not in line)
    assert repro(text)


def sharpness_csv(row=None, **change) -> str:
    lines = [",".join(checks.SHARPNESS_HEADER)]
    for t in T_GRID:
        values = {"t": f"{t:.12g}", "growth": f"{2 / t:.12g}",
                  "recenter_low": f"{t:.12g}", "recenter_high": f"{t:.12g}",
                  "gate_at_equality": "false", "gate_below_equality": "true",
                  "solver_status": "escaped_in_measure", "status": "pass"}
        if t == row:
            values.update(change)
        lines.append(",".join(values[k] for k in checks.SHARPNESS_HEADER))
    return "\n".join(lines) + "\n"


def test_sharpness_table_accepted():
    assert checks.sharpness_problems(sharpness_csv(), t_grid=T_GRID) == []


@pytest.mark.parametrize("change", [
    {"growth": "1.4"},
    {"gate_at_equality": "true"},
    {"gate_below_equality": "false"},
    {"solver_status": "fixed_point"},
    {"recenter_high": "1.6"},
])
def test_sharpness_table_rejects_a_perturbed_row(change):
    assert checks.sharpness_problems(sharpness_csv(1.5, **change), t_grid=T_GRID)


# ------------------------------------------------- judges of the workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
import workloads  # noqa: E402


def outcome(status, point=None, residual=None, **diagnostics):
    return SimpleNamespace(status=status, point=point, residual=residual,
                           diagnostics=diagnostics)


def test_missed_fixed_point_counts_as_failed_operation():
    start = density(5)
    op = workloads._verdict_op("cyclic", "cyclic", GRID, workloads.PROOF, start, 0,
                               has_fixed_point=True)
    assert op.judge(outcome(checks.BUDGET)) == (True, [])
    const = workloads._program_point(GRID, np.full(16, start.mean()))
    assert op.judge(outcome(checks.FIXED, const, 0.0)) == (False, [])


def test_table_judge_wants_exit_zero_and_identical_bytes(tmp_path):
    path = tmp_path / "table.csv"
    op = workloads._table_op("t", [], path, lambda text: [])
    path.write_text("a,b\n1,2\n")
    assert op.judge(0) == (False, [])
    assert op.judge(0) == (False, [])
    assert op.judge(1) == (False, ["exit code 1"])
    path.write_text("a,b\n1,3\n")
    assert op.judge(0) == (False, ["same seed, different bytes"])
