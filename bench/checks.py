"""Independent checks of the program's outputs.

Everything here is plain numpy and the standard library: the catalog maps,
the L1 norm and the Ky Fan distance, and the constraints of each body are
derived again from their definitions, so a fault in fptlab cannot hide in
the code that judges it.  Nothing in this module imports fptlab.

A body is described by the same dict the command line accepts, with its
size filled in: ``{"set": "ball", "level": 7}``, ``{"set": "cone_hull",
"a": 0.5, "level": 6}``, ``{"set": "ct", "t": 1.5, "M": 64}``.  A point is
the plain array of its cell values (grid bodies) or coefficients (``ct``).
"""
from __future__ import annotations

import csv
import io
import re

import numpy as np

FIXED = "fixed_point"
ESCAPED = "escaped_in_measure"
BUDGET = "budget_exhausted"
STATUSES = (FIXED, ESCAPED, BUDGET)

#: Residual tolerance the benchmark asks the solvers for.
SOLVE_TOL = 1e-8
#: Membership tolerance, the solvers' default.
MEMBERSHIP_TOL = 1e-6

#: Maps that have no fixed point on the body they are run on (the paper's
#: boundary examples), keyed by (operator, body kind).
NEVER_FIXED = {("retraction_compose", "cone_hull"), ("ct_shift", "ct"),
               ("doubling", "density_simplex")}


# ------------------------------------------------------------ the space

def weights(body: dict) -> np.ndarray:
    """Per-slot norm weights: the cell width on a grid, (t - 1, 1, 1, ...)
    on the bump coordinates."""
    if body["set"] == "ct":
        w = np.ones(int(body["M"]))
        w[0] = float(body["t"]) - 1.0
        return w
    cells = 2 ** int(body["level"])
    return np.full(cells, 1.0 / cells)


def widths(body: dict) -> np.ndarray:
    """Measure of the support of each slot: the cell width on a grid, and
    2**-(k+1) for the k-th bump."""
    if body["set"] == "ct":
        return 2.0 ** -(np.arange(int(body["M"])) + 1.0)
    return weights(body)


def norm(body: dict, x: np.ndarray) -> float:
    """L1 norm: sum of w_i |x_i|."""
    return float(np.abs(x) @ weights(body))


def ky_fan(body: dict, x: np.ndarray, y: np.ndarray) -> float:
    """Distance in measure: integral of min(|x - y|, 1).

    Slot i is a block of measure width_i on which the function difference
    has height w_i |x_i - y_i| / width_i.
    """
    wd = widths(body)
    heights = np.abs(x - y) * weights(body) / wd
    return float(wd @ np.minimum(heights, 1.0))


# ------------------------------------------------------------- the maps

def apply_map(op: str, body: dict, x: np.ndarray) -> np.ndarray:
    """The catalog map ``op`` applied to ``x``."""
    if op == "identity":
        return x.copy()
    if op == "cyclic":
        return np.roll(x, 1)
    if op == "doubling":
        out = np.zeros_like(x)
        out[: x.size // 2] = x[0::2] + x[1::2]
        return out
    if op == "retraction":
        return x + (1.0 - x.mean())  # the integral of a grid point is its mean
    if op == "retraction_compose":
        return apply_map("doubling", body, apply_map("retraction", body, x))
    if op == "ct_shift":
        if x[-1] != 0.0:
            raise ValueError("ct_shift would push mass past the last slot")
        return np.concatenate(([0.0], x[:-1]))
    raise ValueError(f"unknown operator {op!r}")


def violation(body: dict, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> str | None:
    """None when ``x`` satisfies every constraint of the body, else the
    first constraint it breaks."""
    kind = body["set"]
    low = float(x.min())
    if kind == "ball":
        n = norm(body, x)
        return f"norm {n:.6g} > 1" if n > 1.0 + tol else None
    if kind == "ct":
        if low < -tol:
            return f"negative coefficient {low:.6g}"
        total = float(x.sum())
        return f"coefficient sum {total:.6g} != 1" if abs(total - 1.0) > tol else None
    mass = float(x.mean())
    a = float(body.get("a", 1.0)) if kind == "cone_hull" else 1.0
    if a >= 1.0:
        if low < -tol:
            return f"negative value {low:.6g}"
        return f"integral {mass:.6g} != 1" if abs(mass - 1.0) > tol else None
    # cone_hull(a): lam * density + (1 - lam) * a with lam in [0, 1], so the
    # integral fixes lam and the values may not drop below (1 - lam) a
    lam = (mass - a) / (1.0 - a)
    if lam < -tol or lam > 1.0 + tol:
        return f"integral {mass:.6g} outside [{a:g}, 1]"
    floor = (1.0 - min(max(lam, 0.0), 1.0)) * a
    return f"value {low:.6g} below floor {floor:.6g}" if low < floor - tol else None


def mesh_saturated(x: np.ndarray) -> bool:
    """All mass on the first cell: a point the mesh pins, not a fixed point."""
    scale = float(np.abs(x).max(initial=0.0))
    if scale == 0.0 or x.size == 1:
        return False
    return float(np.abs(x[1:]).max()) <= 1e-12 * scale


# ----------------------------------------------------------- verdicts

def verdict_problems(op: str, body: dict, status: str, point, residual, *,
                     start: np.ndarray | None = None, practical: bool = False,
                     measure_to_zero: float | None = None) -> list[str]:
    """Everything wrong with one solver verdict; empty when it checks out.

    ``point`` is the verdict's point as an array (or None), ``residual`` the
    residual the solver reported, ``start`` the start point it was given and
    ``measure_to_zero`` the in-measure distance from the limit to zero that
    an escape diagnosis reported.
    """
    if status not in STATUSES:
        return [f"unknown status {status!r}"]
    problems = []
    if status == FIXED:
        if (op, body["set"]) in NEVER_FIXED:
            problems.append(f"{op} on {body['set']} has no fixed point")
        if point is None:
            return problems + ["fixed point without a point"]
        res = norm(body, point - apply_map(op, body, point))
        if res > SOLVE_TOL:
            problems.append(f"residual {res:.3g} > {SOLVE_TOL:g}")
        if residual is None or abs(residual - res) > 1e-12 + 1e-6 * res:
            problems.append(f"reported residual {residual} != measured {res:.6g}")
        broken = violation(body, point)
        if broken is not None:
            problems.append(f"fixed point outside the body: {broken}")
        if mesh_saturated(point):
            problems.append("fixed point is pinned by the mesh floor")
        if op == "cyclic" and practical and start is not None:
            # the mean over one full rotation is the constant at the mean
            gap = float(np.abs(point - start.mean()).max())
            if gap > 1e-9 * max(1.0, abs(float(start.mean()))):
                problems.append(f"cyclic mean is {gap:.3g} off the constant")
    elif status == ESCAPED:
        if point is None:
            return ["escape without a limit"]
        if violation(body, point) is None:
            problems.append("escape limit satisfies every body constraint")
        if measure_to_zero is not None:
            ref = ky_fan(body, point, np.zeros_like(point))
            if abs(measure_to_zero - ref) > 1e-12:
                problems.append(f"reported measure distance {measure_to_zero:.6g} "
                                f"!= measured {ref:.6g}")
    return problems


# ------------------------------------------------------------- tables

def _rows(text: str, header: list[str]) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    head = next(reader, None)
    if head != header:
        raise ValueError(f"header {head} != {header}")
    return [dict(zip(header, row)) for row in reader]


REPRODUCE_HEADER = ["quantity", "reference_value", "estimate_low",
                    "estimate_high", "gap", "tolerance", "status"]
SHARPNESS_HEADER = ["t", "growth", "recenter_low", "recenter_high",
                    "gate_at_equality", "gate_below_equality", "solver_status",
                    "status"]

#: Relative width allowed between a sampled lower estimate and its closed form.
BRACKET_REL = 0.02
#: CSV values carry 12 significant digits.
CSV_REL = 1e-10


def _close(value: float, ref: float, rel: float = CSV_REL) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _closed_form(quantity: str) -> tuple[float, str] | None:
    """Closed-form value of a reproduce row and how its estimates must meet
    it: 'exact' (both ends), 'bracket' (high exact, low sampled below) or
    'upper' (at most the value)."""
    number = r"([0-9.]+)"
    forms = [
        (rf"recentering\(cone_hull,a={number}\)", lambda a: (1.0 + a, "bracket")),
        (r"recentering\(ball\)", lambda: (1.0, "bracket")),
        (rf"recentering\(bump,t={number}\)", lambda t: (t, "exact")),
        (rf"growth\(ct_shift,t={number}\)", lambda t: (2.0 / t, "exact")),
        (r"growth\(retraction_compose\)", lambda: (2.0, "exact")),
        (r"growth\(retraction_compose,sampled\)", lambda: (2.0, "bracket")),
        (r"opial_sum", lambda: (2.0, "bracket")),
        (r"drift_radius\(.*\)", lambda: (1.0, "upper")),
        (r"additivity_defect", lambda: (0.0, "zero")),
        (rf"orlicz\(p={number}\)", lambda p: (2.0 ** (1.0 / p), "exact")),
    ]
    for pattern, form in forms:
        m = re.fullmatch(pattern, quantity)
        if m:
            return form(*(float(g) for g in m.groups()))
    return None


def reproduce_problems(text: str, *, level: int, a_grid, t_grid, orlicz_p) -> list[str]:
    """Check a ``fptlab reproduce`` table against the closed forms."""
    try:
        rows = _rows(text, REPRODUCE_HEADER)
    except ValueError as exc:
        return [str(exc)]
    expected = ([f"recentering(cone_hull,a={a:g})" for a in a_grid]
                + ["recentering(ball)"]
                + [q for t in t_grid for q in (f"recentering(bump,t={t:g})",
                                               f"growth(ct_shift,t={t:g})")]
                + ["growth(retraction_compose)", "growth(retraction_compose,sampled)",
                   "opial_sum", "drift_radius(density_simplex)",
                   "drift_radius(bump,t=1.5)", "additivity_defect"]
                + [f"orlicz(p={p:g})" for p in orlicz_p])
    names = [r["quantity"] for r in rows]
    if names != expected:
        return [f"rows {names} != expected {expected}"]
    problems = []
    for r in rows:
        q = r["quantity"]
        ref, how = _closed_form(q)
        low, high = float(r["estimate_low"]), float(r["estimate_high"])
        ok = r["status"] == "pass" and _close(float(r["reference_value"]), ref)
        if how == "exact":
            ok = ok and _close(low, ref) and _close(high, ref)
        elif how == "bracket":
            ok = ok and _close(high, ref) and ref * (1 - BRACKET_REL) <= low <= high
        elif how == "upper":
            ok = ok and high <= ref * (1 + CSV_REL)
        else:  # zero additivity defect, up to one cell of the level
            ok = ok and 0.0 <= low <= high <= 2.0 ** -level
        if not ok:
            problems.append(f"row {q}: {low}, {high} against closed form {ref:.12g} "
                            f"({how}), status {r['status']}")
    return problems


def sharpness_problems(text: str, *, t_grid) -> list[str]:
    """Check a ``fptlab sharpness`` table: growth 2/t against coefficient t,
    a gate shut at equality and open 0.01 below it, no fixed point."""
    try:
        rows = _rows(text, SHARPNESS_HEADER)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(t_grid):
        return [f"{len(rows)} rows for {len(t_grid)} values of t"]
    problems = []
    for t, r in zip(t_grid, rows):
        growth, high = 2.0 / t, t
        ok = (_close(float(r["t"]), t) and _close(float(r["growth"]), growth)
              and _close(float(r["recenter_high"]), high)
              and float(r["recenter_low"]) <= float(r["recenter_high"])
              and r["gate_at_equality"] == "false"
              and r["gate_below_equality"] == "true"
              and r["solver_status"] in (ESCAPED, BUDGET)
              and r["status"] == "pass")
        if not ok:
            problems.append(f"sharpness row t={t:g}: {r}")
    return problems
