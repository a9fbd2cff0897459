"""Fixed-point search along Cesaro means, with honest failure analysis.

The positive path mirrors the classical contraction argument.  Each outer
iteration records the Cesaro means of the current point's orbit, measures
the asymptotic radius r of the point against the best recorded approximate
fixed-point sequence, extracts an in-measure limit from a trailing cluster
of means, and recenters that limit into the body.  When the growth gate is
open the recenter point provably contracts the radius by a factor (1 - eps),
and the iterates converge to a fixed point.

The negative path is just as important.  When the gate is closed, or a
contraction branch fails its measured certificate, the solver restarts the
mean computation at staggered orbit offsets: agreeing restart limits that
leave the body certify escape in measure, anything else is an honest budget
report.  Discretization artifacts (orbits pinned by the mesh floor) are
flagged and never reported as fixed points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .coefficients import fixed_point_gate, opial_sum, recentering_bounds
from .grid import window_length
from .operators import (
    AffineOperator,
    CyclicShift,
    DomainError,
    MassOverflowError,
    _refuse_nonfinite,
    affinity_defect,
    afps_residual,
    mean_lipschitz,
    orbit_rows,
    running_means,
)
from .sets import (
    ORBIT_TOL,
    PHI_BLOCK_FLOATS,
    ConvexBody,
    PointRows,
    _phi_values,
    measure_distance,
    measure_distances,
    norm,
    point_rows,
)

STATUS_FIXED = "fixed_point"
STATUS_ESCAPED = "escaped_in_measure"
STATUS_BUDGET = "budget_exhausted"

#: In-measure tolerance of the limits that the solver extracts.
EXTRACTION_TOL = 0.05
#: Slack of the measured certificates of a contraction step.
BRANCH_SLACK = 1e-6
#: Membership tolerance of a candidate fixed point and of a restart limit.
MEMBERSHIP_TOL = 1e-6
#: Largest in-measure spread at which the restart limits agree.
MEASURE_TOL = 0.02
#: Contraction steps of the certified solver.
MAX_OUTER = 16

#: Columns of a trace row of the certified solver, one row per outer step.
PROOF_TRACE = ("outer_iter", "r_estimate", "branch", "displacement",
               "residual", "ky_fan_to_limit", "membership")
#: Columns of a trace row of the practical solver, one row per kept mean.
ORBIT_TRACE = ("s", "residual", "norm", "ky_fan_to_detected_limit")


class ExtendSequenceError(RuntimeError):
    """The trailing cluster is too small; more terms are needed."""


class BranchConditionError(RuntimeError):
    """Neither contraction branch passed its measured certificate."""


def _median_columns(cols) -> tuple[np.ndarray, bool]:
    """Cellwise median of the members held as the columns of ``cols``, a
    (cells, members) array, and whether it is free of the members' order.

    Each cell's row is copied contiguous and sorted, and its middle value
    taken, or (lo + hi) / 2 of the two middle values: the arithmetic of
    ``np.median(cols, axis=1)``, so bit-equal to it on finite values.  Only
    -0.0 and 0.0 compare equal and differ in bits, so a cell whose median is
    zero and whose row holds a -0.0 is taken from ``np.median`` itself,
    whose pick among the zeros depends on the order of the members: the
    flag is False when a cell was.
    """
    rows = np.array(cols, order="C")
    rows.sort(axis=1)
    k = rows.shape[1]
    half = k // 2
    mid = rows[:, half].copy() if k % 2 else (rows[:, half - 1] + rows[:, half]) / 2
    zero = np.flatnonzero(mid == 0.0)
    if zero.size:
        vals = rows[zero]
        signed = zero[(np.signbit(vals) & (vals == 0.0)).any(axis=1)]
        if signed.size:
            mid[signed] = np.median(cols[signed], axis=1)
            return mid, False
    return mid, True


def _median_point(points):
    """Cellwise median: the robust center of a cluster of points (a
    PointRows or a sequence of points), bit-equal to
    ``np.median(rows, axis=0)``; the rows are transposed once and taken by
    ``_median_columns``."""
    points = point_rows(points)
    return points.space.like(_median_columns(points.rows.T)[0])


def _safe_residual(T: AffineOperator, x) -> float | None:
    try:
        return afps_residual(T, x)
    except (MassOverflowError, DomainError):
        return None


@dataclass(frozen=True)
class AfpsRecord:
    """Cesaro means of one orbit and a detected limit.

    The means form an approximate fixed-point sequence whenever the orbit
    stays bounded: the residual of the s-th mean decays like 1/s by the
    affine two-point identity (``operators.afps_residual``).  ``limit`` is
    the in-measure cluster point of the trailing means when one exists (see
    komlos_extract), and its spread is ``radius_from(limit)``.  ``points``
    may be given as any sequence of points and is kept as one PointRows, an
    (n, slots) array of the means.
    """

    points: PointRows
    limit: object | None = None

    def __post_init__(self) -> None:
        if not len(self.points):
            raise ValueError("record needs at least one mean")
        object.__setattr__(self, "points", point_rows(self.points))

    def radius_from(self, y) -> float:
        """Trailing limsup of norm distances from ``y`` to the means, over
        the window of ``grid.window_length``."""
        return float(_phi_values([y], self.points)[0])


@dataclass(frozen=True)
class StepReport:
    """Everything one contraction step measured, certificates included."""

    branch: str
    r_before: float
    r_after: float
    rho: float
    limit_gap_x: float | None
    limit_gap_means: float | None
    displacement: float
    displacement_bound: float
    near_achieving: bool
    phi_min: float | None = None


@dataclass
class SolveOutcome:
    """Terminal report of a solver run.

    ``status`` is one of fixed_point, escaped_in_measure, budget_exhausted.
    ``point`` carries the fixed point or the detected escape limit,
    ``trace`` one row per outer iteration (or orbit snapshot in the
    practical solver), ``diagnostics`` the measured coefficients and the
    reasons behind the verdict.
    """

    status: str
    point: object | None
    residual: float | None
    trace: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _hull_within(C: np.ndarray, space, tol: float) -> bool:
    """Whether every point of the cellwise hull [lo, hi] of the rows of
    ``C`` lies within ``tol`` in measure of every row, as
    ``measure_distances`` prices it.

    Row i is bounded by sum(min(w * max(hi - C_i, C_i - lo), widths)).  For
    a center c with lo <= c <= hi cellwise, the float |C_i - c| is at most
    the float max(hi - C_i, C_i - lo), since a float difference is monotone
    in each operand; scaling by the weights, the min with the widths and a
    row sum in ``measure_distances``' order are monotone too.  So the bound
    is at least the float distance from any such center to row i.
    """
    lo = C.min(axis=0)
    hi = C.max(axis=0)
    bound = np.maximum(hi - C, C - lo)
    bound *= space.weights
    np.minimum(bound, space.widths, out=bound)
    return bool(bound.sum(axis=1).max() <= tol)


def komlos_extract(seq, *, extraction_tol: float):
    """Subsequence indices whose terms cluster in measure, and their limit.

    Greedy cluster growth around the last term, over at most 64 candidates
    from the trailing window of the sequence (``grid.WINDOW_FRACTION``), the
    window a record's radius reads: the geometric offsets 0, 1, 2, 4, ...
    from the end, at most 1 + log2(n) of them, and an even spread that fills
    the rest.  The nearest candidate in measure joins, ties to the earliest,
    while it lies within ``extraction_tol`` of the cluster's cellwise
    median.  The returned limit is the median of the cluster and lies
    within ``extraction_tol`` in measure of every selected term.  When no
    cluster of 4 terms exists the sequence is declared too short, never
    silently truncated.  A candidate of norm above 1e9, or not finite, is
    refused as unbounded; terms that are not candidates are never read.

    Certified shortcut: every center the loop can form lies cellwise
    between the least and the greatest candidate value, since a median of
    members is a member's value or the float (a + b) / 2 of two, and
    ``np.median``'s signed-zero pick is one too.  When ``_hull_within``
    bounds the distance from any such center to every candidate by
    ``extraction_tol``, the loop would admit every candidate, so the
    cluster is all of them and the limit their median, taken without the
    loop.  The loop still runs when the bound fails, and when that median
    takes ``np.median``'s signed-zero fallback, which reads the order in
    which the loop adds members.
    """
    seq = point_rows(seq)
    n = len(seq)
    if n < 8:
        raise ValueError(f"need at least 8 terms, got {n}")
    rows = seq.rows
    start = n - window_length(n)
    picks = {n - 1}
    step = 1
    while n - 1 - step >= start:
        picks.add(n - 1 - step)
        step *= 2
    picks.update(np.linspace(start, n - 1, num=min(64 - len(picks), n - start),
                             dtype=int).tolist())
    cand = sorted(picks)

    C = rows[cand]
    top = float(seq.space.row_norms(C).max())
    if not math.isfinite(top) or top > 1e9:
        raise ValueError("sequence is not bounded in norm")
    if _hull_within(C, seq.space, extraction_tol):
        mid, order_free = _median_columns(C.T)
        if order_free:
            return cand, seq.space.like(mid)

    def covered(center, members):
        keep = measure_distances(center, seq.take(members)) <= extraction_tol
        return [i for i, k in zip(members, keep) if k]

    cluster = [n - 1]
    center = seq.space.like(rows[n - 1])
    pool = [i for i in cand if i != n - 1]
    while pool:
        dists = measure_distances(center, seq.take(pool))
        j = int(np.argmin(dists))
        if dists[j] > extraction_tol:
            break
        cluster.append(pool.pop(j))
        center = _median_point(seq.take(cluster))
    # soundness: the final median must cover every member it claims
    cluster = covered(center, cluster)
    if len(cluster) >= 4:
        center = _median_point(seq.take(cluster))
        cluster = covered(center, cluster)
    if len(cluster) < 4:
        raise ExtendSequenceError(
            f"extend the sequence: only {len(cluster)} trailing terms cluster "
            f"within {extraction_tol:g} in measure")
    return sorted(cluster), center


def build_afps_record(T: AffineOperator, x0, n_inner: int) -> AfpsRecord:
    """Record the Cesaro means of the orbit of ``x0``.

    The orbit is marched by ``orbit_rows``, a block of ``PHI_BLOCK_FLOATS``
    floats at a time: the rotation writes a block in one copy, other maps
    one row per ``map_array`` call.  Per block the rows are checked once and
    ``running_means`` writes the block's means, in one accumulate when the
    block has at least as many rows as slots, carrying the running sum to
    the next block.  Only ``T x0`` is built as a point, and errors come at
    the step, with the type and message, of the point loop
    ``p = T.apply(p)``.  Coordinate orbits that run out of tracked slots are
    truncated at the last computable mean.
    """
    if n_inner < 1:
        raise ValueError(f"n_inner must be >= 1, got {n_inner}")
    try:
        first = T.apply(x0).array
    except MassOverflowError:
        raise ExtendSequenceError("orbit ended before the first residual") from None
    slots = first.size
    means = np.empty((n_inner, slots))
    total = np.empty(slots)
    # row 0 holds T**(n+1) x0, the orbit point that the next block maps
    orbit = np.empty((max(1, PHI_BLOCK_FLOATS // slots) + 1, slots))
    orbit[0] = first
    n = 0
    with np.errstate(all="ignore"):
        while n < n_inner:
            want = min(len(orbit) - 1, n_inner - n)
            k = orbit_rows(T, x0, orbit, want)
            # T x0 + ... + T**s x0 for s = n + 1, ..., n + k, scaled
            running_means(orbit[:k], carry=total, start=n, out=means[n:n + k])
            n += k
            if k < want:
                break
            orbit[0] = orbit[k]
    if n == 0:
        raise ExtendSequenceError("orbit ended before the first residual")
    # a sum that overflows stays non-finite, so the last one vouches for
    # every mean
    _refuse_nonfinite(x0, total)
    means = PointRows(x0, means[:n])
    limit = None
    if n >= 8:
        try:
            limit = komlos_extract(means, extraction_tol=EXTRACTION_TOL)[1]
        except (ExtendSequenceError, ValueError):
            pass
    return AfpsRecord(means, limit)


def admissible_eps(mean_lip: float, t_coeff: float) -> float | None:
    """Half the largest eps with mean_lip < (opial/t_coeff)(1-eps)/(1+eps)**2,
    opial = ``opial_sum()``, and None exactly where ``fixed_point_gate`` is
    closed.  The gate refuses coefficients that are not finite and positive.

    With q = mean_lip * t_coeff / opial the root is
    (sqrt(1 + 8q) - (2q + 1)) / (2q).  From q = 1/16 on that form is kept,
    so the catalog's eps (q = 0.5 and 0.75) keep their bits; below it the
    difference cancels (a relative error of about 1e-16 / q, and 0 from q
    about 1e-16), so the root is taken rationalized, as
    2(1 - q) / (sqrt(1 + 8q) + 2q + 1).  An open gate has q below
    1 - ``GATE_MARGIN``, so eps then exceeds 1e-10."""
    if not fixed_point_gate(mean_lip, t_coeff):
        return None
    q = mean_lip * t_coeff / opial_sum()
    if q < 0.0625:
        e_star = 2.0 * (1.0 - q) / (math.sqrt(1.0 + 8.0 * q) + 2.0 * q + 1.0)
    else:
        disc = (2.0 * q + 1.0) ** 2 - 4.0 * q * (q - 1.0)
        e_star = (-(2.0 * q + 1.0) + math.sqrt(disc)) / (2.0 * q)
    return 0.5 * e_star


def proof_step(T: AffineOperator, C: ConvexBody, x0, eps: float, records, *,
               mean_lip: float, t_coeff: float, radii):
    """One certified contraction step: returns (w, StepReport).

    Takes the radius r of ``x0`` as the least of ``radii``, each record's
    ``radius_from(x0)`` as the caller priced it, forms the contraction
    target rho = r (1 - eps) / (t_coeff (1 + eps)), and tries two branches:
    the detected limit of the best record, then the limit of means of a
    low-score subsequence of at most 24 of the newest means.  Whichever
    limit sits within rho (trailing limsup in norm) is recentered into the
    body by its closed-form witness, and the recenter point must pass two
    measured certificates: radius contraction by (1 - eps) and the
    displacement bound (2 + (1 + eps) mean_lip) r, each up to
    ``BRANCH_SLACK``.  A limit that the body refuses to recenter, or a
    failed certificate, raises BranchConditionError; nothing is papered over.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one afps record")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if len(radii) != len(records):
        raise ValueError(f"need one radius per record, got {len(radii)} "
                         f"for {len(records)}")
    r0 = min(radii)
    rho = r0 * (1.0 - eps) / (t_coeff * (1.0 + eps))
    with_limits = [i for i, rec in enumerate(records) if rec.limit is not None]
    if not with_limits:
        raise BranchConditionError("no record detected an in-measure limit")
    i_best = min(with_limits, key=radii.__getitem__)
    best = records[i_best]
    near = radii[i_best] <= r0 * (1.0 + eps) + BRANCH_SLACK
    gap_x = best.radius_from(best.limit)

    gap_z = None
    phi_min = None
    if gap_x <= rho + BRANCH_SLACK:
        branch = "x_limit"
        limit, means = best.limit, best.points
    else:
        # two _phi_values passes and an extraction: run only when needed
        zs = records[-1].points
        if len(zs) >= 16:
            phi = _phi_values(zs, best.points)
            phi_min = float(phi.min())
            k = int(min(24, max(8, len(zs) // 4)))
            chosen = np.sort(np.argsort(phi, kind="stable")[:k])
            zbar = PointRows(zs.space, running_means(zs.rows[chosen]))
            try:
                _, z_lim = komlos_extract(zbar, extraction_tol=EXTRACTION_TOL)
            except (ExtendSequenceError, ValueError):
                z_lim = _median_point(zbar[len(zbar) // 2:])
            gap_z = float(_phi_values([z_lim], zbar)[0])
        if gap_z is None or gap_z > rho + BRANCH_SLACK:
            raise BranchConditionError(
                f"no branch within rho={rho:.4g}: limit gap {gap_x}, "
                f"means gap {gap_z}")
        branch = "mean_limit"
        limit, means = z_lim, zbar

    try:
        w = C.recenter(limit)
    except ValueError as exc:
        raise BranchConditionError(str(exc)) from None
    # bit-equal to best.radius_from(w) on the limit branch
    r_after = float(_phi_values([w], means)[0])
    if r_after > (1.0 - eps) * r0 + BRANCH_SLACK:
        raise BranchConditionError(
            f"contraction certificate failed: {r_after:.6g} > "
            f"(1-eps) r0 = {(1.0 - eps) * r0:.6g}")
    displacement = norm(x0 - w)
    disp_bound = (2.0 + (1.0 + eps) * mean_lip) * r0 + BRANCH_SLACK
    if displacement > disp_bound:
        raise BranchConditionError(
            f"displacement certificate failed: {displacement:.6g} > "
            f"{disp_bound:.6g}")
    report = StepReport(branch=branch, r_before=r0, r_after=r_after, rho=rho,
                        limit_gap_x=gap_x, limit_gap_means=gap_z,
                        displacement=displacement, displacement_bound=disp_bound,
                        near_achieving=near, phi_min=phi_min)
    return w, report


def classify_escape(T: AffineOperator, C: ConvexBody, x0):
    """Restart diagnosis: (status, limit, diagnostics).

    Means are recomputed from three staggered offsets of an orbit of at most
    96 steps.  When the three limits agree within ``MEASURE_TOL`` in measure,
    the agreed limit is the orbit's working limit;
    membership then separates a genuine escape from a budget problem.  The
    limits must agree to count: a single window can lie, three staggered
    ones rarely do.
    """
    faithful = T.max_faithful_steps(x0)
    span = 96 if faithful is None else min(faithful, 96)
    rows = np.empty((span + 1, x0.array.size))
    rows[0] = x0.array
    n = orbit_rows(T, x0, rows, span, check_domain=False)
    diag = {"applications": n, "faithful_steps": faithful, "overflow": n < span}
    if n < 8:
        diag["note"] = f"orbit usable for only {n} steps; no restart window fits"
        return STATUS_BUDGET, None, diag

    base = n // 2
    step = max(1, n // 8)
    offsets = [min(base + i * step, n - 3) for i in range(3)]
    seg_len = min(5, n - offsets[-1])
    with np.errstate(all="ignore"):
        segments = [running_means(rows[off + 1:off + seg_len + 1]) for off in offsets]
    for means in segments:
        # a sum that overflows stays non-finite: the last mean vouches for it
        _refuse_nonfinite(x0, means[-1])
    limits = [_median_point(PointRows(x0, means)) for means in segments]
    # measure_distance is symmetric and zero on a pair of equals: 3 pairs
    stability = max(measure_distance(a, b) for a, b in combinations(limits, 2))
    limit = limits[-1]
    zero = 0.0 * x0
    diag.update({
        "offsets": offsets,
        "segment_length": seg_len,
        "restart_stability": stability,
        "limit_measure_to_zero": measure_distance(limit, zero),
    })
    if stability <= MEASURE_TOL:
        problem = C.violation(limit, MEMBERSHIP_TOL)
        if problem is not None:
            diag["violation"] = problem
            return STATUS_ESCAPED, limit, diag
        diag["note"] = ("restart limits agree and stay in the body; "
                        "residuals simply did not reach tol in budget")
        return STATUS_BUDGET, limit, diag
    diag["note"] = "restart limits disagree in measure; no stable limit detected"
    return STATUS_BUDGET, None, diag


def _diagnose(T: AffineOperator, C: ConvexBody, x0, diagnostics: dict, apps: int,
              key: str, reason: str):
    """The diagnosis exit of both solvers: runs ``classify_escape`` from
    ``x0``, merges its findings into ``diagnostics`` with ``reason`` under
    ``key``, sets ``applications`` to ``apps`` plus the restart orbit's
    steps, and returns (status, limit, the limit's residual)."""
    status, limit, diag = classify_escape(T, C, x0)
    diagnostics["applications"] = apps + diag.pop("applications")
    diagnostics.update(diag)
    diagnostics[key] = reason
    residual = None if limit is None else _safe_residual(T, limit)
    return status, limit, residual


def _default_inner(T: AffineOperator, x) -> int:
    faithful = T.max_faithful_steps(x)
    if faithful is not None:
        return max(8, min(faithful, 4096))
    if isinstance(T, CyclicShift):
        return min(8 * T.cycle_length(), 4096)
    return 256


def _verified(T: AffineOperator, C: ConvexBody, point, residual: float | None,
              tol: float) -> bool:
    """The one acceptance test of both solvers: the residual is known and at
    most ``tol``, the point is a member, and the mesh floor does not pin
    it."""
    return (residual is not None and residual <= tol
            and C.membership(point, MEMBERSHIP_TOL) and not T.is_saturated(point))


def _start(T: AffineOperator, C: ConvexBody, x0, rng: np.random.Generator):
    """``x0``, or ``T``'s default start drawn from ``rng``, refused with
    DomainError when it lies outside ``C``."""
    if x0 is None:
        x0 = T.default_start(rng)
    problem = C.violation(x0, ORBIT_TOL)
    if problem is not None:
        raise DomainError(f"starting point outside the body: {problem}")
    return x0


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def solve(T: AffineOperator, C: ConvexBody, x0=None, *, tol: float = 1e-8,
          seed: int = 0) -> SolveOutcome:
    """Certified fixed-point search for an affine map of a convex body.

    Entry enforces the affinity certificate and domain membership.  When
    ``fixed_point_gate`` is open and ``admissible_eps`` gives eps, the solver
    runs contraction steps whose certificates are measured, not assumed, and
    returns a fixed point with its residual.  Otherwise, or on certificate
    failure, it switches to restart diagnosis and reports either escape in
    measure (limit left the body) or budget exhaustion.  A point pinned only
    by the mesh floor is never reported as a fixed point.

    The work is fixed, not an option: at most ``MAX_OUTER`` contraction
    steps, each after one record of ``_default_inner`` means (8 to 4096),
    so a solve applies ``T`` at most about 1 + 16 * 4099 + 1 times.
    """
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    defect = affinity_defect(T, rng)
    if defect > 1e-7:
        raise ValueError(f"affinity certificate failed: defect {defect:.3g}")
    x0 = _start(T, C, x0, rng)

    opial = opial_sum()
    mean_lip = mean_lipschitz(T, rng=rng)
    t_coeff = C.t_exact
    t_source = "catalog"
    if t_coeff is None:
        bracket = recentering_bounds(C, rng=rng)
        t_coeff = bracket.estimate_high
        t_source = "cap" if bracket.bound_type == "cap" else "measured"
    eps0 = admissible_eps(mean_lip, t_coeff)
    diagnostics = {
        "mean_lip": mean_lip,
        "t_coeff": t_coeff,
        "t_source": t_source,
        "opial": opial,
        "gate_open": eps0 is not None,
        "eps": eps0,
        "affinity_defect": defect,
        "applications": 0,
    }
    trace: list[dict] = []
    apps = 0

    def add_row(*values) -> None:
        trace.append(dict(zip(PROOF_TRACE, values)))

    def finish_with_classification(outer: int, r_est: float | None, reason: str):
        status, limit, residual = _diagnose(T, C, x0, diagnostics, apps,
                                            "branch_failure", reason)
        add_row(outer, r_est, "diagnostic", None, residual,
                None if limit is None else 0.0,
                None if limit is None else C.membership(limit, MEMBERSHIP_TOL))
        return SolveOutcome(status, limit, residual, trace, diagnostics)

    def accept_fixed(outer: int, point, residual: float, r_est: float | None):
        diagnostics["applications"] = apps
        add_row(outer, 0.0 if r_est is None else r_est, "converged", 0.0,
                residual, 0.0, True)
        return SolveOutcome(STATUS_FIXED, point, residual, trace, diagnostics)

    residual_start = _safe_residual(T, x0)
    apps += 1
    if _verified(T, C, x0, residual_start, tol):
        return accept_fixed(0, x0, residual_start, None)
    if eps0 is None:
        return finish_with_classification(0, None, "growth gate closed: "
                                          f"mean_lip * t / opial = "
                                          f"{mean_lip * t_coeff / opial:.6g} >= 1")

    pool: list[AfpsRecord] = []
    a = x0
    for outer in range(MAX_OUTER):
        n_in = _default_inner(T, a)
        try:
            rec = build_afps_record(T, a, n_in)
        except ExtendSequenceError as exc:
            return finish_with_classification(outer, None, str(exc))
        apps += n_in + 1
        pool.append(rec)
        # priced once: proof_step reads the same radii
        radii = [rec.radius_from(a) for rec in pool]
        r0 = min(radii)
        residual_a = _safe_residual(T, a)
        apps += 1
        if _verified(T, C, a, residual_a, tol):
            return accept_fixed(outer, a, residual_a, r0)
        if residual_a is not None and residual_a <= tol:
            return finish_with_classification(outer, r0, "candidate is a mesh "
                                              "artifact or left the body")
        if r0 <= tol:
            return finish_with_classification(outer, r0, "radius reached tol "
                                              "but the residual did not")
        try:
            # keywords after ``pool``: the benchmark's traced wrapper takes
            # five positional arguments
            w, report = proof_step(T, C, a, eps0, pool, mean_lip=mean_lip,
                                   t_coeff=t_coeff, radii=radii)
        except (BranchConditionError, ExtendSequenceError) as exc:
            return finish_with_classification(outer, r0, str(exc))
        residual_w = _safe_residual(T, w)
        apps += 1
        rec_limit = pool[-1].limit
        add_row(outer, r0, report.branch, report.displacement, residual_w,
                None if rec_limit is None else measure_distance(w, rec_limit),
                C.membership(w, MEMBERSHIP_TOL))
        a = w
    residual_a = _safe_residual(T, a)
    apps += 1
    if _verified(T, C, a, residual_a, tol):
        return accept_fixed(MAX_OUTER, a, residual_a, None)
    return finish_with_classification(MAX_OUTER, None,
                                      f"no convergence in {MAX_OUTER} outer steps")


def _step_screen(x0, first: np.ndarray):
    """The practical march's step screen: ``vouches(g, g_prev)`` is true
    only when the step T**(s+1) x0 - T**s x0 has a norm that is neither 0
    nor non-finite, read from the gap g = |T x0 - T**(s+1) x0| and the
    previous gap g_prev = |T x0 - T**s x0|, so that the march need not price
    it.  ``first`` holds T x0.  It vouches when both gaps lie in
    [2**-900, 2**1020 w], where w is the least norm weight of ``x0``'s
    class, max|T x0| <= 2**1020, and |g - g_prev| > 2**-20 (g + g_prev).

    Proof.  Write u, v, w for the finite rows T x0, T**(s+1) x0, T**s x0,
    a, b, d for the float differences u - v, u - w, v - w, and n <= 2**24
    for the slots.  A norm is a float sum of the nonnegative weighted terms
    |x_i| w_i, in whatever order the class adds them.  Such a sum is at
    least each term, and within n 2**-53 <= 2**-29 of the exact sum, up to
    2**-1075 for each term that underflows.

    A zero step.  If the step's norm is 0, every weighted cell move
    |d_i| w_i rounds to 0, so |v_i - w_i| w_i is at most 2**-1074.  A float
    difference is exact or off by at most 2**-53 of itself, and
    (u_i - w_i) - (u_i - v_i) = v_i - w_i, so ||a_i| - |b_i|| <= |v_i - w_i|
    + 2**-52 (|a_i| + |b_i|).  Weighting and adding up, and then rounding the
    two sums, |g - g_prev| <= 2**-28 (g + g_prev) + 2 n 2**-1074.  With both
    gaps at least 2**-900 the last term is below 2**-100 (g + g_prev), so
    the bound stays under 2**-20 (g + g_prev), and the screen never vouches
    for a step that stops the march.  (The grid scales its sum of |x_i| by
    the power-of-two cell width, which is exact in this band.)

    A non-finite step.  Each term of g is at most g, so |a_i| <= g / w
    <= 2**1020 (1 + 2**-52), and so is |b_i|.  With |u_i| <= 2**1020, every
    cell of v and w lies below 2**1021 (1 + 2**-50), and d_i below 2**1022
    (1 + 2**-49): finite.  The exact weighted sum of |d_i| is at most the
    two gaps' sums, about g + g_prev <= 2**1021 w, and the float one
    rounds from it by a factor of at most 1 + 2**-29: finite too.  The
    gaps themselves are finite, since both lie in the band.
    """
    low, high = 2.0 ** -900, 2.0 ** 1020 * float(x0.weights.min())
    if not np.abs(first).max() <= 2.0 ** 1020:
        # an empty band: every step is priced
        low, high = math.inf, -math.inf

    def vouches(gap: float, prev: float) -> bool:
        return (low <= gap <= high and low <= prev <= high
                and abs(gap - prev) > 2.0 ** -20 * (gap + prev))

    return vouches


def cesaro_solve(T: AffineOperator, C: ConvexBody, x0=None, *, tol: float = 1e-8,
                 n_max: int = 4096, seed: int = 0) -> SolveOutcome:
    """Practical solver: march the Cesaro means until a residual clears tol.

    One operator application per step prices the residual exactly through
    the affine identity.  Orbits that stop moving are handled analytically:
    a genuinely fixed orbit point is returned at once, a mesh-pinned one is
    rejected as an artifact and handed to restart diagnosis, with the mean
    horizon that tol would need reported either way.  An orbit that
    returns, bit for bit, to a saturated row ends the same way (a floor
    cycle): the map repeats it forever and ``T.is_saturated`` calls the row
    a mesh artifact, so every later mean is one too.  Past the operator's
    horizon F (``T.max_faithful_steps``) the march keeps one anchor row,
    taken at orbit row F and again at twice the anchor's row, as in Brent's
    cycle finding, and compares a row with it only when their gaps are
    equal; an operator without a horizon is never looked at.  A mean or a
    pinned point is a fixed point only when ``_verified`` accepts it, as in
    ``solve``.  The trace keeps about 256 of the ``n_max`` means.

    The orbit is marched a block of 2 ``PHI_BLOCK_FLOATS`` floats at a time
    (at least one row; 8 rows at level 12), after blocks of 1, 2, 4, ...
    rows up to that size.  Each block takes one ``orbit_rows`` call, which
    the rotation writes in one copy, and one ``abs_row_norms`` call that
    prices the gaps T x0 - T**(s+1) x0, the residual numerators of all its
    rows, bit-equal to ``norm``, after their absolute values are taken in
    place.  A step T**(s+1) x0 - T**s x0 matters only when its norm is 0 or
    not finite, so it is priced, alone, only when ``_step_screen`` cannot
    vouch from the row's gap and the one before that it is neither: a few
    of 4096 steps on the level-12 rotations.  Only the first step checks the
    domain.  The march ends at its stop row: a residual that clears tol, a
    step of zero, a difference row that is not finite, or a floor cycle,
    looked for in that order.  A row whose norm overflows on finite
    differences marches on like any other.  The rows before the stop add to
    the running sum, one add per row as ``running_means`` makes them, and
    build a point only for a kept trace row; the stop row verifies, pins or
    raises.  So every verdict, residual and trace row rounds as the point
    arithmetic would, and ``applications`` counts the steps the march
    takes, not the rows mapped past its stop.  Errors come at the step of
    the point loop: after a block whose ``orbit_rows`` call raises, the
    march goes on from one step per call, since the error may lie past the
    stop.  A sum that overflows stays non-finite, so it is checked only
    where the march leaves (its stop row, its end, a map that runs out of
    slots, an ``orbit_rows`` error) and by a kept trace row, and refused
    there with the point class's error, which names no value, as the point
    loop refuses it at the add that overflows.

    Statuses do not always agree with the certified ``solve``: on ``cyclic``
    over ``density_simplex`` and over ``cone_hull(1)`` (the simplex by
    another name), and on ``retraction`` over ``cone_hull(0)``, this solver
    verifies a fixed point while ``solve``, whose growth gate is closed
    there, reports budget_exhausted (ROADMAP item 3).
    """
    _check_tol(tol)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    x0 = _start(T, C, x0, np.random.default_rng(seed))
    diagnostics = {"applications": 0, "n_max": n_max}
    trace: list[dict] = []
    keep_every = max(1, n_max // 256)
    apps = 0

    def classify(reason: str):
        status, limit, residual = _diagnose(T, C, x0, diagnostics, apps,
                                            "stop_reason", reason)
        _fill_measure_column(trace, limit)
        return SolveOutcome(status, limit, residual, trace, diagnostics)

    def fixed(point, residual: float):
        diagnostics["applications"] = apps
        _fill_measure_column(trace, point)
        return SolveOutcome(STATUS_FIXED, point, residual, trace, diagnostics)

    def keep(s: int, residual: float):
        z = x0.like(total * (1.0 / s))
        trace.append({"s": s, "residual": residual, "norm": norm(z), "point": z})
        return z

    slots = x0.array.size
    block = min(max(1, 2 * PHI_BLOCK_FLOATS // slots), n_max)
    # row 0: T**s x0, row j: T**(s+j) x0
    orbit = np.empty((block + 1, slots))
    orbit[0] = x0.array
    if not orbit_rows(T, x0, orbit, 1):
        return classify("orbit cannot move from the starting point")
    apps = 1
    first = orbit[1].copy()
    total = first.copy()
    orbit[0] = first
    # row j: |T x0 - T**(s+j+1) x0|, the residual numerator of step s + j
    gaps = np.empty((block, slots))
    # one step T**(s+1) x0 - T**s x0, made when the screen cannot vouch for
    # its norm and at the stop row
    step_row = np.empty((1, slots))
    vouches = _step_screen(x0, first)
    # the gap of step 0, |T x0 - T x0|
    prev = 0.0
    best_residual = math.inf
    # the floor-cycle anchor: the bytes of orbit row ``anchor_at`` once the
    # march passes the operator's horizon, and its gap; a row that equals
    # it, bit for bit, and is saturated ends the march as a pin.  Without a
    # horizon no gap equals the NaN, so the march never looks
    horizon = T.max_faithful_steps(x0)
    anchor, anchor_gap = None, math.nan
    anchor_at = math.inf if horizon is None else horizon
    # rows of the next block: one, doubling up to ``block``, so that a march
    # that stops early maps at most about twice the steps it takes
    width = 1
    s = 1
    while s <= n_max:
        want = min(width, n_max - s + 1)
        try:
            k = orbit_rows(T, x0, orbit[:want + 1], want, check_domain=False)
        except Exception:
            # a sum that overflowed did so before this block: the point loop
            # refused it first
            _refuse_nonfinite(x0, total)
            if want == 1:
                raise
            # the error may come from a row past the stop: march on from one
            # step per call
            width = 1
            continue
        width = min(2 * width, block)
        priced = gaps[:k]
        np.subtract(first, orbit[1:k + 1], out=priced)
        np.abs(priced, out=priced)
        norms = x0.abs_row_norms(priced).tolist()
        e = 0
        while e < k:
            gap = norms[e]
            residual = gap / s
            if residual <= tol:
                break
            if not vouches(gap, prev):
                np.subtract(orbit[e + 1], orbit[e], out=step_row[0])
                np.abs(step_row, out=step_row)
                step = x0.abs_row_norms(step_row)[0]
                if step == 0.0:
                    break
                # a norm is finite whenever its row is, so the rows are
                # looked at only when one is not: a norm may overflow on
                # finite rows, and such a row marches on
                if not (math.isfinite(gap) and math.isfinite(step)
                        or np.isfinite(priced[e]).all() and np.isfinite(step_row).all()):
                    break
            # equal rows price bit-equal gaps, so rows are compared only then
            if (gap == anchor_gap and orbit[e + 1].tobytes() == anchor
                    and T.is_saturated(x0.like(orbit[e + 1]))):
                break
            if s + 1 >= anchor_at:
                anchor, anchor_gap = orbit[e + 1].tobytes(), gap
                anchor_at = 2 * (s + 1)
            best_residual = min(best_residual, residual)
            if s % keep_every == 0 or s == n_max:
                keep(s, residual)
            total += orbit[e + 1]
            prev = gap
            apps += 1
            s += 1
            e += 1
        if e == k:
            if k < want:
                _refuse_nonfinite(x0, total)
                return classify(f"orbit ran out of tracked slots at step {s + 1}")
            orbit[0] = orbit[k]
            continue
        # the stop row: in the point loop's order, it verifies, pins or
        # raises, after the sum, which stays non-finite once an add overflows
        _refuse_nonfinite(x0, total)
        apps += 1
        _refuse_nonfinite(x0, priced[e])
        if s % keep_every == 0 or residual <= tol or s == n_max:
            z = keep(s, residual)
        if residual <= tol:
            direct = _safe_residual(T, z)
            apps += 1
            if _verified(T, C, z, direct, max(tol, residual + 1e-12)):
                diagnostics["stopped_at"] = s
                return fixed(z, direct)
            return classify("candidate mean failed verification")
        # made again: the screen may have vouched for this row's step
        np.subtract(orbit[e + 1], orbit[e], out=step_row[0])
        _refuse_nonfinite(x0, step_row[0])
        # the orbit stopped moving, or returned to its saturated anchor and
        # repeats it forever: every later mean is a closed form or an
        # artifact, and the gap is not zero, or the residual would have
        # cleared tol
        pin = x0.like(orbit[e + 1])
        diagnostics["orbit_pinned_at"] = s + 1
        diagnostics["means_needed_for_tol"] = gap / tol if tol > 0.0 else math.inf
        if not T.is_saturated(pin):
            residual_pin = _safe_residual(T, pin)
            apps += 1
            if _verified(T, C, pin, residual_pin, tol):
                return fixed(pin, residual_pin)
        return classify("orbit pinned by the mesh floor; later means are "
                        "artifacts")
    _refuse_nonfinite(x0, total)
    diagnostics["best_residual"] = best_residual
    return classify(f"no mean reached tol within n_max={n_max}")


def _fill_measure_column(trace: list[dict], limit) -> None:
    """Price the in-measure distance of each kept mean to the detected limit,
    then drop the stored points from the rows, which leaves each row with
    the columns of ``ORBIT_TRACE``."""
    for row in trace:
        point = row.pop("point", None)
        if limit is None or point is None:
            row["ky_fan_to_detected_limit"] = None
        else:
            row["ky_fan_to_detected_limit"] = measure_distance(point, limit)
