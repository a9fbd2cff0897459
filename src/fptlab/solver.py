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

import numpy as np

from .coefficients import opial_sum, recentering_bounds
from .grid import limsup_tail, window_length
from .operators import (
    AffineOperator,
    CyclicShift,
    DomainError,
    MassOverflowError,
    affinity_defect,
    afps_residual,
    mean_lipschitz,
    orbit_rows,
    running_means,
)
from .sets import (
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

#: Trailing share of a sequence that a radius and ``komlos_extract`` read.
WINDOW_FRACTION = 0.5
#: In-measure tolerance of the limits that the solver extracts.
EXTRACTION_TOL = 0.05
#: Slack of the measured certificates of a contraction step.
BRANCH_SLACK = 1e-6
#: Membership tolerance of a candidate fixed point and of a restart limit.
MEMBERSHIP_TOL = 1e-6
#: Largest in-measure spread at which the restart limits agree.
MEASURE_TOL = 0.02


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
    """Cesaro means of one orbit, their residuals, and a detected limit.

    The means form an approximate fixed-point sequence whenever the orbit
    stays bounded: the residual of the s-th mean decays like 1/s by the
    affine two-point identity.  ``limit`` is the in-measure cluster point of
    the trailing means when one exists, with ``limit_quality`` the largest
    in-measure distance from the limit to a selected term.  ``points`` may
    be given as any sequence of points and is kept as one PointRows, an
    (n, slots) array of the means.
    """

    points: PointRows
    residuals: tuple
    limit: object | None = None
    limit_quality: float | None = None

    def __post_init__(self) -> None:
        if not len(self.points):
            raise ValueError("record needs at least one mean")
        object.__setattr__(self, "points", point_rows(self.points))
        object.__setattr__(self, "residuals",
                           tuple(np.asarray(self.residuals, dtype=float).tolist()))

    def radius_from(self, y) -> float:
        """Trailing (``WINDOW_FRACTION``) limsup of norm distances from ``y``
        to the means."""
        return float(_phi_values([y], self.points, WINDOW_FRACTION)[0])

    def limit_spread(self) -> float | None:
        """Trailing limsup of norm distances from the detected limit."""
        if self.limit is None:
            return None
        return self.radius_from(self.limit)


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
    recenter_bound: str
    near_achieving: bool
    phi_min: float | None = None
    phi_ratio: float | None = None
    extraction_quality: float | None = None


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
    from the trailing ``WINDOW_FRACTION`` of the sequence, the window a
    record's radius reads (geometric offsets from the end plus an even
    spread): the nearest candidate in measure joins, ties to the earliest,
    while it lies within ``extraction_tol`` of the cluster's cellwise
    median.  The returned limit is the median of the cluster and lies
    within ``extraction_tol`` in measure of every selected term.  When no
    cluster of 4 terms exists the sequence is declared too short, never
    silently truncated.

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
    block = max(1, PHI_BLOCK_FLOATS // rows.shape[1])
    top = max(float(seq.space.row_norms(rows[i:i + block]).max())
              for i in range(0, n, block))
    if not math.isfinite(top) or top > 1e9:
        raise ValueError("sequence is not bounded in norm")

    start = n - window_length(n, WINDOW_FRACTION)
    picks = {n - 1}
    step = 1
    while n - 1 - step >= start:
        picks.add(n - 1 - step)
        step *= 2
    room = 64 - len(picks)
    if room > 0:
        picks.update(int(i) for i in np.linspace(start, n - 1, num=min(room, n - start), dtype=int))
    cand = sorted(picks)[-64:]

    C = rows[cand]
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
    """Record the Cesaro means of the orbit of ``x0`` with their residuals.

    Residuals come from the affine identity z_s - T z_s = (T x0 - T**(s+1) x0)/s,
    so the whole record costs one orbit pass.  The orbit is marched by
    ``orbit_rows``, a block of ``PHI_BLOCK_FLOATS`` floats at a time: per
    block the rows are checked once, the residuals are priced by one
    ``row_norms`` call, and ``running_means`` writes the block's means,
    carrying the running sum to the next block.  Only ``T x0`` is built as
    a point, and errors come at the step, with the type and message, of the
    point loop ``p = T.apply(p)``.  Coordinate orbits that run out of
    tracked slots are truncated at the last computable mean.
    """
    if n_inner < 1:
        raise ValueError(f"n_inner must be >= 1, got {n_inner}")
    try:
        first = T.apply(x0).array
    except MassOverflowError:
        raise ExtendSequenceError("orbit ended before the first residual") from None
    slots = first.size
    means = np.empty((n_inner, slots))
    residuals = np.empty(n_inner)
    total = np.empty(slots)
    # row 0 holds T**(n+1) x0, the orbit point that the next block maps
    orbit = np.empty((max(1, PHI_BLOCK_FLOATS // slots) + 1, slots))
    orbit[0] = first
    n = 0
    with np.errstate(all="ignore"):
        while n < n_inner:
            want = min(len(orbit) - 1, n_inner - n)
            k = orbit_rows(T, x0, orbit, want)
            s = np.arange(n + 1, n + k + 1)
            residuals[n:n + k] = x0.row_norms(first - orbit[1:k + 1]) / s
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
    if not np.all(np.isfinite(total)):
        x0.like(total)
    means = PointRows(x0, means[:n])
    limit = None
    quality = None
    if n >= 8:
        try:
            idx, limit = komlos_extract(means, extraction_tol=EXTRACTION_TOL)
            quality = float(measure_distances(limit, means.take(idx)).max())
        except (ExtendSequenceError, ValueError):
            limit = None
    return AfpsRecord(means, residuals[:n], limit, quality)


def admissible_eps(mean_lip: float, t_coeff: float, opial: float = 2.0) -> float | None:
    """Half the largest eps with mean_lip < (opial/t_coeff)(1-eps)/(1+eps)**2,
    or None when no positive eps exists (the gate is closed)."""
    if mean_lip <= 0 or t_coeff <= 0 or opial <= 0:
        raise ValueError("coefficients must be positive")
    q = mean_lip * t_coeff / opial
    if q >= 1.0:
        return None
    disc = (2.0 * q + 1.0) ** 2 - 4.0 * q * (q - 1.0)
    e_star = 1.0 if q == 0.0 else (-(2.0 * q + 1.0) + math.sqrt(disc)) / (2.0 * q)
    eps = min(0.5 * e_star, 0.5)
    while eps > 1e-12 and mean_lip >= (opial / t_coeff) * (1.0 - eps) / (1.0 + eps) ** 2:
        eps *= 0.5
    return eps if eps > 1e-12 else None


def proof_step(T: AffineOperator, C: ConvexBody, x0, eps: float, records, *,
               mean_lip: float, t_coeff: float, rng: np.random.Generator,
               radii):
    """One certified contraction step: returns (w, StepReport).

    Takes the radius r of ``x0`` as the least of ``radii``, each record's
    ``radius_from(x0)`` as the caller priced it, forms the contraction
    target rho = r (1 - eps) / (t_coeff (1 + eps)), and tries two branches:
    the detected limit of the best record, then the limit of means of a
    low-score subsequence of at most 24 of the newest means.  Whichever
    limit sits within rho (trailing limsup in norm) is recentered into the
    body, and the recenter point must pass two measured certificates:
    radius contraction by (1 - eps) and the displacement bound
    (2 + (1 + eps) mean_lip) r, each up to ``BRANCH_SLACK``.
    Certificate failure raises BranchConditionError; nothing is papered over.
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
    gap_x = best.limit_spread()

    gap_z = None
    phi_min = None
    phi_ratio = None
    if gap_x is not None and gap_x <= rho + BRANCH_SLACK:
        branch = "x_limit"
        result = C.recenter(best.limit, best.points, rng=rng,
                            window_fraction=WINDOW_FRACTION)
        r_after = best.radius_from(result.point)
    else:
        # two _phi_values passes and an extraction: run only when needed
        zs = records[-1].points
        if len(zs) >= 16:
            phi = _phi_values(zs, best.points, WINDOW_FRACTION)
            phi_min = float(phi.min())
            k = int(min(24, max(8, len(zs) // 4)))
            chosen = np.sort(np.argsort(phi, kind="stable")[:k])
            zbar = PointRows(zs.space, running_means(zs.rows[chosen]))
            try:
                _, z_lim = komlos_extract(zbar, extraction_tol=EXTRACTION_TOL)
            except (ExtendSequenceError, ValueError):
                z_lim = _median_point(zbar[len(zbar) // 2:])
            gap_z = float(_phi_values([z_lim], zbar, WINDOW_FRACTION)[0])
            phi_bar = _phi_values(zbar, best.points, WINDOW_FRACTION)
            if phi_min > 1e-12:
                phi_ratio = float(limsup_tail(phi_bar, WINDOW_FRACTION) / phi_min)
        if gap_z is None or gap_z > rho + BRANCH_SLACK:
            raise BranchConditionError(
                f"no branch within rho={rho:.4g}: limit gap {gap_x}, "
                f"means gap {gap_z}")
        branch = "mean_limit"
        result = C.recenter(z_lim, zbar, rng=rng, window_fraction=WINDOW_FRACTION)
        r_after = float(_phi_values([result.point], zbar, WINDOW_FRACTION)[0])

    w = result.point
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
                        recenter_bound=result.bound_type, near_achieving=near,
                        phi_min=phi_min, phi_ratio=phi_ratio,
                        extraction_quality=records[-1].limit_quality)
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
        if not np.all(np.isfinite(means[-1])):
            x0.like(means[-1])
    limits = [_median_point(PointRows(x0, means)) for means in segments]
    stability = max(measure_distance(a, b) for a in limits for b in limits)
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


def _default_inner(T: AffineOperator, x) -> int:
    faithful = T.max_faithful_steps(x)
    if faithful is not None:
        return max(8, min(faithful, 4096))
    if isinstance(T, CyclicShift):
        return min(8 * T.cycle_length(), 4096)
    return 256


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def solve(T: AffineOperator, C: ConvexBody, x0=None, *, tol: float = 1e-8,
          max_outer: int = 16, n_inner: int | None = None,
          budget: int = 10 ** 6, seed: int = 0) -> SolveOutcome:
    """Certified fixed-point search for an affine map of a convex body.

    Entry enforces the affinity certificate and domain membership.  When the
    growth gate mean_lip < opial / t_coeff admits a positive eps, the solver
    runs contraction steps whose certificates are measured, not assumed, and
    returns a fixed point with its residual.  Otherwise, or on certificate
    failure, it switches to restart diagnosis and reports either escape in
    measure (limit left the body) or budget exhaustion.  A point pinned only
    by the mesh floor is never reported as a fixed point.
    """
    _check_tol(tol)
    if n_inner is not None and n_inner < 8:
        raise ValueError(f"n_inner must be >= 8, got {n_inner}")
    rng = np.random.default_rng(seed)
    defect = affinity_defect(T, rng, pairs=8)
    if defect > 1e-7:
        raise ValueError(f"affinity certificate failed: defect {defect:.3g}")
    if x0 is None:
        x0 = T.default_start(rng)
    problem = C.violation(x0, 1e-7)
    if problem is not None:
        raise DomainError(f"starting point outside the body: {problem}")

    opial = opial_sum()
    mean_lip = mean_lipschitz(T, 8, rng=rng)
    t_coeff = C.t_exact
    t_source = "catalog"
    if t_coeff is None:
        t_coeff = recentering_bounds(C, rng=rng).estimate_high
        t_source = "measured"
    eps0 = admissible_eps(mean_lip, t_coeff, opial)
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

    def finish_with_classification(outer: int, r_est: float | None, reason: str | None):
        nonlocal apps
        status, limit, diag = classify_escape(T, C, x0)
        apps += diag.get("applications", 0)
        if reason is not None:
            diagnostics["branch_failure"] = reason
        diagnostics.update({k: v for k, v in diag.items() if k != "applications"})
        diagnostics["applications"] = apps
        residual = None if limit is None else _safe_residual(T, limit)
        trace.append({
            "outer_iter": outer,
            "r_estimate": r_est,
            "branch": "diagnostic",
            "displacement": None,
            "residual": residual,
            "ky_fan_to_limit": None if limit is None else 0.0,
            "membership": None if limit is None else C.membership(limit, MEMBERSHIP_TOL),
        })
        return SolveOutcome(status, limit, residual, trace, diagnostics)

    def accept_fixed(outer: int, point, residual: float, r_est: float | None):
        diagnostics["applications"] = apps
        trace.append({
            "outer_iter": outer,
            "r_estimate": r_est if r_est is not None else 0.0,
            "branch": "converged",
            "displacement": 0.0,
            "residual": residual,
            "ky_fan_to_limit": 0.0,
            "membership": True,
        })
        return SolveOutcome(STATUS_FIXED, point, residual, trace, diagnostics)

    residual_start = _safe_residual(T, x0)
    apps += 1
    if (residual_start is not None and residual_start <= tol
            and C.membership(x0, MEMBERSHIP_TOL) and not T.is_saturated(x0)):
        return accept_fixed(0, x0, residual_start, None)
    if eps0 is None:
        return finish_with_classification(0, None, "growth gate closed: "
                                          f"mean_lip * t / opial = "
                                          f"{mean_lip * t_coeff / opial:.6g} >= 1")

    pool: list[AfpsRecord] = []
    a = x0
    for outer in range(max_outer):
        n_in = n_inner if n_inner is not None else _default_inner(T, a)
        n_in = min(n_in, budget - apps - 8)
        if n_in < 8:
            return finish_with_classification(outer, None, "budget exhausted "
                                              "before the next record")
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
        if residual_a is not None and residual_a <= tol:
            if C.membership(a, MEMBERSHIP_TOL) and not T.is_saturated(a):
                return accept_fixed(outer, a, residual_a, r0)
            return finish_with_classification(outer, r0, "candidate is a mesh "
                                              "artifact or left the body")
        if r0 <= tol:
            return finish_with_classification(outer, r0, "radius reached tol "
                                              "but the residual did not")
        try:
            # keywords after ``pool``: the benchmark's traced wrapper takes
            # five positional arguments
            w, report = proof_step(T, C, a, eps0, pool, mean_lip=mean_lip,
                                   t_coeff=t_coeff, rng=rng, radii=radii)
        except (BranchConditionError, ExtendSequenceError) as exc:
            return finish_with_classification(outer, r0, str(exc))
        residual_w = _safe_residual(T, w)
        apps += 1
        rec_limit = pool[-1].limit
        trace.append({
            "outer_iter": outer,
            "r_estimate": r0,
            "branch": report.branch,
            "displacement": report.displacement,
            "residual": residual_w,
            "ky_fan_to_limit": None if rec_limit is None
            else measure_distance(w, rec_limit),
            "membership": C.membership(w, MEMBERSHIP_TOL),
        })
        a = w
    residual_a = _safe_residual(T, a)
    apps += 1
    if (residual_a is not None and residual_a <= tol
            and C.membership(a, MEMBERSHIP_TOL) and not T.is_saturated(a)):
        return accept_fixed(max_outer, a, residual_a, None)
    return finish_with_classification(max_outer, None,
                                      f"no convergence in {max_outer} outer steps")


def cesaro_solve(T: AffineOperator, C: ConvexBody, x0=None, *, tol: float = 1e-8,
                 n_max: int = 4096, seed: int = 0) -> SolveOutcome:
    """Practical solver: march the Cesaro means until a residual clears tol.

    One operator application per step prices the residual exactly through
    the affine identity.  Orbits that stop moving are handled analytically:
    a genuinely fixed orbit point is returned at once, a mesh-pinned one is
    rejected as an artifact and handed to restart diagnosis, with the mean
    horizon that tol would need reported either way.  The trace keeps
    about 256 of the ``n_max`` means.

    The orbit is marched on a pair of rows by ``orbit_rows``, one step per
    call, so that no step is mapped that the march does not count; only the
    first checks the domain.  The running sum is one array that each orbit
    row is added to, the one-row case of ``running_means``, and a point is
    built only for a kept trace row, a mean that clears tol, or the pin.
    The residual numerator T x0 - T**(s+1) x0 and the step
    T**(s+1) x0 - T**s x0 share one ``row_norms`` call, bit-equal to
    ``norm``.  So every verdict, residual and trace row rounds as the point
    arithmetic would, and each array is checked finite at the step where a
    point would have refused it.

    Statuses do not always agree with the certified ``solve``: on ``cyclic``
    over ``density_simplex`` and ``retraction`` over ``cone_hull(0)`` this
    solver verifies a fixed point while ``solve``, whose growth gate is
    closed there, reports budget_exhausted (ROADMAP item 3).
    """
    _check_tol(tol)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = T.default_start(rng)
    problem = C.violation(x0, 1e-7)
    if problem is not None:
        raise DomainError(f"starting point outside the body: {problem}")
    diagnostics = {"applications": 0, "n_max": n_max}
    trace: list[dict] = []
    keep_every = max(1, n_max // 256)

    def classify(reason: str):
        status, limit, diag = classify_escape(T, C, x0)
        diagnostics["applications"] += diag.pop("applications", 0)
        diagnostics.update(diag)
        diagnostics["stop_reason"] = reason
        residual = None if limit is None else _safe_residual(T, limit)
        _fill_measure_column(trace, limit)
        return SolveOutcome(status, limit, residual, trace, diagnostics)

    def check_finite(values) -> None:
        # the point class refuses the array with its own error, as the
        # point arithmetic did
        if not np.all(np.isfinite(values)):
            x0.like(values)

    # row 0: T**s x0, row 1: T**(s+1) x0
    pair = np.empty((2, x0.array.size))
    pair[0] = x0.array
    if not orbit_rows(T, x0, pair, 1):
        diagnostics["applications"] = 0
        return classify("orbit cannot move from the starting point")
    apps = 1
    first = pair[1].copy()
    total = first.copy()
    pair[0] = first
    nxt = pair[1]
    # row 0: T x0 - T**(s+1) x0, row 1: T**(s+1) x0 - T**s x0
    diffs = np.empty_like(pair)
    best_residual = math.inf
    s = 1
    while s <= n_max:
        if not orbit_rows(T, x0, pair, 1, check_domain=False):
            diagnostics["applications"] = apps
            return classify(f"orbit ran out of tracked slots at step {s + 1}")
        apps += 1
        np.subtract(first, nxt, out=diffs[0])
        np.subtract(nxt, pair[0], out=diffs[1])
        gap, step = x0.row_norms(diffs).tolist()
        # a norm is finite whenever its row is, so the rows are looked at
        # only when one is not
        if not math.isfinite(gap):
            check_finite(diffs[0])
        residual = gap / s
        best_residual = min(best_residual, residual)
        if s % keep_every == 0 or residual <= tol or s == n_max:
            z = x0.like(total * (1.0 / s))
            trace.append({"s": s, "residual": residual, "norm": norm(z),
                          "point": z})
        if residual <= tol:
            direct = _safe_residual(T, z)
            apps += 1
            diagnostics["applications"] = apps
            if (direct is not None and direct <= max(tol, residual + 1e-12)
                    and C.membership(z, MEMBERSHIP_TOL) and not T.is_saturated(z)):
                diagnostics["stopped_at"] = s
                _fill_measure_column(trace, z)
                return SolveOutcome(STATUS_FIXED, z, direct, trace, diagnostics)
            return classify("candidate mean failed verification")
        if not math.isfinite(step):
            check_finite(diffs[1])
        if step == 0.0:
            # orbit stopped moving: every later mean is a closed form
            pin = x0.like(nxt)
            needed = math.inf if gap == 0.0 else gap / tol
            diagnostics["orbit_pinned_at"] = s + 1
            diagnostics["means_needed_for_tol"] = needed
            diagnostics["applications"] = apps
            if not T.is_saturated(pin):
                residual_pin = _safe_residual(T, pin)
                apps += 1
                diagnostics["applications"] = apps
                if (residual_pin is not None and residual_pin <= tol
                        and C.membership(pin, MEMBERSHIP_TOL)):
                    _fill_measure_column(trace, pin)
                    return SolveOutcome(STATUS_FIXED, pin, residual_pin, trace,
                                        diagnostics)
            return classify("orbit pinned by the mesh floor; later means are "
                            "artifacts")
        total += nxt
        check_finite(total)
        pair[0] = nxt
        s += 1
    diagnostics["applications"] = apps
    diagnostics["best_residual"] = best_residual
    return classify(f"no mean reached tol within n_max={n_max}")


def _fill_measure_column(trace: list[dict], limit) -> None:
    """Price the in-measure distance of each kept mean to the detected limit,
    then drop the stored points from the rows."""
    for row in trace:
        point = row.pop("point", None)
        if limit is None or point is None:
            row["ky_fan_to_detected_limit"] = None
        else:
            row["ky_fan_to_detected_limit"] = measure_distance(point, limit)
