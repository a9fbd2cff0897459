"""Tests for the fixed-point machinery: in-measure subsequence extraction,
approximate fixed-point records, admissible contraction parameters, the
certified step, and both solvers end to end."""
from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fptlab import (
    AfpsRecord,
    BranchConditionError,
    BumpShift,
    BumpSimplex,
    ConeHull,
    ConvexBody,
    CoordPoint,
    CyclicShift,
    DensitySimplex,
    DomainError,
    DoublingShift,
    ExtendSequenceError,
    GridFunction,
    AffineOperator,
    IdentityOperator,
    MassOverflowError,
    NormalizingRetraction,
    RetractionDoubling,
    UnitBall,
    admissible_eps,
    affinity_defect,
    build_afps_record,
    cesaro_solve,
    coord_basis,
    komlos_extract,
    limsup_tail,
    lipschitz_estimate,
    measure_distance,
    norm,
    peak_sequence,
    proof_step,
    solve,
)
from fptlab import solver as solver_module
from fptlab.grid import window_length
from fptlab.sets import PHI_BLOCK_FLOATS, PointRows, measure_distances, point_rows
from fptlab.solver import (
    MEASURE_TOL,
    MEMBERSHIP_TOL,
    SolveOutcome,
    _fill_measure_column,
    _median_point,
    _phi_values,
    _safe_residual,
    classify_escape,
)

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
    return build_afps_record(T, GridFunction.constant(1.0, 14), 200).points[1:]


@pytest.fixture(scope="module")
def cyclic_means():
    """Cesaro means of a cyclic orbit at level 6 from a seeded ball point."""
    ball = UnitBall(6)
    x0 = ball.sample(np.random.default_rng(3))
    return x0, build_afps_record(CyclicShift(ball), x0, 1024).points[1:]


# ---------------------------------------------------------------------------
# komlos_extract


def test_extract_constant_sequence_returns_it():
    c = GridFunction.constant(0.5, 4)
    idx, limit = komlos_extract([c] * 16, extraction_tol=1e-3)
    assert idx == sorted(idx)
    assert len(idx) >= 4
    assert all(i >= 8 for i in idx)
    assert norm(limit - c) == 0.0


def test_extract_needs_eight_terms():
    c = GridFunction.constant(1.0, 3)
    with pytest.raises(ValueError, match="at least 8 terms"):
        komlos_extract([c] * 7, extraction_tol=1e-3)


def test_extract_rejects_unbounded_sequence():
    huge = GridFunction.constant(2e9, 3)
    with pytest.raises(ValueError, match="not bounded"):
        komlos_extract([huge] * 16, extraction_tol=1e-3)
    # norms are reduced a few rows at a time at level 12: the last block counts
    late = [GridFunction.zero(12)] * 15 + [GridFunction.constant(2e9, 12)]
    with pytest.raises(ValueError, match="not bounded"):
        komlos_extract(late, extraction_tol=1e-3)


def test_extract_short_escaping_run_asks_for_more(doubling_means):
    # 12 early means never cluster at 1e-3 in measure: the extractor
    # must say so instead of silently returning a bogus limit.
    with pytest.raises(ExtendSequenceError, match="extend the sequence"):
        komlos_extract(doubling_means[:12], extraction_tol=1e-3)


def test_extract_doubling_means_cluster_in_measure(doubling_means):
    idx, limit = komlos_extract(doubling_means, extraction_tol=1e-3)
    assert len(idx) >= 4
    quality = max(measure_distance(limit, doubling_means[i]) for i in idx)
    assert quality <= 1e-3
    assert quality == pytest.approx(8.285662395882787e-4, rel=1e-6)
    # the in-measure limit concentrates near zero while keeping its mass
    assert measure_distance(limit, 0.0 * limit) <= 0.04
    assert norm(limit) == pytest.approx(1.0, abs=1e-9)


def test_extract_cyclic_means_converge_in_norm(cyclic_means):
    x0, means = cyclic_means
    idx, limit = komlos_extract(means, extraction_tol=1e-3)
    assert len(idx) >= 40
    assert min(idx) >= len(means) // 2 - 1
    # cyclic means converge in norm, so the in-measure limit is the constant
    # at the starting integral
    const = GridFunction.constant(float(np.mean(x0.values)), 6)
    assert norm(limit - const) <= 1e-3


def test_median_point_is_bit_equal_to_np_median():
    # sorted middle rows against np.median, on clusters of every size from
    # 1 to 64 with repeated rows, ties and signed zeros in the cells
    rng = np.random.default_rng(19)
    spaces = [GridFunction.zero(level) for level in range(13)]
    spaces += [CoordPoint(t, np.zeros(m)) for t in (1.1, 1.5, 1.9) for m in (4, 64, 257)]
    for space in spaces:
        size = space.array.size
        # every cluster size on the small spaces, a few on the large ones
        for n in range(1, 65) if size <= 512 else (1, 2, 3, 4, 5, 16, 17, 63, 64):
            rows = rng.standard_normal((n, size)) * 10.0 ** rng.uniform(-3, 3)
            # repeated rows, then a few cells drawn from a small set with ties
            rows[rng.integers(0, n, size=n // 3)] = rows[rng.integers(0, n)]
            ties = rng.random((n, size)) < 0.2
            rows[ties] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=int(ties.sum()))
            want = np.median(rows, axis=0).tobytes()
            got = _median_point(PointRows(space, rows))
            assert type(got) is type(space)
            assert got.array.tobytes() == want, (size, n)
    # a cell of zeros of both signs gives np.median's sign, whichever it is
    col = np.array([[-0.0], [0.0], [0.0], [-0.0], [0.0]])
    for n in range(1, 6):
        rows = np.repeat(col[:n], 4, axis=1)
        got = _median_point([GridFunction(2, r) for r in rows])
        assert got.array.tobytes() == np.median(rows, axis=0).tobytes()


def _reference_komlos_extract(seq, *, extraction_tol):
    """komlos_extract as one greedy loop on point rows: each addition
    re-measures the remaining candidates and takes the cluster's median by
    ``np.median``, and ties go to the earliest candidate by ``pool.pop``."""
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
    start = n - window_length(n, 0.5)
    picks = {n - 1}
    step = 1
    while n - 1 - step >= start:
        picks.add(n - 1 - step)
        step *= 2
    room = 64 - len(picks)
    if room > 0:
        picks.update(int(i) for i in np.linspace(start, n - 1, num=min(room, n - start),
                                                 dtype=int))
    cand = sorted(picks)[-64:]

    def median(members):
        return seq.space.like(np.median(seq.take(members).rows, axis=0))

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
        center = median(cluster)
    cluster = covered(center, cluster)
    if len(cluster) >= 4:
        center = median(cluster)
        cluster = covered(center, cluster)
    if len(cluster) < 4:
        raise ExtendSequenceError(
            f"extend the sequence: only {len(cluster)} trailing terms cluster "
            f"within {extraction_tol:g} in measure")
    return sorted(cluster), center


def _extraction(fn, seq, tol):
    """Indices, limit type and limit bytes of ``fn``, or the type and
    message of what it raised."""
    try:
        idx, limit = fn(seq, extraction_tol=tol)
    except (ValueError, ExtendSequenceError) as exc:
        return type(exc).__name__, str(exc)
    return idx, type(limit), limit.array.tobytes()


class _ExtractionPaths:
    """Which path each komlos_extract call took: "certified" (the hull
    bound held and the loop did not run), "looped" (the bound failed),
    "signed_zero" (the bound held, but the median read the order of
    joining, so the loop ran) or "refused" (raised before either)."""

    def __init__(self, monkeypatch):
        hull, measure = solver_module._hull_within, solver_module.measure_distances
        self.calls = []

        def spy_hull(*args):
            self.calls.append(hull(*args))
            return self.calls[-1]

        def spy_measure(*args):
            # only the loop measures distances; mark it once per call
            if "loop" not in self.calls:
                self.calls.append("loop")
            return measure(*args)

        monkeypatch.setattr(solver_module, "_hull_within", spy_hull)
        monkeypatch.setattr(solver_module, "measure_distances", spy_measure)

    def path(self, seq, tol):
        """The extraction of ``seq`` at ``tol``, checked bit-equal to the
        reference loop, and the path it took."""
        self.calls = []
        got = _extraction(komlos_extract, seq, tol)
        assert got == _extraction(_reference_komlos_extract, seq, tol), (len(seq), tol)
        return {(): "refused", (True,): "certified", (False, "loop"): "looped",
                (True, "loop"): "signed_zero"}[tuple(self.calls)]


def _clustered_rows(rng, space, n):
    """n terms around one point of ``space``, with repeated rows, ties
    among a few values, and cells that hold only zeros of both signs."""
    size = space.array.size
    center = rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 0)
    rows = center + rng.standard_normal((n, size)) * 10.0 ** rng.uniform(-4, -0.5)
    rows[rng.integers(0, n, size=n // 4)] = rows[rng.integers(0, n)]
    ties = rng.random((n, size)) < 0.1
    rows[ties] = rng.choice([-0.5, 0.5, 0.0], size=int(ties.sum()))
    zeros = rng.random(size) < 0.25
    rows[:, zeros] = rng.choice([-0.0, 0.0], size=(n, int(zeros.sum())))
    return PointRows(space, rows)


def _proof_cyclic_sequences(tmp_path):
    """The sequences that the benchmark's proof_cyclic solves hand to
    komlos_extract at seeds 0-2: every record's means and every mean
    branch's means of means."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    seqs = []
    extract = solver_module.komlos_extract

    def spy(seq, *, extraction_tol):
        seqs.append(seq)
        return extract(seq, extraction_tol=extraction_tol)

    loaded = set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(bench))
        import workloads

        mp.setattr(solver_module, "komlos_extract", spy)
        for seed in range(3):
            for op in workloads.proof_cyclic(seed, tmp_path).ops:
                op.run()
    # bench/ leaves sys.path above; its modules leave the import cache here,
    # so no later import of the same name finds them
    for name in set(sys.modules) - loaded:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == bench:
            del sys.modules[name]
    return seqs


def test_extract_is_bit_equal_to_the_greedy_loop(monkeypatch, tmp_path,
                                                 doubling_means, cyclic_means):
    paths = _ExtractionPaths(monkeypatch)
    tols = (1e-3, 0.05, 0.3, 2.0)
    seen = []
    records = _proof_cyclic_sequences(tmp_path)
    assert len(records) >= 60
    # the certificate carries every record of the benchmark's solves
    assert {paths.path(seq, 0.05) for seq in records} == {"certified"}
    for seq in records[::4]:
        seen += [paths.path(seq, tol) for tol in tols]
    # the doubling means hold 16384 cells: the reference loop takes about
    # 0.8 s there at any tol that admits most candidates
    seen += [paths.path(doubling_means, tol) for tol in tols[:2]]
    seen += [paths.path(cyclic_means[1], tol) for tol in tols]
    rng = np.random.default_rng(12)
    spaces = [GridFunction.zero(level) for level in range(2, 9)]
    spaces += [CoordPoint(t, np.zeros(m)) for t in (1.1, 1.5, 1.9) for m in (4, 64)]
    for space in spaces:
        # 4 candidates at n = 8, 62 at n = 300 (the 1023 cyclic means give 63)
        for n in (8, 13, 40, int(rng.integers(100, 300)), 300):
            seq = _clustered_rows(rng, space, n)
            seen += [paths.path(seq, tol) for tol in tols]
    assert paths.path([GridFunction.zero(3)] * 7, 0.05) == "refused"
    counts = {path: seen.count(path) for path in set(seen)}
    assert set(counts) == {"certified", "looped", "signed_zero"}, counts


def test_extract_ties_join_in_index_order():
    # the last of 24 terms is 0, and the first two candidates, terms 12 and
    # 13, lie at -u and +u, as far from it as each other: the earlier one
    # joins first and draws the median to its side, where three more terms
    # wait, on the sequence and on its mirror image alike
    u = 2.0 ** -7
    values = np.array([0.5] * 12 + [-u, u] + [-1.5 * u, 1.5 * u] * 3 + [0.5] * 3 + [0.0])
    for sign in (1.0, -1.0):
        seq = [GridFunction(0, [v]) for v in sign * values]
        got = _extraction(komlos_extract, seq, u)
        assert got == _extraction(_reference_komlos_extract, seq, u)
        assert got[0] == [12, 14, 16, 18]
        assert np.frombuffer(got[2]).tolist() == [-1.5 * u * sign]


def test_extract_certificate_admits_a_bound_equal_to_tol(monkeypatch):
    # one cell of width 1 holding 0 or 0.25: every bound is exactly 0.25
    seq = [GridFunction(0, [0.25 * (i % 2)]) for i in range(16)]
    paths = _ExtractionPaths(monkeypatch)
    assert paths.path(seq, 0.25) == "certified"
    assert paths.path(seq, np.nextafter(0.25, 0.0)) == "looped"


# ---------------------------------------------------------------------------
# build_afps_record


def test_record_residuals_obey_diameter_law(cyclic_means):
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 128)
    assert len(rec.points) == len(rec.residuals) == 128
    for s, r in enumerate(rec.residuals, start=1):
        assert r <= 2.0 / s + 1e-12
    assert rec.limit is not None
    assert rec.limit_quality <= 0.05


def test_record_radius_and_spread_agree(cyclic_means):
    x0, _ = cyclic_means
    rec = build_afps_record(CyclicShift(UnitBall(6)), x0, 128)
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
            rec = AfpsRecord(means, [0.0] * n)
            for wf in (0.3, 0.5, 1.0):
                loops = [limsup_tail([norm(y - p) for p in means], wf) for y in ys]
                if wf == 0.5:
                    assert [rec.radius_from(y) for y in ys] == loops
                assert _phi_values(ys, means, wf).tolist() == loops


def _point_means(points):
    """Running means of points, one point add per term, each sum scaled by
    1/s: the arithmetic that ``running_means`` must reproduce on rows."""
    means, total = [], None
    for s, p in enumerate(points, start=1):
        total = p if total is None else total + p
        means.append(total * (1.0 / s))
    return means


def _orbit_loop_record(T, x0, n):
    """Means and residuals of build_afps_record from the whole orbit list:
    the running means of orbit[1:m+1] and norm(orbit[1] - orbit[s+1]) / s."""
    orb = [x0]
    try:
        for _ in range(n + 1):
            orb.append(T.apply(orb[-1]))
    except MassOverflowError:
        pass
    m = len(orb) - 2
    residuals = [norm(orb[1] - orb[s + 1]) / s for s in range(1, m + 1)]
    return _point_means(orb[1:m + 1]), residuals


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
        rec = build_afps_record(T, x0, n)
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


def _priced_step(T, C, x0, eps, records, **kwargs):
    """proof_step handed each record's radius from ``x0``, priced as solve
    prices it, and a seeded generator."""
    return proof_step(T, C, x0, eps, records, rng=np.random.default_rng(0),
                      radii=[rec.radius_from(x0) for rec in records], **kwargs)


def test_proof_step_contracts_cyclic_radius():
    ball = UnitBall(6)
    T = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(3))
    rec = build_afps_record(T, x0, 512)
    eps = admissible_eps(1.0, 1.0)
    w, report = _priced_step(T, ball, x0, eps, [rec], mean_lip=1.0, t_coeff=1.0)
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
    rec = dataclasses.replace(build_afps_record(T, x0, 512), limit=x0)
    eps = admissible_eps(1.0, 1.0)
    w, report = _priced_step(T, ball, x0, eps, [rec], mean_lip=1.0, t_coeff=1.0)
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
    rec = build_afps_record(T, one, 200)
    w, report = _priced_step(T, simplex, one, 0.1, [rec], mean_lip=1.0,
                             t_coeff=2.0)
    assert report.r_after <= 0.9 * report.r_before + 1e-6
    assert simplex.membership(w, 1e-7)


def test_proof_step_requires_detected_limit(cyclic_means):
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 128)
    blind = AfpsRecord(rec.points, rec.residuals, None, None)
    with pytest.raises(BranchConditionError, match="no record detected"):
        _priced_step(CyclicShift(ball), ball, x0, 0.1, [blind],
                     mean_lip=1.0, t_coeff=1.0)


def test_proof_step_rejects_target_overshoot(cyclic_means):
    # An absurd recentering coefficient shrinks the contraction target rho
    # below what any detected limit can meet: the step must refuse rather
    # than return an uncertified point.
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 128)
    with pytest.raises(BranchConditionError, match="no branch within rho"):
        _priced_step(CyclicShift(ball), ball, x0, 0.1, [rec],
                     mean_lip=1.0, t_coeff=1000.0)


def test_proof_step_reads_the_radii_it_is_handed():
    # solve prices each record's radius once and hands the list over; the
    # step must come out as if it had priced them itself
    ball = UnitBall(6)
    T = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(3))
    recs = [build_afps_record(T, x0, n) for n in (64, 512)]
    radii = [rec.radius_from(x0) for rec in recs]
    eps = admissible_eps(1.0, 1.0)
    w, report = _priced_step(T, ball, x0, eps, recs, mean_lip=1.0, t_coeff=1.0)
    w2, report2 = proof_step(T, ball, x0, eps, recs, mean_lip=1.0, t_coeff=1.0,
                             rng=np.random.default_rng(0), radii=radii)
    assert w2.array.tobytes() == w.array.tobytes()
    assert report2 == report
    assert report.r_before == min(radii)
    with pytest.raises(ValueError, match="one radius per record"):
        proof_step(T, ball, x0, eps, recs, mean_lip=1.0, t_coeff=1.0,
                   rng=np.random.default_rng(0), radii=radii[:1])


def test_proof_step_validation(cyclic_means):
    x0, _ = cyclic_means
    ball = UnitBall(6)
    rec = build_afps_record(CyclicShift(ball), x0, 32)
    with pytest.raises(ValueError, match="eps"):
        _priced_step(CyclicShift(ball), ball, x0, 0.0, [rec],
                     mean_lip=1.0, t_coeff=1.0)
    with pytest.raises(ValueError, match="at least one afps record"):
        _priced_step(CyclicShift(ball), ball, x0, 0.1, [],
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
        def map_array(self, space, v, out):
            y = v ** 2
            out[...] = y / float(y.mean())
            return out

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


# ---------------------------------------------------------------------------
# cesaro_solve against the point-object march it streams


def _reference_cesaro_solve(T, C, x0=None, *, tol=1e-8, n_max=4096, seed=0,
                            membership_tol=1e-6, measure_tol=0.02,
                            trace_points=256):
    """The march on point objects: every mean, difference and running sum
    is a validated point.  cesaro_solve must give the same outcome, float
    for float.  Its tolerances and trace length are the solver's constants
    written out, so that a change to one of them shows here."""
    assert (MEMBERSHIP_TOL, MEASURE_TOL) == (membership_tol, measure_tol)
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = T.default_start(rng)
    problem = C.violation(x0, 1e-7)
    if problem is not None:
        raise DomainError(f"starting point outside the body: {problem}")
    diagnostics = {"applications": 0, "n_max": n_max}
    trace = []
    keep_every = max(1, n_max // trace_points)

    def classify(reason):
        status, limit, diag = classify_escape(T, C, x0)
        diagnostics["applications"] += diag.pop("applications", 0)
        diagnostics.update(diag)
        diagnostics["stop_reason"] = reason
        residual = None if limit is None else _safe_residual(T, limit)
        _fill_measure_column(trace, limit)
        return SolveOutcome(status, limit, residual, trace, diagnostics)

    try:
        first = T.apply(x0)
    except MassOverflowError:
        diagnostics["applications"] = 0
        return classify("orbit cannot move from the starting point")
    apps = 1
    orbit_pt = first
    total = first
    best_residual = math.inf
    s = 1
    while s <= n_max:
        z = total * (1.0 / s)
        try:
            nxt = T.apply(orbit_pt, check_domain=False)
        except MassOverflowError:
            diagnostics["applications"] = apps
            return classify(f"orbit ran out of tracked slots at step {s + 1}")
        apps += 1
        residual = norm(first - nxt) / s
        best_residual = min(best_residual, residual)
        if s % keep_every == 0 or residual <= tol or s == n_max:
            trace.append({"s": s, "residual": residual, "norm": norm(z),
                          "point": z})
        if residual <= tol:
            direct = _safe_residual(T, z)
            apps += 1
            diagnostics["applications"] = apps
            if (direct is not None and direct <= max(tol, residual + 1e-12)
                    and C.membership(z, membership_tol) and not T.is_saturated(z)):
                diagnostics["stopped_at"] = s
                _fill_measure_column(trace, z)
                return SolveOutcome(FIXED, z, direct, trace, diagnostics)
            return classify("candidate mean failed verification")
        if norm(nxt - orbit_pt) == 0.0:
            pin = nxt
            gap = norm(first - pin)
            needed = math.inf if gap == 0.0 else gap / tol
            diagnostics["orbit_pinned_at"] = s + 1
            diagnostics["means_needed_for_tol"] = needed
            diagnostics["applications"] = apps
            if not T.is_saturated(pin):
                residual_pin = _safe_residual(T, pin)
                apps += 1
                diagnostics["applications"] = apps
                if (residual_pin is not None and residual_pin <= tol
                        and C.membership(pin, membership_tol)):
                    _fill_measure_column(trace, pin)
                    return SolveOutcome(FIXED, pin, residual_pin, trace,
                                        diagnostics)
            return classify("orbit pinned by the mesh floor; later means are "
                            "artifacts")
        total = total + nxt
        orbit_pt = nxt
        s += 1
    diagnostics["applications"] = apps
    diagnostics["best_residual"] = best_residual
    return classify(f"no mean reached tol within n_max={n_max}")


def _assert_same_outcome(got, want, label):
    assert got.status == want.status, label
    assert type(got.point) is type(want.point), label
    if want.point is not None:
        assert got.point.array.tobytes() == want.point.array.tobytes(), label
    assert got.residual == want.residual, label
    assert got.diagnostics == want.diagnostics, label
    assert got.trace == want.trace, label


_CATALOG_PAIRS = {
    "identity/density_simplex": (IdentityOperator, DensitySimplex),
    "doubling/density_simplex": (DoublingShift, DensitySimplex),
    "cyclic/density_simplex": (CyclicShift, DensitySimplex),
    "cyclic/cone_hull(0.5)": (CyclicShift, lambda level: ConeHull(0.5, level)),
    "cyclic/ball": (CyclicShift, UnitBall),
    "retraction/cone_hull(0)": (NormalizingRetraction,
                                lambda level: ConeHull(0.0, level)),
    "retraction_compose/cone_hull(0)": (RetractionDoubling,
                                        lambda level: ConeHull(0.0, level)),
}


@pytest.mark.parametrize("pair", sorted(_CATALOG_PAIRS))
def test_streamed_march_matches_the_point_loop(pair):
    make_op, make_body = _CATALOG_PAIRS[pair]
    for level in range(3, 9):
        C = make_body(level)
        T = make_op(C)
        for seed in range(5):
            for n_max in (64, 4096):
                label = (pair, level, seed, n_max)
                _assert_same_outcome(cesaro_solve(T, C, seed=seed, n_max=n_max),
                                     _reference_cesaro_solve(T, C, seed=seed,
                                                             n_max=n_max),
                                     label)


@pytest.mark.parametrize("t", [1.1, 1.5, 1.9])
def test_streamed_bump_march_matches_the_point_loop(t):
    bump = BumpSimplex(t, 64)
    T = BumpShift(bump)
    for seed in range(5):
        for n_max in (64, 4096):
            _assert_same_outcome(cesaro_solve(T, bump, seed=seed, n_max=n_max),
                                 _reference_cesaro_solve(T, bump, seed=seed,
                                                         n_max=n_max),
                                 (t, seed, n_max))


class _Scaling(AffineOperator):
    """x -> factor * x on the ball: a linear map whose orbit overflows."""

    name = "scaling"

    def __init__(self, domain, factor):
        self.domain = domain
        self.factor = factor
        self.calls = 0

    def _transform(self, x):
        self.calls += 1
        return x * self.factor


class _DropShift(AffineOperator):
    """Shift right, dropping the last cell: every orbit stops at zero, a
    fixed point that is not a mesh artifact."""

    name = "drop_shift"

    def __init__(self, domain):
        self.domain = domain

    def _transform(self, x):
        out = np.zeros_like(x.values)
        out[1:] = x.values[:-1]
        return x.like(out)


class _SaturatedFlip(AffineOperator):
    """x -> -x with every point declared a mesh artifact, so the mean that
    clears tol fails its verification."""

    name = "saturated_flip"

    def __init__(self, domain):
        self.domain = domain

    def _transform(self, x):
        return -x

    def is_saturated(self, x):
        return True


def test_streamed_march_matches_the_point_loop_on_every_exit():
    sub = ConeHull(0.0, 10)
    ball = UnitBall(4)
    fine = UnitBall(3)
    cases = [
        # seed 33: the composite's orbit never pins, so the march runs to n_max
        (RetractionDoubling(sub), sub, None, 33, "no mean reached tol"),
        (_DropShift(ball), ball, None, 0, None),
        (_SaturatedFlip(ball), ball, None, 0, "candidate mean failed verification"),
        # halving one cell: the step from 2**-1071 to 2**-1072 has norm
        # 2**-1075, which rounds to zero, so the orbit pins while it still
        # moves
        (_Scaling(fine, 0.5), fine, GridFunction(3, np.eye(8)[0]), 0, None),
    ]
    for T, C, x0, seed, reason in cases:
        for n_max in (64, 4096):
            got = cesaro_solve(T, C, x0, seed=seed, n_max=n_max)
            _assert_same_outcome(got, _reference_cesaro_solve(T, C, x0, seed=seed,
                                                              n_max=n_max),
                                 (T.name, n_max))
            if reason is not None:
                assert got.diagnostics["stop_reason"].startswith(reason)
            elif n_max == 4096:
                assert got.status == FIXED and "orbit_pinned_at" in got.diagnostics
    assert cesaro_solve(cases[-1][0], fine, cases[-1][2]).point.values[0] == 2.0 ** -1072


class _AllOfSpace(ConvexBody):
    """The whole level-1 grid: no constraint, so orbits may grow to the
    float limit."""

    name = "all"

    def violation(self, x, tol=1e-9):
        return None


class _QuarterTurn(AffineOperator):
    """(a, b) -> (b, -a) on two cells: from (a, 0) the orbit runs through
    (0, -a), (-a, 0), (0, a), so T x0 - T**3 x0 = (0, -2a) is the first
    difference to overflow when a > max/2."""

    name = "quarter_turn"

    def __init__(self, domain):
        self.domain = domain
        self.calls = 0

    def _transform(self, x):
        self.calls += 1
        return x.like(np.array([x.values[1], -x.values[0]]))


def _applications_until_refused(solver, T, C, x0, n_max):
    with pytest.raises(ValueError, match="must be finite"):
        solver(T, C, x0, n_max=n_max)
    return T.calls


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_streamed_march_refuses_an_overflow_at_the_same_step():
    ball = UnitBall(2)
    x0 = GridFunction(2, np.array([1.0, -0.5, 0.25, -1.0]))

    def applications(solver, factor, n_max):
        return _applications_until_refused(solver, _Scaling(ball, factor), ball,
                                           x0, n_max)

    # doubling: the running sum overflows one step before an orbit point;
    # n_max puts that add on the last step of the march
    n_max = 1022
    calls = applications(_reference_cesaro_solve, 2.0, n_max)
    assert calls == n_max + 1
    assert applications(cesaro_solve, 2.0, n_max) == calls
    # one step fewer and the march ends before the sum overflows
    _assert_same_outcome(cesaro_solve(_Scaling(ball, 2.0), ball, x0, n_max=n_max - 1),
                         _reference_cesaro_solve(_Scaling(ball, 2.0), ball, x0,
                                                 n_max=n_max - 1),
                         "doubling one step short")
    # x -> -1.5 x: the step T**(s+1) x0 - T**s x0 overflows first
    calls = applications(_reference_cesaro_solve, -1.5, 4096)
    assert calls < 4096
    assert applications(cesaro_solve, -1.5, 4096) == calls
    # the residual difference T x0 - T**(s+1) x0 overflows first
    everything = _AllOfSpace()
    big = GridFunction(1, np.array([0.6 * np.finfo(float).max, 0.0]))
    calls = _applications_until_refused(_reference_cesaro_solve,
                                        _QuarterTurn(everything), everything, big, 64)
    assert calls == 3
    assert _applications_until_refused(cesaro_solve, _QuarterTurn(everything),
                                       everything, big, 64) == calls


class _Capped(ConvexBody):
    """Grid points whose first cell holds at most ``cap``: a constraint
    that a rotation breaks when a large cell comes round, and that an orbit
    growing toward the float limit breaks one step before it overflows, or
    not at all, as ``cap`` is set."""

    name = "capped"

    def __init__(self, cap):
        self.cap = cap

    def violation(self, x, tol=1e-9):
        head = float(x.values[0])
        return None if head <= self.cap else f"first cell {head:.17g} above the cap"


def _on(T, domain):
    """``T`` with its domain swapped for ``domain``, past the constructor's
    checks."""
    T.domain = domain
    return T


class _NoLastSlot(ConvexBody):
    """The bump simplex without its last slot: the point that BumpShift
    refuses to shift breaks this body first."""

    name = "no_last_slot"

    def __init__(self, inner):
        self.inner = inner

    def violation(self, x, tol=1e-9):
        if x.coeffs[-1] != 0.0:
            return f"last slot holds {x.coeffs[-1]:.6g}"
        return self.inner.violation(x, tol)


def _record_outcome(build, T, x0, n):
    """What ``build`` gives: the means' bytes and the residuals, or the
    type and message of what it raised."""
    try:
        means, residuals = build(T, x0, n)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return np.stack([p.array for p in means]).tobytes(), tuple(residuals)


def _streamed(T, x0, n):
    rec = build_afps_record(T, x0, n)
    return rec.points, rec.residuals


def _point_loop(T, x0, n):
    means, residuals = _orbit_loop_record(T, x0, n)
    if not means:
        raise ExtendSequenceError("orbit ended before the first residual")
    return means, residuals


def _assert_same_record_outcome(T, x0, n, want=None):
    got = _record_outcome(_streamed, T, x0, n)
    assert got == _record_outcome(_point_loop, T, x0, n), (T.name, n)
    if want is not None:
        assert got[0] == want, (T.name, n, got)
    return got


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_record_fails_mid_orbit_as_the_point_loop():
    # The maps below are stated on points (the _Scaling test maps) or on
    # arrays (the catalog maps), over catalog bodies, whose constraints are
    # stated on rows, or test bodies stated on points.
    rng = np.random.default_rng(31)
    # maps that leave the domain after a few steps; at level 12 a block is
    # 4 rows, so the failing row falls at every place in one
    for level in (3, 12):
        ball = UnitBall(level)
        for start in np.linspace(0.55, 0.95, 9):
            x0 = ball.sample(rng)
            x0 = x0 * (start / norm(x0))
            # norm(x0) * 1.1**s passes 1 at s <= 7; the message names it
            got = _assert_same_record_outcome(_Scaling(ball, 1.1), x0, 40, "DomainError")
            assert "exceeds 1" in got[1]
            # T**(n+1) x0 is priced but never mapped, so it may leave the ball
            for n in range(1, 8):
                _assert_same_record_outcome(_Scaling(ball, 1.1), x0, n)
        for step in range(1, 8):
            # the rotation brings the 2.0 into the first cell at that step
            x0 = GridFunction(level, np.eye(2 ** level)[-step] * 2.0)
            got = _assert_same_record_outcome(_on(CyclicShift(ball), _Capped(1.5)),
                                              x0, 40, "DomainError")
            assert got[1].endswith("first cell 2 above the cap")
    # maps whose image overflows: powers of 2**100 from 1, and the doubling
    # of 2**1021 in every cell, whose third image is 2**1024
    everything = _AllOfSpace()
    x0 = GridFunction(1, np.array([1.0, -0.5]))
    high = GridFunction(3, np.full(8, 2.0 ** 1021))
    cases = [(lambda body: _Scaling(body, 2.0 ** 100), x0, 2.0 ** 900, 2.0 ** 1000),
             (lambda body: _on(DoublingShift(DensitySimplex(3)), body), high,
              2.0 ** 1022, 2.0 ** 1023)]
    for make, start, before, last in cases:
        _assert_same_record_outcome(make(everything), start, 40, "ValueError")
        # the domain error of the last finite row comes before the
        # finiteness error of the next one
        for cap, want in ((before / 2, "DomainError"), (before, "DomainError"),
                          (last, "ValueError"), (np.finfo(float).max, "ValueError")):
            _assert_same_record_outcome(make(_Capped(cap)), start, 40, want)
    # a running sum that overflows while every orbit point stays finite
    big = GridFunction(1, np.array([0.6 * np.finfo(float).max, 0.0]))
    assert _assert_same_record_outcome(_Scaling(everything, 1.0), big, 40,
                                       "ValueError")[1] == "values must be finite"
    # a BumpShift overflow on the first and the last row of a block: the
    # step that overflows is slots - 1 - (top occupied slot)
    bumps = BumpSimplex(1.5, 1024)
    block = max(1, PHI_BLOCK_FLOATS // bumps.slots)
    for step in (1, 2, block, block + 1, 2 * block, 2 * block + 1, 5 * block):
        top = bumps.slots - 1 - step
        x0 = CoordPoint(1.5, np.r_[np.full(top + 1, 1.0 / (top + 1)),
                                   np.zeros(bumps.slots - top - 1)])
        for n in (step - 1, step, step + 3):
            if n < 1:
                continue
            got = _assert_same_record_outcome(BumpShift(bumps), x0, n)
            if step == 1:
                assert got[0] == "ExtendSequenceError"
            else:
                assert len(got[1]) == min(n, step - 1)
        # the row that would overflow breaks the domain first: no truncation
        got = _assert_same_record_outcome(_on(BumpShift(bumps), _NoLastSlot(bumps)),
                                          x0, step + 3, "DomainError")
        assert "last slot holds" in got[1]


# ---------------------------------------------------------------------------
# the orbit loops moved onto orbit_rows, against the point loops they replace


def _point_orbit(T, x0, count):
    """[x0, T x0, ..., T**count x0] by T.apply without domain checks."""
    pts = [x0]
    for _ in range(count):
        pts.append(T.apply(pts[-1], check_domain=False))
    return pts


def _reference_affinity_defect(T, rng, *, pairs=100,
                               lambdas=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """affinity_defect on point objects: T.apply on each start and mixture."""
    worst = 0.0
    for _ in range(pairs):
        x = T.default_start(rng)
        y = T.default_start(rng)
        tx = T.apply(x)
        ty = T.apply(y)
        for lam in lambdas:
            mixed = T.apply(lam * x + (1.0 - lam) * y)
            worst = max(worst, norm(mixed - (lam * tx + (1.0 - lam) * ty)))
    return worst


def _reference_classify_escape(T, C, x0, *, membership_tol=1e-6, measure_tol=0.02):
    """classify_escape on point objects: the orbit by T.apply, the restart
    means by one point add per term.  Its tolerances are the solver's
    constants written out."""
    assert (MEMBERSHIP_TOL, MEASURE_TOL) == (membership_tol, measure_tol)
    faithful = T.max_faithful_steps(x0)
    span = 96 if faithful is None else min(faithful, 96)
    pts = [x0]
    overflow = False
    try:
        for _ in range(span):
            pts.append(T.apply(pts[-1], check_domain=False))
    except MassOverflowError:
        overflow = True
    n = len(pts) - 1
    diag = {"applications": n, "faithful_steps": faithful, "overflow": overflow}
    if n < 8:
        diag["note"] = f"orbit usable for only {n} steps; no restart window fits"
        return BUDGET, None, diag
    base = n // 2
    step = max(1, n // 8)
    offsets = [min(base + i * step, n - 3) for i in range(3)]
    seg_len = min(5, n - offsets[-1])
    limits = [_median_point(_point_means(pts[off + 1:off + seg_len + 1]))
              for off in offsets]
    stability = max(measure_distance(a, b) for a in limits for b in limits)
    limit = limits[-1]
    zero = 0.0 * x0
    diag.update({
        "offsets": offsets,
        "segment_length": seg_len,
        "restart_stability": stability,
        "limit_measure_to_zero": measure_distance(limit, zero),
    })
    if stability <= measure_tol:
        problem = C.violation(limit, membership_tol)
        if problem is not None:
            diag["violation"] = problem
            return ESCAPED, limit, diag
        diag["note"] = ("restart limits agree and stay in the body; "
                        "residuals simply did not reach tol in budget")
        return BUDGET, limit, diag
    diag["note"] = "restart limits disagree in measure; no stable limit detected"
    return BUDGET, None, diag


def _reference_lipschitz_estimate(T, n, rng, *, pairs=64, include_witnesses=True):
    """lipschitz_estimate on point objects: each orbit by T.apply."""
    candidates = []
    for _ in range(pairs):
        candidates.append((T.domain.sample(rng), T.domain.sample(rng)))
    if include_witnesses:
        for x, y in T.witness_pairs():
            if T.domain.membership(x, tol=1e-7) and T.domain.membership(y, tol=1e-7):
                candidates.append((x, y))
    best = None
    for x, y in candidates:
        gap = norm(x - y)
        if gap <= 1e-12:
            continue
        try:
            tx = _point_orbit(T, x, n)[-1]
            ty = _point_orbit(T, y, n)[-1]
        except MassOverflowError:
            continue
        best = max(best or 0.0, norm(tx - ty) / gap)
    if best is None:
        raise ValueError("all sampled pairs were degenerate or unusable")
    return best


def _outcome(run, T):
    """What ``run()`` gives, with the maps a counting operator made, or the
    type and message of what it raised.  Points are compared by bytes."""
    T.calls = 0
    try:
        got = run()
    except Exception as exc:
        return type(exc).__name__, str(exc), T.calls
    if isinstance(got, tuple):
        status, limit, diag = got
        got = (status, type(limit), None if limit is None else limit.array.tobytes(),
               diag)
    return got, T.calls


def _assert_same_outcome_as(reference, streamed, T, *args, seed=None, want=None,
                            **kwargs):
    """``streamed`` and its point-loop ``reference`` on the same arguments,
    followed, when ``seed`` is given, by an rng of that seed for each;
    returns the streamed outcome."""
    def run(fn):
        rng = () if seed is None else (np.random.default_rng(seed),)
        return _outcome(lambda: fn(T, *args, *rng, **kwargs), T)

    got = run(streamed)
    assert got == run(reference), (T.name, got)
    if want is not None:
        assert got[0] == want, (T.name, got)
    return got


def _drawing(body, points):
    """``body`` whose sampler draws from ``points``, by the rng."""
    body.sample = lambda rng, **kw: points[int(rng.integers(len(points)))]
    return body


class _Shell(ConvexBody):
    """Grid points of norm at least ``r``, sampled on the unit sphere: not
    convex, so a mixture of two samples can leave it."""

    name = "shell"

    def __init__(self, level, r):
        self.level = level
        self.r = r

    def sample(self, rng):
        x = UnitBall(self.level).sample(rng)
        return x * (1.0 / norm(x))

    def violation(self, x, tol=1e-9):
        return None if norm(x) >= self.r - tol else f"norm {norm(x):.17g} below {self.r}"


class _DoubleOrRefuse(AffineOperator):
    """x -> 2 x on two cells, refusing a point whose last cell is not 0 as
    BumpShift does: the refusal and an image that overflows fall on
    different points of one affinity check."""

    name = "double_or_refuse"

    def __init__(self, domain):
        self.domain = domain

    def map_array(self, space, v, out):
        if v[-1] != 0.0:
            raise MassOverflowError(f"{self.name}: last cell holds {v[-1]:.6g}")
        return np.multiply(v, 2.0, out=out)


class _FlipAtZero(AffineOperator):
    """x -> -x where the first cell is 0, else x: not affine, and the gap
    of a mixture that lands on 0 doubles its size."""

    name = "flip_at_zero"

    def __init__(self, domain):
        self.domain = domain

    def map_array(self, space, v, out):
        np.multiply(v, -1.0 if v[0] == 0.0 else 1.0, out=out)
        return out


def test_affinity_defect_is_bit_equal_to_the_point_loop():
    cases = [(make_op, make_body, level)
             for make_op, make_body in _CATALOG_PAIRS.values() for level in range(3, 9)]
    for make_op, make_body, level in cases:
        T = make_op(make_body(level))
        for seed in range(3):
            got = _assert_same_outcome_as(_reference_affinity_defect, affinity_defect,
                                          T, seed=seed, pairs=8)
            assert got[0] <= 1e-9, (T.name, level)
    for t in (1.1, 1.5, 1.9):
        T = BumpShift(BumpSimplex(t, 64))
        for seed in range(3):
            _assert_same_outcome_as(_reference_affinity_defect, affinity_defect,
                                    T, seed=seed, pairs=8)
    # the rng is left where the point loop leaves it
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    T = CyclicShift(UnitBall(5))
    assert affinity_defect(T, a, pairs=3) == _reference_affinity_defect(T, b, pairs=3)
    assert a.random() == b.random()
    assert affinity_defect(T, a, pairs=0) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_affinity_defect_fails_as_the_point_loop():
    # The maps are stated on arrays (catalog maps, _FlipAtZero) or on points
    # (_Scaling), over catalog bodies, whose constraints are stated on rows,
    # or test bodies stated on points.  Each case runs over several seeds,
    # so the failing point falls at different places among the pairs.
    level = 4
    rng = np.random.default_rng(41)
    ball = UnitBall(level)
    inside = [ball.sample(rng) for _ in range(5)]
    outside = [p * (1.5 / norm(p)) for p in inside[:2]]
    top = np.finfo(float).max
    high = [GridFunction(1, np.array([2.0 ** e, 2.0 ** e])) for e in (1021, 1022, 1023)]
    near = [GridFunction(1, np.array([1.0, -0.9 * top])),
            GridFunction(1, np.array([-1.0, -0.9 * top]))]
    mixed = [GridFunction(1, np.array(v)) for v in ([2.0 ** 1023, 0.0], [1.0, 1.0])]
    full = [CoordPoint(1.5, np.full(16, 1.0 / 16)), coord_basis(1.5, 16, 3)]
    refused = [GridFunction(1, np.array([0.5, 3.0]))]
    cases = [
        # a start outside the ball, on the rows of a catalog body and on the
        # points of a test body
        (CyclicShift(_drawing(UnitBall(level), inside + outside)), {}, "DomainError"),
        (_on(CyclicShift(ball), _drawing(_Capped(1.5), inside + outside)), {}, None),
        # a mixture that leaves a body which is not convex
        (_on(CyclicShift(ball), _Shell(level, 0.9)), {}, "DomainError"),
        # the map refuses a start with mass in the last slot
        (BumpShift(_drawing(BumpSimplex(1.5, 16), full)), {}, "MassOverflowError"),
        # an image that overflows, from an array map and from a point map
        (_on(DoublingShift(DensitySimplex(1)), _drawing(_AllOfSpace(), high)), {},
         "ValueError"),
        (_Scaling(_drawing(_AllOfSpace(), high), 4.0), {}, "ValueError"),
        # a mixture that overflows before it is checked
        (IdentityOperator(_drawing(_AllOfSpace(), high)), {"lambdas": (0.5, 2.0)},
         "ValueError"),
        # a gap that overflows while every image is finite
        (_FlipAtZero(_drawing(_AllOfSpace(), near)), {}, "ValueError"),
        # an image that overflows against a refusal of the map, either first
        (_DoubleOrRefuse(_drawing(_AllOfSpace(), mixed)), {}, None),
        # a start outside the ball that the map refuses too: the domain
        # error comes first
        (_DoubleOrRefuse(_drawing(UnitBall(1), refused)), {}, "DomainError"),
    ]
    # the domain error of a row against the overflow of an image, either first
    for cap in (2.0 ** 1021, 2.0 ** 1022, 2.0 ** 1023):
        cases.append((_on(DoublingShift(DensitySimplex(1)), _drawing(_Capped(cap), high)),
                      {}, None))
    for T, kwargs, want in cases:
        raised = {_assert_same_outcome_as(_reference_affinity_defect, affinity_defect, T,
                                          seed=seed, pairs=4, want=want, **kwargs)[0]
                  for seed in range(12)}
        if T.name == "double_or_refuse" and want is None:
            assert raised == {"ValueError", "MassOverflowError"}


class _BlindShift(BumpShift):
    """BumpShift without a faithful horizon: its orbits run until the mass
    reaches the last slot."""

    name = "blind_shift"

    def max_faithful_steps(self, x):
        return None


def test_restart_diagnosis_is_bit_equal_to_the_point_loop():
    for pair in sorted(_CATALOG_PAIRS):
        make_op, make_body = _CATALOG_PAIRS[pair]
        for level in range(3, 9):
            C = make_body(level)
            T = make_op(C)
            rng = np.random.default_rng(level)
            for x0 in [T.default_start(rng) for _ in range(3)] + [C.zero_point()]:
                if C.violation(x0, 1e-7) is None:
                    _assert_same_outcome_as(_reference_classify_escape, classify_escape,
                                            T, C, x0)
    # BumpShift orbits that stop short of their overflow, and ones that
    # overflow at steps from 0 to past 96, with no faithful horizon to stop
    # them; then the doubling orbit from its constant density
    for t in (1.1, 1.5, 1.9):
        bump = BumpSimplex(t, 128)
        for top in (0, 3, 10, 40, 90, 110, 120, 126, 127):
            x0 = CoordPoint(t, np.r_[np.full(top + 1, 1.0 / (top + 1)),
                                     np.zeros(127 - top)])
            for T in (BumpShift(bump), _BlindShift(bump)):
                got = _assert_same_outcome_as(_reference_classify_escape,
                                              classify_escape, T, bump, x0)
                diag = got[0][3]
                assert diag["overflow"] == (T.name == "blind_shift" and 127 - top < 96)
                assert diag["applications"] == min(127 - top, 96)
    simplex = DensitySimplex(10)
    _assert_same_outcome_as(_reference_classify_escape, classify_escape,
                            DoublingShift(simplex), simplex, GridFunction.constant(1.0, 10))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_restart_diagnosis_fails_as_the_point_loop():
    ball = UnitBall(3)
    x0 = GridFunction(3, np.linspace(-1.0, 1.0, 8) / 4.0)
    huge = x0 * (0.9 * np.finfo(float).max)
    refused = []
    for factor in (2.0 ** 100, -(2.0 ** 20), 1.0, -1.0):
        for start in (x0, huge):
            got = _assert_same_outcome_as(_reference_classify_escape, classify_escape,
                                          _Scaling(_AllOfSpace(), factor), ball, start)
            if got[0] == "ValueError":
                assert got[1] == "values must be finite"
                refused.append((factor, start is huge, got[2]))
    # orbit points that overflow at steps 11 and 52, or at the first step
    # from the huge start, and a constant orbit whose restart sum overflows
    # once all 96 steps are made
    assert refused == [(2.0 ** 100, False, 11), (2.0 ** 100, True, 1),
                       (-(2.0 ** 20), False, 52), (-(2.0 ** 20), True, 1),
                       (1.0, True, 96)]


def test_lipschitz_estimate_is_bit_equal_to_the_point_loop():
    for make_op, make_body in _CATALOG_PAIRS.values():
        for level in (3, 6, 8):
            T = make_op(make_body(level))
            for n in (1, 2, 5, 8):
                _assert_same_outcome_as(_reference_lipschitz_estimate, lipschitz_estimate,
                                        T, n, seed=n, pairs=6)
    # short bump spaces: many sampled pairs overflow and are skipped
    for slots in (4, 16, 64):
        T = BumpShift(BumpSimplex(1.5, slots))
        for n in (1, 3, 8, 20):
            _assert_same_outcome_as(_reference_lipschitz_estimate, lipschitz_estimate,
                                    T, n, seed=slots + n, pairs=16)
    # every pair overflows
    got = _assert_same_outcome_as(_reference_lipschitz_estimate, lipschitz_estimate,
                                  BumpShift(BumpSimplex(1.5, 4)), 4, seed=0, pairs=4)
    assert got[0] == "ValueError"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_lipschitz_estimate_fails_as_the_point_loop():
    ball = UnitBall(3)
    outcomes = []
    for factor, n in ((2.0 ** 100, 12), (2.0 ** 100, 9), (-(2.0 ** 300), 4)):
        outcomes.append(_assert_same_outcome_as(
            _reference_lipschitz_estimate, lipschitz_estimate, _Scaling(ball, factor), n,
            seed=n, pairs=3))
    # an orbit overflows at step 11 of the first pair, none of them in 9
    # steps, and one at step 4 under the larger factor
    assert outcomes[0] == ("ValueError", "values must be finite", 11)
    assert isinstance(outcomes[1][0], float) and outcomes[1][1] == 54
    assert outcomes[2] == ("ValueError", "values must be finite", 4)
    # a pair is skipped when the orbit of x runs out of slots, before the
    # orbit of y, which overflows, is marched
    body = _drawing(_AllOfSpace(), [GridFunction(1, np.array(v))
                                    for v in ([1.0, 1.0], [2.0 ** 1023, 0.0])])
    messages = {_assert_same_outcome_as(_reference_lipschitz_estimate, lipschitz_estimate,
                                        _DoubleOrRefuse(body), 2, seed=seed, pairs=1)[1]
                for seed in range(12)}
    assert messages == {"values must be finite",
                        "all sampled pairs were degenerate or unusable"}


def test_practical_march_and_restarts_build_no_orbit_points(monkeypatch):
    # The orbit loops run on rows: T.apply is left to the start and to the
    # direct residual of a point that the solver reports.
    calls = []
    apply = AffineOperator.apply

    def counted(self, x, **kwargs):
        calls.append(self.name)
        return apply(self, x, **kwargs)

    monkeypatch.setattr(AffineOperator, "apply", counted)
    for level in (6, 7, 8):
        ball = UnitBall(level)
        calls.clear()
        out = cesaro_solve(CyclicShift(ball), ball, seed=0)
        assert out.status == FIXED
        assert out.diagnostics["stopped_at"] == 2 ** level
        assert out.diagnostics["applications"] == 2 ** level + 2
        # the direct residual of the mean that cleared tol
        assert calls == ["cyclic"], level
    for make_op, make_body in _CATALOG_PAIRS.values():
        C = make_body(8)
        T = make_op(C)
        rng = np.random.default_rng(0)
        calls.clear()
        classify_escape(T, C, T.default_start(rng))
        affinity_defect(T, rng, pairs=8)
        assert calls == [], T.name


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_record_refuses_an_overflowing_sum_with_the_point_class_error():
    # the running sum of a constant orbit overflows: the point loop's sum
    # of coordinate points is refused by CoordPoint, with its own message
    top = 0.6 * np.finfo(float).max
    for start, message in ((GridFunction(1, np.array([top, 0.0])), "values"),
                           (CoordPoint(1.5, np.array([top, 0.0])), "coeffs")):
        got = _assert_same_record_outcome(_Scaling(_AllOfSpace(), 1.0), start, 40,
                                          "ValueError")
        assert got[1] == f"{message} must be finite"


def test_retraction_is_the_constant_sum_elementwise():
    rng = np.random.default_rng(11)
    for level in range(13):
        sub = ConeHull(0.0, level)
        R = NormalizingRetraction(sub)
        for _ in range(4):
            f = sub.sample(rng)
            old = f + GridFunction.constant(1.0 - f.integral(), f.level)
            assert R.apply(f).values.tobytes() == old.values.tobytes(), level
