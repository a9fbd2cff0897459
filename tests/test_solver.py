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
    afps_residual,
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
from fptlab.coefficients import GATE_MARGIN, fixed_point_gate
from fptlab.grid import window_length
from fptlab.operators import AFFINITY_LAMBDAS, AFFINITY_PAIRS
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
    # only the candidates are priced: of 16 terms, the trailing window 8..15
    zero, big = GridFunction.zero(12), GridFunction.constant(2e9, 12)
    late = [zero] * 15 + [big]
    with pytest.raises(ValueError, match="not bounded"):
        komlos_extract(late, extraction_tol=1e-3)
    inside = [zero] * 10 + [big] + [zero] * 5
    with pytest.raises(ValueError, match="not bounded"):
        komlos_extract(inside, extraction_tol=1e-3)
    # a term before the window is never read
    early = [zero] * 3 + [big] + [zero] * 12
    idx, limit = komlos_extract(early, extraction_tol=1e-3)
    assert idx == list(range(8, 16)) and not limit.array.any()


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
    start = n - window_length(n)
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


def _bench_calls(tmp_path, workload, seeds, target, names=None):
    """The arguments, (args, kwargs), with which the benchmark's
    ``workload`` at ``seeds`` calls ``solver.<target>``, over its
    operations named in ``names``, or over all of them."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    calls = []
    real = getattr(solver_module, target)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    loaded = set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(bench))
        import workloads

        mp.setattr(solver_module, target, spy)
        for seed in seeds:
            for op in getattr(workloads, workload)(seed, tmp_path).ops:
                if names is None or op.name in names:
                    op.run()
    # bench/ leaves sys.path above; its modules leave the import cache here,
    # so no later import of the same name finds them
    for name in set(sys.modules) - loaded:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == bench:
            del sys.modules[name]
    return calls


def _proof_cyclic_sequences(tmp_path):
    """The sequences that the benchmark's proof_cyclic solves hand to
    komlos_extract at seeds 0-2: every record's means and every mean
    branch's means of means."""
    return [args[0] for args, _ in _bench_calls(tmp_path, "proof_cyclic", range(3),
                                                 "komlos_extract")]


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
    T = CyclicShift(ball)
    rec = build_afps_record(T, x0, 128)
    assert len(rec.points) == 128
    orbit = [x0]
    for _ in range(129):
        orbit.append(T.apply(orbit[-1]))
    for s, z in enumerate(rec.points, start=1):
        # the affine two-point identity prices the residual of the s-th mean
        r = norm(orbit[1] - orbit[s + 1]) / s
        assert r <= 2.0 / s + 1e-12
        assert abs(afps_residual(T, z) - r) <= 1e-9
    assert rec.limit is not None
    # the limit lies within the extraction tolerance of every selected mean
    idx, limit = komlos_extract(rec.points, extraction_tol=0.05)
    assert limit.array.tobytes() == rec.limit.array.tobytes()
    assert measure_distances(limit, rec.points.take(idx)).max() <= 0.05


def test_record_radius_and_spread_agree(cyclic_means):
    x0, _ = cyclic_means
    rec = build_afps_record(CyclicShift(UnitBall(6)), x0, 128)
    assert rec.radius_from(rec.limit) == rec.limit_spread()
    blind = AfpsRecord(rec.points)
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
        # every run of 1 to 40 means, so that each window length is read
        for n in [*range(1, 41), int(rng.integers(41, 600))]:
            scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            means = [space.like(row) for row in rng.standard_normal((n, size)) * scale]
            ys = [space.like(rng.standard_normal(size)) for _ in range(3)]
            rows = np.stack([(ys[0] - p).array for p in means])
            assert space.row_norms(rows).tolist() == [norm(ys[0] - p) for p in means]
            rec = AfpsRecord(means)
            loops = [limsup_tail([norm(y - p) for p in means]) for y in ys]
            assert [rec.radius_from(y) for y in ys] == loops
            assert _phi_values(ys, means).tolist() == loops


def _point_means(points):
    """Running means of points, one point add per term, each sum scaled by
    1/s: the arithmetic that ``running_means`` must reproduce on rows."""
    means, total = [], None
    for s, p in enumerate(points, start=1):
        total = p if total is None else total + p
        means.append(total * (1.0 / s))
    return means


def _orbit_loop_record(T, x0, n):
    """The means of build_afps_record from the whole orbit list: the running
    means of the orbit less its start and its last point."""
    orb = [x0]
    try:
        for _ in range(n + 1):
            orb.append(T.apply(orb[-1]))
    except MassOverflowError:
        pass
    return _point_means(orb[1:len(orb) - 1])


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
        means = _orbit_loop_record(T, x0, n)
        assert len(rec.points) == len(means), T.name
        assert rec.points.rows.tobytes() == np.stack([z.array for z in means]).tobytes()
        # the point objects are built once, from the rows
        assert all(a is b for a, b in zip(rec.points, rec.points))
        assert [p.array.tobytes() for p in rec.points] == [z.array.tobytes() for z in means]
        assert dataclasses.replace(rec, limit=None).points is rec.points
        assert (_phi_values(rec.points[-40:], rec.points).tolist()
                == _phi_values(means[-40:], means).tolist())
        if len(means) < 8:
            continue
        try:
            idx, limit = komlos_extract(means, extraction_tol=0.05)
        except ExtendSequenceError:
            assert rec.limit is None
            continue
        assert komlos_extract(rec.points, extraction_tol=0.05)[0] == idx
        assert rec.limit.array.tobytes() == limit.array.tobytes()
    assert len(build_afps_record(shift, cases[-2][1], 100).points) == 47


def test_record_validation():
    T = IdentityOperator(DensitySimplex(3))
    with pytest.raises(ValueError, match="n_inner"):
        build_afps_record(T, GridFunction.constant(1.0, 3), 0)
    with pytest.raises(ValueError, match="at least one mean"):
        AfpsRecord(())


# ---------------------------------------------------------------------------
# admissible_eps


def test_admissible_eps_cyclic_value():
    # mean_lip 1, recentering 1, duality sum 2: the quadratic root is
    # sqrt(5) - 2 and the returned parameter is half of it
    eps = admissible_eps(1.0, 1.0)
    assert eps == pytest.approx((math.sqrt(5.0) - 2.0) / 2.0, abs=1e-12)
    assert eps == pytest.approx(0.1180339887498949, abs=1e-12)


def test_admissible_eps_none_when_gate_closed():
    assert admissible_eps(2.0, 1.0) is None
    assert admissible_eps(1.0, 2.0) is None
    assert admissible_eps(2.0, 1.5) is None


def _halving_admissible_eps(mean_lip, t_coeff, opial=2.0):
    """admissible_eps as it was before it read ``fixed_point_gate``: its own
    q >= 1 test, a halving loop and the 1e-12 floor.  The reference of the
    bit-equality sweep."""
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


def test_admissible_eps_opens_exactly_where_the_gate_does():
    # products below, at and above the bound 2, and inside
    # (1 - GATE_MARGIN, 1) of it, where the gate is shut
    rng = np.random.default_rng(23)
    ts = [1.0, 1.1, 1.25, 1.5, 1.75, 1.9, 2.0, *rng.uniform(0.5, 4.0, 40)]
    rel = [-0.9, -0.5, -1e-3, -1e-6, -1e-8, -2 * GATE_MARGIN,
           -1.000001 * GATE_MARGIN, -GATE_MARGIN, -0.999999 * GATE_MARGIN,
           -0.5 * GATE_MARGIN, -1e-12, -1e-15, 0.0, 1e-15, 1e-9, 1e-3, 1.0,
           *(-GATE_MARGIN * rng.uniform(0.0, 1.0, 40))]
    inside = 0
    for t in ts:
        for r in rel:
            m = 2.0 * (1.0 + r) / t
            gate = fixed_point_gate(m, t)
            assert (admissible_eps(m, t) is None) is (not gate), (m, t)
            inside += 2.0 * (1.0 - GATE_MARGIN) < m * t < 2.0
    assert inside >= 40 * len(ts)
    m = 2.0 * (1.0 - 5e-10)
    assert not fixed_point_gate(m, 1.0) and admissible_eps(m, 1.0) is None


def _rationalized_eps(mean_lip, t_coeff):
    """Half the root 2(1 - q) / (sqrt(1 + 8q) + 2q + 1), q = m t / 2."""
    q = mean_lip * t_coeff / 2.0
    return (1.0 - q) / (math.sqrt(1.0 + 8.0 * q) + 2.0 * q + 1.0)


def test_admissible_eps_bit_equal_to_the_halving_loop():
    # from q = 1/16 on, every eps of an open gate is the closed form's, bit
    # for bit: the halving loop never ran there; below it the closed form
    # cancels and eps is half the rationalized root
    rng = np.random.default_rng(29)
    qs = np.concatenate([10.0 ** rng.uniform(-18.0, 0.0, 3000),
                         1.0 - 10.0 ** rng.uniform(-15.0, -1.0, 3000)])
    ts = 10.0 ** rng.uniform(-3.0, 3.0, qs.size)
    opened = below = 0
    for q, t in zip(qs.tolist(), ts.tolist()):
        m = 2.0 * q / t
        got = admissible_eps(m, t)
        if not fixed_point_gate(m, t):
            assert got is None, (m, t)
            continue
        assert got is not None, (m, t)
        opened += 1
        if m * t / 2.0 < 0.0625:
            below += 1
            ref = _rationalized_eps(m, t)
        else:
            ref = _halving_admissible_eps(m, t)
        assert got == ref, (m, t, got, ref)
    assert opened >= 4000 and below >= 2000
    assert admissible_eps(1.0, 1.0) == 0.1180339887498949
    assert admissible_eps(1.0, 1.5) == _halving_admissible_eps(1.0, 1.5)


def test_admissible_eps_does_not_cancel_at_small_growth():
    # a growth near 0 gives eps near 1/2, where the closed form's
    # difference would cancel to 0.444 (1e-15) or to nothing (1e-16 on)
    for m in (1e-15, 1e-16, 4e-17, 1e-17):
        assert fixed_point_gate(m, 1.0)
        eps = admissible_eps(m, 1.0)
        assert eps is not None and abs(eps - 0.5) <= 1e-14, (m, eps)
        assert m < 2.0 * (1.0 - eps) / (1.0 + eps) ** 2


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


def test_gate_refuses_coefficients_that_are_not_finite_and_positive():
    # one check in fixed_point_gate, which admissible_eps reads first: a
    # negative growth must not open the gate, nor a NaN close it
    for bad in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0), (1.0, bad)):
            for gate in (fixed_point_gate, admissible_eps):
                with pytest.raises(ValueError, match="finite and positive"):
                    gate(*args)


# ---------------------------------------------------------------------------
# proof_step


def _priced_step(T, C, x0, eps, records, **kwargs):
    """proof_step handed each record's radius from ``x0``, priced as solve
    prices it."""
    return proof_step(T, C, x0, eps, records,
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
    assert report.phi_min is not None
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
    blind = AfpsRecord(rec.points)
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
                             radii=radii)
    assert w2.array.tobytes() == w.array.tobytes()
    assert report2 == report
    assert report.r_before == min(radii)
    with pytest.raises(ValueError, match="one radius per record"):
        proof_step(T, ball, x0, eps, recs, mean_lip=1.0, t_coeff=1.0,
                   radii=radii[:1])


class _WitnessLessBall(UnitBall):
    """The unit ball with no closed-form recenter witness."""

    def _recenter_witness(self, x):
        return None


def test_a_body_without_a_witness_ends_in_diagnosis():
    # without a witness the step refuses, and solve diagnoses as it does for
    # any failed certificate
    ball = _WitnessLessBall(6)
    T = CyclicShift(ball)
    x0 = ball.sample(np.random.default_rng(3))
    refusal = "no recenter point in ball: no closed-form witness"
    rec = build_afps_record(T, x0, 512)
    with pytest.raises(BranchConditionError, match=f"^{refusal}$"):
        _priced_step(T, ball, x0, admissible_eps(1.0, 1.0), [rec],
                     mean_lip=1.0, t_coeff=1.0)
    out = solve(T, ball, x0)
    assert out.status == BUDGET
    assert out.diagnostics["branch_failure"] == refusal


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


def test_both_solvers_reject_a_start_of_another_level():
    ball = UnitBall(8)
    x0 = GridFunction.constant(0.5, 4)
    for run in (solve, cesaro_solve):
        with pytest.raises(DomainError,
                           match="starting point outside the body: expected a level-8"):
            run(CyclicShift(ball), ball, x0)


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


def test_every_body_without_t_exact_gets_a_verdict():
    # solve brackets t from the default drift family; at level 4 no family
    # drifts, and the cap t <= 2 closes the gate for the rotation
    for level in range(4, 10):
        for body, t in ((UnitBall(level), 1.0), (ConeHull(0.5, level), 1.5)):
            body.t_exact = None
            out = solve(CyclicShift(body), body)
            diag = out.diagnostics
            if level == 4:
                assert (out.status, diag["t_source"], diag["t_coeff"]) == \
                    (BUDGET, "cap", 2.0), body.name
                assert "gate closed" in diag["branch_failure"]
            else:
                assert (out.status, diag["t_source"]) == (FIXED, "measured"), \
                    (level, body.name)
                assert abs(diag["t_coeff"] - t) <= 1e-9, (level, body.name)


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
                            trace_points=256, floor_cycles=True):
    """The march on point objects: every mean, difference and running sum
    is a validated point.  cesaro_solve must give the same outcome, float
    for float.  Its tolerances and trace length are the solver's constants
    written out, so that a change to one of them shows here.  With
    ``floor_cycles`` off, an orbit that returns to a saturated row marches
    on, as the solver did before it stopped there."""
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
    # orbit rows F, 2F, 4F, ... past the horizon F become the anchor; the
    # orbit repeats from a row that equals it
    horizon = T.max_faithful_steps(x0) if floor_cycles else None
    anchor, anchor_row = None, horizon
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
        cycle = (anchor is not None and nxt.array.tobytes() == anchor.array.tobytes()
                 and T.is_saturated(nxt))
        if horizon is not None and s + 1 >= anchor_row:
            anchor, anchor_row = nxt, 2 * (s + 1)
        if norm(nxt - orbit_pt) == 0.0 or cycle:
            pin = nxt
            gap = norm(first - pin)
            # no number of means brings a gap above 0 to tol = 0
            needed = gap / tol if tol > 0.0 else math.inf
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


class _SlowTurn(AffineOperator):
    """Rotation of the plane of two cells by 2 pi / ``period``: an orbit
    that never returns exactly, never pins, and whose residual stays far
    above tol for ``period`` steps."""

    name = "slow_turn"

    def __init__(self, domain, period):
        self.domain = domain
        self.c, self.s = math.cos(2 * math.pi / period), math.sin(2 * math.pi / period)

    def _transform(self, x):
        a, b = x.values
        return x.like(np.array([self.c * a - self.s * b, self.s * a + self.c * b]))


class _FloorFlip(AffineOperator):
    """Shift one cell right; mass in the last cell flips its sign.  Unit
    mass reaches the last cell and then alternates between +1 and -1 there,
    a period-2 cycle whose two rows price the same gap.  ``horizon`` is the
    operator's faithful step count, where the march takes its first anchor;
    with ``saturated`` the rows with all their mass in the last cell are
    mesh artifacts."""

    name = "floor_flip"

    def __init__(self, domain, horizon, saturated=True):
        self.domain = domain
        self.horizon = horizon
        self.saturated = saturated

    def _transform(self, x):
        out = np.zeros_like(x.values)
        out[1:] = x.values[:-1]
        out[-1] -= x.values[-1]
        return x.like(out)

    def max_faithful_steps(self, x):
        return self.horizon

    def is_saturated(self, x):
        return self.saturated and not x.values[:-1].any()


def test_streamed_march_matches_the_point_loop_on_every_exit():
    sub = ConeHull(0.0, 10)
    ball = UnitBall(4)
    fine = UnitBall(3)
    everything = _AllOfSpace()
    cases = [
        # a rotation whose period exceeds every n_max: the march runs to n_max
        (_SlowTurn(everything, 5000), everything, GridFunction(1, np.array([1.0, 0.0])),
         0, "no mean reached tol"),
        # seed 33: the composite's orbit never pins exactly, but returns to
        # its saturated row 20 at row 25, so the march ends on that cycle
        (RetractionDoubling(sub), sub, None, 33, "orbit pinned by the mesh floor"),
        # a cycle of rows that are no artifacts is marched through
        (_FloorFlip(ball, 3, saturated=False), ball, GridFunction(4, 16 * np.eye(16)[13]),
         0, "no mean reached tol"),
        (_DropShift(ball), ball, None, 0, None),
        (_SaturatedFlip(ball), ball, None, 0, "candidate mean failed verification"),
        # halving one cell: the step from 2**-1071 to 2**-1072 has norm
        # 2**-1075, which rounds to zero, so the orbit pins while it still
        # moves
        (_Scaling(fine, 0.5), fine, GridFunction(3, np.eye(8)[0]), 0, None),
    ]
    for T, C, x0, seed, reason in cases:
        # at n_max = 1000 the trace keeps every third mean, and the last one
        # for being the last
        for n_max in (64, 1000, 4096):
            got = cesaro_solve(T, C, x0, seed=seed, n_max=n_max)
            _assert_same_outcome(got, _reference_cesaro_solve(T, C, x0, seed=seed,
                                                              n_max=n_max),
                                 (T.name, n_max))
            if reason is not None:
                assert got.diagnostics["stop_reason"].startswith(reason)
            elif n_max == 4096:
                assert got.status == FIXED and "orbit_pinned_at" in got.diagnostics
    assert cesaro_solve(cases[-1][0], fine, cases[-1][2]).point.values[0] == 2.0 ** -1072
    assert cesaro_solve(cases[1][0], sub, seed=33).diagnostics["orbit_pinned_at"] == 25
    unruled = _reference_cesaro_solve(cases[1][0], sub, seed=33, floor_cycles=False)
    assert unruled.diagnostics["stop_reason"].startswith("no mean reached tol")


def test_underflowing_steps_pin_at_the_reference_step():
    # halving unit mass in the first cell of a level-L ball: the step from
    # 2**-(s+1) to 2**-s weighs 2**-(s+1+L) in norm, which rounds to zero
    # while the rows still differ, so the orbit pins at row 1075 - L; the
    # gaps there agree to far below 2**-20 of their size, so the step screen
    # must price those steps, not vouch for them
    for level in (1, 2, 4):
        ball = UnitBall(level)
        x0 = GridFunction(level, np.eye(2 ** level)[0])
        for n_max in (64, 1000, 4096):
            got = cesaro_solve(_Scaling(ball, 0.5), ball, x0, n_max=n_max)
            want = _reference_cesaro_solve(_Scaling(ball, 0.5), ball, x0, n_max=n_max)
            _assert_same_outcome(got, want, (level, n_max))
        assert got.status == FIXED
        assert got.diagnostics["orbit_pinned_at"] == 1075 - level
        assert got.point.values[0] == 2.0 ** -(1075 - level)


def test_pinned_orbit_at_tol_zero_needs_infinitely_many_means():
    # the doubling orbit reaches the mesh floor of level 6 and pins there;
    # at tol = 0 no number of means clears the gap, so the horizon is inf
    C = DensitySimplex(6)
    T = DoublingShift(C)
    got = cesaro_solve(T, C, tol=0.0)
    _assert_same_outcome(got, _reference_cesaro_solve(T, C, tol=0.0), "tol 0")
    assert got.status == BUDGET
    assert got.diagnostics["means_needed_for_tol"] == math.inf
    assert got.diagnostics["stop_reason"].startswith("orbit pinned by the mesh floor")


def _verdict(outcome):
    point = None if outcome.point is None else outcome.point.array.tobytes()
    return outcome.status, point, outcome.residual


def test_key_nine_composite_ends_on_its_floor_cycle(tmp_path):
    # the benchmark's level-12 composite start on which the orbit never
    # pins exactly: its verdict is the one of the march through all 4096
    # means, which it no longer takes
    (args, kwargs), = _bench_calls(tmp_path, "catalog_verdicts", (0,), "cesaro_solve",
                                   {"retraction_compose/cone_hull(0)/practical"})
    got = cesaro_solve(*args, **kwargs)
    full = _reference_cesaro_solve(*args, **kwargs, floor_cycles=False)
    assert full.diagnostics["applications"] > 4096
    assert _verdict(got) == _verdict(full)
    assert got.status == BUDGET and got.point is not None
    assert got.diagnostics["stop_reason"] == ("orbit pinned by the mesh floor; "
                                              "later means are artifacts")
    T, x0 = args[0], args[2]
    pinned = got.diagnostics["orbit_pinned_at"]
    assert pinned < 256 and T.max_faithful_steps(x0) == 12
    assert got.diagnostics["applications"] < 256
    assert got.diagnostics["means_needed_for_tol"] > 0.0
    assert "best_residual" not in got.diagnostics


@pytest.mark.parametrize("make_op", [RetractionDoubling, DoublingShift])
def test_floor_cycles_move_no_verdict(make_op):
    # the rule only ends marches whose later means are artifacts: every
    # verdict is the one of the march that never looks for a cycle
    for level in range(6, 13):
        C = ConeHull(0.0, level) if make_op is RetractionDoubling else DensitySimplex(level)
        T = make_op(C)
        for seed in range(20):
            got = cesaro_solve(T, C, seed=seed)
            _assert_same_outcome(got, _reference_cesaro_solve(T, C, seed=seed),
                                 (T.name, level, seed))
            assert _verdict(got) == _verdict(_reference_cesaro_solve(
                T, C, seed=seed, floor_cycles=False)), (T.name, level, seed)


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


def _refused_by_the_reference(make_op, C, x0, n_max):
    """The reference march refuses an overflow: its operator calls, less
    the one of T x0, name the step it refused at.  Returns that step and
    the error's type and message."""
    T = make_op()
    with pytest.raises(ValueError, match="must be finite") as info:
        _reference_cesaro_solve(T, C, x0, n_max=n_max)
    return T.calls - 1, type(info.value), str(info.value)


def _assert_refused_at_step(make_op, C, x0, n_max, step, error, label):
    """cesaro_solve maps up to a block past the step it stops at, so its
    calls do not count its steps; ``n_max`` pins the step instead.  It
    refuses with the reference's error at ``n_max`` and at ``n_max = step``,
    and one step earlier gives the reference outcome."""
    for limit in (n_max, step):
        with pytest.raises(ValueError) as info:
            cesaro_solve(make_op(), C, x0, n_max=limit)
        assert (type(info.value), str(info.value)) == error, (label, limit)
    _assert_same_outcome(cesaro_solve(make_op(), C, x0, n_max=step - 1),
                         _reference_cesaro_solve(make_op(), C, x0, n_max=step - 1),
                         (label, step - 1))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_streamed_march_refuses_an_overflow_at_the_same_step():
    ball = UnitBall(2)
    x0 = GridFunction(2, np.array([1.0, -0.5, 0.25, -1.0]))

    def scaling(factor):
        return lambda: _Scaling(ball, factor)

    # doubling: the running sum overflows one step before an orbit point;
    # n_max puts that add on the last step of the march
    n_max = 1022
    step, *error = _refused_by_the_reference(scaling(2.0), ball, x0, n_max)
    assert step == n_max
    _assert_refused_at_step(scaling(2.0), ball, x0, n_max, step, tuple(error),
                            "doubling")
    # x -> -1.5 x: the step T**(s+1) x0 - T**s x0 overflows first
    step, *error = _refused_by_the_reference(scaling(-1.5), ball, x0, 4096)
    assert step < 4095
    _assert_refused_at_step(scaling(-1.5), ball, x0, 4096, step, tuple(error),
                            "x -> -1.5 x")
    # the residual difference T x0 - T**(s+1) x0 overflows first
    everything = _AllOfSpace()
    big = GridFunction(1, np.array([0.6 * np.finfo(float).max, 0.0]))

    def turn():
        return _QuarterTurn(everything)

    step, *error = _refused_by_the_reference(turn, everything, big, 64)
    assert step == 2
    _assert_refused_at_step(turn, everything, big, 64, step, tuple(error),
                            "quarter turn")


class _ScalingBelow(_Scaling):
    """x -> factor * x, refusing a point whose first cell lies above
    ``ceiling``: an error of the map at a chosen step."""

    name = "scaling_below"

    def __init__(self, domain, factor, ceiling):
        super().__init__(domain, factor)
        self.ceiling = ceiling

    def _transform(self, x):
        if x.values[0] > self.ceiling:
            raise ValueError(f"first cell above {self.ceiling!r}")
        return super()._transform(x)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_march_refuses_an_overflowed_sum_before_a_later_exit():
    # on two cells a block runs up to n_max rows, after the blocks of 1, 2,
    # 4, ... rows, so blocks start at the steps 1, 2, 4, ..., 64, 128.  The
    # sum overflows at a step between 112, the last kept trace row before
    # 128 (every 16th), and 128, and the map refuses T**128 x0, the first
    # row of the next block: the point loop refuses the sum first, and so
    # must the march
    everything = _AllOfSpace()
    factor = 1.0 + 2.0 ** -30
    x0 = GridFunction(1, np.array([np.finfo(float).max / 120.5, 0.0]))
    orbit = [x0]
    for _ in range(127):
        orbit.append(_Scaling(everything, factor).apply(orbit[-1]))

    def refusing_from(step):
        # the map refuses T**step x0, and so every later orbit point
        return lambda: _ScalingBelow(everything, factor, float(orbit[step - 1].values[0]))

    step, *error = _refused_by_the_reference(refusing_from(128), everything, x0, 4096)
    assert 112 < step < 128
    assert tuple(error) == (ValueError, "values must be finite")
    with pytest.raises(ValueError) as info:
        cesaro_solve(refusing_from(128)(), everything, x0, n_max=4096)
    assert (type(info.value), str(info.value)) == tuple(error)
    # a map that refuses T**64 x0, the first row of the block before, does
    # so while the sum is still finite: its error comes first
    with pytest.raises(ValueError, match="first cell above"):
        _reference_cesaro_solve(refusing_from(64)(), everything, x0, n_max=4096)
    with pytest.raises(ValueError, match="first cell above"):
        cesaro_solve(refusing_from(64)(), everything, x0, n_max=4096)
    # three cells of 0.4 max shifted right: the sum's cell 3 overflows at
    # step 2, before the orbit pins at zero (four cells) or runs out of
    # slots (eight), and before any kept trace row
    c = 0.4 * np.finfo(float).max
    for T, x0 in ((_DropShift(everything), GridFunction(2, np.array([c, c, c, 0.0]))),
                  (_PushOut(everything), GridFunction(3, np.r_[c, c, c, np.zeros(5)]))):
        with pytest.raises(ValueError) as want:
            _reference_cesaro_solve(T, everything, x0, n_max=4096)
        with pytest.raises(ValueError) as got:
            cesaro_solve(T, everything, x0, n_max=4096)
        assert str(got.value) == str(want.value) == "values must be finite", T.name


class _PartialTurn(AffineOperator):
    """Rotate the first ``m`` cells by one place and keep the rest: the
    orbit has period m, so T x0 = T**(m+1) x0 and the residual is exactly 0
    at s = m, a tol stop at a chosen step.  ``saturated`` declares every
    point a mesh artifact, so that the mean fails its verification."""

    name = "partial_turn"

    def __init__(self, domain, m, saturated=False):
        self.domain = domain
        self.m = m
        self.saturated = saturated

    def _transform(self, x):
        v = x.values.copy()
        v[:self.m] = np.roll(v[:self.m], 1)
        return x.like(v)

    def is_saturated(self, x):
        return self.saturated


class _PushOut(AffineOperator):
    """Shift one cell right; mass in the last cell has nowhere to go, and
    the map raises MassOverflowError, as a coordinate shift that runs out of
    tracked slots does."""

    name = "push_out"

    def __init__(self, domain):
        self.domain = domain

    def _transform(self, x):
        if x.values[-1] != 0.0:
            raise MassOverflowError("mass reached the last cell")
        out = np.zeros_like(x.values)
        out[1:] = x.values[:-1]
        return x.like(out)


class _HalveAbove(AffineOperator):
    """x -> x / 2, refusing a point whose first cell lies below ``floor``:
    an error that a march meets only if it maps past its stop."""

    name = "halve_above"

    def __init__(self, domain, floor):
        self.domain = domain
        self.floor = floor

    def _transform(self, x):
        if x.values[0] < self.floor:
            raise ValueError(f"first cell below {self.floor!r}")
        return x * 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_block_march_matches_the_point_loop_at_every_offset(tmp_path):
    level = 10
    cells = 2 ** level
    # the march's block: its gap buffer of 2 PHI_BLOCK_FLOATS floats
    block = 2 * PHI_BLOCK_FLOATS // cells
    ball = UnitBall(level)
    everything = _AllOfSpace()
    unit = np.eye(cells)
    rng = np.random.default_rng(5)
    # blocks of 1, 2, ..., block / 2 rows come first, so full blocks start
    # at the steps that ``block`` divides: the march stops on every row of a
    # full block in turn at the steps block + 1 to 2 * block
    steps = range(block + 1, 2 * block + 1)
    # the step that each march stops at, or refuses at
    stops = {}

    def same(T, C, x0, label, **kwargs):
        got = cesaro_solve(T, C, x0, **kwargs)
        want = _reference_cesaro_solve(T, C, x0, **kwargs)
        _assert_same_outcome(got, want, label)
        return want.diagnostics

    for step in steps:
        x0 = GridFunction(level, np.where(np.arange(cells) < step,
                                          rng.uniform(-1.0, 1.0, cells), 0.0))
        # a tol stop, and the same mean failing its verification
        diag = same(_PartialTurn(ball, step), ball, x0, ("tol", step))
        stops.setdefault("tol", set()).add(diag["stopped_at"])
        diag = same(_PartialTurn(ball, step, saturated=True), ball, x0,
                    ("verification", step))
        assert diag["stop_reason"] == "candidate mean failed verification"
        # unit mass that reaches the last cell after step - 1 moves: the
        # drop shift pins at zero one step later, the push-out overflows
        mass = GridFunction(level, cells * unit[cells - step])
        diag = same(_DropShift(ball), ball, mass, ("pin", step))
        stops.setdefault("pin", set()).add(diag["orbit_pinned_at"] - 1)
        diag = same(_PushOut(ball), ball, mass, ("overflow", step))
        assert diag["stop_reason"].startswith("orbit ran out of tracked slots")
        stops.setdefault("overflow", set()).add(
            int(diag["stop_reason"].split()[-1]) - 1)
        # unit mass two cells before the last enters the flip cycle at row
        # 2; the anchor, row step - 1, comes back at row step + 1, two rows
        # after its negative priced the same gap
        flip = _FloorFlip(ball, step - 1)
        diag = same(flip, ball, GridFunction(level, cells * unit[cells - 3]),
                    ("floor cycle", step))
        assert diag["stop_reason"].startswith("orbit pinned by the mesh floor")
        stops.setdefault("floor cycle", set()).add(diag["orbit_pinned_at"] - 1)
        # x -> x / 2 from unit mass in the first cell: the residual
        # (1/2 - 2**-(s+1)) / s falls below tol at ``step``, and the map
        # refuses the next orbit point, which the march never takes
        r = [(0.5 - 2.0 ** -(s + 1)) / s for s in (step - 1, step)]
        tol = (r[0] + r[1]) / 2
        halve = _HalveAbove(ball, cells * 2.0 ** -step)
        diag = same(halve, ball, GridFunction(level, cells * unit[0]),
                    ("error past the stop", step), tol=tol)
        stops.setdefault("error past the stop", set()).add(diag["stopped_at"])
        # a running sum that overflows
        big = GridFunction(level, unit[0] * np.finfo(float).max / (step + 0.5))

        def scaling():
            return _Scaling(everything, 1.0 + 2.0 ** -30)

        refused, *error = _refused_by_the_reference(scaling, everything, big, 4096)
        _assert_refused_at_step(scaling, everything, big, 4096, refused,
                                tuple(error), ("sum overflow", step))
        stops.setdefault("sum overflow", set()).add(refused)
        # c on ``step`` of 3 * step turning cells: x0 - T**s x0 holds
        # 2 min(s, step) cells of +-c up to s = 2 * step, so the residual
        # numerator's norm overflows on finite rows from ``step`` on, and the
        # march goes on past those rows to the period, where it stops
        c = np.finfo(float).max / (2 * step - 1)
        turn = _PartialTurn(everything, 3 * step)
        x0 = GridFunction(level, np.where(np.arange(cells) < step, c, 0.0))
        diag = same(turn, everything, x0, ("norm overflow", step))
        assert diag["stopped_at"] == 3 * step
        # T x0, ..., T**(s+1) x0 up to the first s whose numerator overflows
        orbit = [turn.apply(x0, check_domain=False)]
        while math.isfinite(norm(orbit[0] - orbit[-1])):
            orbit.append(turn.apply(orbit[-1], check_domain=False))
        stops.setdefault("norm overflow", set()).add(len(orbit) - 1)
    assert len(stops) == 7
    for case, seen in stops.items():
        assert {s % block for s in seen} == set(range(block)), case
    # the benchmark's longest marches at level 12, eight rows a block: the
    # rotation runs all its means, the composite ends on its floor cycle
    marches = _bench_calls(tmp_path, "catalog_verdicts", (0,), "cesaro_solve",
                           {"cyclic/ball/practical",
                            "retraction_compose/cone_hull(0)/practical"})
    assert len(marches) == 2
    (ball_args, ball_kwargs), (comp_args, comp_kwargs) = marches
    assert 2 * PHI_BLOCK_FLOATS // ball_args[2].array.size == 8
    assert 2 * PHI_BLOCK_FLOATS // comp_args[2].array.size == 8
    assert same(*ball_args, "cyclic", **ball_kwargs)["applications"] >= 4096
    diag = same(*comp_args, "retraction_compose", **comp_kwargs)
    assert diag["stop_reason"].startswith("orbit pinned by the mesh floor")


def test_level_twelve_rotation_prices_few_steps(monkeypatch, tmp_path):
    # the benchmark's level-12 march of the rotation on the ball prices one
    # gap a step; its steps move the orbit far more than rounding does, so
    # the step screen vouches for all but a few of them
    (args, kwargs), = _bench_calls(tmp_path, "catalog_verdicts", (0,), "cesaro_solve",
                                   {"cyclic/ball/practical"})
    rows = []
    abs_row_norms = GridFunction.abs_row_norms

    def counted(self, magnitudes):
        rows.append(len(magnitudes))
        return abs_row_norms(self, magnitudes)

    monkeypatch.setattr(GridFunction, "abs_row_norms", counted)
    out = cesaro_solve(*args, **kwargs)
    assert out.status == FIXED and out.diagnostics["stopped_at"] == 4096
    assert sum(rows) <= 4096 + 64


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
    """What ``build`` gives: the means' bytes and their number, or the type
    and message of what it raised."""
    try:
        means = build(T, x0, n)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return np.stack([p.array for p in means]).tobytes(), len(means)


def _streamed(T, x0, n):
    return build_afps_record(T, x0, n).points


def _point_loop(T, x0, n):
    means = _orbit_loop_record(T, x0, n)
    if not means:
        raise ExtendSequenceError("orbit ended before the first residual")
    return means


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
                assert got[1] == min(n, step - 1)
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


def _reference_affinity_defect(T, rng):
    """affinity_defect on point objects: T.apply on each start and mixture."""
    worst = 0.0
    for _ in range(AFFINITY_PAIRS):
        x = T.default_start(rng)
        y = T.default_start(rng)
        tx = T.apply(x)
        ty = T.apply(y)
        for lam in AFFINITY_LAMBDAS:
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
                                          T, seed=seed)
            assert got[0] <= 1e-9, (T.name, level)
    for t in (1.1, 1.5, 1.9):
        T = BumpShift(BumpSimplex(t, 64))
        for seed in range(3):
            _assert_same_outcome_as(_reference_affinity_defect, affinity_defect,
                                    T, seed=seed)
    # the rng is left where the point loop leaves it
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    T = CyclicShift(UnitBall(5))
    assert affinity_defect(T, a) == _reference_affinity_defect(T, b)
    assert a.random() == b.random()


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
    largest = [GridFunction(1, np.array(v)) for v in ([top, top], [top, -top],
                                                      [-top, 0.5 * top])]
    cases = [
        # a start outside the ball, on the rows of a catalog body and on the
        # points of a test body
        (CyclicShift(_drawing(UnitBall(level), inside + outside)), "DomainError"),
        (_on(CyclicShift(ball), _drawing(_Capped(1.5), inside + outside)), None),
        # a mixture that leaves a body which is not convex
        (_on(CyclicShift(ball), _Shell(level, 0.9)), "DomainError"),
        # the map refuses a start with mass in the last slot
        (BumpShift(_drawing(BumpSimplex(1.5, 16), full)), "MassOverflowError"),
        # an image that overflows, from an array map and from a point map
        (_on(DoublingShift(DensitySimplex(1)), _drawing(_AllOfSpace(), high)),
         "ValueError"),
        (_Scaling(_drawing(_AllOfSpace(), high), 4.0), "ValueError"),
        # mixtures of the largest finite points stay finite at every weight
        (IdentityOperator(_drawing(_AllOfSpace(), largest)), 0.0),
        # a gap that overflows while every image is finite
        (_FlipAtZero(_drawing(_AllOfSpace(), near)), "ValueError"),
        # an image that overflows against a refusal of the map, either first
        (_DoubleOrRefuse(_drawing(_AllOfSpace(), mixed)), None),
        # a start outside the ball that the map refuses too: the domain
        # error comes first
        (_DoubleOrRefuse(_drawing(UnitBall(1), refused)), "DomainError"),
    ]
    # the domain error of a row against the overflow of an image, either first
    for cap in (2.0 ** 1021, 2.0 ** 1022, 2.0 ** 1023):
        cases.append((_on(DoublingShift(DensitySimplex(1)), _drawing(_Capped(cap), high)),
                      None))
    for T, want in cases:
        raised = {_assert_same_outcome_as(_reference_affinity_defect, affinity_defect, T,
                                          seed=seed, want=want)[0]
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
            starts = [T.default_start(rng) for _ in range(3)]
            starts.append(starts[0].like(np.zeros(starts[0].array.size)))
            for x0 in starts:
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


def test_restart_stability_prices_each_pair_of_limits_once(monkeypatch):
    # three restart limits have three distinct pairs; with the distance to
    # zero that makes four measure_distance calls, not ten
    calls = []

    def counted(x, y):
        calls.append(1)
        return measure_distance(x, y)

    monkeypatch.setattr(solver_module, "measure_distance", counted)
    simplex = DensitySimplex(10)
    status, _, diag = classify_escape(DoublingShift(simplex), simplex,
                                      GridFunction.constant(1.0, 10))
    assert status == ESCAPED and "restart_stability" in diag
    assert len(calls) == 4


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
        affinity_defect(T, rng)
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
