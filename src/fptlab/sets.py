"""Convex bounded subsets of the function space, with recentering witnesses.

Each body knows three things: a membership test, a sampler, and a recenter
rule.  Recentering takes a point ``x`` that a sequence inside the body drifts
toward (typically a limit in measure that escaped the body) and returns a
member of the body that stays asymptotically close to the sequence.  For the
catalog bodies the recenter point comes from a closed form with a proven
distance ratio; the generic fallback scores sampled candidates and is only an
upper bound.
"""
from __future__ import annotations

import json
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    DEFAULT_TOL,
    MAX_LEVEL,
    GridFunction,
    check_level,
    limsup_tail,
    peak_sequence,
    window_length,
)

#: Most bytes that one point family may hold.  A configuration that asks for
#: more is refused with ValueError before anything is allocated.
BYTE_BUDGET = 2 ** 30

#: Most floats of temporary rows that one row reduction holds at once, such
#: as the point-minus-mean differences of ``_phi_values``; a single point
#: against a larger window is still one block.
PHI_BLOCK_FLOATS = 1 << 14

#: Sampled members that a sampled recentering or a recentering bound scores.
SAMPLED_CANDIDATES = 64


@dataclass(frozen=True, eq=False)
class CoordPoint:
    """Point of the span of disjoint unit bumps, stored by coefficients.

    Coordinate ``coeffs[k]`` multiplies the k-th bump: a unit-integral
    density supported on ``[2**-(k+1), 2**-k)``.  The first bump enters the
    norm with weight ``t - 1`` and all later ones with weight 1, so

        norm = (t - 1) * |coeffs[0]| + sum_{k >= 1} |coeffs[k]|.

    The supports shrink geometrically, which makes late coordinates almost
    invisible to the in-measure metric.
    """

    #: Point type tag in JSON payloads.
    kind = "coord"
    t: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not (1.0 < self.t < 2.0):
            raise ValueError(f"t must lie in (1, 2), got {self.t}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coeffs must be a 1-d array with at least 2 slots")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "coeffs", c)

    @property
    def slots(self) -> int:
        return int(self.coeffs.size)

    @property
    def array(self) -> np.ndarray:
        """The stored coefficients, one slot per bump."""
        return self.coeffs

    @property
    def weights(self) -> np.ndarray:
        """Norm weight of each slot: t - 1 for the first bump, 1 after."""
        w = np.ones(self.slots)
        w[0] = self.t - 1.0
        return w

    @property
    def widths(self) -> np.ndarray:
        """Measure of each slot's support: 2**-(k+1) for the k-th bump."""
        return 2.0 ** -(np.arange(self.slots) + 1)

    def like(self, array) -> CoordPoint:
        """Point of the same coordinate space holding ``array``."""
        return CoordPoint(self.t, array)

    def norm(self) -> float:
        """Weighted sum of |coeffs|: the L1 norm of the embedded bumps."""
        return float(np.abs(self.coeffs) @ self.weights)

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        """``norm`` of each row of a 2-d array of coefficients, bit-equal to
        it (see abs_row_norms)."""
        return self.abs_row_norms(np.abs(rows))

    def abs_row_norms(self, magnitudes: np.ndarray) -> np.ndarray:
        """``row_norms`` of the rows whose absolute values the 2-d array
        ``magnitudes`` holds, so that a caller may take them in place in its
        own buffer: the one row-norm rule of the coordinates.  Row by row,
        because one matrix-vector product rounds differently from a row's
        dot product in the last place."""
        w = self.weights
        return np.array([row @ w for row in magnitudes])

    def _compat(self, other: CoordPoint) -> None:
        if not isinstance(other, CoordPoint):
            raise TypeError("expected CoordPoint operands")
        if abs(self.t - other.t) > DEFAULT_TOL or self.slots != other.slots:
            raise ValueError("mixed coordinate spaces")

    def __add__(self, other: CoordPoint) -> CoordPoint:
        self._compat(other)
        return CoordPoint(self.t, self.coeffs + other.coeffs)

    def __sub__(self, other: CoordPoint) -> CoordPoint:
        self._compat(other)
        return CoordPoint(self.t, self.coeffs - other.coeffs)

    def __neg__(self) -> CoordPoint:
        return CoordPoint(self.t, -self.coeffs)

    def __mul__(self, scalar: float) -> CoordPoint:
        return CoordPoint(self.t, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def to_json(self) -> str:
        return json.dumps({"t": self.t, "coeffs": self.coeffs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> CoordPoint:
        data = json.loads(text)
        if set(data) != {"t", "coeffs"}:
            raise ValueError(f"expected keys t/coeffs, got {sorted(data)}")
        return cls(float(data["t"]), np.asarray(data["coeffs"], dtype=float))

    def __repr__(self) -> str:
        return f"CoordPoint(t={self.t}, slots={self.slots}, norm={self.norm():.6g})"


def coord_basis(t: float, slots: int, k: int) -> CoordPoint:
    """The k-th bump coordinate vector (k counts slots from 0)."""
    if not (0 <= k < slots):
        raise ValueError(f"slot {k} out of range for {slots} slots")
    c = np.zeros(slots)
    c[k] = 1.0
    return CoordPoint(t, c)


_POINT_TYPES = (GridFunction, CoordPoint)


def norm(x) -> float:
    """Norm of either point type.

    Each class keeps its own reduction: one shared expression would round
    differently from one of them in the last place.
    """
    if not isinstance(x, _POINT_TYPES):
        raise TypeError(f"unsupported point type {type(x).__name__}")
    return x.norm()


class PointRows(Sequence):
    """Points of one space stored as the rows of one read-only float array.

    ``space`` is any point of that space: it gives ``like``, ``row_norms``,
    ``weights`` and ``widths`` for the rows.  Kernels read ``rows``.  A
    slice is a PointRows of a view of the rows; an index gives a point
    object, and the point objects are all built at the first such access
    and kept, so they are built at most once.
    """

    def __init__(self, space, rows: np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != space.array.size:
            raise ValueError(f"expected rows of {space.array.size} slots, "
                             f"got shape {rows.shape}")
        rows.setflags(write=False)
        self.space = space
        self.rows = rows
        self._points = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PointRows(self.space, self.rows[index])
        if self._points is None:
            self._points = tuple(self.space.like(row) for row in self.rows)
        return self._points[index]

    def take(self, indices) -> PointRows:
        """The rows at ``indices``, in that order, as their own PointRows."""
        return PointRows(self.space, self.rows[indices])


def point_rows(points) -> PointRows:
    """``points`` as a PointRows: one as it is, any other nonempty iterable
    of points of one space stacked once."""
    if isinstance(points, PointRows):
        return points
    points = list(points)
    space = points[0]
    for p in points:
        space._compat(p)
    return PointRows(space, np.stack([p.array for p in points]))


def _phi_values(points, means) -> np.ndarray:
    """Trailing limsup of norm distances from each point to ``means``: the
    one trailing-radius kernel, over the window of ``grid.window_length``.

    Both arguments are PointRows or sequences of points of one space, as
    they must be to subtract (see point_rows).  The trailing window of the
    means is stacked once; a PointRows is sliced, not copied.  The
    differences go into one buffer of at most ``PHI_BLOCK_FLOATS`` floats
    (or one row): a block of points against the whole window, or, when the
    window alone is larger, one point against a block of window rows at a
    time, whose maxima ``np.maximum`` folds.  The buffer takes its absolute
    values in place for the point class's ``abs_row_norms``, so each entry
    is bit-equal to the limsup_tail of the norms: a max of block maxima is
    the max.  Only the window's distances are checked finite: the points
    are finite, so only a difference that overflows can fail.
    """
    window = point_rows(means[len(means) - window_length(len(means)):])
    space, W = window.space, window.rows
    n_w, cells = W.shape
    out = np.empty(len(points))
    block = max(1, PHI_BLOCK_FLOATS // W.size)
    step = min(n_w, max(1, PHI_BLOCK_FLOATS // cells))
    buf = np.empty(min(block, len(points)) * step * cells)
    for i in range(0, len(points), block):
        Z = point_rows(points[i:i + block])
        space._compat(Z.space)
        top = None
        for j in range(0, n_w, step):
            rows = W[j:j + step]
            gaps = buf[:len(Z) * rows.size].reshape(len(Z), len(rows), cells)
            np.subtract(Z.rows[:, None, :], rows[None, :, :], out=gaps)
            gaps = gaps.reshape(-1, cells)
            np.abs(gaps, out=gaps)
            peak = space.abs_row_norms(gaps).reshape(len(Z), len(rows)).max(axis=1)
            top = peak if top is None else np.maximum(top, peak)
        out[i:i + len(Z)] = top
    if not np.all(np.isfinite(out)):
        raise ValueError("terms must be finite")
    return out


def measure_distance(x, y) -> float:
    """In-measure (Ky Fan) distance: the integral of min(|x - y|, 1).

    On each slot's support the difference is constant with mass
    weight * |dx|, so the slot contributes min(weight * |dx|, width): one
    exact term per slot.  On bump coordinates this equals the grid distance
    of their exact grid images (``embed_coord`` of tests/test_sets.py).
    """
    if type(x) is not type(y) or not isinstance(x, _POINT_TYPES):
        raise TypeError("mixed or unsupported point types")
    x._compat(y)
    return float(np.minimum(x.weights * np.abs(x.array - y.array), x.widths).sum())


def measure_distances(x, points) -> np.ndarray:
    """``measure_distance`` from ``x`` to each of ``points`` (a PointRows or
    a sequence of points), bit-equal to it: |p - x| is |x - p| exactly, and
    each row is summed as one 1-d array is."""
    points = point_rows(points)
    if type(x) is not type(points.space) or not isinstance(x, _POINT_TYPES):
        raise TypeError("mixed or unsupported point types")
    x._compat(points.space)
    # min(weights * |rows - x|, widths), in place in one temporary
    d = points.rows - x.array
    np.abs(d, out=d)
    d *= x.weights
    np.minimum(d, x.widths, out=d)
    return d.sum(axis=1)


def _row_messages(n: int, *checks) -> list:
    """Per row of ``n``, the message of the first of ``checks`` that the row
    fails, else None.  Each check is a boolean array over the rows and a
    function of a row index giving its message, built only for failing rows."""
    out = [None] * n
    # later checks first, so that the first failing check has the last word
    for failed, message in reversed(checks):
        for j in failed.nonzero()[0]:
            out[j] = message(j)
    return out


class RecenterResult(NamedTuple):
    point: object
    bound_type: str  # "exact" for a certified witness, "upper" for sampled


class ConvexBody:
    """Base class: a closed bounded convex subset with sampling and recentering."""

    name: str = "body"
    diameter: float = 2.0
    #: Exact recentering coefficient when known for the catalog body.
    t_exact: float | None = None

    def violation(self, x, tol: float) -> str | None:
        """None if ``x`` belongs to the body, else a description of the
        constraint that fails.  A catalog body checks the space of ``x`` here
        (``_space_error``) and states its constraints once, on rows, in
        ``violations``: this is their one-row case."""
        raise NotImplementedError

    def _space_error(self, x) -> str | None:
        """None if ``x`` is a point of the body's space, else why not.  Only
        such a point reaches ``_recenter_witness``."""
        return None

    def violations(self, space, rows: np.ndarray, tol: float) -> list:
        """``violation`` of each row of a 2-d array of points of ``space``'s
        space, which must be one the body checks.  This fallback builds each
        point, for a body that states its constraints on points only."""
        return [self.violation(space.like(row), tol) for row in rows]

    def membership(self, x, tol: float) -> bool:
        return self.violation(x, tol) is None

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def recenter(self, x, seq, *, rng: np.random.Generator) -> RecenterResult:
        """Member of the body asymptotically close to ``seq`` given its drift
        point ``x``.  Falls back to a search over ``SAMPLED_CANDIDATES``
        members drawn from ``rng`` when no closed form applies."""
        if len(seq) == 0:
            raise ValueError("recenter needs a nonempty sequence")
        closed = None if self._space_error(x) else self._recenter_witness(x)
        if closed is not None and self.membership(closed, tol=1e-7):
            return RecenterResult(closed, "exact")
        return RecenterResult(self._recenter_sampled(x, seq, rng), "upper")

    def _recenter_witness(self, x):
        return None

    def _recenter_sampled(self, x, seq, rng):
        candidates = [self.sample(rng) for _ in range(SAMPLED_CANDIDATES)]
        if self.membership(x, tol=1e-7):
            candidates.append(x)
        # argmin picks the first of equal scores, as min(key=) does
        return candidates[int(np.argmin(_phi_values(candidates, seq)))]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class GridBody(ConvexBody):
    """Body of grid functions of one level."""

    def __init__(self, level: int):
        self.level = check_level(level)

    def _space_error(self, x) -> str | None:
        if not isinstance(x, GridFunction):
            return f"expected GridFunction, got {type(x).__name__}"
        if x.level != self.level:
            return f"expected a level-{self.level} point, got level {x.level}"
        return None

    def violation(self, x, tol: float) -> str | None:
        return self._space_error(x) or self.violations(x, x.values[None], tol)[0]


class DensitySimplex(GridBody):
    """Nonnegative grid functions of unit integral: the probability densities.

    Convex, closed, and bounded in norm, but badly non-closed in measure:
    densities can concentrate and vanish from every cell while keeping unit
    mass.  The recentering coefficient is as large as it can be.
    """

    name = "density_simplex"
    t_exact = 2.0

    def violations(self, space, rows, tol):
        lows = rows.min(axis=1)
        integrals = space.row_integrals(rows)
        return _row_messages(
            len(rows),
            (lows < -tol, lambda j: f"negative part: min value {lows[j]:.6g}"),
            (np.abs(integrals - 1.0) > tol,
             lambda j: f"integral {integrals[j]:.6g} != 1"))

    def sample(self, rng: np.random.Generator) -> GridFunction:
        cells = 2 ** self.level
        v = rng.exponential(size=cells)
        if rng.random() < 0.25:
            # occasionally concentrate most mass on a few cells
            idx = rng.integers(0, cells, size=max(1, cells // 16))
            v[idx] += rng.exponential(size=idx.size) * cells
        v /= v.sum() * 2.0 ** -self.level
        return GridFunction(self.level, v)

    def _recenter_witness(self, x):
        if float(x.values.min()) < -1e-7:
            return None
        deficit = 1.0 - x.integral()
        if deficit < -1e-7:
            return None
        return x + GridFunction.constant(max(deficit, 0.0), x.level)


class ConeHull(GridBody):
    """Convex hull of the density simplex with the constant function a.

    For 0 < a < 1 the extra vertex sits strictly inside the norm ball of the
    simplex, and the recentering coefficient drops to 1 + a.  a = 0 gives the
    sub-probability densities (closed in measure); a = 1 gives the simplex
    itself back, and from 1 - 1e-12 on the hull takes the simplex's
    constraints and witness.
    """

    def __init__(self, a: float, level: int):
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"a must lie in [0, 1], got {a}")
        self.a = float(a)
        super().__init__(level)
        self.name = f"cone_hull(a={self.a:g})"
        self.t_exact = 1.0 + self.a

    def violations(self, space, rows, tol):
        a = self.a
        if a >= 1.0 - 1e-12:
            return DensitySimplex.violations(self, space, rows, tol)
        integrals = space.row_integrals(rows)
        lam = (integrals - a) / (1.0 - a)
        floors = (1.0 - np.minimum(np.maximum(lam, 0.0), 1.0)) * a
        lows = rows.min(axis=1)
        return _row_messages(
            len(rows),
            (lam < -tol, lambda j: f"integral {integrals[j]:.6g} below vertex level {a:g}"),
            (lam > 1.0 + tol, lambda j: f"integral {integrals[j]:.6g} exceeds 1"),
            (lows < floors - tol, lambda j: f"min value {lows[j]:.6g} below mixture "
                                            f"floor {floors[j]:.6g}"))

    def sample(self, rng: np.random.Generator) -> GridFunction:
        f = DensitySimplex(self.level).sample(rng)
        lam = rng.random()
        return GridFunction(self.level, f.values * lam + (1.0 - lam) * self.a)

    def _recenter_witness(self, x):
        a = self.a
        if a >= 1.0 - 1e-12:
            return DensitySimplex._recenter_witness(self, x)
        integral = x.integral()
        low = float(x.values.min())
        if low < -1e-7 or integral > 1.0 + 1e-7:
            return None
        # constant shift c puts x + c at mixture weight lam exactly when
        # c = lam + (1-lam) a - integral; the floor constraint
        # min(x) + c >= (1-lam) a then reads lam >= integral - min(x).
        # c grows with lam, so the smallest admissible lam gives the least
        # shift, and a negative least shift means x is already a member.
        lam = max(0.0, integral - low)
        if lam > 1.0 + 1e-7:
            return None
        lam = min(lam, 1.0)
        shift = max(lam + (1.0 - lam) * a - integral, 0.0)
        return x + GridFunction.constant(shift, x.level)


class UnitBall(GridBody):
    """Closed unit ball of the norm: signed functions with integral of |f| <= 1.

    Closed in measure, so recentering is free: any norm limit already lies in
    the ball and the coefficient is 1.
    """

    name = "ball"
    t_exact = 1.0

    def violations(self, space, rows, tol):
        norms = space.row_norms(rows)
        return _row_messages(len(rows), (norms > 1.0 + tol,
                                         lambda j: f"norm {norms[j]:.6g} exceeds 1"))

    def sample(self, rng: np.random.Generator) -> GridFunction:
        cells = 2 ** self.level
        v = rng.exponential(size=cells)
        v /= v.sum() * 2.0 ** -self.level
        signs = rng.choice([-1.0, 1.0], size=cells)
        radius = rng.random() if rng.random() < 0.75 else 1.0
        return GridFunction(self.level, v * signs * radius)

    def _recenter_witness(self, x):
        nrm = x.norm()
        if nrm <= 1.0:
            return x
        return x * (1.0 / nrm)


class BumpSimplex(ConvexBody):
    """Simplex spanned by the bump coordinates, first vertex shrunk by t - 1.

    Members are nonnegative coefficient vectors summing to 1.  The first
    vertex carries norm t - 1 < 1 while all others have norm 1, which caps
    the recentering coefficient at exactly t.
    """

    def __init__(self, t: float, slots: int):
        if not (1.0 < t < 2.0):
            raise ValueError(f"t must lie in (1, 2), got {t}")
        if slots < 4:
            raise ValueError(f"need at least 4 slots, got {slots}")
        if slots > 2 ** MAX_LEVEL:
            raise ValueError(f"need at most 2**{MAX_LEVEL} slots, the cell count "
                             f"of the finest grid, got {slots}")
        self.t = float(t)
        self.slots = int(slots)
        self.name = f"bump_simplex(t={self.t:g})"
        self.t_exact = self.t

    def _space_error(self, x) -> str | None:
        if not isinstance(x, CoordPoint):
            return f"expected CoordPoint, got {type(x).__name__}"
        if abs(x.t - self.t) > DEFAULT_TOL or x.slots != self.slots:
            return "coordinate space mismatch"
        return None

    def violation(self, x, tol: float) -> str | None:
        return self._space_error(x) or self.violations(x, x.coeffs[None], tol)[0]

    def violations(self, space, rows, tol):
        lows = rows.min(axis=1)
        totals = rows.sum(axis=1)
        return _row_messages(
            len(rows),
            (lows < -tol, lambda j: f"negative coefficient {lows[j]:.6g}"),
            (np.abs(totals - 1.0) > tol,
             lambda j: f"coefficient sum {totals[j]:.6g} != 1"))

    def sample(self, rng: np.random.Generator, support: int | None = None) -> CoordPoint:
        k = self.slots if support is None else min(support, self.slots)
        c = np.zeros(self.slots)
        c[:k] = rng.dirichlet(np.ones(k))
        return CoordPoint(self.t, c)

    def _recenter_witness(self, x):
        if float(x.coeffs.min()) < -1e-7:
            return None
        deficit = 1.0 - float(x.coeffs.sum())
        if deficit < -1e-7:
            return None
        c = x.coeffs.copy()
        c[0] += max(deficit, 0.0)
        return CoordPoint(self.t, c)


@dataclass(frozen=True)
class SequenceFamily:
    """Named point sequence with a declared drift point.

    ``limit`` is the point the sequence approaches in measure (often the
    origin, which usually lies outside the body).  Estimators verify the
    declaration on the trailing window instead of trusting it.
    """

    name: str
    points: tuple
    limit: object

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("need at least 2 points")
        object.__setattr__(self, "points", tuple(self.points))

    def drift_defect(self) -> float:
        """Largest trailing in-measure distance to the declared limit."""
        return limsup_tail(measure_distances(self.limit, self.points))


def peak_family(level: int, k_min: int = 1, k_max: int | None = None) -> SequenceFamily:
    """Peaks of heights 2**k: unit-norm densities vanishing in measure."""
    k_max = level if k_max is None else k_max
    if not (1 <= k_min <= k_max <= level):
        raise ValueError(f"need 1 <= {k_min} <= {k_max} <= {level}")
    points = tuple(peak_sequence(2 ** k, level) for k in range(k_min, k_max + 1))
    return SequenceFamily(f"peaks(level={level})", points, GridFunction.zero(level))


def bump_tail_family(t: float, slots: int, k_min: int = 1) -> SequenceFamily:
    """Late bump vertices: unit-norm coordinates k_min <= k < slots,
    vanishing in measure."""
    if not (1 <= k_min < slots):
        raise ValueError(f"need 1 <= {k_min} < {slots}")
    count = slots - k_min
    if count * slots * 8 > BYTE_BUDGET:
        raise ValueError(f"a bump tail family of {count} points of {slots} slots "
                         f"needs {count * slots * 8} bytes, more than the budget "
                         f"of {BYTE_BUDGET}")
    points = tuple(coord_basis(t, slots, k) for k in range(k_min, slots))
    return SequenceFamily(f"bump_tail(t={t:g})", points,
                          CoordPoint(t, np.zeros(slots)))


#: Body kinds: the constructor and its spec parameters, each with its type
#: and default, in the constructor's argument order.
BODY_KINDS = {
    "density_simplex": (DensitySimplex, {"level": (int, 12)}),
    "cone_hull": (ConeHull, {"a": (float, 0.0), "level": (int, 12)}),
    "ball": (UnitBall, {"level": (int, 12)}),
    "ct": (BumpSimplex, {"t": (float, 1.5), "M": (int, 64)}),
}


def body_from_spec(spec: dict, **fill) -> ConvexBody:
    """Build a catalog body from its wire description, e.g. {"set": "ball"}.
    ``fill`` supplies parameters the spec leaves out (see build_from_spec)."""
    return build_from_spec(spec, "set", BODY_KINDS, "body", **fill)


def build_from_spec(spec: dict, key: str, kinds: dict, owner: str, /,
                    *lead, **fill):
    """The one spec parser: ``spec[key]`` names a kind of ``kinds``, whose
    constructor gets ``lead`` and then the kind's parameters.  A parameter
    comes from the spec, else from ``fill`` when that holds a value other
    than None for it, else from its default."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{owner} spec must be a dict with key {key!r}, got {spec!r}")
    kind = spec[key]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {owner} kind {kind!r}; expected one of {sorted(kinds)}")
    ctor, params = kinds[kind]
    given = {k: v for k, v in fill.items() if k in params and v is not None}
    given.update((k, v) for k, v in spec.items() if k != key)
    return ctor(*lead, *checked_params(given, params, f"{owner} parameters").values())


def checked_params(given: dict, params: dict, owner: str) -> dict:
    """``given`` checked against ``params`` ({name: (type, default)}): every
    name known, every value of its type (see _checked_value), the defaults
    filling the rest, in the order of ``params``."""
    unknown = set(given) - set(params)
    if unknown:
        raise ValueError(f"unknown {owner} {sorted(unknown)}")
    return {name: _checked_value(name, given[name], kind) if name in given else default
            for name, (kind, default) in params.items()}


def _checked_value(name: str, value, kind: type):
    """``value`` cast to ``kind``: int and float take numbers only, never
    bools or strings, and int takes integral ones only; tuple takes a list
    of numbers and gives a tuple of floats."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list of numbers, got {value!r}")
        return tuple(_checked_value(name, v, float) for v in value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind is int and not (isinstance(value, numbers.Integral)
                            or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value!r}") from None
