"""Affine self-maps of the catalog bodies, with orbit and mean machinery.

Every operator here is affine: T(lam*x + (1-lam)*y) = lam*Tx + (1-lam)*Ty.
That single identity drives everything downstream.  Cesaro means of an orbit
obey an exact one-step recurrence, their residuals collapse to a two-point
formula, and per-iterate Lipschitz constants average into a sublinear growth
rate that gates the fixed-point machinery.
"""
from __future__ import annotations

import numpy as np

from .grid import DEFAULT_TOL, GridFunction, peak_sequence
from .sets import (
    BumpSimplex,
    ConeHull,
    ConvexBody,
    CoordPoint,
    GridBody,
    build_from_spec,
    coord_basis,
    norm,
)

#: Membership tolerance while iterating (float drift accumulates).
ORBIT_TOL = 1e-7

#: Sampled start pairs of the affinity certificate, and the mixing weights
#: tried on each pair.
AFFINITY_PAIRS = 8
AFFINITY_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


class DomainError(ValueError):
    """A point handed to an operator lies outside its domain."""


class MassOverflowError(RuntimeError):
    """A coordinate shift would push mass past the last tracked slot."""


class AffineOperator:
    """Base class.  Subclasses state their map once, on arrays, in
    ``map_array``; ``_transform``, and so ``apply``, is its one-point case.
    A subclass may state its map on points instead, by overriding
    ``_transform``: ``map_array`` then goes through it."""

    name: str = "operator"
    domain: ConvexBody
    #: ``map_powers(space, rows)``, stated by an operator whose powers come
    #: in one pass: it writes T**j rows[0] into rows[j] for every j >= 1,
    #: bit-equal to that many ``map_array`` calls, and ``orbit_rows`` uses it
    map_powers = None

    def apply(self, x, *, check_domain: bool = True):
        if check_domain:
            problem = self.domain.violation(x, ORBIT_TOL)
            if problem is not None:
                raise self.domain_error(problem)
        return self._transform(x)

    def domain_error(self, problem: str) -> DomainError:
        """The error that ``apply`` raises for a point that breaks the
        domain's constraint ``problem``."""
        return DomainError(f"{self.name}: point outside domain: {problem}")

    def _transform(self, x):
        v = x.array
        return x.like(self.map_array(x, v, np.empty_like(v)))

    def map_array(self, space, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the image of the point of ``space``'s space that holds ``v``
        into ``out`` (an array of v's shape, never v itself) and return it.
        Neither the domain nor the image's finiteness is checked."""
        if type(self)._transform is AffineOperator._transform:
            raise NotImplementedError(f"{type(self).__name__} states no map")
        out[...] = self._transform(space.like(v)).array
        return out

    def lipschitz_exact(self, n: int) -> float | None:
        """Exact Lipschitz constant of the n-th iterate when known in closed
        form, else None.  Sampled estimates live in lipschitz_estimate."""
        return None

    def witness_pairs(self) -> list[tuple]:
        """Domain pairs that attain or approach the Lipschitz constant."""
        return []

    def default_start(self, rng: np.random.Generator):
        """Starting point giving the orbit room to move (see BumpShift)."""
        return self.domain.sample(rng)

    def max_faithful_steps(self, x) -> int | None:
        """Applications before the discretization stops resolving the orbit,
        or None when the grid never gets in the way."""
        return None

    def is_saturated(self, x) -> bool:
        """True when ``x`` is a discretization artifact: a grid point that the
        operator pins only because the mesh cannot refine further."""
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(domain={self.domain.name!r})"


class IdentityOperator(AffineOperator):
    name = "identity"

    def __init__(self, domain: ConvexBody):
        self.domain = domain

    def map_array(self, space, v, out):
        out[...] = v
        return out

    def lipschitz_exact(self, n: int) -> float:
        return 1.0


class DoublingShift(AffineOperator):
    """Compression toward 0: maps f to the function 2 f(2 s) on [0, 1/2].

    On the dyadic grid each image cell collects its two children, so mass and
    nonnegativity are preserved exactly and the map never expands.  Densities
    keep unit mass while their support halves, so orbits vanish in measure
    and no density is fixed; only the mesh floor can pin a point.
    """

    name = "doubling"

    def __init__(self, domain: ConvexBody):
        if isinstance(domain, ConeHull) and domain.a > 0.0:
            raise ValueError("doubling does not preserve cone hulls with a > 0")
        if not isinstance(domain, GridBody):
            raise ValueError("doubling needs a grid body")
        self.domain = domain
        self.level = domain.level

    @staticmethod
    def compress_values(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Image cell i collects cells 2i and 2i + 1; the upper half is 0."""
        if v.size == 1:
            out[...] = v
            return out
        half = v.size // 2
        np.add(v[0::2], v[1::2], out=out[:half])
        out[half:] = 0.0
        return out

    def map_array(self, space, v, out):
        return self.compress_values(v, out)

    def lipschitz_exact(self, n: int) -> float:
        return 1.0

    def witness_pairs(self) -> list[tuple]:
        lvl = self.level
        half = GridFunction(lvl, np.where(np.arange(2 ** lvl) < 2 ** (lvl - 1), 2.0, 0.0))
        other = GridFunction(lvl, np.where(np.arange(2 ** lvl) >= 2 ** (lvl - 1), 2.0, 0.0))
        return [(half, other), (peak_sequence(2 ** lvl, lvl), GridFunction.zero(lvl))]

    def max_faithful_steps(self, x) -> int:
        return self.level

    def is_saturated(self, x) -> bool:
        if not isinstance(x, GridFunction):
            return False
        v = x.values
        scale = float(np.abs(v).max(initial=0.0))
        if scale == 0.0 or v.size == 1:
            return False
        return float(np.abs(v[1:]).max(initial=0.0)) <= 1e-12 * scale


class CyclicShift(AffineOperator):
    """Rotation of the dyadic cells by one step, wrapping around.

    An affine isometry of any grid body that is shift invariant.  Orbits close
    up after a full cycle, so Cesaro means converge in norm to the constant
    function at the starting mean, which the map fixes.
    """

    name = "cyclic"

    def __init__(self, domain: ConvexBody):
        if not isinstance(domain, GridBody):
            raise ValueError("cyclic shift needs a grid body")
        self.domain = domain
        self.level = domain.level

    def map_array(self, space, v, out):
        out[0] = v[-1]
        out[1:] = v[:-1]
        return out

    def map_powers(self, space, rows):
        # T**j v is v rotated by j cells.  wrapped[k] is v[(k - count) mod
        # n], so its window of n cells from count - j holds T**j v.  The
        # windows, read backwards, are one view of wrapped with strides of
        # -1 and +1 cells, which numpy checks against its bounds, and fill
        # the block in one copy of values.  (sliding_window_view builds the
        # same view but costs about 20 us a call, more than the per-row loop
        # on the few rows of a level-10 to level-12 block.)
        count, n = len(rows) - 1, rows.shape[1]
        v = rows[0]
        wrapped = np.concatenate((v[n - count % n:],) + (v,) * (count // n + 1))
        cell = wrapped.itemsize
        rows[1:] = np.ndarray((count, n), wrapped.dtype, wrapped, (count - 1) * cell,
                              (-cell, cell))

    def lipschitz_exact(self, n: int) -> float:
        return 1.0

    def cycle_length(self) -> int:
        return 2 ** self.level

    def witness_pairs(self) -> list[tuple]:
        rng = np.random.default_rng(7)
        return [(self.domain.sample(rng), self.domain.sample(rng))]


class NormalizingRetraction(AffineOperator):
    """Tops a sub-unit-mass function up to unit mass with a constant: the map
    f -> f + (1 - integral(f)).

    Affine on the sub-probability body, with Lipschitz constant approaching 2
    along concentrating peaks.  Applied twice it does nothing new, since the
    image already has unit mass.
    """

    name = "retraction"

    def __init__(self, domain: ConvexBody):
        if not (isinstance(domain, ConeHull) and domain.a == 0.0):
            raise ValueError("retraction needs the sub-probability body")
        self.domain = domain
        self.level = domain.level

    @staticmethod
    def top_up(space: GridFunction, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """v plus the constant 1 - integral(v): elementwise the same IEEE sum
        as f + GridFunction.constant(1 - f.integral())."""
        return np.add(v, 1.0 - float(space.row_integrals(v)), out=out)

    def map_array(self, space, v, out):
        return self.top_up(space, v, out)

    def lipschitz_exact(self, n: int) -> float:
        return 2.0

    def witness_pairs(self) -> list[tuple]:
        lvl = self.level
        return [(peak_sequence(2 ** lvl, lvl), GridFunction.zero(lvl)),
                (peak_sequence(2 ** (lvl - 1), lvl), GridFunction.zero(lvl))]


class RetractionDoubling(AffineOperator):
    """Normalize to unit mass, then compress toward 0.

    The compression alone would send the origin to itself; the retraction
    first lifts everything onto the densities, whose compressed orbits vanish
    in measure.  Per-iterate Lipschitz constants stay at 2, the worst the
    fixed-point gate allows, and indeed nothing is fixed.
    """

    name = "retraction_compose"

    def __init__(self, domain: ConvexBody):
        self.retraction = NormalizingRetraction(domain)
        self.compress = DoublingShift(domain)
        self.domain = domain
        self.level = domain.level

    def map_array(self, space, v, out):
        # the retraction's top-up feeds the compression as an array
        return self.compress.compress_values(
            self.retraction.top_up(space, v, np.empty_like(v)), out)

    def lipschitz_exact(self, n: int) -> float:
        return 2.0

    def witness_pairs(self) -> list[tuple]:
        lvl = self.level
        return [(peak_sequence(2 ** lvl, lvl), GridFunction.zero(lvl)),
                (peak_sequence(2 ** (lvl - 2), lvl), GridFunction.zero(lvl))]

    def max_faithful_steps(self, x) -> int:
        return self.level

    def is_saturated(self, x) -> bool:
        return self.compress.is_saturated(x)


class BumpShift(AffineOperator):
    """Right shift of bump coordinates: slot k feeds slot k + 1.

    An affine map of the bump simplex whose n-th iterate has Lipschitz
    constant exactly 2/t: the shift moves mass off the lightweight first
    vertex onto full-weight slots.  With finitely many tracked slots the
    shift errors out once mass would fall off the end.  A ``t`` given to
    the constructor must match the body's.
    """

    name = "ct_shift"

    def __init__(self, domain: BumpSimplex, t: float | None = None):
        if not isinstance(domain, BumpSimplex):
            raise ValueError("bump shift needs the bump simplex")
        if t is not None and abs(t - domain.t) > DEFAULT_TOL:
            raise ValueError(f"ct_shift t={t} does not match body t={domain.t}")
        self.domain = domain
        self.t = domain.t

    def map_array(self, space, v, out):
        if v[-1] != 0.0:
            raise MassOverflowError(
                f"{self.name}: last slot holds {v[-1]:.6g}; shifting would lose mass")
        out[0] = 0.0
        out[1:] = v[:-1]
        return out

    def lipschitz_exact(self, n: int) -> float:
        return 2.0 / self.t

    def witness_pairs(self) -> list[tuple]:
        return [(coord_basis(self.t, self.domain.slots, 0),
                 coord_basis(self.t, self.domain.slots, 1))]

    def default_start(self, rng: np.random.Generator) -> CoordPoint:
        return self.domain.sample(rng, support=max(2, self.domain.slots // 4))

    def max_faithful_steps(self, x) -> int:
        if not isinstance(x, CoordPoint):
            return 0
        nz = np.nonzero(x.coeffs)[0]
        top = int(nz[-1]) if nz.size else 0
        return max(0, x.slots - 1 - top)


#: Operator kinds: the constructor, which takes the body first, and its
#: spec parameters, each with its type and default.
OPERATOR_KINDS = {
    "identity": (IdentityOperator, {}),
    "doubling": (DoublingShift, {}),
    "cyclic": (CyclicShift, {}),
    "retraction": (NormalizingRetraction, {}),
    "retraction_compose": (RetractionDoubling, {}),
    "ct_shift": (BumpShift, {"t": (float, None)}),
}


def operator_from_spec(spec: dict, body: ConvexBody, **fill) -> AffineOperator:
    """Build a catalog operator bound to ``body``, e.g. {"op": "doubling"}.
    ``fill`` supplies parameters the spec leaves out (see build_from_spec)."""
    return build_from_spec(spec, "op", OPERATOR_KINDS, "operator", body, **fill)


def affinity_defect(T: AffineOperator, rng: np.random.Generator) -> float:
    """Largest norm gap between T(mix) and mix(T) over ``AFFINITY_PAIRS``
    sampled pairs, mixed at each of ``AFFINITY_LAMBDAS``.

    Affine maps give 0 up to float noise; anything materially positive
    disqualifies the operator from the solver.  Points come from the
    operator's start hook so that coordinate orbits have room to shift.

    The points are rows: one ``violations`` call checks them, ``map_array``
    maps them and ``row_norms`` prices the gaps, each value rounding as the
    point arithmetic does.  The error raised is the first that the point
    loop, ``T.apply`` on each point in turn, would raise, with its type and
    message.
    """
    starts = [T.default_start(rng) for _ in range(2 * AFFINITY_PAIRS)]
    space = starts[0]
    lam = np.asarray(AFFINITY_LAMBDAS, dtype=float)[:, None]
    # per pair: x, y, then each mixture lam x + (1 - lam) y
    rows = np.empty((AFFINITY_PAIRS, 2 + len(lam), space.array.size))
    images = np.empty_like(rows[0])
    gaps = images[2:].copy()
    worst = 0.0
    with np.errstate(all="ignore"):
        for row, x, y in zip(rows, starts[0::2], starts[1::2]):
            row[0], row[1] = x.array, y.array
            np.multiply(row[0], lam, out=row[2:])
            row[2:] += row[1] * (1.0 - lam)
        flat = rows.reshape(-1, rows.shape[2])
        # a mixture of finite rows at a weight of AFFINITY_LAMBDAS rounds to
        # at most the largest float, so every row is a point to check
        problems = T.domain.violations(space, flat, ORBIT_TOL)
        # the point loop: check each row, map it, then build its image and
        # its gap
        for i, point in enumerate(flat):
            k = i % len(images)
            if problems[i] is not None:
                raise T.domain_error(problems[i])
            T.map_array(space, point, images[k])
            # the point class refuses a non-finite image or gap
            if not np.isfinite(images[k]).all():
                space.like(images[k])
            if k >= 2:
                gap = gaps[k - 2]
                np.subtract(images[k], images[0] * lam[k - 2]
                            + images[1] * (1.0 - lam[k - 2]), out=gap)
                if not np.isfinite(gap).all():
                    space.like(gap)
            if k == len(images) - 1:
                worst = max(worst, float(space.row_norms(gaps).max(initial=0.0)))
    return worst


def orbit_rows(T: AffineOperator, space, rows: np.ndarray, count: int, *,
               check_domain: bool = True) -> int:
    """March an orbit on arrays, the package's one orbit loop: step j writes
    T rows[j] into rows[j + 1], for j < ``count``, where rows[0] holds a
    point of ``space``'s space.

    Returns the number of steps made: ``count``, or j when the map raised
    MassOverflowError at step j.  No point is built.  An operator that
    states ``map_powers`` writes a block of two or more steps in that one
    call; otherwise each step is one ``map_array`` call.  The rows are checked
    once, after the maps: one ``np.isfinite`` of their sum, which a
    non-finite cell makes non-finite and finite rows only by overflow, and
    row by row only when that sum is not finite.  The first error is raised
    that the point loop ``p = T.apply(p, check_domain=check_domain)`` would
    raise, with its type and message: it checks the domain of rows[j], then maps it, then builds
    rows[j + 1], which must be finite.  So the domain error of row j comes
    before the finiteness error of row j + 1, an error of the map at step j
    comes only after row j passed its domain check, and rows[count], which
    the loop has not mapped yet, is not checked against the domain.  No
    numpy warning escapes.
    """
    stop, failure = count, None
    with np.errstate(all="ignore"):
        if count >= 2 and T.map_powers is not None:
            T.map_powers(space, rows[:count + 1])
        else:
            try:
                for j in range(count):
                    T.map_array(space, rows[j], rows[j + 1])
            except Exception as exc:
                # whatever the map raises comes after the checks of the rows
                # before it, so it is held until they pass, then raised as is
                stop, failure = j, exc
        bad_out = stop
        if not np.isfinite(rows[1:stop + 1].sum()):
            # a non-finite cell, or finite rows whose sum overflowed
            finite = np.isfinite(rows[1:stop + 1]).all(axis=1)
            bad_out = stop if finite.all() else int(np.argmin(finite))
        # rows past the first non-finite one can never fail first
        checked = rows[:min(bad_out + 1, stop + (failure is not None))]
        problems = T.domain.violations(space, checked, ORBIT_TOL) if check_domain else ()
    for problem in problems:
        if problem is not None:
            raise T.domain_error(problem)
    if bad_out < stop:
        # the point class refuses the row with its own error
        space.like(rows[bad_out + 1])
    if failure is not None and not isinstance(failure, MassOverflowError):
        raise failure
    return stop


def running_means(rows: np.ndarray, *, carry: np.ndarray | None = None,
                  start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Running means of ``rows`` after ``start`` earlier terms: row j of the
    result is (c + rows[0] + ... + rows[j]) / (start + j + 1), where c, the
    sum of the earlier terms, is read from ``carry`` when start > 0.

    The one mean kernel of the package: a sequential sum, the same adds in
    row order whether a block takes one accumulate (at least as many rows as
    slots) or one add per row, scaled by 1/s, so every caller gets the same
    float rounding.  A given ``carry`` is left holding the sum through the
    last row.  The means go to ``out`` when given, else to a new array; none
    is checked finite.
    """
    out = np.empty_like(rows) if out is None else out
    if len(rows) >= rows.shape[1]:
        # np.add.accumulate(axis=0) makes the same adds, each column in row
        # order, in one call; it walks every column on its own, so a block
        # of fewer rows than slots keeps the add per row below
        out[...] = rows
        if start:
            np.add(carry, rows[0], out=out[0])
        np.add.accumulate(out, axis=0, out=out)
    else:
        for j, row in enumerate(rows):
            if j:
                np.add(out[j - 1], row, out=out[j])
            elif start:
                np.add(carry, row, out=out[0])
            else:
                out[0] = row
    if carry is not None and len(rows):
        carry[...] = out[-1]
    out *= (1.0 / np.arange(start + 1, start + len(rows) + 1))[:, None]
    return out


def afps_residual(T: AffineOperator, x) -> float:
    """Displacement norm(x - T x): zero exactly at fixed points."""
    return norm(x - T.apply(x, check_domain=False))


def lipschitz_estimate(T: AffineOperator, n: int, rng: np.random.Generator, *,
                       pairs: int = 64) -> float:
    """Sampled lower estimate of the Lipschitz constant of T**n.

    Ratios norm(T**n x - T**n y) / norm(x - y) over random domain pairs plus
    the operator's closed-form witness pairs.  A lower bound by construction;
    exact constants, when known, live on the operator itself.  A pair whose
    orbit runs out of tracked slots within n steps is skipped.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    candidates = []
    for _ in range(pairs):
        candidates.append((T.domain.sample(rng), T.domain.sample(rng)))
    for x, y in T.witness_pairs():
        if T.domain.membership(x, tol=1e-7) and T.domain.membership(y, tol=1e-7):
            candidates.append((x, y))
    best = None
    # the orbits of x and y, n steps each, in one buffer for every pair
    rows = np.empty((2, n + 1, candidates[0][0].array.size)) if candidates else None
    for x, y in candidates:
        gap = norm(x - y)
        if gap <= 1e-12:
            continue
        rows[:, 0] = x.array, y.array
        # the orbit of y is not marched when the orbit of x overflows
        if all(orbit_rows(T, x, r, n, check_domain=False) == n for r in rows):
            best = max(best or 0.0, norm(x.like(rows[0, n] - rows[1, n])) / gap)
    if best is None:
        raise ValueError("all sampled pairs were degenerate or unusable")
    return best


def mean_lipschitz(T: AffineOperator, n_max: int, *,
                   rng: np.random.Generator | None = None, pairs: int = 64,
                   use_exact: bool = True) -> float:
    """Sublinear growth rate: smallest prefix average of iterate constants.

    The true quantity is the liminf of (|T| + ... + |T**n|) / n; on a finite
    horizon the declared surrogate is the minimum over n <= n_max.  Exact
    catalog constants are preferred; sampling fills the gaps and only ever
    underestimates.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    constants = []
    for k in range(1, n_max + 1):
        exact = T.lipschitz_exact(k) if use_exact else None
        if exact is None:
            if rng is None:
                raise ValueError(f"no exact constant for n={k} and no rng given")
            exact = lipschitz_estimate(T, k, rng, pairs=pairs)
        constants.append(float(exact))
    return float(min(np.cumsum(constants) / np.arange(1, n_max + 1)))
