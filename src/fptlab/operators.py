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
    build_from_spec,
    coord_basis,
    norm,
)

#: Default membership tolerance while iterating (float drift accumulates).
ORBIT_TOL = 1e-7


class DomainError(ValueError):
    """A point handed to an operator lies outside its domain."""


class MassOverflowError(RuntimeError):
    """A coordinate shift would push mass past the last tracked slot."""


class AffineOperator:
    """Base class.  Subclasses implement ``_transform`` on domain members."""

    name: str = "operator"
    domain: ConvexBody

    def apply(self, x, *, check_domain: bool = True, tol: float = ORBIT_TOL):
        if check_domain:
            problem = self.domain.violation(x, tol)
            if problem is not None:
                raise DomainError(f"{self.name}: point outside domain: {problem}")
        return self._transform(x)

    def _transform(self, x):
        raise NotImplementedError

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

    def _transform(self, x):
        return x

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
        if not hasattr(domain, "level"):
            raise ValueError("doubling needs a grid body")
        self.domain = domain
        self.level = domain.level

    def _transform(self, f: GridFunction) -> GridFunction:
        v = f.values
        out = np.zeros_like(v)
        half = v.size // 2
        if half:
            out[:half] = v[0::2] + v[1::2]
        else:
            out[:] = v
        return GridFunction(f.level, out)

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
        if not hasattr(domain, "level"):
            raise ValueError("cyclic shift needs a grid body")
        self.domain = domain
        self.level = domain.level

    def _transform(self, f: GridFunction) -> GridFunction:
        v = f.values
        out = np.empty_like(v)
        out[0] = v[-1]
        out[1:] = v[:-1]
        return GridFunction(f.level, out)

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

    def _transform(self, f: GridFunction) -> GridFunction:
        return f + GridFunction.constant(1.0 - f.integral(), f.level)

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

    def _transform(self, f: GridFunction) -> GridFunction:
        return self.compress._transform(self.retraction._transform(f))

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

    def _transform(self, x: CoordPoint) -> CoordPoint:
        c = x.coeffs
        if c[-1] != 0.0:
            raise MassOverflowError(
                f"{self.name}: last slot holds {c[-1]:.6g}; shifting would lose mass")
        out = np.empty_like(c)
        out[0] = 0.0
        out[1:] = c[:-1]
        return CoordPoint(x.t, out)

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


def affinity_defect(T: AffineOperator, rng: np.random.Generator, *,
                    pairs: int = 100,
                    lambdas: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)) -> float:
    """Largest norm gap between T(mix) and mix(T) over sampled pairs.

    Affine maps give 0 up to float noise; anything materially positive
    disqualifies the operator from the solver.  Points come from the
    operator's start hook so that coordinate orbits have room to shift.
    """
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


def orbit(T: AffineOperator, x0, n_max: int, *, check_domain: bool = True) -> list:
    """[x0, T x0, ..., T**n_max x0].  Raises with the failing iterate index."""
    points = [x0]
    for s in range(1, n_max + 1):
        try:
            points.append(T.apply(points[-1], check_domain=check_domain))
        except DomainError as exc:
            raise DomainError(f"iterate {s}: {exc}") from exc
    return points


def running_means(points) -> list:
    """Running means (p_1 + ... + p_s) / s for s = 1..len(points).

    The one mean kernel of the package: a sequential sum scaled by 1/s, so
    every caller gets the same float rounding.
    """
    means = []
    total = None
    for s, p in enumerate(points, start=1):
        total = p if total is None else total + p
        means.append(total * (1.0 / s))
    return means


def cesaro_means(T: AffineOperator, x0, n_max: int, *,
                 check_domain: bool = True) -> list:
    """Running means z_s = (T x0 + ... + T**s x0) / s for s = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return running_means(orbit(T, x0, n_max, check_domain=check_domain)[1:])


def afps_residual(T: AffineOperator, x) -> float:
    """Displacement norm(x - T x): zero exactly at fixed points."""
    return norm(x - T.apply(x, check_domain=False))


def cesaro_residual_series(T: AffineOperator, x0, n_max: int, *,
                           check_domain: bool = True) -> tuple[list, list[float]]:
    """Means z_1..z_n and their residuals via the affine two-point identity.

    For affine T the mean telescopes: z_s - T z_s = (T x0 - T**(s+1) x0) / s.
    One orbit pass therefore prices every residual without re-applying T to
    any mean.
    """
    orb = orbit(T, x0, n_max + 1, check_domain=check_domain)
    residuals = [norm(orb[1] - orb[s + 1]) / s for s in range(1, n_max + 1)]
    return running_means(orb[1:n_max + 1]), residuals


def lipschitz_estimate(T: AffineOperator, n: int, rng: np.random.Generator, *,
                       pairs: int = 64, include_witnesses: bool = True) -> float:
    """Sampled lower estimate of the Lipschitz constant of T**n.

    Ratios norm(T**n x - T**n y) / norm(x - y) over random domain pairs plus
    the operator's closed-form witness pairs.  A lower bound by construction;
    exact constants, when known, live on the operator itself.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
            tx = orbit(T, x, n, check_domain=False)[-1]
            ty = orbit(T, y, n, check_domain=False)[-1]
        except MassOverflowError:
            continue
        best = max(best or 0.0, norm(tx - ty) / gap)
    if best is None:
        raise ValueError("all sampled pairs were degenerate or unusable")
    return best


def mean_lipschitz(T: AffineOperator, n_max: int, *,
                   rng: np.random.Generator | None = None, pairs: int = 64,
                   use_exact: bool = True, return_series: bool = False):
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
    averages = list(np.cumsum(constants) / np.arange(1, n_max + 1))
    value = float(min(averages))
    if return_series:
        return value, constants, averages
    return value
