"""Scalar coefficients that decide whether the fixed-point machinery applies.

Three numbers interact.  The recentering coefficient of a body measures how
much a drifting sequence must be paid to follow it back into the body; the
mean Lipschitz growth of an operator measures how far iterates stretch on
average; and the in-measure modulus of the ambient space (here fixed at 2
for the unit bump at the natural scale) sets the exchange rate between the
two.  The strict inequality growth < modulus / recentering opens the gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_TOL,
    GridFunction,
    liminf_tail,
    limsup_tail,
    peak_sequence,
    window_length,
)
from .sets import (
    SAMPLED_CANDIDATES,
    BumpSimplex,
    ConvexBody,
    SequenceFamily,
    _phi_values,
    bump_tail_family,
    measure_distances,
    norm,
    peak_family,
    point_rows,
)

#: No bounded set needs more than its diameter ratio; 2 is the hard ceiling.
RECENTERING_CAP = 2.0

#: Largest trailing in-measure distance at which a family counts as drifting
#: to its declared limit (``recentering_bounds``), and at which a sequence
#: counts as vanishing in measure (``disjoint_additivity_defect``).
DRIFT_TOL = 0.05
VANISH_TOL = 0.01

#: Relative slack of ``fixed_point_gate``.
GATE_MARGIN = 1e-9

#: Log grid of ``orlicz_coefficient``.
ORLICZ_GRID = np.logspace(-6.0, 6.0, 1000)
ORLICZ_GRID.setflags(write=False)


@dataclass(frozen=True)
class CoefficientReport:
    """Measured bracket for a scalar coefficient.

    ``estimate_low`` is the trailing-window value realized by the best
    candidate found; ``estimate_high`` is a triangle-inequality certificate
    at the recenter witness.  For the catalog bodies the high end equals the
    closed-form value.
    """

    quantity: str
    estimate_low: float
    estimate_high: float
    bound_type: str

    @property
    def gap(self) -> float:
        return self.estimate_high - self.estimate_low


def _least_drifting_k_min(k_first: int, k_max: int, shift: int) -> int | None:
    """The least k_min >= ``k_first`` for which the points k_min, ...,
    ``k_max`` of a family, of which point k lies 2**-(k + ``shift``) from
    zero in measure, hold only points that drift in their trailing window,
    that is lie within ``DRIFT_TOL`` of zero; None when no family of two or
    more points does."""
    for k_min in range(k_first, k_max):
        # the least k in the trailing window of the k_max - k_min + 1 points
        k_low = k_max + 1 - window_length(k_max + 1 - k_min)
        if 2.0 ** -(k_low + shift) <= DRIFT_TOL:
            return k_min
    return None


def _default_family(body: ConvexBody) -> SequenceFamily | None:
    """The drift family that ``recentering_bounds`` reads when none is
    given: the least k_min whose trailing window drifts.  A bump simplex of
    M slots gets the bump coordinates k_min <= k < M (bump k lies 2**-(k+1)
    from zero in measure), with k_min >= 1; at M = 4 or less none of two or
    more coordinates drifts.  A body with a level gets the peaks of heights
    2**k for k_min <= k <= level (the peak of height 2**k lies 2**-k from
    zero), with k_min >= max(1, level - 10); at level 4 or less none of two
    or more peaks drifts.  Without a family, None."""
    if isinstance(body, BumpSimplex):
        k_min = _least_drifting_k_min(1, body.slots - 1, 1)
        return None if k_min is None else bump_tail_family(body.t, body.slots,
                                                           k_min=k_min)
    level = getattr(body, "level", None)
    if level is None:
        raise ValueError(f"no default drift family for body {body.name!r}")
    k_min = _least_drifting_k_min(max(1, level - 10), level, 0)
    return None if k_min is None else peak_family(level, k_min=k_min)


def recentering_bounds(body: ConvexBody, family: SequenceFamily | None = None, *,
                       rng: np.random.Generator) -> CoefficientReport:
    """Bracket for the recentering coefficient of ``body``.

    The best follow-up member found along the drifting ``family`` gives the
    low end, and the closed-form recenter witness gives the certified high
    end via norm additivity along vanishing supports; a limit that the body
    cannot recenter raises ``recenter``'s ValueError.  A family that does
    not drift to its declared limit within ``DRIFT_TOL`` is rejected: the
    coefficient is about escape in measure, nothing else.  A family that
    converges in norm gives [1, 1].  Without ``family`` the body's default
    one is read, and a body too coarse for it gets the bracket
    [1, ``RECENTERING_CAP``], with bound type "cap".
    """
    quantity = f"recentering({body.name})"
    if family is None:
        family = _default_family(body)
        if family is None:
            return CoefficientReport(quantity, 1.0, RECENTERING_CAP, "cap")
    defect = family.drift_defect()
    if defect > DRIFT_TOL:
        raise ValueError(
            f"family {family.name!r} does not drift to its declared limit "
            f"(trailing in-measure defect {defect:.4g} > {DRIFT_TOL:g})")
    scale = float(_phi_values([family.limit], family.points)[0])
    if scale <= 1e-12:
        # norm-converging family: recentering is free
        return CoefficientReport(quantity, 1.0, 1.0, "bracket")
    witness = body.recenter(family.limit)
    candidates = [witness]
    candidates.extend(body.sample(rng) for _ in range(SAMPLED_CANDIDATES))
    low = float(_phi_values(candidates, family.points).min()) / scale
    high = 1.0 + norm(witness - family.limit) / scale
    if high > RECENTERING_CAP + DEFAULT_TOL:
        high = RECENTERING_CAP
    high = max(1.0, high)
    return CoefficientReport(quantity, float(min(max(1.0, low), high)),
                             float(high), "bracket")


def disjoint_additivity_defect(points, z) -> float:
    """Gap in the additivity law limsup|x_n + z| = limsup|x_n| + |z| along
    ``points``, a sequence of at least 2 points or a PointRows.

    The law holds exactly for sequences vanishing in measure, because the
    mass of z and the mass of x_n eventually sit on essentially disjoint
    sets.  The precondition is enforced, not assumed: sequences that merely
    oscillate (sign blocks, say) are rejected, by ``VANISH_TOL``.
    """
    points = point_rows(points)
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    zero = 0.0 * points.space
    defect = limsup_tail(measure_distances(zero, points))
    if defect > VANISH_TOL:
        raise ValueError(
            f"sequence does not vanish in measure (trailing defect "
            f"{defect:.4g} > {VANISH_TOL:g})")
    # |(-z) - p| = |p + z| and |0 - p| = |p|, bit for bit
    with_z, alone = _phi_values([-z, zero], points)
    return float(abs(with_z - alone - norm(z)))


def opial_sum() -> float:
    """1 + (in-measure modulus at the unit scale) for the modeled space L1.

    In the modeled space the modulus at scale c equals c exactly, again by
    norm additivity along vanishing supports, so the sum at c = 1 is 2.
    """
    return 2.0


def opial_cross_check(level: int) -> float:
    """Measured counterpart of opial_sum at the unit scale it models: the
    trailing liminf of |peak_n - 1| along unit peaks of the grid of
    ``level``.  Converges to 2 from below at rate 2/n, so finite grids sit
    just under the exact value."""
    shift = GridFunction.constant(1.0, level)
    gaps = [(peak_sequence(2 ** k, level) - shift).norm()
            for k in range(1, level + 1)]
    return liminf_tail(gaps)


def fixed_point_gate(mean_lip: float, t_coeff: float) -> bool:
    """The package's one gate rule: the strict inequality mean_lip * t_coeff
    < ``opial_sum()``.  Equality fails: the catalog counterexamples sit
    exactly on the boundary.

    The comparison leaves the relative margin ``GATE_MARGIN`` so products
    that match the bound up to float rounding (for example 2/t times t) do
    not spuriously open the gate.  Both coefficients must be finite and
    positive, else ValueError.
    """
    if not all(math.isfinite(c) and c > 0 for c in (mean_lip, t_coeff)):
        raise ValueError(f"coefficients must be finite and positive, got "
                         f"mean_lip={mean_lip}, t_coeff={t_coeff}")
    return mean_lip * t_coeff < opial_sum() * (1.0 - GATE_MARGIN)


def orlicz_coefficient(phi_inverse, delta: float) -> float:
    """Infimal ratio phi_inverse(t) / phi_inverse(delta t) over ``ORLICZ_GRID``.

    For gauge functions phi(u) = u**p the exact value is (1/delta)**(1/p);
    the grid recovers it to high accuracy because the ratio is constant in
    t.  The inverse must be positive and nondecreasing on the grid, which is
    validated.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    num = np.asarray([float(phi_inverse(t)) for t in ORLICZ_GRID])
    den = np.asarray([float(phi_inverse(delta * t)) for t in ORLICZ_GRID])
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ValueError("phi_inverse must be finite on the grid")
    if np.any(num <= 0) or np.any(den <= 0):
        raise ValueError("phi_inverse must be positive on the grid")
    # the grid ascends, so its values are in order as they stand
    if np.any(np.diff(num) < -1e-12 * np.abs(num[:-1])):
        raise ValueError("phi_inverse must be nondecreasing")
    return float(np.min(num / den))
