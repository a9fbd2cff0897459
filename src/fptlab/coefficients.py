"""Scalar coefficients that decide whether the fixed-point machinery applies.

Three numbers interact.  The recentering coefficient of a body measures how
much a drifting sequence must be paid to follow it back into the body; the
mean Lipschitz growth of an operator measures how far iterates stretch on
average; and the in-measure modulus of the ambient space (here fixed at 2
for the unit bump at the natural scale) sets the exchange rate between the
two.  The strict inequality growth < modulus / recentering opens the gate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DEFAULT_TOL,
    WINDOW_FRACTION,
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
    """Measured bracket for a scalar coefficient, with its provenance.

    ``estimate_low`` is the trailing-window value realized by the best
    candidate found; ``estimate_high`` is a triangle-inequality certificate
    at the recenter witness.  For the catalog bodies the high end equals the
    closed-form value.
    """

    quantity: str
    estimate_low: float
    estimate_high: float
    bound_type: str
    witness: str
    parameters: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.estimate_high - self.estimate_low

    def to_json(self) -> str:
        payload = {
            "quantity": self.quantity,
            "estimate_low": self.estimate_low,
            "estimate_high": self.estimate_high,
            "bound_type": self.bound_type,
            "witness": self.witness,
            "parameters": self.parameters,
        }
        return json.dumps(payload, sort_keys=True)


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


def _default_families(body: ConvexBody) -> list[SequenceFamily]:
    """The drift families that ``recentering_bounds`` reads when none are
    given: the least k_min whose trailing window drifts.  A bump simplex of
    M slots gets the bump coordinates k_min <= k < M (bump k lies 2**-(k+1)
    from zero in measure), with k_min >= 1; at M = 4 or less none of two or
    more coordinates drifts.  A body with a level gets the peaks of heights
    2**k for k_min <= k <= level (the peak of height 2**k lies 2**-k from
    zero), with k_min >= max(1, level - 10); at level 4 or less none of two
    or more peaks drifts.  Without a family the list is empty."""
    if isinstance(body, BumpSimplex):
        k_min = _least_drifting_k_min(1, body.slots - 1, 1)
        return [] if k_min is None else [bump_tail_family(body.t, body.slots,
                                                          k_min=k_min)]
    level = getattr(body, "level", None)
    if level is None:
        raise ValueError(f"no default drift family for body {body.name!r}")
    k_min = _least_drifting_k_min(max(1, level - 10), level, 0)
    return [] if k_min is None else [peak_family(level, k_min=k_min, k_max=level)]


def recentering_bounds(body: ConvexBody, families=None, *,
                       rng: np.random.Generator) -> CoefficientReport:
    """Bracket for the recentering coefficient of ``body``.

    For each drifting family the best follow-up member found gives the low
    end, and the closed-form recenter witness gives the certified high end
    via norm additivity along vanishing supports.  Families that do not
    drift to their declared limit within ``DRIFT_TOL`` are rejected: the
    coefficient is about escape in measure, nothing else.  Without
    ``families``, a body too coarse for any default family gets the bracket
    [1, ``RECENTERING_CAP``], with bound type "cap".
    """
    if families is None:
        families = _default_families(body)
        if not families:
            return CoefficientReport(
                f"recentering({body.name})", 1.0, RECENTERING_CAP, "cap",
                f"no drift family fits {body.name}: the cap t <= "
                f"{RECENTERING_CAP:g}", {"families": []})
    families = list(families)
    if not families:
        raise ValueError("need at least one drift family")

    low = 1.0
    high = 1.0
    witness_desc = "ratio 1: no family forced a recentering premium"
    clamped = False
    for fam in families:
        defect = fam.drift_defect()
        if defect > DRIFT_TOL:
            raise ValueError(
                f"family {fam.name!r} does not drift to its declared limit "
                f"(trailing in-measure defect {defect:.4g} > {DRIFT_TOL:g})")
        scale = float(_phi_values([fam.limit], fam.points)[0])
        if scale <= 1e-12:
            # norm-converging family: recentering is free
            continue
        result = body.recenter(fam.limit, fam.points, rng=rng)
        candidates = [result.point]
        candidates.extend(body.sample(rng) for _ in range(SAMPLED_CANDIDATES))
        fam_low = float(_phi_values(candidates, fam.points).min()) / scale
        fam_high = 1.0 + norm(result.point - fam.limit) / scale
        if result.bound_type != "exact":
            fam_high = RECENTERING_CAP
        if fam_high > RECENTERING_CAP + DEFAULT_TOL:
            clamped = True
            fam_high = RECENTERING_CAP
        if fam_high > high:
            high = fam_high
            witness_desc = (f"family {fam.name}: recenter point of norm "
                            f"{norm(result.point):.6g} ({result.bound_type})")
        low = max(low, fam_low)
    low = min(low, high)
    params = {
        "n_samples": SAMPLED_CANDIDATES,
        "window_fraction": WINDOW_FRACTION,
        "families": [fam.name for fam in families],
        "clamped": clamped,
    }
    return CoefficientReport(f"recentering({body.name})", float(low), float(high),
                             "bracket", witness_desc, params)


def disjoint_additivity_defect(points, z) -> float:
    """Gap in the additivity law limsup|x_n + z| = limsup|x_n| + |z|.

    The law holds exactly for sequences vanishing in measure, because the
    mass of z and the mass of x_n eventually sit on essentially disjoint
    sets.  The precondition is enforced, not assumed: sequences that merely
    oscillate (sign blocks, say) are rejected, by ``VANISH_TOL``.
    """
    if isinstance(points, SequenceFamily):
        points = points.points
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    points = point_rows(points)
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


def opial_cross_check(c: float = 1.0, level: int = 14) -> float:
    """Measured counterpart of opial_sum at scale ``c``: the trailing liminf
    of |peak_n - c| along unit peaks.  Converges to 1 + c from below at rate
    2c/n, so finite grids sit just under the exact value."""
    if c < 0:
        raise ValueError(f"scale c must be >= 0, got {c}")
    shift = GridFunction.constant(c, level)
    gaps = [(peak_sequence(2 ** k, level) - shift).norm()
            for k in range(1, level + 1)]
    return liminf_tail(gaps)


def fixed_point_gate(mean_lip: float, t_coeff: float, opial: float = 2.0) -> bool:
    """Strict inequality mean_lip * t_coeff < opial.  Equality fails: the
    catalog counterexamples sit exactly on the boundary.

    The comparison leaves the relative margin ``GATE_MARGIN`` so products
    that match the bound up to float rounding (for example 2/t times t) do
    not spuriously open the gate, and the verdict is invariant under scaling
    t_coeff and opial by a common positive factor.
    """
    if t_coeff <= 0 or opial <= 0:
        raise ValueError("coefficients must be positive")
    return mean_lip * t_coeff < opial * (1.0 - GATE_MARGIN)


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
