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
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DEFAULT_TOL, GridFunction, liminf_tail, limsup_tail, peak_sequence
from .sets import (
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


def _default_families(body: ConvexBody) -> list[SequenceFamily]:
    if isinstance(body, BumpSimplex):
        return [bump_tail_family(body.t, body.slots)]
    level = getattr(body, "level", None)
    if level is None:
        raise ValueError(f"no default drift family for body {body.name!r}")
    return [peak_family(level, k_min=max(1, level - 10), k_max=level)]


def recentering_bounds(body: ConvexBody, families=None, *,
                       rng: np.random.Generator | None = None,
                       n_samples: int = 64, window_fraction: float = 0.5,
                       drift_tol: float = 0.05) -> CoefficientReport:
    """Bracket for the recentering coefficient of ``body``.

    For each drifting family the best follow-up member found gives the low
    end, and the closed-form recenter witness gives the certified high end
    via norm additivity along vanishing supports.  Families that do not
    actually drift to their declared limit are rejected: the coefficient is
    about escape in measure, nothing else.
    """
    families = _default_families(body) if families is None else list(families)
    if not families:
        raise ValueError("need at least one drift family")
    rng = np.random.default_rng(0) if rng is None else rng

    low = 1.0
    high = 1.0
    witness_desc = "ratio 1: no family forced a recentering premium"
    clamped = False
    for fam in families:
        defect = fam.drift_defect(window_fraction)
        if defect > drift_tol:
            raise ValueError(
                f"family {fam.name!r} does not drift to its declared limit "
                f"(trailing in-measure defect {defect:.4g} > {drift_tol:g})")
        scale = float(_phi_values([fam.limit], fam.points, window_fraction)[0])
        if scale <= 1e-12:
            # norm-converging family: recentering is free
            continue
        result = body.recenter(fam.limit, fam.points, rng=rng,
                               n_candidates=n_samples,
                               window_fraction=window_fraction)
        candidates = [result.point]
        candidates.extend(body.sample(rng) for _ in range(n_samples))
        fam_low = float(_phi_values(candidates, fam.points, window_fraction).min()) / scale
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
        "n_samples": n_samples,
        "window_fraction": window_fraction,
        "families": [fam.name for fam in families],
        "clamped": clamped,
    }
    return CoefficientReport(f"recentering({body.name})", float(low), float(high),
                             "bracket", witness_desc, params)


def disjoint_additivity_defect(points, z, *, window_fraction: float = 0.5,
                               drift_tol: float = 0.01) -> float:
    """Gap in the additivity law limsup|x_n + z| = limsup|x_n| + |z|.

    The law holds exactly for sequences vanishing in measure, because the
    mass of z and the mass of x_n eventually sit on essentially disjoint
    sets.  The precondition is enforced, not assumed: sequences that merely
    oscillate (sign blocks, say) are rejected.
    """
    if isinstance(points, SequenceFamily):
        points = points.points
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    points = point_rows(points)
    zero = 0.0 * points.space
    defect = limsup_tail(measure_distances(zero, points), window_fraction)
    if defect > drift_tol:
        raise ValueError(
            f"sequence does not vanish in measure (trailing defect "
            f"{defect:.4g} > {drift_tol:g})")
    # |(-z) - p| = |p + z| and |0 - p| = |p|, bit for bit
    with_z, alone = _phi_values([-z, zero], points, window_fraction)
    return float(abs(with_z - alone - norm(z)))


def opial_sum() -> float:
    """1 + (in-measure modulus at the unit scale) for the modeled space L1.

    In the modeled space the modulus at scale c equals c exactly, again by
    norm additivity along vanishing supports, so the sum at c = 1 is 2.
    """
    return 2.0


def opial_cross_check(c: float = 1.0, level: int = 14, *, k_min: int = 1,
                      k_max: int | None = None,
                      window_fraction: float = 0.5) -> float:
    """Measured counterpart of opial_sum at scale ``c``: the trailing liminf
    of |peak_n - c| along unit peaks.  Converges to 1 + c from below at rate
    2c/n, so finite grids sit just under the exact value."""
    if c < 0:
        raise ValueError(f"scale c must be >= 0, got {c}")
    k_max = level if k_max is None else k_max
    shift = GridFunction.constant(c, level)
    gaps = [(peak_sequence(2 ** k, level) - shift).norm()
            for k in range(k_min, k_max + 1)]
    return liminf_tail(gaps, window_fraction)


def fixed_point_gate(mean_lip: float, t_coeff: float, opial: float = 2.0, *,
                     margin: float = 1e-9) -> bool:
    """Strict inequality mean_lip * t_coeff < opial.  Equality fails: the
    catalog counterexamples sit exactly on the boundary.

    The comparison leaves a small relative margin so products that match the
    bound up to float rounding (for example 2/t times t) do not spuriously
    open the gate, and the verdict is invariant under scaling t_coeff and
    opial by a common positive factor.  Pass margin=0.0 for the literal
    float comparison.
    """
    if t_coeff <= 0 or opial <= 0:
        raise ValueError("coefficients must be positive")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return mean_lip * t_coeff < opial * (1.0 - margin)


def gate_margin(mean_lip: float, t_coeff: float, opial: float = 2.0) -> float:
    """Slack opial / t_coeff - mean_lip; positive exactly when the gate opens."""
    if t_coeff <= 0 or opial <= 0:
        raise ValueError("coefficients must be positive")
    return opial / t_coeff - mean_lip


def orlicz_coefficient(phi_inverse, delta: float, *,
                       t_grid: np.ndarray | None = None) -> float:
    """Infimal ratio phi_inverse(t) / phi_inverse(delta t) over a log grid.

    For gauge functions phi(u) = u**p the exact value is (1/delta)**(1/p);
    the default grid recovers it to high accuracy because the ratio is
    constant in t.  The inverse must be positive and nondecreasing on the
    grid, which is validated.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    grid = np.logspace(-6.0, 6.0, 1000) if t_grid is None else np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(grid <= 0):
        raise ValueError("t_grid must be a 1-d positive array")
    num = np.asarray([float(phi_inverse(t)) for t in grid])
    den = np.asarray([float(phi_inverse(delta * t)) for t in grid])
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ValueError("phi_inverse must be finite on the grid")
    if np.any(num <= 0) or np.any(den <= 0):
        raise ValueError("phi_inverse must be positive on the grid")
    order = np.argsort(grid)
    if np.any(np.diff(num[order]) < -1e-12 * np.abs(num[order][:-1])):
        raise ValueError("phi_inverse must be nondecreasing")
    return float(np.min(num / den))
