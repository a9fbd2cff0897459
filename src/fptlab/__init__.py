"""Desk-scale laboratory for affine fixed-point iteration in discretized L1.

The package models a classical tension: an affine map of a convex bounded
set can be barely-more-than-nonexpansive on average and still have no fixed
point, when the set is not closed under convergence in measure.  Everything
needed to measure both sides of that tension lives here: dyadic grid
functions with norm and in-measure metrics, a catalog of affine operators
and convex bodies, estimators for the relevant coefficients, and a solver
that either drives a fixed point out of Cesaro means or reports exactly how
the orbit escapes.
"""
from .grid import (
    DEFAULT_TOL,
    GridFunction,
    liminf_tail,
    limsup_tail,
    peak_sequence,
    rademacher,
)
from .sets import (
    BumpSimplex,
    ConeHull,
    ConvexBody,
    CoordPoint,
    DensitySimplex,
    SequenceFamily,
    UnitBall,
    body_from_spec,
    bump_tail_family,
    coord_basis,
    measure_distance,
    norm,
    peak_family,
)
from .operators import (
    AffineOperator,
    BumpShift,
    CyclicShift,
    DomainError,
    DoublingShift,
    IdentityOperator,
    MassOverflowError,
    NormalizingRetraction,
    RetractionDoubling,
    affinity_defect,
    afps_residual,
    lipschitz_estimate,
    mean_lipschitz,
    operator_from_spec,
    orbit_rows,
    running_means,
)
from .coefficients import (
    CoefficientReport,
    disjoint_additivity_defect,
    fixed_point_gate,
    opial_cross_check,
    opial_sum,
    orlicz_coefficient,
    recentering_bounds,
)
from .solver import (
    AfpsRecord,
    BranchConditionError,
    ExtendSequenceError,
    SolveOutcome,
    StepReport,
    admissible_eps,
    build_afps_record,
    cesaro_solve,
    komlos_extract,
    proof_step,
    solve,
)

__version__ = "0.1.0"
