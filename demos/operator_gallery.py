"""Gallery of the affine operator catalog: exact growth constants, orbit
behavior, and the Cesaro residual identity in action.

Run from the repository root:

    python3 demos/operator_gallery.py
"""
from __future__ import annotations

import numpy as np

from fptlab import (
    BumpShift,
    BumpSimplex,
    ConeHull,
    CyclicShift,
    DensitySimplex,
    DoublingShift,
    GridFunction,
    IdentityOperator,
    NormalizingRetraction,
    RetractionDoubling,
    UnitBall,
    measure_distance,
    mean_lipschitz,
    norm,
    orbit_rows,
    running_means,
)


def catalog(level: int):
    simplex = DensitySimplex(level)
    sub = ConeHull(0.0, level)
    return [
        IdentityOperator(simplex),
        DoublingShift(simplex),
        CyclicShift(UnitBall(level)),
        NormalizingRetraction(sub),
        RetractionDoubling(sub),
        BumpShift(BumpSimplex(1.5, 64)),
    ]


def main() -> None:
    level = 10
    print("mean growth constants (exact iterate arithmetic, n <= 8):")
    for T in catalog(level):
        print(f"  {T.name:21s} S = {mean_lipschitz(T, 8):.12g}")

    # the doubling orbit: norms stay at 1 while supports halve, the classic
    # escape in measure
    print("\ndoubling orbit of the constant density:")
    T = DoublingShift(DensitySimplex(level))
    one = GridFunction.constant(1.0, level)
    zero = GridFunction.zero(level)
    rows = np.empty((7, one.values.size))
    rows[0] = one.values
    orbit_rows(T, one, rows, 6)
    for s, f in enumerate(map(one.like, rows)):
        print(f"  T^{s}: norm {norm(f):g}, height {f.values.max():6g}, "
              f"measure gap to 0 {measure_distance(f, zero):.6f}")

    # Cesaro means price their own residuals exactly: by the affine identity
    # z_s - T z_s = (T x0 - T**(s+1) x0) / s, one orbit pass gives the whole
    # 1/s decay table
    print("\nresidual decay of cyclic-shift means (level 6):")
    ball = UnitBall(6)
    x0 = ball.sample(np.random.default_rng(3))
    orbit = np.empty((66, x0.values.size))
    orbit[0] = x0.values
    orbit_rows(CyclicShift(ball), x0, orbit, 65)
    for s in (1, 2, 4, 8, 16, 32, 63, 64):
        residual = norm(x0.like(orbit[1] - orbit[s + 1])) / s
        print(f"  s = {s:3d}: residual {residual:12.6g}")
    print("  the full cycle averages to the constant function exactly")

    spread = float(np.ptp(running_means(orbit[1:65])[-1]))
    print(f"  value spread of the 64-term mean: {spread:.3g}")


if __name__ == "__main__":
    main()
