"""Measure the recentering coefficient of each catalog body and evaluate
the fixed-point gate that combines it with the operator growth.

Run from the repository root:

    python3 demos/recentering_demo.py
"""
from __future__ import annotations

import numpy as np

from fptlab import (
    BumpShift,
    BumpSimplex,
    ConeHull,
    UnitBall,
    admissible_eps,
    bump_tail_family,
    fixed_point_gate,
    mean_lipschitz,
    opial_sum,
    peak_family,
    recentering_bounds,
)


def main() -> None:
    level = 12
    rng = np.random.default_rng(0)
    peaks = peak_family(level, k_min=4)

    # hulls of the density simplex with the constant a: coefficient 1 + a,
    # trapped between an achieved witness ratio and the structural cap
    print("recentering coefficient of cone hulls (exact value 1 + a):")
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = recentering_bounds(ConeHull(a, level), peaks, rng=rng)
        print(f"  a = {a:4.2f}: bracket [{rep.estimate_low:.6f}, "
              f"{rep.estimate_high:.6f}]  gap {rep.gap:.2e}")

    rep = recentering_bounds(UnitBall(level), peaks, rng=rng)
    print(f"unit ball: bracket [{rep.estimate_low:.6f}, {rep.estimate_high:.6f}]")

    # the bump bodies give every value t in (1, 2); their shift has mean
    # growth exactly 2/t, which closes the gate at equality
    print("\nboundary scan over the bump bodies:")
    print("   t     growth 2/t   gate(2/t)  gate(2/t - 0.01)  eps if open")
    for t in (1.1, 1.25, 1.5, 1.75, 1.9):
        body = BumpSimplex(t, 64)
        growth = mean_lipschitz(BumpShift(body))
        rep = recentering_bounds(body, bump_tail_family(t, 64), rng=rng)
        t_hat = rep.estimate_high
        at_eq = fixed_point_gate(growth, t_hat)
        below = fixed_point_gate(growth - 0.01, t_hat)
        eps = admissible_eps(growth - 0.01, t_hat)
        print(f"  {t:4.2f}   {growth:.8f}   {str(at_eq):5s}      "
              f"{str(below):5s}             {eps:.5f}")

    print(f"\nduality sum used by the gate: {opial_sum():g}")
    print("at equality the product growth * coefficient reaches the sum "
          "exactly, so no positive eps survives")


if __name__ == "__main__":
    main()
