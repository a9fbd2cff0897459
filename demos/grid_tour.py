"""Tour of the discretization layer: dyadic grids, the two distances, and
a sequence that separates them.

Run from the repository root:

    python3 demos/grid_tour.py
"""
from __future__ import annotations

import numpy as np

from fptlab import (
    GridFunction,
    limsup_tail,
    measure_distance,
    norm,
    peak_sequence,
    rademacher,
)


def main() -> None:
    level = 8
    print(f"grid level {level}: {2 ** level} cells of width {2.0 ** -level}")

    one = GridFunction.constant(1.0, level)
    peak = peak_sequence(16, level)
    print(f"constant density:  integral {norm(one):g}")
    print(f"peak of height 16: integral {norm(peak):g}, "
          f"support measure {1 / 16:g}")

    # norm distance vs distance in measure: the peak is far from zero in
    # norm but close in measure, because its support keeps shrinking
    zero = GridFunction.zero(level)
    print("\n  n      norm(peak_n)   measure_distance(peak_n, 0)")
    for k in range(1, level + 1):
        p = peak_sequence(2 ** k, level)
        print(f"  {2 ** k:4d}   {norm(p):12.6f}   {measure_distance(p, zero):15.6f}")

    peaks = [peak_sequence(2 ** k, level) for k in range(1, level + 1)]
    drift = limsup_tail([norm(p) for p in peaks], 0.5)
    fade = limsup_tail([measure_distance(p, zero) for p in peaks], 0.5)
    print(f"\ntrailing limsup of norms:     {drift:g}  (stays on the sphere)")
    print(f"trailing limsup in measure:   {fade:g}  (vanishes)")

    # sign patterns do the opposite: they stay apart in both senses
    r3, r4 = rademacher(3, level), rademacher(4, level)
    print(f"\nsign patterns r3, r4: norm gap {norm(r3 - r4):g}, "
          f"measure gap {measure_distance(r3, r4):g}")

    rng = np.random.default_rng(0)
    vals = rng.uniform(0.0, 2.0, 2 ** level)
    f = GridFunction(level, vals / vals.mean())
    print(f"random density: integral {norm(f):.12g}")


if __name__ == "__main__":
    main()
