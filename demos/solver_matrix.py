"""Run both solvers across the operator catalog and print the verdict
matrix: who has a fixed point, who escapes in measure, who exhausts the
budget.

Run from the repository root:

    python3 demos/solver_matrix.py
"""
from __future__ import annotations

from fptlab import (
    BumpShift,
    BumpSimplex,
    ConeHull,
    CyclicShift,
    DensitySimplex,
    DoublingShift,
    GridFunction,
    IdentityOperator,
    RetractionDoubling,
    UnitBall,
    cesaro_solve,
    solve,
)


def main() -> None:
    level = 8
    simplex = DensitySimplex(level)
    sub = ConeHull(0.0, level)
    ball = UnitBall(level)
    bump = BumpSimplex(1.5, 64)
    # the doubling orbit needs a finer grid than the others: the escape in
    # measure must outlive the restart windows before the mesh saturates
    fine = DensitySimplex(12)
    cases = [
        ("identity on simplex", IdentityOperator(simplex), simplex, None),
        ("cyclic on ball", CyclicShift(ball), ball, None),
        ("doubling on simplex", DoublingShift(fine), fine,
         GridFunction.constant(1.0, 12)),
        ("compose on sub-simplex", RetractionDoubling(sub), sub, None),
        ("bump shift t=1.5", BumpShift(bump), bump, None),
    ]

    print(f"{'case':24s} {'certified (applications)':32s} practical (applications)")
    for name, T, body, x0 in cases:
        proof = solve(T, body, x0, seed=0)
        practical = cesaro_solve(T, body, x0, seed=0)
        left = f"{proof.status} ({proof.diagnostics['applications']})"
        right = f"{practical.status} ({practical.diagnostics['applications']})"
        print(f"{name:24s} {left:32s} {right}")
        if proof.status == "fixed_point":
            print(f"{'':24s}   residual {proof.residual:.2e}")
        elif "violation" in proof.diagnostics:
            print(f"{'':24s}   left the body: "
                  f"{proof.diagnostics['violation']}")

    print("\nthe doubling and bump orbits drift off in measure, the")
    print("retraction composite stays inside but never settles; only the")
    print("rotation admits a fixed point, and both modes find it.")


if __name__ == "__main__":
    main()
