"""The defaulted parameters of the public API, listed on purpose.

Every parameter with a default on a public function or method of the
modules below, and every ``ExperimentConfig`` field, must appear in
``DEFAULTED``.  A new knob, or a knob dropped, edits that list in the same
change, so that each option is added or removed deliberately.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect

from fptlab.cli import ExperimentConfig

MODULES = ("grid", "sets", "operators", "coefficients", "solver", "cli")

DEFAULTED = """
sets.BumpSimplex.sample(support)
sets.peak_family(k_min)
sets.bump_tail_family(k_min)
operators.AffineOperator.apply(check_domain)
operators.orbit_rows(check_domain)
operators.running_means(carry)
operators.running_means(start)
operators.running_means(out)
operators.lipschitz_estimate(pairs)
operators.mean_lipschitz(rng)
operators.mean_lipschitz(pairs)
operators.mean_lipschitz(use_exact)
coefficients.recentering_bounds(families)
coefficients.opial_cross_check(c)
coefficients.opial_cross_check(level)
solver.solve(x0)
solver.solve(tol)
solver.solve(seed)
solver.cesaro_solve(x0)
solver.cesaro_solve(tol)
solver.cesaro_solve(n_max)
solver.cesaro_solve(seed)
cli.main(argv)
cli.ExperimentConfig.level
cli.ExperimentConfig.seed
cli.ExperimentConfig.a_grid
cli.ExperimentConfig.t_grid
cli.ExperimentConfig.orlicz_p
cli.ExperimentConfig.slots
""".split()


def _defaulted(owner: str, fn) -> list[str]:
    return [f"{owner}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def defaulted_parameters() -> list[str]:
    """Each defaulted parameter of a public function, or of a public method
    that a public class defines itself, in the modules' order; then each
    ExperimentConfig field."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"fptlab.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", "") != module.__name__:
                continue
            if inspect.isfunction(obj):
                found += _defaulted(f"{name}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found += _defaulted(f"{name}.{attr}.{meth}", fn)
    found += [f"cli.ExperimentConfig.{field.name}"
              for field in dataclasses.fields(ExperimentConfig)]
    return found


def test_defaulted_parameters_are_the_listed_ones():
    assert defaulted_parameters() == DEFAULTED
    assert len(DEFAULTED) == 29
