"""Command line front end: reproduce the benchmark table, run the solver,
and scan the sharpness boundary.

Every command is deterministic given its seed: the same invocation writes
byte-identical output files; the --seed flag is the only source of the
seed.  Exit codes: 0 when the command's expectation holds (all table rows
pass, the solver finds a fixed point), 1 when a run completes with a
negative verdict, 2 for configuration errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .coefficients import (
    _default_family,
    disjoint_additivity_defect,
    fixed_point_gate,
    opial_cross_check,
    opial_sum,
    orlicz_coefficient,
    recentering_bounds,
)
from .grid import GridFunction
from .operators import mean_lipschitz, operator_from_spec
from .sets import (
    BumpSimplex,
    ConeHull,
    UnitBall,
    _phi_values,
    body_from_spec,
    checked_params,
    peak_family,
)
from .solver import ORBIT_TRACE, PROOF_TRACE, STATUS_FIXED, cesaro_solve, solve

#: Relative tolerance of the reproduce table's bracket rows.
TOL_REL = 0.02
#: Means that the sharpness scan's practical solve may take, and how far
#: below equality its second gate probe sits.
SHARPNESS_N_MAX = 64
PROBE_GAP = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproduce-run parameters.  Unknown keys and values of another type
    than the default's are rejected."""

    level: int = 12
    seed: int = 0
    a_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    t_grid: tuple = (1.1, 1.25, 1.5, 1.75, 1.9)
    orlicz_p: tuple = (1.0, 2.0, 4.0)
    slots: int = 64

    @classmethod
    def from_dict(cls, data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        params = {f.name: (type(f.default), f.default) for f in fields(cls)}
        return cls(**checked_params(data, params, "config keys"))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _json_scalar(value):
    """``json.dump``'s hook for what it cannot write: a numpy scalar goes
    out as its Python value; anything else is refused, as json's own
    encoder refuses it."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _point_payload(point):
    if point is None:
        return None
    return {"kind": point.kind, **json.loads(point.to_json())}


def _write_rows(path: str, header: list[str] | tuple[str, ...],
               rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _parse_spec(text: str, key: str) -> dict:
    """A bare catalog name, as {key: name}, or a JSON object spec."""
    text = text.strip()
    return json.loads(text) if text.startswith("{") else {key: text}


# ---------------------------------------------------------------- reproduce

_REPRO_HEADER = ["quantity", "reference_value", "estimate_low",
                 "estimate_high", "gap", "tolerance", "status"]


def _check(kind: str, ref: float, low: float, high: float, tol: float) -> bool:
    if kind == "bracket":
        return abs(low - ref) <= tol * max(abs(ref), 1.0) and \
            abs(high - ref) <= tol * max(abs(ref), 1.0) and low <= high + 1e-12
    if kind == "abs":
        return abs(low - ref) <= tol and abs(high - ref) <= tol
    if kind == "upper":
        return high <= ref + tol
    raise ValueError(f"unknown check kind {kind!r}")


def run_reproduce(cfg: ExperimentConfig) -> tuple[list[list], bool]:
    """Benchmark table rows and the overall verdict."""
    rng = np.random.default_rng(cfg.seed)
    level = cfg.level
    rows = []
    all_pass = True

    def add(quantity, kind, ref, low, high, tol):
        nonlocal all_pass
        ok = _check(kind, ref, low, high, tol)
        all_pass = all_pass and ok
        rows.append([quantity, ref, low, high, high - low, tol,
                     "pass" if ok else "fail"])

    peaks = peak_family(level, k_min=max(1, level - 8))
    for a in cfg.a_grid:
        body = ConeHull(a, level)
        rep = recentering_bounds(body, peaks, rng=rng)
        add(f"recentering(cone_hull,a={a:g})", "bracket", 1.0 + a,
            rep.estimate_low, rep.estimate_high, TOL_REL)

    rep = recentering_bounds(UnitBall(level), peaks, rng=rng)
    add("recentering(ball)", "bracket", 1.0, rep.estimate_low,
        rep.estimate_high, TOL_REL)

    for t in cfg.t_grid:
        body = BumpSimplex(t, cfg.slots)
        rep = recentering_bounds(body, rng=rng)
        add(f"recentering(bump,t={t:g})", "abs", t,
            rep.estimate_low, rep.estimate_high, 1e-9)
        op = operator_from_spec({"op": "ct_shift"}, body)
        growth = mean_lipschitz(op)
        add(f"growth(ct_shift,t={t:g})", "abs", 2.0 / t, growth, growth, 1e-9)

    sub = ConeHull(0.0, level)
    op = operator_from_spec({"op": "retraction_compose"}, sub)
    growth = mean_lipschitz(op)
    add("growth(retraction_compose)", "abs", 2.0, growth, growth, 1e-9)
    sampled = mean_lipschitz(op, rng=rng, use_exact=False, pairs=32)
    add("growth(retraction_compose,sampled)", "bracket", 2.0,
        sampled, 2.0, TOL_REL)

    add("opial_sum", "bracket", 2.0, opial_cross_check(min(level + 2, 14)),
        opial_sum(), TOL_REL)

    drift = float(_phi_values([peaks.limit], peaks.points)[0])
    add("drift_radius(density_simplex)", "upper", 1.0, drift, drift, 1e-6)
    fam = _default_family(BumpSimplex(1.5, cfg.slots))
    # at 4 slots no bump family drifts: no drift radius, so the row fails
    drift = math.nan if fam is None else float(_phi_values([fam.limit], fam.points)[0])
    add("drift_radius(bump,t=1.5)", "upper", 1.0, drift, drift, 1e-6)

    z = GridFunction(level, np.where(np.arange(2 ** level) >= 2 ** (level - 1),
                                     1.0, 0.0))
    defect = disjoint_additivity_defect(peaks.points, z)
    add("additivity_defect", "abs", 0.0, defect, defect, 2.0 ** -level)

    for p in cfg.orlicz_p:
        value = orlicz_coefficient(lambda v, _p=p: v ** (1.0 / _p), 0.5)
        add(f"orlicz(p={p:g})", "abs", 2.0 ** (1.0 / p), value, value, 1e-6)

    return rows, all_pass


def cmd_reproduce(args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    overrides = {}
    if args.level is not None:
        overrides["level"] = args.level
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = ExperimentConfig.from_dict({**asdict(cfg), **overrides})
    rows, all_pass = run_reproduce(cfg)
    _write_rows(args.out, _REPRO_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}: "
          f"{'all pass' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 1


# -------------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    # each flag fills the body parameter of that name where the spec leaves
    # it out; the operator takes its level and t from the body
    body = body_from_spec(_parse_spec(args.set, "set"), level=args.level,
                          M=args.M, t=args.t, a=args.a)
    op = operator_from_spec(_parse_spec(args.op, "op"), body)

    if args.mode == "proof":
        outcome = solve(op, body, tol=args.tol, seed=args.seed)
        columns = PROOF_TRACE
    else:
        outcome = cesaro_solve(op, body, tol=args.tol, n_max=args.n_max,
                               seed=args.seed)
        columns = ORBIT_TRACE

    if args.trace:
        _write_rows(args.trace, columns, [[r[k] for k in columns] for r in outcome.trace])
    payload = {
        "status": outcome.status,
        "residual": outcome.residual,
        "point": _point_payload(outcome.point),
        "diagnostics": outcome.diagnostics,
        "mode": args.mode,
        "seed": args.seed,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1, default=_json_scalar)
            fh.write("\n")
    print(f"status: {outcome.status}"
          + (f", residual {outcome.residual:.3g}" if outcome.residual is not None else ""))
    return 0 if outcome.status == STATUS_FIXED else 1


# ---------------------------------------------------------------- sharpness

_SHARP_HEADER = ["t", "growth", "recenter_low", "recenter_high",
                 "gate_at_equality", "gate_below_equality", "solver_status",
                 "status"]


def run_sharpness(t_grid, slots: int, seed: int) -> tuple[list[list], bool]:
    """Boundary scan: at growth exactly 2/t the gate must stay shut and the
    shift must stay fixed-point-free; just below it must open."""
    rows = []
    all_pass = True
    rng = np.random.default_rng(seed)
    for t in t_grid:
        body = BumpSimplex(t, slots)
        op = operator_from_spec({"op": "ct_shift"}, body)
        growth = mean_lipschitz(op)
        rep = recentering_bounds(body, rng=rng)
        gate_eq = fixed_point_gate(growth, rep.estimate_high)
        gate_below = fixed_point_gate(growth - PROBE_GAP, rep.estimate_high)
        outcome = cesaro_solve(op, body, tol=1e-8, n_max=SHARPNESS_N_MAX, seed=seed)
        ok = (not gate_eq) and gate_below and outcome.status != STATUS_FIXED
        all_pass = all_pass and ok
        rows.append([t, growth, rep.estimate_low, rep.estimate_high,
                     gate_eq, gate_below, outcome.status,
                     "pass" if ok else "fail"])
    return rows, all_pass


def cmd_sharpness(args) -> int:
    t_grid = [float(v) for v in args.t_grid.split(",") if v]
    if not t_grid:
        raise ValueError("the t grid is empty")
    rows, all_pass = run_sharpness(t_grid, args.M, args.seed)
    _write_rows(args.out, _SHARP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}: "
          f"{'all pass' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 1


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptlab",
        description="Affine fixed-point laboratory on discretized L1 bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="write the benchmark table as CSV")
    p.add_argument("--config", help="JSON config file (ExperimentConfig keys)")
    p.add_argument("--out", default="reproduce.csv")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("solve", help="run the solver on an operator/body pair")
    p.add_argument("--op", required=True,
                   help="operator name or JSON spec, e.g. doubling or "
                        '{"op":"ct_shift"}')
    p.add_argument("--set", required=True,
                   help="body name or JSON spec, e.g. density_simplex or "
                        '{"set":"ct","t":1.5,"M":64}')
    p.add_argument("--mode", choices=("proof", "practical"), default="practical")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--n-max", type=int, default=4096,
                   help="means the practical march may take; the certified "
                        "solver's work is fixed, so proof mode does not read it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the outcome as JSON")
    p.add_argument("--trace", help="write the trace as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sharpness", help="scan the gate boundary over t")
    p.add_argument("--t-grid", default="1.1,1.25,1.5,1.75,1.9")
    p.add_argument("--M", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sharpness.csv")
    p.set_defaults(func=cmd_sharpness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
