"""Benchmark of fptlab: certified solves, catalog verdicts and the paper's tables.

    python3 bench/run.py --workload proof_cyclic --seed 1 --seconds 30 --trace 0

runs one workload in its own process and prints its end-to-end metrics;
``--trace 1`` runs it untraced and then traced, and prints the per-layer
metrics with the tracing overhead.  ``--workload all`` runs every workload,
one after another.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; under ``all`` it
covers every workload, with each metric named ``<workload>.<metric>``.

Exit code 0 when a result is printed, 1 when a workload process fails or
overruns, 2 when the checkout holds no fptlab source to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("proof_cyclic", "catalog_verdicts", "tables")
#: Set-up-only processes per untraced run; setup_s is the median over
#: these and the measuring process.
SETUP_REPEATS = 3
#: Wall-clock limit of one invocation per workload, in seconds.
TIME_LIMIT = 170.0


class WorkloadError(RuntimeError):
    """A workload process failed, overran or printed no result."""


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """Run workload.py once and return its result, with ``setup_s``: the
    time from process start to its first timed operation."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # the program honours FPTLAB_SEED; the benchmark's own seed must win
    env = {k: v for k, v in os.environ.items() if k != "FPTLAB_SEED"}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=env, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise WorkloadError(f"{workload} overran the {TIME_LIMIT:g} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    run = spawn(workload, seed, seconds, 0, deadline)
    setups.append(run["setup_s"])
    print(f"{workload}: per-operation medians (s)")
    for name, value in stats.per_op_medians(run["latencies"]).items():
        print(f"  {name:40s} {value:.6f}  n={len(run['latencies'][name])}")
    metrics = {
        "verdicts_per_s": (run["attempted"] / run["timed_s"], "1/s"),
        "slowest_op_p50_s": (stats.slowest_op_p50(run["latencies"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return summarize([run], metrics)


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    plain = spawn(workload, seed, seconds, 0, deadline)
    traced = spawn(workload, seed, seconds, 1, deadline)
    rate = [r["attempted"] / r["timed_s"] for r in (plain, traced)]
    units = {m[0]: m[1] for m in tracing.PER_LAYER + tracing.DERIVED}
    metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
    metrics[tracing.OVERHEAD[0]] = (100.0 * (rate[0] / rate[1] - 1.0), tracing.OVERHEAD[1])
    print(f"{workload}: {traced['spans']} spans, verdicts_per_s untraced "
          f"{rate[0]:.4f}, traced {rate[1]:.4f}")
    return summarize([plain, traced], metrics)


def summarize(runs: list[dict], metrics: dict) -> dict:
    for run in runs:
        for problem in run["problems"]:
            print(f"  CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    return {
        "correct": all(run["n_problems"] == 0 for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent inside operations per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fptlab" / "__init__.py").is_file():
        print(f"error: no fptlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    if args.workload != "all":
        workloads = {"": args.workload}
    else:
        workloads = {f"{w}.": w for w in WORKLOADS}
    results = {}
    for prefix, workload in workloads.items():
        deadline = time.monotonic() + TIME_LIMIT
        try:
            results[prefix] = measure(workload, args.seed, args.seconds, deadline)
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {prefix + name: m for prefix, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
