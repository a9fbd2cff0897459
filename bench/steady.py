"""Steadiness of the benchmark: two sets of runs of every workload.

    python3 bench/steady.py

runs ``run.py`` ten times per workload in each of two sets, the second
set after the first, as the benchmark's runs are judged: every run takes
another seed, so a spread holds the small differences between inputs as
well as the host's noise.  Workloads run interleaved, seed by seed, so a
slow spell of the machine spreads over all of them.  For every end-to-end
metric it prints each set's quartiles and spread, (Q3 - Q1) / median, and
how far the second set's median moved from the first's, against the
metric's bound in BENCHMARK.json.  Two traced runs per workload then give
the per-layer medians and the tracing overhead.  The summary is written to
``bench/out/steady.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "steady.json"
RUNS = 10
SETS = 2
TRACED = 2


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"in {time.monotonic() - t0:.1f} s", flush=True)
    return res


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = second / first - 1.0
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sets = [{w: [] for w in names} for _ in range(SETS)]
    for k, runs in enumerate(sets):
        for i in range(RUNS):
            for w in names:
                runs[w].append(run_once(w, 1 + k * RUNS + i, seconds, 0))
    traced = {w: [run_once(w, 1 + SETS * RUNS + i, seconds, 1)
                  for i in range(TRACED)] for w in names}

    summary = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    print(f"\n{'workload':17s} {'metric':17s} {'set':>3s} {'q1':>10s} "
          f"{'median':>10s} {'q3':>10s} {'spread':>7s} {'worse':>7s} {'bound':>5s}")
    for w in names:
        every = [r for runs in sets for r in runs[w]] + traced[w]
        entry = {"correct": all(r["correct"] for r in every),
                 "failed_shares": sorted({f"{r['failed']}/{r['attempted']}"
                                          for runs in sets for r in runs[w]}),
                 "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs[w]]
                q1, q2, q3 = stats.quartiles(values)
                rows.append({"q1": q1, "median": q2, "q3": q3,
                             "spread": stats.spread(values), "values": values})
            worse = worse_by(rows[0]["median"], rows[-1]["median"], metric["better"])
            entry["metrics"][name] = {"bound": bound, "worse": worse, "sets": rows}
            for k, row in enumerate(rows):
                # a spread under a third of its bound leaves room for noise
                flags = ["WIDE"] if row["spread"] >= bound / 3 else []
                if row["spread"] > bound:
                    flags.append("OVER")
                last = k == len(rows) - 1
                if last and worse > bound:
                    flags.append("MOVED")
                print(f"{w:17s} {name:17s} {k + 1:3d} {row['q1']:10.5g} "
                      f"{row['median']:10.5g} {row['q3']:10.5g} {row['spread']:7.3f} "
                      f"{worse if last else 0.0:7.3f} {bound:5.2f} {' '.join(flags)}")
        print(f"{w:17s} failed/attempted per run: {', '.join(entry['failed_shares'])}; "
              f"correct={entry['correct']}")
        layers = {name: statistics.median(r["metrics"][name]["value"] for r in traced[w])
                  for name in traced[w][0]["metrics"]}
        entry["per_layer_median"] = layers
        print(f"{w:17s} tracing overhead (median of {TRACED}): "
              f"{layers['trace.overhead_pct']:.1f} %")
        summary["workloads"][w] = entry
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nwrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
