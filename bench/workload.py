"""One workload in one process: set up, warm up, then a closed loop.

A single caller repeats whole cycles of the workload's operations until
the time spent inside operations reaches ``--seconds``; a faster program
gives more samples, not a shorter run.  Every output is judged.  The last
line of standard output is a JSON object for ``run.py``, which starts this
script; run ``run.py`` rather than this file.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MAX_PROBLEMS = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first timed operation would start")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fptlab

    if Path(fptlab.__file__).resolve().parent != ROOT / "src" / "fptlab":
        print(f"fptlab imported from {fptlab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    _, problems = wl.warmup.judge(wl.warmup.run())
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    latencies = {op.name: [] for op in wl.ops}
    op_names = []
    timed = 0.0
    attempted = failed = 0
    while timed < args.seconds:
        for op in wl.ops:
            if tracer is not None:
                tracer.op_index = len(op_names)
            op_names.append(op.name)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:
                dt = time.perf_counter() - t0
                traceback.print_exc()
                # a crash is wrong output, not one of the expected failures
                out_failed, out_problems = True, [f"raised {type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
                out_failed, out_problems = op.judge(out)
            timed += dt
            latencies[op.name].append(dt)
            attempted += 1
            failed += out_failed
            problems += [f"{op.name}: {p}" for p in out_problems]

    result = {
        "t_first": t_first,
        "timed_s": timed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "n_problems": len(problems),
        "latencies": latencies,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(attempted)
        result["spans"] = len(tracer.end)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz", op_names)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
