"""Spans around the public functions of fptlab, for the traced run.

``install`` wraps each traced function or method from outside the program:
a function is replaced under every module name that holds it (``solver``,
``operators``, ``coefficients`` and ``cli`` bind ``norm`` and friends at
import time), and a method on every class that defines it (``violation``
and ``sample`` are overridden per body).  Each wrapped call records one
span: its name, start, end, parent span and the operation it belongs to.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

GRID_SPANS = tuple(f"grid.GridFunction.{m}" for m in
                   ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
                    "__rmul__", "integral"))

#: Per-layer metrics: (name, unit, better, kind, spans).  ``kind`` is
#: ``calls`` (spans per operation), ``self`` (seconds per operation not
#: covered by child spans), ``total`` (seconds per operation, outermost
#: spans of the name) or ``failed`` (spans that raised, per operation).
PER_LAYER = [
    ("grid.GridFunction.constructed", "count/op", "lower", "calls",
     ("grid.GridFunction.__post_init__",)),
    ("grid.GridFunction.self_s", "s/op", "lower", "self", GRID_SPANS),
    ("sets.norm.calls", "count/op", "lower", "calls", ("sets.norm",)),
    ("sets.norm.self_s", "s/op", "lower", "self", ("sets.norm",)),
    ("sets.recenter.self_s", "s/op", "lower", "self", ("sets.recenter",)),
    ("sets.measure_distance.calls", "count/op", "lower", "calls",
     ("sets.measure_distance",)),
    ("sets.measure_distance.self_s", "s/op", "lower", "self",
     ("sets.measure_distance",)),
    ("sets.violation.calls", "count/op", "lower", "calls", ("sets.violation",)),
    ("sets.violation.self_s", "s/op", "lower", "self", ("sets.violation",)),
    ("sets.sample.self_s", "s/op", "lower", "self", ("sets.sample",)),
    ("sets.CoordPoint.constructed", "count/op", "lower", "calls",
     ("sets.CoordPoint.__post_init__",)),
    ("operators.apply.calls", "count/op", "lower", "calls", ("operators.apply",)),
    ("operators.apply.self_s", "s/op", "lower", "self", ("operators.apply",)),
    ("operators.affinity_defect.total_s", "s/op", "lower", "total",
     ("operators.affinity_defect",)),
    ("operators.lipschitz_estimate.total_s", "s/op", "lower", "total",
     ("operators.lipschitz_estimate",)),
    ("coefficients.recentering_bounds.total_s", "s/op", "lower", "total",
     ("coefficients.recentering_bounds",)),
    ("coefficients.orlicz_coefficient.total_s", "s/op", "lower", "total",
     ("coefficients.orlicz_coefficient",)),
    ("coefficients.opial_cross_check.total_s", "s/op", "lower", "total",
     ("coefficients.opial_cross_check",)),
    ("solver._phi_values.calls", "count/op", "lower", "calls", ("solver._phi_values",)),
    ("solver._phi_values.total_s", "s/op", "lower", "total", ("solver._phi_values",)),
    ("solver.proof_step.self_s", "s/op", "lower", "self", ("solver.proof_step",)),
    ("solver.radius_from.calls", "count/op", "lower", "calls", ("solver.radius_from",)),
    ("solver.radius_from.total_s", "s/op", "lower", "total", ("solver.radius_from",)),
    ("solver.build_afps_record.total_s", "s/op", "lower", "total",
     ("solver.build_afps_record",)),
    ("solver.komlos_extract.calls", "count/op", "lower", "calls",
     ("solver.komlos_extract",)),
    ("solver.komlos_extract.total_s", "s/op", "lower", "total",
     ("solver.komlos_extract",)),
    ("solver.komlos_extract.failed", "count/op", "lower", "failed",
     ("solver.komlos_extract",)),
    ("solver.classify_escape.total_s", "s/op", "lower", "total",
     ("solver.classify_escape",)),
    ("solver.cesaro_solve.self_s", "s/op", "lower", "self", ("solver.cesaro_solve",)),
    ("cli.run_reproduce.self_s", "s/op", "lower", "self", ("cli.run_reproduce",)),
    ("cli.run_sharpness.self_s", "s/op", "lower", "self", ("cli.run_sharpness",)),
    ("cli.write_rows.total_s", "s/op", "lower", "total", ("cli.write_rows",)),
]

#: Metrics the proof step's inputs and outputs give, not its spans alone.
DERIVED = [
    # steps that took the mean_limit branch / steps that computed it
    ("solver.mean_branch.used_ratio", "ratio", "higher"),
    ("solver.proof_step.branch_failures", "count/op", "lower"),
    # largest total bytes of record means handed to one proof_step
    ("solver.afps_pool.peak_bytes", "bytes", "lower"),
]

#: Traced throughput against untraced, measured by run.py.
OVERHEAD = ("trace.overhead_pct", "%", "lower")


class Tracer:
    """Span store: parallel arrays indexed by span id, in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.op_index = -1
        self.failures: Counter = Counter()  # (span name, exception class)
        self.mean_branch_used = 0
        self.pool_peak_bytes = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, raised = self.start, self.end, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_index)
            ends.append(0.0)
            raised.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[sid] = 1
                self.failures[name, type(exc).__name__] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def save(self, path, op_names: list[str]) -> None:
        """Write every span, with the name and operation tables, as .npz."""
        np.savez(path, name=np.asarray(self.name), parent=np.asarray(self.parent),
                 op=np.asarray(self.op), start=np.asarray(self.start),
                 end=np.asarray(self.end), raised=np.asarray(self.raised),
                 names=np.asarray(self.names), ops=np.asarray(op_names))

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every PER_LAYER and DERIVED metric, per operation where so named.

        A function the operations never reach reads 0.
        """
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        raised = np.asarray(self.raised)
        selfs = self_times(start, end, parent)
        top = outermost(name, parent)
        out = {}
        for metric, _, _, kind, spans in PER_LAYER:
            ids = [self.names.index(s) for s in spans if s in self.names]
            mask = np.isin(name, ids)
            if kind == "calls":
                value = float(mask.sum())
            elif kind == "self":
                value = float(selfs[mask].sum())
            elif kind == "total":
                value = float((end - start)[mask & top].sum())
            else:
                value = float(raised[mask].sum())
            out[metric] = value / n_ops
        step = self._id("solver.proof_step")
        phi = self._id("solver._phi_values")
        computed = 0
        if step is not None and phi is not None:
            kids = parent[(name == phi) & (parent >= 0)]
            computed = int(np.unique(kids[name[kids] == step]).size)
        out["solver.mean_branch.used_ratio"] = (self.mean_branch_used / computed
                                                if computed else 0.0)
        out["solver.proof_step.branch_failures"] = (
            self.failures["solver.proof_step", "BranchConditionError"] / n_ops)
        out["solver.afps_pool.peak_bytes"] = float(self.pool_peak_bytes)
        return out

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None


#: Children swept per chunk in ``self_times``.
SWEEP_CHUNK = 1 << 16


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and overlapping children are
    counted once; grandchildren are already inside their own parent.  The
    sweep runs over children sorted by parent and start, in chunks, so that
    millions of spans need no Python objects of their own.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[kids]
    first = np.ones(kids.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    lo, hi = start[kids], np.minimum(end[kids], end[p])
    covered = np.zeros(kids.size)
    reach = 0.0  # end of the part of the parent covered so far
    for a in range(0, kids.size, SWEEP_CHUNK):
        b = a + SWEEP_CHUNK
        rows = zip(first[a:b].tolist(), lo[a:b].tolist(), hi[a:b].tolist(),
                   start[p[a:b]].tolist())
        for j, (new_parent, s, e, parent_start) in enumerate(rows, start=a):
            if new_parent:
                reach = parent_start
            s = max(s, reach)
            if e > s:
                covered[j] = e - s
                reach = e
    return end - start - np.bincount(p, weights=covered, minlength=start.size)


def outermost(name, parent) -> np.ndarray:
    """True for spans with no ancestor of the same name, so that nested
    calls of one function count once in its total time."""
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    keep = np.ones(name.size, dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.flatnonzero(live)
        keep[idx[name[anc[idx]] == name[idx]]] = False
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
        live &= keep
    return keep


def _pool_bytes(records) -> int:
    return sum((p.values if hasattr(p, "values") else p.coeffs).nbytes
               for rec in records for p in rec.points)


def install(tracer: Tracer) -> None:
    """Wrap the traced fptlab functions and methods in ``tracer``'s spans."""
    import fptlab
    from fptlab import cli, coefficients, grid, operators, sets, solver

    modules = (fptlab, grid, sets, operators, coefficients, solver, cli)

    def replace(orig, new) -> None:
        for module in modules:
            for attr in [k for k, v in vars(module).items() if v is orig]:
                setattr(module, attr, new)

    def function(module, attr: str, span: str) -> None:
        orig = getattr(module, attr)
        replace(orig, tracer.wrap(span, orig))

    def method(cls, attr: str, span: str) -> None:
        setattr(cls, attr, tracer.wrap(span, vars(cls)[attr]))

    for span in GRID_SPANS:
        method(grid.GridFunction, span.rsplit(".", 1)[1], span)
    method(sets.CoordPoint, "__post_init__", "sets.CoordPoint.__post_init__")
    function(sets, "norm", "sets.norm")
    function(sets, "measure_distance", "sets.measure_distance")
    method(sets.ConvexBody, "recenter", "sets.recenter")
    for cls in vars(sets).values():
        if isinstance(cls, type) and issubclass(cls, sets.ConvexBody) \
                and cls is not sets.ConvexBody:
            for attr in ("violation", "sample"):
                if attr in vars(cls):
                    method(cls, attr, f"sets.{attr}")
    method(operators.AffineOperator, "apply", "operators.apply")
    function(operators, "affinity_defect", "operators.affinity_defect")
    function(operators, "lipschitz_estimate", "operators.lipschitz_estimate")
    for attr in ("recentering_bounds", "orlicz_coefficient", "opial_cross_check"):
        function(coefficients, attr, f"coefficients.{attr}")
    for attr in ("_phi_values", "build_afps_record", "komlos_extract",
                 "classify_escape", "cesaro_solve"):
        function(solver, attr, f"solver.{attr}")
    method(solver.AfpsRecord, "radius_from", "solver.radius_from")
    function(cli, "run_reproduce", "cli.run_reproduce")
    function(cli, "run_sharpness", "cli.run_sharpness")
    function(cli, "_write_rows", "cli.write_rows")

    # the proof step's pool and branch are read outside its span, so the
    # reading does not count as proof-step time
    orig_step = solver.proof_step
    traced_step = tracer.wrap("solver.proof_step", orig_step)

    @functools.wraps(orig_step)
    def proof_step(T, C, x0, eps, records, **kwargs):
        records = list(records)
        tracer.pool_peak_bytes = max(tracer.pool_peak_bytes, _pool_bytes(records))
        w, report = traced_step(T, C, x0, eps, records, **kwargs)
        tracer.mean_branch_used += report.branch == "mean_limit"
        return w, report

    replace(orig_step, proof_step)
