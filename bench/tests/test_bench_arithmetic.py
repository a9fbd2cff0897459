"""The benchmark's own arithmetic: per-operation medians, the slowest
operation's median, and self and total time on synthetic spans."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import tracing  # noqa: E402


def test_per_op_medians_take_each_operation_apart():
    lat = {"a": [3.0, 1.0, 2.0], "b": [10.0], "c": [4.0, 1.0, 9.0, 5.0]}
    assert stats.per_op_medians(lat) == {"a": 2.0, "b": 10.0, "c": 4.5}


def test_slowest_op_p50_is_the_largest_median_not_a_maximum():
    # one noisy repeat of a fast operation must not set the figure, and the
    # figure is not the median of all samples pooled (1.0 here)
    lat = {"fast": [1.0, 1.0, 1.0, 100.0, 1.0], "slow": [5.0, 6.0, 4.0]}
    assert stats.slowest_op_p50(lat) == 5.0


def test_quartiles_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert stats.spread(values) == pytest.approx(5.5 / 5.5)


def test_self_time_subtracts_direct_children_once():
    # 0 root [0, 10]
    # 1   child [1, 4]           overlaps child 2
    # 2   child [3, 5]
    # 3     grandchild [3.5, 4.5] inside child 2 only
    # 4   child [9, 12]          sticks out of the root: clipped at 10
    # 5 second root [20, 21], no children
    start = [0.0, 1.0, 3.0, 3.5, 9.0, 20.0]
    end = [10.0, 4.0, 5.0, 4.5, 12.0, 21.0]
    parent = [-1, 0, 0, 2, 0, -1]
    got = tracing.self_times(start, end, parent)
    # root: children cover [1, 5] and [9, 10] -> 5 of its 10
    np.testing.assert_allclose(got, [5.0, 3.0, 1.0, 1.0, 3.0, 1.0])


def test_self_times_of_real_spans_sum_to_wall_time():
    # in a call tree the self times partition the roots' durations
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(2000)))

    def middle():
        return inner() + inner()

    outer = tracer.wrap("outer", lambda: tracer.wrap("middle", middle)())
    outer()
    outer()
    start, end = np.asarray(tracer.start), np.asarray(tracer.end)
    parent = np.asarray(tracer.parent)
    selfs = tracing.self_times(start, end, parent)
    roots = parent < 0
    assert roots.sum() == 2
    assert selfs.sum() == pytest.approx((end - start)[roots].sum(), rel=1e-9)
    assert np.all(selfs >= 0.0)


def test_total_time_counts_nested_calls_of_one_name_once():
    # a [0, 10] -> b [1, 9] -> a [2, 3]: the inner a is inside the outer one
    name = [0, 1, 0, 1]
    parent = [-1, 0, 1, -1]
    assert tracing.outermost(name, parent).tolist() == [True, True, False, True]


def test_layer_metrics_per_operation_and_failures():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no cluster")

    extract = tracer.wrap("solver.komlos_extract", boom)
    norm = tracer.wrap("sets.norm", lambda: 1.0)
    for op in range(4):
        tracer.op_index = op
        norm()
        with pytest.raises(ValueError):
            extract()
    got = tracer.layer_metrics(n_ops=4)
    assert got["sets.norm.calls"] == 1.0
    assert got["solver.komlos_extract.calls"] == 1.0
    assert got["solver.komlos_extract.failed"] == 1.0
    assert got["solver._phi_values.calls"] == 0.0
    assert list(tracer.op) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert list(tracer.raised) == [0, 1] * 4


def test_benchmark_json_lists_exactly_the_traced_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    produced = [m[:3] for m in tracing.PER_LAYER + tracing.DERIVED] + [tracing.OVERHEAD]
    assert listed == produced
