"""Arithmetic the benchmark reports: per-operation medians and run spreads."""
from __future__ import annotations

import statistics


def per_op_medians(latencies: dict[str, list[float]]) -> dict[str, float]:
    """Median latency of each distinct operation over its repeats in a run."""
    return {name: statistics.median(values) for name, values in latencies.items()}


def slowest_op_p50(latencies: dict[str, list[float]]) -> float:
    """The largest per-operation median.

    Never a median across unlike operations (it falls between their
    clusters) and never a single maximum (one noisy repeat).
    """
    return max(per_op_medians(latencies).values())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them with its default method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2
