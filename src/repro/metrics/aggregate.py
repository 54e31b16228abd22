"""Aggregation across runs: the paper's ratio summaries.

The paper's summary tables (2, 3, 4) report the *average* improvement
across a benchmark suite. Averaging ratios is done on the geometric mean
of the ratio factors (the standard for normalized benchmark results),
then converted back to a percentage change. Ratios are floats by nature;
that is fine. Measurements (nanoseconds, cycles, exit counts) are merged
with integer arithmetic only, by the fleet aggregator
(:mod:`repro.fleet.aggregate`).
"""

from __future__ import annotations

from typing import Iterable

from repro.metrics.report import Comparison
from repro.sim.stats import geomean


def aggregate_improvements(comparisons: Iterable[Comparison], label: str = "average") -> Comparison:
    """Geometric-mean aggregate of a suite of comparisons."""
    comps = list(comparisons)
    if not comps:
        raise ValueError("nothing to aggregate")
    return Comparison(
        label=label,
        vm_exits=geomean([1.0 + c.vm_exits for c in comps]) - 1.0,
        throughput=geomean([1.0 + c.throughput for c in comps]) - 1.0,
        exec_time=geomean([1.0 + c.exec_time for c in comps]) - 1.0,
    )
