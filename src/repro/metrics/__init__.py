"""Measurement: exit counters, perf-style reports and aggregation.

Mirrors what the paper measured with ``perf`` (§6): VM exits (split by
reason and semantic tag), CPU cycles as the system-throughput proxy, and
application execution time.
"""

from repro.metrics.counters import ExitCounters, ExitRecordKey
from repro.metrics.perf import RunMetrics, collect_metrics
from repro.metrics.report import Comparison, compare_runs, format_table
from repro.metrics.aggregate import aggregate_improvements

__all__ = [
    "ExitCounters",
    "ExitRecordKey",
    "collect_metrics",
    "RunMetrics",
    "Comparison",
    "compare_runs",
    "format_table",
    "aggregate_improvements",
]
