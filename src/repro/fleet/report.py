"""Fleet report rendering: the rack-level view of the three tick modes.

One row per fleet aggregate — makespan, overhead, fleet steal, guest
latency tail, idle (energy proxy) — plus detailed percentile tables for
the distributions the aggregator carries. All formatting happens here;
the aggregates themselves stay integer-exact.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.fleet.aggregate import REPORT_PERCENTILES, FleetAggregate
from repro.metrics.report import format_table
from repro.sim.timebase import fmt_time

#: Columns of :func:`fleet_rows`, in order.
FLEET_HEADERS = (
    "fleet", "hosts", "guests", "makespan", "overhead%", "steal%",
    "lat p50", "lat p99", "idle%",
)


def fleet_rows(aggregates: Mapping[str, FleetAggregate]) -> list[tuple[str, ...]]:
    """One summary row per named aggregate (insertion order)."""
    rows = []
    for name, agg in aggregates.items():
        lat = agg.percentiles("guest_latency")
        rows.append((
            name,
            str(agg.hosts),
            str(agg.guests),
            fmt_time(agg.exec_time_ns),
            f"{agg.overhead_ratio:.1%}",
            f"{agg.steal_ratio:.1%}",
            fmt_time(lat["p50"]),
            fmt_time(lat["p99"]),
            f"{agg.idle_ratio:.1%}",
        ))
    return rows


def format_fleet_table(
    aggregates: Mapping[str, FleetAggregate], *, title: str = "fleet summary"
) -> str:
    """Aligned text table of :func:`fleet_rows`."""
    return format_table(FLEET_HEADERS, fleet_rows(aggregates), title=title)


def format_distributions(agg: FleetAggregate, *, title: str = "") -> str:
    """Percentile table for every distribution of one aggregate."""
    headers = ("distribution", *[f"p{p}" for p in REPORT_PERCENTILES])
    rows = []
    for which in ("host_exec", "host_steal", "guest_latency", "guest_steal"):
        pcts = agg.percentiles(which)
        rows.append((which, *[fmt_time(pcts[f"p{p}"]) for p in REPORT_PERCENTILES]))
    return format_table(headers, rows, title=title)


def format_run_summary(name: str, grid) -> str:
    """One ``<name>: N cells, X cached, Y executed[, Z FAILED]`` line.

    The grid-outcome summary every run driver prints (``fleet run``,
    ``matrix run``): cache hits and failures are always surfaced, not
    just visible to ``--progress`` watchers.
    """
    parts = [
        f"{name}: {len(grid.specs)} cell(s)",
        f"{grid.cache_hits} cached",
        f"{grid.executed} executed",
    ]
    if grid.failed_specs:
        parts.append(f"{len(grid.failed_specs)} FAILED")
    return ", ".join(parts)


def failed_lines(grid) -> list[str]:
    """One ``[FAIL]`` line per failed spec, with its error and attempts."""
    return [
        f"[FAIL] {f.spec.display_label()}: {f.error} "
        f"(after {f.attempts} attempt{'s' if f.attempts != 1 else ''})"
        for f in grid.failed_specs
    ]


def report_lines(aggregates: Mapping[str, FleetAggregate]) -> Iterable[str]:
    """The full ``fleet report`` output, one chunk per table."""
    yield format_fleet_table(aggregates)
    for name, agg in aggregates.items():
        yield ""
        yield format_distributions(agg, title=f"{name}: distributions")
