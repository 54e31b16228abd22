"""Fleet execution: the sharded grid, and its determinism gate.

:func:`run_fleets` is the one fleet path: it runs every host cell of a
``{fleet: [RunSpec]}`` mapping through the parallel engine (pool +
cache, optionally chaos-injected) and folds each
fleet's per-host metrics into a
:class:`~repro.fleet.aggregate.FleetAggregate`. :func:`run_fleet` is
the one-line form for a single :class:`~repro.fleet.spec.FleetSpec`;
the CLI's ``fleet`` and ``chaos`` commands call :func:`run_fleets`
with the groups :func:`group_host_cells` finds in a matrix.

:func:`identity_problems_for_groups` is the fleet counterpart of
:func:`repro.scenarios.runcheck.identity_problems`: the same fleets run
serially, pooled, into a warm cache, and replayed cached-only must
produce byte-identical per-host results *and* byte-identical fleet
aggregates — additionally under a host-order shuffle, because the
aggregator promises order invariance.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Mapping, Optional, Sequence

from repro.experiments.parallel import FLEET_HOST, GridResult, RunSpec, run_grid
from repro.fleet.aggregate import FleetAggregate, aggregate_hosts, fleet_bytes
from repro.fleet.spec import FleetSpec
from repro.scenarios.runcheck import _identity_runs


def run_fleets(
    groups: Mapping[str, Sequence[RunSpec]],
    *,
    telemetry=None,
    **grid_kwargs,
) -> tuple[Optional[dict[str, FleetAggregate]], GridResult]:
    """Run every host cell of ``groups`` in one grid and aggregate.

    Returns ``(aggregates, grid)``: one aggregate per group key, and
    the grid (per-host metrics, time series) for
    drill-down. ``aggregates`` is ``None`` when any host failed — an
    aggregate over a partial rack would silently under-count.

    Every keyword passes through to
    :func:`~repro.experiments.parallel.run_grid`; a fleet rerun on the
    cache of an interrupted one runs only the unfinished hosts, and its
    aggregate is byte-identical to an uninterrupted run's.
    ``telemetry`` also gets the ``fleet.aggregate`` span.
    """
    grid = run_grid([s for group in groups.values() for s in group],
                    telemetry=telemetry, **grid_kwargs)
    if grid.failed_specs:
        return None, grid
    hosts = sum(len(group) for group in groups.values())
    with (telemetry.span("fleet.aggregate", lane="fleet", fleets=len(groups), hosts=hosts)
          if telemetry is not None else nullcontext()):
        aggregates = {key: aggregate_hosts([grid[s] for s in group])
                      for key, group in groups.items()}
    return aggregates, grid


def run_fleet(
    fleet: FleetSpec, *, series: bool = False, **kwargs
) -> tuple[FleetAggregate, GridResult]:
    """Run every host of ``fleet`` and aggregate: :func:`run_fleets`
    for one fleet.

    ``series=True`` records each host's windowed time series into
    :attr:`~repro.experiments.parallel.GridResult.series`. Raises
    :class:`~repro.experiments.parallel.GridError` if any host failed.
    """
    specs = fleet.host_specs()
    if series:
        specs = [s.with_(series=True) for s in specs]
    aggregates, grid = run_fleets({fleet.display_label(): specs}, **kwargs)
    grid.raise_if_failed()
    return aggregates[fleet.display_label()], grid


def group_host_cells(cells) -> dict[str, list[RunSpec]]:
    """Group expanded matrix cells into fleets (``fleet.host`` only).

    The group key is the cell ID with its ``/h<NN>`` shard suffix
    stripped; specs keep host order within each group.
    """
    groups: dict[str, list[RunSpec]] = {}
    for cell in cells:
        if cell.spec.workload.kind != FLEET_HOST:
            continue
        base, _, shard = cell.id.rpartition("/")
        key = base if shard.startswith("h") and shard[1:].isdigit() else cell.id
        groups.setdefault(key, []).append(cell.spec)
    return groups


def identity_problems_for_groups(
    groups: Mapping[str, Sequence[RunSpec]],
    *,
    jobs: int = 2,
    cache_dir: str,
    progress: Optional[Callable] = None,
) -> list[str]:
    """Byte-identity gate over serial / pooled / warm / cached execution.

    Each execution strategy must yield identical canonical bytes per
    host cell *and* an identical fleet aggregate per group; every
    aggregate must also survive reversing its host merge order
    unchanged (the aggregator's order-invariance promise, checked on
    real data, not just in the property tests). For one
    :class:`FleetSpec`, pass ``{fleet.display_label(): fleet.host_specs()}``.
    """
    grids, problems = _identity_runs(
        [(s.display_label(), s) for group in groups.values() for s in group],
        jobs=jobs, cache_dir=cache_dir, progress=progress, noun="hosts")
    serial = grids["serial"]
    for key, group in groups.items():
        aggregates = {
            name: fleet_bytes(aggregate_hosts([grid[s] for s in group]))
            for name, grid in grids.items()
        }
        reference = aggregates.pop("serial")
        for name, blob in aggregates.items():
            if blob != reference:
                problems.append(f"{key}: {name} fleet aggregate differs from serial run")
        shuffled = fleet_bytes(aggregate_hosts([serial[s] for s in reversed(group)]))
        if shuffled != reference:
            problems.append(f"{key}: fleet aggregate is sensitive to host merge order")
    return problems
