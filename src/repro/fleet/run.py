"""Fleet execution: the sharded grid, and its determinism gate.

:func:`run_fleet` compiles a :class:`~repro.fleet.spec.FleetSpec` into
per-host cells, hands them to the parallel engine (pool + cache), and
folds the per-host metrics into a :class:`~repro.fleet.aggregate.FleetAggregate`.

:func:`fleet_identity_problems` is the fleet counterpart of
:func:`repro.scenarios.runcheck.identity_problems`: the same fleet run
serially, pooled, into a warm cache, and replayed cached-only must
produce byte-identical per-host results *and* byte-identical fleet
aggregates — additionally under a host-order shuffle, because the
aggregator promises order invariance.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.experiments.parallel import FLEET_HOST, GridResult, RunSpec, run_grid
from repro.fleet.aggregate import FleetAggregate, aggregate_hosts, fleet_bytes
from repro.fleet.spec import FleetSpec
from repro.scenarios.runcheck import _identity_runs


def run_fleet(
    fleet: FleetSpec,
    *,
    jobs: Optional[int] = None,
    cache_dir=None,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable] = None,
    series: bool = False,
    telemetry=None,
    journal=None,
    resume=None,
    chaos=None,
) -> tuple[FleetAggregate, GridResult]:
    """Run every host of ``fleet`` and aggregate.

    Returns ``(aggregate, grid)`` — the grid retains per-host metrics
    (and obs artifacts when ``fleet.profile``, per-host time series in
    :attr:`~repro.experiments.parallel.GridResult.series` when
    ``series=True``) for drill-down. Raises
    :class:`~repro.experiments.parallel.GridError` if any host failed:
    a fleet aggregate over a partial rack would silently under-count.

    ``journal`` / ``resume`` / ``chaos`` pass straight through to
    :func:`~repro.experiments.parallel.run_grid` — a resumed fleet
    re-verifies every journaled host shard against its cached bytes,
    so the aggregate is byte-identical to an uninterrupted run's.

    ``telemetry`` (a :class:`repro.telemetry.HarnessTelemetry`) wraps
    the grid and the aggregation in harness spans; like everywhere
    else, a detached fleet pays one boolean check.
    """
    specs = fleet.host_specs()
    if series:
        specs = [s.with_(series=True) for s in specs]
    tel = telemetry if (telemetry is not None and telemetry.enabled) else None
    if resume is not None and journal is None:
        journal = resume
    kwargs: dict = dict(jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
                        progress=progress, telemetry=telemetry,
                        journal=journal, resume=resume, chaos=chaos)
    if timeout_s is not None:
        kwargs["timeout_s"] = timeout_s
    grid = run_grid(specs, **kwargs).raise_if_failed()
    metrics = [grid[s] for s in specs]
    artifacts = {grid[s].label: art for s, art in grid.artifacts.items()}
    if tel is not None:
        with tel.span("fleet.aggregate", lane="fleet", fleet=fleet.display_label(),
                      hosts=len(metrics)):
            agg = aggregate_hosts(metrics, artifacts or None)
        tel.counter("fleet_hosts", len(metrics), help="fleet host shards aggregated")
        return agg, grid
    return aggregate_hosts(metrics, artifacts or None), grid


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
    real data, not just in the property tests).
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


def fleet_identity_problems(
    fleet: FleetSpec,
    *,
    jobs: int = 2,
    cache_dir: str,
    progress: Optional[Callable] = None,
) -> list[str]:
    """The identity gate for one programmatic :class:`FleetSpec`."""
    return identity_problems_for_groups(
        {fleet.display_label(): fleet.host_specs()},
        jobs=jobs, cache_dir=cache_dir, progress=progress,
    )
