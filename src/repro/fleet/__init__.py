"""Fleet-scale overcommit simulation (racks of hosts, sharded per host).

The paper measures paratick on one host and never overcommits; this
package extends the reproduction to the datacenter regime — many hosts,
each packing guests at 2-16x consolidation with bursty arrivals — while
keeping every result deterministic and content-addressed:

* :mod:`repro.fleet.spec` — :class:`FleetSpec`, the one description of
  a fleet (topology + burst profiles); compiles each host to one
  ``fleet.host`` :class:`~repro.experiments.parallel.RunSpec`;
* :mod:`repro.fleet.hostsim` — the per-host multi-VM simulation (the
  shard the parallel engine executes);
* :mod:`repro.fleet.aggregate` — integer-exact, order-invariant merge of
  per-host results into fleet percentiles;
* :mod:`repro.fleet.run` — :func:`run_fleets`, the one path that runs
  and aggregates fleets, and the byte-identity gate;
* :mod:`repro.fleet.report` — rack-level summary tables.
"""

from repro.fleet.aggregate import (
    FleetAggregate,
    aggregate_hosts,
    fleet_bytes,
    percentile_ns,
)
from repro.fleet.hostsim import run_host
from repro.fleet.report import failed_lines, format_run_summary
from repro.fleet.run import (
    group_host_cells,
    identity_problems_for_groups,
    run_fleet,
    run_fleets,
)
from repro.fleet.spec import (
    BURSTS,
    FLEET_HOST,
    FleetSpec,
    arrival_schedule,
    fleet_params,
    host_sim_seed,
)

__all__ = [
    "BURSTS",
    "FLEET_HOST",
    "FleetAggregate",
    "FleetSpec",
    "aggregate_hosts",
    "arrival_schedule",
    "failed_lines",
    "fleet_bytes",
    "format_run_summary",
    "fleet_params",
    "group_host_cells",
    "host_sim_seed",
    "identity_problems_for_groups",
    "percentile_ns",
    "run_fleet",
    "run_fleets",
    "run_host",
]
