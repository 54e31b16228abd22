"""Fleet topology: racks of hosts, guests per host, burst arrivals.

A *fleet* is a datacenter-style scenario: ``hosts`` identical machines,
each packing ``guests_per_host`` guest VMs at a vCPU:pCPU consolidation
ratio of ``consolidation`` (2-16x in the overcommit regime the paper
never measures), with guests arriving according to a *burst profile*
instead of all at once.

The sharding model is the whole point: every host is an independent
deterministic simulation, so a fleet compiles to one
:class:`~repro.experiments.parallel.RunSpec` **per host** — a grid of
cells the parallel engine fans out over worker processes and caches
content-addressed, exactly like any paper table. The fleet-level answer
is then a pure, integer-exact merge of per-host results
(:mod:`repro.fleet.aggregate`), byte-identical regardless of job count
or cache state.

Host specs use the special workload kind :data:`FLEET_HOST`
(``"fleet.host"``); the guest workload and every fleet knob ride inside
the :class:`~repro.experiments.parallel.WorkloadSpec` parameters (all
JSON scalars — nested guest params are canonical-JSON encoded), so the
content-addressed cache key covers the complete host description.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.config import TickMode
from repro.errors import ConfigError
from repro.experiments.parallel import FLEET_HOST, RunSpec, WorkloadSpec
from repro.sim.rng import RngStreams
from repro.sim.timebase import MSEC

__all__ = [
    "BURSTS",
    "DEFAULT_BURST_WINDOW_NS",
    "FLEET_HOST",
    "FleetSpec",
    "arrival_schedule",
    "fleet_params",
    "host_sim_seed",
]

#: Recognised burst profiles (guest arrival patterns within a host).
BURSTS = ("burst", "ramp", "waves", "poisson")

#: Default arrival window for the spread-out profiles.
DEFAULT_BURST_WINDOW_NS = 4 * MSEC

#: Prime stride separating per-host simulation seeds. Hosts share the
#: fleet's RunSpec seed; the *simulation* seed folds the host index in
#: so each host sees independent randomness while staying a pure
#: function of (seed, host_index).
HOST_SEED_STRIDE = 1_000_003


def host_sim_seed(seed: int, host_index: int) -> int:
    """The per-host simulator seed (pure, collision-spread)."""
    return (seed * HOST_SEED_STRIDE + host_index) % (1 << 62)


def arrival_schedule(
    burst: str,
    guests: int,
    *,
    window_ns: int = DEFAULT_BURST_WINDOW_NS,
    waves: int = 4,
    seed: int = 0,
) -> tuple[int, ...]:
    """Per-guest arrival offsets (ns) for one host, deterministically.

    * ``burst`` — everyone at t=0 (the thundering herd);
    * ``ramp`` — evenly spaced across ``window_ns``;
    * ``waves`` — ``waves`` groups, one group every ``window_ns/waves``;
    * ``poisson`` — exponential inter-arrivals with mean
      ``window_ns/guests``, clamped to ``window_ns`` (drawn from the
      dedicated ``fleet.burst`` RNG stream of ``seed``).
    """
    if burst not in BURSTS:
        raise ConfigError(f"unknown burst profile {burst!r} (know {BURSTS})")
    if guests < 1:
        raise ConfigError(f"need at least one guest, got {guests}")
    if window_ns < 0:
        raise ConfigError(f"negative burst window {window_ns}")
    if waves < 1:
        raise ConfigError(f"waves must be >= 1, got {waves}")
    if burst == "burst":
        return (0,) * guests
    if burst == "ramp":
        return tuple(g * window_ns // guests for g in range(guests))
    if burst == "waves":
        return tuple((g % waves) * window_ns // waves for g in range(guests))
    # poisson
    rng = RngStreams(seed)
    mean = max(1.0, window_ns / guests)
    out: list[int] = []
    now = 0
    for _ in range(guests):
        now += rng.exponential_ns("fleet.burst", mean)
        out.append(min(now, window_ns))
    return tuple(out)


@dataclass(frozen=True)
class FleetSpec:
    """A full fleet scenario: topology + guest workload + knobs.

    ``workload`` names the per-guest workload (any registered factory
    kind); every guest on every host runs a fresh instance of it.
    ``consolidation`` is the vCPU:pCPU packing ratio — a host's pCPU
    count is ``ceil(guests * vcpus_per_guest / consolidation)``.
    """

    name: str
    workload: WorkloadSpec
    tick_mode: TickMode
    hosts: int = 4
    guests_per_host: int = 8
    consolidation: int = 4
    burst: str = "burst"
    burst_window_ns: int = DEFAULT_BURST_WINDOW_NS
    burst_waves: int = 4
    seed: int = 0
    tick_hz: int = 250
    noise: bool = False
    cpuidle: bool = False
    horizon_ns: Optional[int] = None
    perturbations: tuple = ()
    #: Timer architecture every host in the fleet simulates.
    arch: str = "x86"
    #: Extra label segments between the name and the host shard
    #: (the matrix DSL threads its cell-ID parts through here).
    label_parts: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise ConfigError(f"fleet needs >= 1 host, got {self.hosts}")
        if self.guests_per_host < 1:
            raise ConfigError(
                f"fleet needs >= 1 guest per host, got {self.guests_per_host}"
            )
        if self.consolidation < 1:
            raise ConfigError(
                f"consolidation ratio must be >= 1, got {self.consolidation}"
            )
        if self.burst not in BURSTS:
            raise ConfigError(f"unknown burst profile {self.burst!r} (know {BURSTS})")

    @property
    def total_guests(self) -> int:
        return self.hosts * self.guests_per_host

    def display_label(self) -> str:
        parts = [self.name, *self.label_parts]
        return "/".join(parts)

    def host_label(self, host_index: int) -> str:
        return f"{self.display_label()}/h{host_index:02d}"

    def host_spec(self, host_index: int) -> RunSpec:
        """The one grid cell simulating host ``host_index``.

        The guest workload's nested parameters are canonical-JSON
        encoded (sorted keys, compact separators) so the WorkloadSpec
        stays hashable and the cache key is stable.
        """
        if not 0 <= host_index < self.hosts:
            raise ConfigError(
                f"host index {host_index} out of range 0..{self.hosts - 1}"
            )
        params_json = json.dumps(dict(self.workload.params), sort_keys=True,
                                 separators=(",", ":"))
        ws = WorkloadSpec.make(
            FLEET_HOST,
            guest_kind=self.workload.kind,
            guest_params=params_json,
            guests=self.guests_per_host,
            consolidation=self.consolidation,
            burst=self.burst,
            burst_window_ns=self.burst_window_ns,
            burst_waves=self.burst_waves,
            host_index=host_index,
        )
        return RunSpec(
            workload=ws,
            tick_mode=self.tick_mode,
            seed=self.seed,
            tick_hz=self.tick_hz,
            noise=self.noise,
            cpuidle=self.cpuidle,
            horizon_ns=self.horizon_ns,
            perturbations=tuple(self.perturbations),
            arch=self.arch,
            label=self.host_label(host_index),
        )

    def host_specs(self) -> list[RunSpec]:
        """All host cells, in host order (the grid the engine runs)."""
        return [self.host_spec(h) for h in range(self.hosts)]


def fleet_params(spec: RunSpec) -> dict:
    """Decode a ``fleet.host`` RunSpec's workload parameters.

    Returns the keyword dict :func:`repro.fleet.hostsim.run_host`
    consumes (guest kind/params, topology, burst knobs).
    """
    if spec.workload.kind != FLEET_HOST:
        raise ConfigError(
            f"not a fleet host spec: workload kind {spec.workload.kind!r}"
        )
    p = spec.workload.kwargs()
    return {
        "guest_kind": p["guest_kind"],
        "guest_params": json.loads(p["guest_params"]),
        "guests": int(p["guests"]),
        "consolidation": int(p["consolidation"]),
        "burst": p["burst"],
        "burst_window_ns": int(p["burst_window_ns"]),
        "burst_waves": int(p["burst_waves"]),
        "host_index": int(p["host_index"]),
    }
