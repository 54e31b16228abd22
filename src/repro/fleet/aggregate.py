"""Fleet-level aggregation: integer-exact, order-invariant merging.

Per-host :class:`~repro.metrics.perf.RunMetrics` fold into one
:class:`FleetAggregate`. The merge is designed around three invariants
the property tests pin down:

* **conservation** — every summed quantity (cycles, steal, exits,
  ledger nanoseconds) is added with Python
  integer arithmetic only; no float ever touches a nanosecond, so fleet
  totals equal per-host sums *exactly*, at any scale (>2^53 included);
* **associativity + commutativity** — :meth:`FleetAggregate.merge` uses
  only sums, maxima, key-wise counter addition and sorted multiset
  union, so any partition of hosts into merge batches, in any order,
  produces the same value; :data:`EMPTY`-equivalent
  :meth:`FleetAggregate.empty` is the identity;
* **byte stability** — :func:`fleet_bytes` canonicalizes to sorted-key
  compact JSON, so equal aggregates are equal *bytes* regardless of job
  count, cache state, or host arrival order.

Percentiles over the per-host/per-guest distributions use the exact
nearest-rank definition on sorted integers (no interpolation — an
interpolated percentile is a float and would break bit-identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ReproError
from repro.metrics.counters import ExitCounters
from repro.metrics.perf import RunMetrics

#: Percentiles a fleet report shows (exact nearest-rank integers).
REPORT_PERCENTILES = (50, 90, 95, 99, 100)


class AggregateError(ReproError):
    """A fleet aggregate could not be built from these inputs."""


def percentile_ns(sorted_values: tuple[int, ...], p: int) -> int:
    """Exact nearest-rank percentile of a sorted integer multiset.

    ``p`` in [0, 100]; rank ``ceil(p/100 * n)`` (1-based), clamped to
    the ends. All-integer — returns an element of the input, never an
    interpolated value.
    """
    if not 0 <= p <= 100:
        raise AggregateError(f"percentile out of range: {p}")
    n = len(sorted_values)
    if n == 0:
        return 0
    rank = -(-p * n // 100)  # ceil(p*n/100), integer-exact
    return sorted_values[max(0, min(n, rank) - 1)]


def _merge_sorted(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted multiset union (keeps duplicates)."""
    return tuple(sorted(a + b))


@dataclass(frozen=True)
class FleetAggregate:
    """The fleet's merged measurement — a monoid under :meth:`merge`."""

    hosts: int = 0
    guests: int = 0
    #: Total guest vCPUs across the fleet (normalizes steal / idle).
    vcpus: int = 0
    #: Fleet makespan: the slowest host's execution time.
    exec_time_ns: int = 0
    total_cycles: int = 0
    useful_cycles: int = 0
    overhead_cycles: int = 0
    #: Total vCPU steal across every guest of every host.
    steal_ns: int = 0
    #: Total halted (idle) time — the fleet's energy proxy, together
    #: with the C-state residency breakdown.
    halted_ns: int = 0
    virtual_ticks: int = 0
    exits: ExitCounters = field(default_factory=ExitCounters)
    ledger: tuple[tuple[str, int], ...] = ()
    cstate_ns: tuple[tuple[str, int], ...] = ()
    #: Sorted per-host distributions (exact integers).
    host_exec_ns: tuple[int, ...] = ()
    host_steal_ns: tuple[int, ...] = ()
    #: Sorted per-guest distributions (arrival-to-completion latency
    #: and per-guest steal), pooled across all hosts.
    guest_latency_ns: tuple[int, ...] = ()
    guest_steal_ns: tuple[int, ...] = ()

    # --------------------------------------------------------------- monoid

    @classmethod
    def empty(cls) -> "FleetAggregate":
        """The merge identity (also the empty fleet's aggregate)."""
        return cls()

    def merge(self, other: "FleetAggregate") -> "FleetAggregate":
        """Associative, commutative, integer-exact combine."""
        ledger: dict[str, int] = dict(self.ledger)
        for k, v in other.ledger:
            ledger[k] = ledger.get(k, 0) + v
        cstate: dict[str, int] = dict(self.cstate_ns)
        for k, v in other.cstate_ns:
            cstate[k] = cstate.get(k, 0) + v
        return FleetAggregate(
            hosts=self.hosts + other.hosts,
            guests=self.guests + other.guests,
            vcpus=self.vcpus + other.vcpus,
            exec_time_ns=max(self.exec_time_ns, other.exec_time_ns),
            total_cycles=self.total_cycles + other.total_cycles,
            useful_cycles=self.useful_cycles + other.useful_cycles,
            overhead_cycles=self.overhead_cycles + other.overhead_cycles,
            steal_ns=self.steal_ns + other.steal_ns,
            halted_ns=self.halted_ns + other.halted_ns,
            virtual_ticks=self.virtual_ticks + other.virtual_ticks,
            exits=self.exits.merge(other.exits),
            ledger=tuple(sorted(ledger.items())),
            cstate_ns=tuple(sorted(cstate.items())),
            host_exec_ns=_merge_sorted(self.host_exec_ns, other.host_exec_ns),
            host_steal_ns=_merge_sorted(self.host_steal_ns, other.host_steal_ns),
            guest_latency_ns=_merge_sorted(self.guest_latency_ns, other.guest_latency_ns),
            guest_steal_ns=_merge_sorted(self.guest_steal_ns, other.guest_steal_ns),
        )

    # ------------------------------------------------------------ ingestion

    @classmethod
    def from_host(cls, metrics: RunMetrics) -> "FleetAggregate":
        """Singleton aggregate of one host's :class:`RunMetrics`."""
        extra = metrics.extra
        guests = int(extra.get("guests", 0))
        if guests < 1:
            raise AggregateError(
                f"{metrics.label}: not a fleet host result (no 'guests' extra); "
                f"was this cell produced by a fleet.host spec?"
            )
        latencies = []
        steals = []
        for g in range(guests):
            lat = extra.get(f"g{g:02d}_latency_ns")
            if lat is None:
                raise AggregateError(
                    f"{metrics.label}: missing per-guest key g{g:02d}_latency_ns"
                )
            latencies.append(int(lat))
            steals.append(int(extra.get(f"g{g:02d}_steal_ns", 0)))
        cstate = tuple(sorted(
            (k.removeprefix("cstate_").removesuffix("_ns"), int(v))
            for k, v in extra.items()
            if k.startswith("cstate_") and k.endswith("_ns")
        ))
        return cls(
            hosts=1,
            guests=guests,
            vcpus=int(extra.get("vcpus", guests)),
            exec_time_ns=int(metrics.exec_time_ns),
            total_cycles=int(metrics.total_cycles),
            useful_cycles=int(metrics.useful_cycles),
            overhead_cycles=int(metrics.overhead_cycles),
            steal_ns=int(extra.get("steal_ns", 0)),
            halted_ns=int(extra.get("halted_ns", 0)),
            virtual_ticks=int(extra.get("virtual_ticks", 0)),
            exits=ExitCounters().merge(metrics.exits),
            ledger=tuple(sorted(
                (d.value, int(ns)) for d, ns in metrics.ledger.items()
            )),
            cstate_ns=cstate,
            host_exec_ns=(int(metrics.exec_time_ns),),
            host_steal_ns=(int(extra.get("steal_ns", 0)),),
            guest_latency_ns=tuple(sorted(latencies)),
            guest_steal_ns=tuple(sorted(steals)),
        )

    # ------------------------------------------------------------- readouts

    @property
    def overhead_ratio(self) -> float:
        return self.overhead_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def steal_ratio(self) -> float:
        """Fleet steal per vCPU-second of makespan (the rack's %st)."""
        denom = self.exec_time_ns * self.vcpus
        return self.steal_ns / denom if denom else 0.0

    @property
    def idle_ratio(self) -> float:
        """Halted fraction of fleet vCPU-time — the energy proxy."""
        denom = self.exec_time_ns * self.vcpus
        return self.halted_ns / denom if denom else 0.0

    def percentiles(self, which: str) -> dict[str, int]:
        """Nearest-rank percentile row for one distribution.

        ``which`` is one of ``host_exec`` / ``host_steal`` /
        ``guest_latency`` / ``guest_steal``.
        """
        values = {
            "host_exec": self.host_exec_ns,
            "host_steal": self.host_steal_ns,
            "guest_latency": self.guest_latency_ns,
            "guest_steal": self.guest_steal_ns,
        }.get(which)
        if values is None:
            raise AggregateError(f"unknown distribution {which!r}")
        return {f"p{p}": percentile_ns(values, p) for p in REPORT_PERCENTILES}

    def to_json_dict(self) -> dict:
        """Canonical JSON-safe encoding — every field integer-exact."""
        return {
            "hosts": self.hosts,
            "guests": self.guests,
            "vcpus": self.vcpus,
            "exec_time_ns": self.exec_time_ns,
            "total_cycles": self.total_cycles,
            "useful_cycles": self.useful_cycles,
            "overhead_cycles": self.overhead_cycles,
            "steal_ns": self.steal_ns,
            "halted_ns": self.halted_ns,
            "virtual_ticks": self.virtual_ticks,
            "exits": self.exits.to_dict(),
            "ledger": dict(self.ledger),
            "cstate_ns": dict(self.cstate_ns),
            "distributions": {
                "host_exec_ns": list(self.host_exec_ns),
                "host_steal_ns": list(self.host_steal_ns),
                "guest_latency_ns": list(self.guest_latency_ns),
                "guest_steal_ns": list(self.guest_steal_ns),
            },
            "percentiles": {
                which: self.percentiles(which)
                for which in ("host_exec", "host_steal", "guest_latency", "guest_steal")
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FleetAggregate":
        """Inverse of :meth:`to_json_dict` (golden-fixture replay)."""
        dist = data["distributions"]
        return cls(
            hosts=int(data["hosts"]),
            guests=int(data["guests"]),
            vcpus=int(data.get("vcpus", data["guests"])),
            exec_time_ns=int(data["exec_time_ns"]),
            total_cycles=int(data["total_cycles"]),
            useful_cycles=int(data["useful_cycles"]),
            overhead_cycles=int(data["overhead_cycles"]),
            steal_ns=int(data["steal_ns"]),
            halted_ns=int(data["halted_ns"]),
            virtual_ticks=int(data["virtual_ticks"]),
            exits=ExitCounters.from_dict(data["exits"]),
            ledger=tuple(sorted((k, int(v)) for k, v in data["ledger"].items())),
            cstate_ns=tuple(sorted((k, int(v)) for k, v in data["cstate_ns"].items())),
            host_exec_ns=tuple(int(v) for v in dist["host_exec_ns"]),
            host_steal_ns=tuple(int(v) for v in dist["host_steal_ns"]),
            guest_latency_ns=tuple(int(v) for v in dist["guest_latency_ns"]),
            guest_steal_ns=tuple(int(v) for v in dist["guest_steal_ns"]),
        )


def aggregate_hosts(host_metrics: Iterable[RunMetrics]) -> FleetAggregate:
    """Fold per-host metrics into one fleet aggregate.

    Input order does not matter: the result is byte-identical for any
    permutation or batching of the hosts (the property tests hold the
    merge to that).
    """
    agg = FleetAggregate.empty()
    for m in host_metrics:
        agg = agg.merge(FleetAggregate.from_host(m))
    return agg


def fleet_bytes(agg: FleetAggregate) -> bytes:
    """Deterministic byte encoding (identity checks, golden fixtures)."""
    import json

    return json.dumps(agg.to_json_dict(), sort_keys=True,
                      separators=(",", ":")).encode()

