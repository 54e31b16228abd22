"""Run-level measurement, mirroring the paper's three metrics (§6).

* **VM exits** — from the hypervisor's per-VM counters;
* **system throughput** — total busy CPU cycles for a fixed amount of
  work ("We use CPU cycles as a measure for system throughput");
* **execution time** — simulated wall-clock to workload completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.cpu import CycleDomain, Machine, OVERHEAD_DOMAINS
from repro.metrics.counters import ExitCounters


@dataclass
class RunMetrics:
    """Everything measured in one simulation run."""

    #: Scenario label ("blackscholes/paratick/seq" etc.).
    label: str
    #: Simulated wall-clock from start to workload completion (ns).
    exec_time_ns: int
    #: Total busy cycles across all physical CPUs.
    total_cycles: int
    #: Cycles of useful guest application work (GUEST_USER).
    useful_cycles: int
    #: Cycles in overhead domains (world switches, handlers, pollution...).
    overhead_cycles: int
    #: Exit counters (merged across VMs).
    exits: ExitCounters
    #: Busy-ns ledger by domain.
    ledger: dict[CycleDomain, int] = field(default_factory=dict)
    #: Free-form extras (per-workload throughput units, iteration
    #: counts). Nanosecond and count extras are exact ints and must stay
    #: ints through any merge (see :mod:`repro.fleet.aggregate`); floats
    #: are reserved for genuine rates/ratios.
    extra: dict[str, "int | float | str"] = field(default_factory=dict)

    @property
    def total_exits(self) -> int:
        return self.exits.total

    @property
    def timer_exits(self) -> int:
        return self.exits.timer_related

    @property
    def overhead_ratio(self) -> float:
        """Fraction of busy cycles spent on virtualization overhead."""
        return self.overhead_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def steal_ns(self) -> int:
        """Aggregate vCPU steal time (READY waits), 0 when never queued."""
        return int(self.extra.get("steal_ns", 0))

    @property
    def steal_ratio(self) -> float:
        """Steal time as a fraction of execution time (the guest's %st)."""
        return self.steal_ns / self.exec_time_ns if self.exec_time_ns else 0.0

    def exits_per_second(self) -> float:
        return self.total_exits / (self.exec_time_ns / 1e9) if self.exec_time_ns else 0.0

    # --------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        """JSON-safe encoding; the experiment result cache round-trips
        through this, so it must capture *every* field."""
        return {
            "label": self.label,
            "exec_time_ns": self.exec_time_ns,
            "total_cycles": self.total_cycles,
            "useful_cycles": self.useful_cycles,
            "overhead_cycles": self.overhead_cycles,
            "exits": self.exits.to_dict(),
            "ledger": {d.value: ns for d, ns in sorted(self.ledger.items(), key=lambda kv: kv[0].value)},
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunMetrics":
        """Inverse of :meth:`to_json_dict`; raises on malformed input."""
        return cls(
            label=data["label"],
            exec_time_ns=int(data["exec_time_ns"]),
            total_cycles=int(data["total_cycles"]),
            useful_cycles=int(data["useful_cycles"]),
            overhead_cycles=int(data["overhead_cycles"]),
            exits=ExitCounters.from_dict(data["exits"]),
            ledger={CycleDomain(d): int(ns) for d, ns in data["ledger"].items()},
            extra={k: v for k, v in data["extra"].items()},
        )


def collect_metrics(
    label: str,
    machine: Machine,
    vms: list,
    *,
    exec_time_ns: int,
    extra: Optional[dict[str, float]] = None,
) -> RunMetrics:
    """Assemble :class:`RunMetrics` from a finished simulation."""
    counters = ExitCounters()
    for vm in vms:
        counters = counters.merge(vm.counters)
    ledger = machine.ledger()
    clock = machine.clock
    overhead_ns = sum(ns for d, ns in ledger.items() if d in OVERHEAD_DOMAINS)
    return RunMetrics(
        label=label,
        exec_time_ns=exec_time_ns,
        total_cycles=machine.total_busy_cycles(),
        useful_cycles=machine.total_busy_cycles(CycleDomain.GUEST_USER),
        overhead_cycles=clock.ns_to_cycles(overhead_ns),
        exits=counters,
        ledger=ledger,
        extra=dict(extra or {}),
    )
