"""Top-level configuration objects shared across the stack.

:class:`TickMode` selects the guest scheduler-tick mechanism under test —
the three columns of the paper's comparison. :class:`MachineSpec`
describes the simulated host (the paper's testbed is a 4-socket,
20-CPU-per-socket NUMA server). :class:`VmSpec` describes one guest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.timebase import hz_to_period_ns


class TickMode(enum.Enum):
    """Guest scheduler-tick management mechanism (paper §2, §4).

    * ``PERIODIC`` — classic periodic tick: every vCPU takes a tick
      interrupt at ``f_tick`` regardless of load (§3.1).
    * ``TICKLESS`` — Linux dynticks-idle: the tick is stopped on idle
      entry and re-armed on idle exit (§3.2, Fig. 1). This is the
      paper's "vanilla" baseline.
    * ``PARATICK`` — virtual scheduler ticks: the guest never manages a
      tick timer; the host injects vector-235 virtual ticks on VM entry
      (§4–5, Figs. 2–3). This is the paper's contribution.
    """

    PERIODIC = "periodic"
    TICKLESS = "tickless"
    PARATICK = "paratick"


class IoDeviceKind(enum.Enum):
    """Storage device latency classes (paper §4.2, §6.3)."""

    HDD = "hdd"
    SATA_SSD = "sata-ssd"
    NVME_SSD = "nvme-ssd"


@dataclass(frozen=True)
class MachineSpec:
    """Physical host description.

    Defaults mirror the paper's testbed: 4 sockets x 20 CPUs. The
    frequency is a nominal 2.2 GHz Xeon-class clock; only ratios matter
    for the reproduced results.
    """

    sockets: int = 4
    cpus_per_socket: int = 20
    freq_hz: int = 2_200_000_000
    host_tick_hz: int = 250
    #: Multiplier on wakeup/IPI cost when waker and wakee are on
    #: different sockets (NUMA effect; used by the large-VM scenario).
    cross_socket_penalty: float = 1.6

    def __post_init__(self) -> None:
        if self.sockets <= 0 or self.cpus_per_socket <= 0:
            raise ConfigError("machine must have at least one socket and CPU")
        if self.freq_hz <= 0:
            raise ConfigError("CPU frequency must be positive")
        if self.host_tick_hz <= 0:
            raise ConfigError("host tick frequency must be positive")
        if self.cross_socket_penalty < 1.0:
            raise ConfigError("cross-socket penalty must be >= 1.0")

    @property
    def total_cpus(self) -> int:
        return self.sockets * self.cpus_per_socket

    @property
    def host_tick_period_ns(self) -> int:
        return hz_to_period_ns(self.host_tick_hz)

    def socket_of(self, cpu_index: int) -> int:
        """Socket number hosting physical CPU ``cpu_index``."""
        if not 0 <= cpu_index < self.total_cpus:
            raise ConfigError(f"cpu index {cpu_index} out of range")
        return cpu_index // self.cpus_per_socket


@dataclass(frozen=True)
class VmSpec:
    """One guest VM: vCPU count, tick mode and tick frequency.

    ``pinned_cpus`` optionally maps vCPUs 1:1 onto physical CPUs (the
    paper's evaluation never overcommits, so all headline experiments
    pin). Leaving it None lets the host scheduler place vCPUs.
    """

    name: str = "vm0"
    vcpus: int = 1
    tick_mode: TickMode = TickMode.TICKLESS
    tick_hz: int = 250
    pinned_cpus: tuple[int, ...] | None = None
    #: Enable the background daemon-noise model (periodic brief wakeups
    #: from kernel threads / system daemons present on any real guest).
    noise: bool = True
    #: Enable the cpuidle (C-state) model: the idle governor picks a
    #: state from the predicted idle length, wake-ups pay the state's
    #: exit latency, and per-state residency is tracked for the energy
    #: model. Off by default (the paper does not model idle states);
    #: used by the energy extension benchmark.
    cpuidle: bool = False
    #: Timer architecture this guest targets; must match the hosting
    #: hypervisor's arch (see :mod:`repro.hw.timerhw`).
    arch: str = "x86"

    def __post_init__(self) -> None:
        if self.arch not in ("x86", "arm"):
            raise ConfigError(f"unknown arch {self.arch!r}; know ('x86', 'arm')")
        if self.vcpus <= 0:
            raise ConfigError("VM must have at least one vCPU")
        if self.tick_hz <= 0:
            raise ConfigError("guest tick frequency must be positive")
        if self.pinned_cpus is not None and len(self.pinned_cpus) != self.vcpus:
            raise ConfigError(
                f"pinned_cpus has {len(self.pinned_cpus)} entries for {self.vcpus} vCPUs"
            )

    @property
    def tick_period_ns(self) -> int:
        return hz_to_period_ns(self.tick_hz)


@dataclass(frozen=True)
class HostFeatures:
    """Optional KVM features (§6: both disabled in the paper's eval).

    * ``halt_poll_ns`` — KVM halt polling window; 0 disables (paper
      disabled it because polling burns cycles without improving
      runtime for contended workloads).

    Pause-loop exiting (the paper's other disabled feature) and posted
    interrupts are not modelled: no guest model spins, and every
    interrupt reaching a running vCPU takes an exit (the paper's §3
    exit accounting).
    """

    halt_poll_ns: int = 0
    #: §5.1's heuristic: a pending guest local-timer interrupt at VM
    #: entry is assumed to act as a tick (updates ``last_tick`` instead
    #: of injecting vector 235). Disabled only by the ablation bench.
    paratick_last_tick_heuristic: bool = True
    #: APICv-style virtual EOI. When False (pre-APICv hosts), every
    #: handled interrupt's EOI write traps — one extra MSR-write exit
    #: per injected vector, in every tick mode.
    virtual_eoi: bool = True
    #: §4.1's general design for host/guest tick-frequency mismatch:
    #: when the host tick alone cannot deliver virtual ticks at the
    #: guest's declared rate, arm the preemption timer as a backstop so
    #: an injection opportunity exists each guest tick period. The
    #: paper's own implementation omits this (§5.1 assumes equal
    #: frequencies, leaving it as future work); off by default to match
    #: the paper's artifact, exercised by the ablation bench.
    paratick_rate_adapt: bool = False

    def __post_init__(self) -> None:
        if self.halt_poll_ns < 0:
            raise ConfigError("halt_poll_ns must be >= 0")
