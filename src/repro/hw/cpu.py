"""Physical CPUs and per-domain cycle accounting.

The paper's throughput metric is CPU cycles consumed (§6: "We use CPU
cycles as a measure for system throughput"). We therefore attribute every
busy nanosecond on every physical CPU to a :class:`CycleDomain`, which
lets the reports split useful guest work from virtualization overhead
exactly the way ``perf`` split it on the authors' testbed.

Accounting convention: the per-vCPU state machine in :mod:`repro.host.kvm`
is the only driver of a pinned CPU's timeline and accounts each execution
segment exactly once, *in arrears* (when the segment ends — which is the
only correct choice under preemption, since an interrupt may truncate a
segment that was scheduled to run longer). The ledger itself is therefore
a plain per-domain counter: a list indexed by ``CycleDomain.index``, so
the hot path never hashes an enum, and :meth:`PhysicalCPU.ledger`
rebuilds the per-domain dict, in ``CycleDomain`` order, when it is read.
Two domains — ``HOST_TICK`` (a host tick arriving while already in root
mode) and ``HOST_IO`` (vhost backend service) — represent work that runs
concurrently with the vCPU timeline and are booked without occupying it.
Timeline consistency is asserted by the integration tests via the
invariant ``busy_ns(cpu) − HOST_TICK − HOST_IO <= elapsed``.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.config import MachineSpec
from repro.errors import HardwareError
from repro.sim.engine import Simulator
from repro.sim.timebase import CpuClock


class CycleDomain(enum.Enum):
    """Where a busy CPU nanosecond was spent."""

    #: Application work inside the guest (the "useful" cycles).
    GUEST_USER = "guest_user"
    #: Guest kernel work (tick handlers, scheduler, syscalls, IRQ glue).
    GUEST_KERNEL = "guest_kernel"
    #: Hardware world-switch cost of VM exits and entries.
    VMX_TRANSITION = "vmx_transition"
    #: Cache/TLB refill penalty the guest pays after each world switch.
    POLLUTION = "pollution"
    #: Hypervisor exit-handler work (KVM).
    HOST_HANDLER = "host_handler"
    #: Host scheduler tick processing.
    HOST_TICK = "host_tick"
    #: Host-side I/O backend work (virtio/vhost service).
    HOST_IO = "host_io"
    #: Host scheduling (vCPU block/wake, context switches).
    HOST_SCHED = "host_sched"
    #: KVM halt-polling busy-wait cycles.
    HALT_POLL = "halt_poll"

    def __init__(self, value: str) -> None:
        #: Definition-order position: the member's slot in a CPU's ledger.
        self.index = len(type(self).__members__)


#: Domains counted as virtualization overhead in reports.
OVERHEAD_DOMAINS = frozenset(
    {
        CycleDomain.VMX_TRANSITION,
        CycleDomain.POLLUTION,
        CycleDomain.HOST_HANDLER,
        CycleDomain.HOST_SCHED,
        CycleDomain.HALT_POLL,
    }
)


class PhysicalCPU:
    """One physical CPU: identity, socket, and busy-time ledger."""

    __slots__ = ("index", "socket", "clock", "_sim", "_busy_ns", "observer")

    def __init__(self, sim: Simulator, index: int, socket: int, clock: CpuClock):
        self._sim = sim
        self.index = index
        self.socket = socket
        self.clock = clock
        self._busy_ns = [0] * len(CycleDomain)
        #: Ledger observer (the obs-layer sampling profiler). None in
        #: production runs, so the hot path pays one attribute check —
        #: the accounting analogue of ``Tracer.enabled``.
        self.observer = None

    # -------------------------------------------------------------- ledger

    def account(self, domain: CycleDomain, ns: int) -> None:
        """Record ``ns`` nanoseconds of busy time in ``domain``."""
        if ns < 0:
            raise HardwareError(f"cpu{self.index}: negative busy time {ns}")
        self._busy_ns[domain.index] += ns
        if self.observer is not None:
            self.observer.on_account(self, domain, ns)

    # ------------------------------------------------------------- readouts

    def busy_ns(self, domain: Optional[CycleDomain] = None) -> int:
        """Busy nanoseconds in one domain, or total across all."""
        if domain is not None:
            return self._busy_ns[domain.index]
        return sum(self._busy_ns)

    def busy_cycles(self, domain: Optional[CycleDomain] = None) -> int:
        """Busy cycles (ns converted at the nominal clock)."""
        return self.clock.ns_to_cycles(self.busy_ns(domain))

    def ledger(self) -> dict[CycleDomain, int]:
        """Copy of the per-domain busy-ns table, in ``CycleDomain`` order."""
        return dict(zip(CycleDomain, self._busy_ns))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<pCPU{self.index} socket={self.socket} busy={self.busy_ns()}ns>"


class Machine:
    """The physical host: a set of CPUs plus the spec they were built from."""

    def __init__(self, sim: Simulator, spec: MachineSpec):
        self.sim = sim
        self.spec = spec
        self.clock = CpuClock(spec.freq_hz)
        self.cpus = [
            PhysicalCPU(sim, i, spec.socket_of(i), self.clock)
            for i in range(spec.total_cpus)
        ]

    def cpu(self, index: int) -> PhysicalCPU:
        if not 0 <= index < len(self.cpus):
            raise HardwareError(f"no such CPU: {index}")
        return self.cpus[index]

    def total_busy_ns(self, domain: Optional[CycleDomain] = None) -> int:
        """Machine-wide busy time, optionally filtered by domain."""
        return sum(c.busy_ns(domain) for c in self.cpus)

    def total_busy_cycles(self, domain: Optional[CycleDomain] = None) -> int:
        return self.clock.ns_to_cycles(self.total_busy_ns(domain))

    def ledger(self) -> dict[CycleDomain, int]:
        """Machine-wide per-domain busy-ns table, in ``CycleDomain`` order."""
        columns = zip(*(c._busy_ns for c in self.cpus))
        return dict(zip(CycleDomain, map(sum, columns)))

    def same_socket(self, a: int, b: int) -> bool:
        """True when CPUs ``a`` and ``b`` share a socket (NUMA locality)."""
        return self.cpu(a).socket == self.cpu(b).socket
