"""Host CPU scheduler.

Places vCPUs on physical CPUs. Two regimes:

* **pinned 1:1** — the paper's evaluation setup (§6 never overcommits;
  PLE is disabled precisely because each vCPU owns a physical CPU). A
  pinned vCPU is the only candidate for its CPU, so scheduling reduces
  to run/block bookkeeping.
* **time-shared** — round-robin among runnable vCPUs sharing a CPU, with
  preemption at host-tick boundaries. This regime backs the §3.1/§3.3
  overcommit analysis (simulated cross-check of Table 1) and the
  ``examples/overcommit_ticks.py`` demo.

The scheduler only *decides*; the per-vCPU executors in
:mod:`repro.host.kvm` perform the transitions and account the costs.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import HostError
from repro.host.vcpu import VCpu, VcpuState


class HostScheduler:
    """Per-physical-CPU run queues of vCPUs."""

    def __init__(self, ncpus: int):
        self._ready: list[deque[VCpu]] = [deque() for _ in range(ncpus)]
        self._running: list[Optional[VCpu]] = [None] * ncpus
        #: vCPU context switches performed (preemptions + dispatches).
        self.switches = 0

    # ------------------------------------------------------------- queries

    def running_on(self, pcpu_index: int) -> Optional[VCpu]:
        """The vCPU currently holding ``pcpu_index``, if any."""
        return self._running[pcpu_index]

    def wants_preemption(self, pcpu_index: int) -> bool:
        """True when a host-tick boundary should rotate the CPU."""
        return len(self._ready[pcpu_index]) > 0

    # ---------------------------------------------------------- transitions

    def acquire(self, vcpu: VCpu) -> bool:
        """Try to give ``vcpu`` its CPU now.

        Returns True (and marks it running) when the CPU is free;
        otherwise queues it READY and returns False.
        """
        idx = vcpu.pcpu.index
        holder = self._running[idx]
        if holder is vcpu:
            return True
        if holder is None:
            self._running[idx] = vcpu
            self.switches += 1
            return True
        if vcpu in self._ready[idx]:
            raise HostError(f"{vcpu!r} queued twice")
        vcpu.state = VcpuState.READY
        vcpu.ready_since_ns = vcpu.pcpu._sim.now
        self._ready[idx].append(vcpu)
        return False

    def release(self, vcpu: VCpu) -> Optional[VCpu]:
        """``vcpu`` gives up its CPU (block or preemption).

        Returns the next vCPU to dispatch on that CPU, if any (already
        marked running).
        """
        idx = vcpu.pcpu.index
        if self._running[idx] is not vcpu:
            raise HostError(f"{vcpu!r} released a CPU it does not hold")
        self._running[idx] = None
        queue = self._ready[idx]
        if queue:
            nxt = queue.popleft()
            self._running[idx] = nxt
            self.switches += 1
            return nxt
        return None

    def requeue(self, vcpu: VCpu) -> None:
        """Put a preempted (still-runnable) vCPU at the tail of its queue."""
        idx = vcpu.pcpu.index
        if self._running[idx] is vcpu:
            raise HostError(f"{vcpu!r} still marked running")
        vcpu.state = VcpuState.READY
        vcpu.ready_since_ns = vcpu.pcpu._sim.now
        self._ready[idx].append(vcpu)

    def grant_next(self, pcpu_index: int) -> Optional[VCpu]:
        """Hand an idle CPU to its next waiter (marked running).

        Used when a vCPU vanished without releasing — a VM-wide suspend
        forgets its claims — so waiters from other VMs are not orphaned.
        Returns None when the CPU is busy or nobody waits.
        """
        if self._running[pcpu_index] is not None:
            return None
        queue = self._ready[pcpu_index]
        if not queue:
            return None
        nxt = queue.popleft()
        self._running[pcpu_index] = nxt
        self.switches += 1
        return nxt

    def forget(self, vcpu: VCpu) -> None:
        """Remove a vCPU entirely (shutdown)."""
        idx = vcpu.pcpu.index
        if self._running[idx] is vcpu:
            self._running[idx] = None
        try:
            self._ready[idx].remove(vcpu)
        except ValueError:
            pass
