"""VMX preemption timer.

The paper (§3): "Some hypervisors (e.g. KVM) optimize this process by
using the preemption timer rather than the LAPIC timer to signal guest
timer interrupts. Upon each VM exit induced by a guest attempting to
write to the TSC_DEADLINE MSR, the hypervisor arms the preemption timer
for the vCPU in question ... When the preemption timer expires, a (less
costly) VM exit is triggered which allows the hypervisor to inject a
timer interrupt."

The preemption timer only counts down while the vCPU is in guest mode;
KVM re-arms it on every VM entry from the saved deadline and falls back
to a host-side timer while the vCPU is scheduled out. We expose exactly
that interface: ``start(deadline_ns)`` on entry, ``stop()`` on exit.

Every start/stop/fire is a structured trace event (kinds ``ptimer_*``)
so :mod:`repro.analysis` can check the pairing online.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import HardwareError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class PreemptionTimer:
    """Per-vCPU VMX preemption timer (active only while in guest mode)."""

    __slots__ = ("_sim", "_callback", "_event", "deadline_ns", "fire_count", "name")

    def __init__(self, sim: Simulator, callback: Callable[[], None], *, name: str = "ptimer"):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        #: Absolute deadline currently programmed (None = not armed).
        self.deadline_ns: Optional[int] = None
        self.fire_count = 0
        #: Trace source label (the owning vCPU names it after itself).
        self.name = name

    @property
    def running(self) -> bool:
        """True while counting down (vCPU in guest mode with a deadline)."""
        return self._event is not None and self._event.pending

    def set_deadline(self, deadline_ns: Optional[int]) -> None:
        """Record the absolute deadline to enforce (does not start counting)."""
        if deadline_ns is not None and deadline_ns < self._sim.now:
            # An already-expired deadline fires immediately on start.
            deadline_ns = self._sim.now
        self.deadline_ns = deadline_ns

    def start(self) -> None:
        """VM entry: begin counting toward the recorded deadline."""
        # start/stop run on every VM entry and exit: test the handle's
        # state directly rather than through ``running``/``pending``.
        ev = self._event
        if ev is not None and not (ev._cancelled or ev._fired):
            raise HardwareError("preemption timer started twice")
        deadline = self.deadline_ns
        if deadline is None:
            return
        sim = self._sim
        when = max(deadline, sim.now)
        # Entry/exit churn is the hottest timer path in overcommit runs:
        # one Event handle per timer, re-armed on every VM entry.
        if ev is None:
            self._event = sim.at(when, self._fire)
        else:
            sim.rearm(ev, when)
        if sim.trace.enabled:
            sim.trace.emit(sim.now, self.name, "ptimer_start", when)

    def stop(self) -> None:
        """VM exit: pause the countdown (deadline is retained)."""
        ev = self._event
        if ev is not None and not (ev._cancelled or ev._fired):
            sim = self._sim
            sim.cancel(ev)
            if sim.trace.enabled:
                sim.trace.emit(sim.now, self.name, "ptimer_stop")

    def clear(self) -> None:
        """Drop the deadline entirely (guest disarmed its timer)."""
        self.stop()
        self.deadline_ns = None

    def _fire(self) -> None:
        self.deadline_ns = None
        self.fire_count += 1
        if self._sim.trace.enabled:
            self._sim.trace.emit(self._sim.now, self.name, "ptimer_fire")
        self._callback()
