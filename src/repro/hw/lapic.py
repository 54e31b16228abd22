"""Local APIC timer model, periodic mode.

KVM drives this model only as the vLAPIC of a guest that programs its
LAPIC timer in **periodic** mode (the classic periodic scheduler tick of
§3.1): it fires repeatedly at the programmed period without being
re-written. A guest's ``TSC_DEADLINE`` writes never reach it — KVM
handles those with the preemption timer (:mod:`repro.hw.preemption`).

Expiry calls the delivery callback with the configured vector. Whether
delivery means "interrupt the host kernel" or "force a VM exit and inject
into a guest" is decided by whoever owns the timer — the hardware model
is identical either way.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import HardwareError
from repro.hw.interrupts import Vector
from repro.sim.engine import Simulator
from repro.sim.events import Event


#: fn(vector) -> None, called at expiry time.
DeliveryFn = Callable[[Vector], None]

#: Mode string of every ``lapic_arm``/``lapic_fire`` trace record.
_PERIODIC = "periodic"


class LapicTimer:
    """A single LAPIC timer instance in periodic mode."""

    __slots__ = ("_sim", "name", "vector", "_deliver", "_event", "_period_ns", "arm_count", "fire_count")

    def __init__(
        self,
        sim: Simulator,
        deliver: DeliveryFn,
        *,
        vector: Vector = Vector.LOCAL_TIMER,
        name: str = "lapic",
    ):
        self._sim = sim
        self._deliver = deliver
        self.vector = vector
        self.name = name
        self._event: Optional[Event] = None
        #: Programmed period; 0 while disarmed.
        self._period_ns = 0
        #: Programming operations performed (each is a register write on real hw).
        self.arm_count = 0
        #: Interrupts delivered.
        self.fire_count = 0

    # ------------------------------------------------------------- queries

    @property
    def armed(self) -> bool:
        """True if an expiry is pending."""
        return self._event is not None and self._event.pending

    # ------------------------------------------------------------- arming

    def arm_periodic_ns(self, period_ns: int, *, first_after_ns: Optional[int] = None) -> None:
        """Program periodic expiry every ``period_ns``."""
        if period_ns <= 0:
            raise HardwareError(f"{self.name}: period must be positive, got {period_ns}")
        self._disarm_event()
        self._period_ns = period_ns
        self.arm_count += 1
        first = period_ns if first_after_ns is None else first_after_ns
        self._arm_at(self._sim.now + first)
        self._trace_arm(self._sim.now + first)

    def disarm(self) -> None:
        """Cancel any pending expiry."""
        self._disarm_event()
        self._period_ns = 0

    # ----------------------------------------------------- suspend support

    def pause(self) -> Optional[int]:
        """Stop this timer's clock, preserving its phase.

        Returns the nanoseconds that remained until expiry (to hand to
        :meth:`resume`), or None if nothing was pending. The programmed
        period survives, exactly like a LAPIC whose core clock is gated
        during a VM-wide suspend.
        """
        if not self.armed:
            return None
        remaining = self._event.time - self._sim.now  # type: ignore[union-attr]
        self._disarm_event()
        return remaining

    def resume(self, remaining_ns: int) -> None:
        """Re-arm a paused timer ``remaining_ns`` from now, same period.

        The suspended span is host time the guest never sees: the timer
        picks up where :meth:`pause` left it rather than replaying the
        expiries the span swallowed.
        """
        if remaining_ns < 0:
            raise HardwareError(f"{self.name}: negative resume remainder {remaining_ns}")
        if not self._period_ns:
            raise HardwareError(f"{self.name}: resume but no period was paused")
        self._arm_at(self._sim.now + remaining_ns)
        self._trace_arm(self._sim.now + remaining_ns)

    def _arm_at(self, when: int) -> None:
        # The one Event handle lives as long as the timer: after the
        # first arm, every reprogram/expiry cycle goes through the
        # allocation-free re-arm path.
        if self._event is None:
            self._event = self._sim.at(when, self._fire)
        else:
            self._sim.rearm(self._event, when)

    def _disarm_event(self) -> None:
        ev = self._event
        if ev is not None and ev.pending:
            self._sim.cancel(ev)
            if self._sim.trace.enabled:
                self._sim.trace.emit(self._sim.now, self.name, "lapic_disarm")

    def _trace_arm(self, expiry_ns: int) -> None:
        if self._sim.trace.enabled:
            self._sim.trace.emit(
                self._sim.now, self.name, "lapic_arm", (_PERIODIC, expiry_ns)
            )

    # -------------------------------------------------------------- expiry

    def _fire(self) -> None:
        self.fire_count += 1
        if self._sim.trace.enabled:
            self._sim.trace.emit(
                self._sim.now, self.name, "lapic_fire", (_PERIODIC, int(self.vector))
            )
        # Re-arm before delivery so the handler observes a live timer
        # (periodic mode needs no reprogramming — that is exactly why
        # classic ticks cost only the delivery, not an extra write).
        self._sim.rearm(self._event, self._sim.now + self._period_ns)
        self._deliver(self.vector)
