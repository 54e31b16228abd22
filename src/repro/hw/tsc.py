"""The time stamp counter (TSC).

The paper (§3): "If available, Linux uses the per-CPU time stamp counter
(TSC), which is the most accurate timer hardware available for
programming timers. It is armed by writing the desired expiration time to
the TSC_DEADLINE MSR."

We model an invariant (constant-rate, socket-synchronized) TSC, which is
what any modern Xeon provides: its value is simply simulated-time scaled
by the nominal frequency, so all CPUs read the same count.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.sim.engine import Simulator
from repro.sim.timebase import CpuClock


class Tsc:
    """Invariant TSC shared by all CPUs of the machine."""

    __slots__ = ("_sim", "clock")

    def __init__(self, sim: Simulator, clock: CpuClock):
        self._sim = sim
        self.clock = clock

    def read(self) -> int:
        """Current TSC value (RDTSC)."""
        return self.clock.ns_to_cycles(self._sim.now)

    def deadline_to_ns(self, tsc_deadline: int) -> int:
        """Absolute sim time (ns) at which ``tsc_deadline`` is reached.

        A deadline at or before the current count is "immediately
        expired" and maps to the current instant, matching LAPIC
        behaviour (the interrupt fires at once).
        """
        if tsc_deadline < 0:
            raise HardwareError(f"negative TSC deadline: {tsc_deadline}")
        now_tsc = self.read()
        if tsc_deadline <= now_tsc:
            return self._sim.now
        return self.ns_of_tsc(tsc_deadline)

    def ns_of_tsc(self, tsc_value: int) -> int:
        """Convert an absolute TSC count to absolute sim-time ns (ceil)."""
        return -(-tsc_value * 1_000_000_000 // self.clock.freq_hz)
