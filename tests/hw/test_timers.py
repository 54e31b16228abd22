"""Tests for the TSC, the periodic vLAPIC timer and the VMX preemption timer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HardwareError
from repro.hw.interrupts import GUEST_VECTORS, Vector
from repro.hw.lapic import LapicTimer
from repro.hw.preemption import PreemptionTimer
from repro.hw.tsc import Tsc
from repro.sim.engine import Simulator
from repro.sim.timebase import CpuClock, MSEC, USEC


GHZ2 = CpuClock(2_000_000_000)


class TestVectors:
    def test_paratick_vector_is_235(self):
        """§5.1: 'We reserve vector 235 for this purpose.'"""
        assert Vector.PARATICK_VIRTUAL_TICK == 235

    def test_local_timer_matches_linux(self):
        assert Vector.LOCAL_TIMER == 236

    def test_guest_vectors_exclude_host_timer(self):
        assert Vector.HOST_TIMER not in GUEST_VECTORS
        assert Vector.PARATICK_VIRTUAL_TICK in GUEST_VECTORS


class TestTsc:
    def test_reads_scale_with_time(self):
        sim = Simulator()
        tsc = Tsc(sim, GHZ2)
        assert tsc.read() == 0
        sim.schedule(1000, lambda: None)
        sim.run()
        assert tsc.read() == 2000  # 1000ns at 2GHz

    def test_deadline_in_future(self):
        sim = Simulator()
        tsc = Tsc(sim, GHZ2)
        assert tsc.deadline_to_ns(2000) == 1000

    def test_deadline_in_past_fires_now(self):
        sim = Simulator()
        tsc = Tsc(sim, GHZ2)
        sim.schedule(1000, lambda: None)
        sim.run()
        assert tsc.deadline_to_ns(500) == sim.now

    def test_negative_deadline_rejected(self):
        with pytest.raises(HardwareError):
            Tsc(Simulator(), GHZ2).deadline_to_ns(-1)

    @given(delta=st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=50)
    def test_property_after_roundtrip(self, delta):
        sim = Simulator()
        tsc = Tsc(sim, GHZ2)
        deadline = GHZ2.ns_to_cycles(delta)
        assert tsc.deadline_to_ns(deadline) == delta


def make_lapic(sim):
    fired = []
    t = LapicTimer(sim, lambda v: fired.append((sim.now, v)), name="t0")
    return t, fired


class TestLapicPeriodic:
    def test_fires_repeatedly_without_rearming(self):
        sim = Simulator()
        t, fired = make_lapic(sim)
        t.arm_periodic_ns(4 * MSEC)
        sim.run(until=20 * MSEC)
        assert [f[0] for f in fired] == [4 * MSEC, 8 * MSEC, 12 * MSEC, 16 * MSEC, 20 * MSEC]
        # Only the initial programming counts as an arm (key property of
        # periodic mode vs deadline mode).
        assert t.arm_count == 1
        assert t.armed

    def test_first_after_override(self):
        sim = Simulator()
        t, fired = make_lapic(sim)
        t.arm_periodic_ns(100, first_after_ns=10)
        sim.run(until=250)
        assert [f[0] for f in fired] == [10, 110, 210]

    def test_reprogram_replaces_period(self):
        sim = Simulator()
        t, fired = make_lapic(sim)
        t.arm_periodic_ns(100)
        t.arm_periodic_ns(300)
        sim.run(until=700)
        assert [f[0] for f in fired] == [300, 600]
        assert t.arm_count == 2
        with pytest.raises(HardwareError):
            t.arm_periodic_ns(0)

    def test_disarm_stops(self):
        sim = Simulator()
        t, fired = make_lapic(sim)
        t.arm_periodic_ns(100)
        sim.schedule(250, t.disarm)
        sim.run(until=1000)
        assert [f[0] for f in fired] == [100, 200]


class TestPreemptionTimer:
    def test_counts_only_in_guest_mode(self):
        sim = Simulator()
        fired = []
        pt = PreemptionTimer(sim, lambda: fired.append(sim.now))
        pt.set_deadline(100)
        # Not started: nothing fires.
        sim.run(until=200)
        assert fired == []
        pt.start()
        sim.run(until=300)
        # Deadline 100 already past at start -> fires immediately at 200.
        assert fired == [200]

    def test_stop_pauses_and_start_resumes(self):
        sim = Simulator()
        fired = []
        pt = PreemptionTimer(sim, lambda: fired.append(sim.now))
        pt.set_deadline(500)
        pt.start()
        sim.schedule(100, pt.stop)
        sim.run(until=600)
        assert fired == []
        assert pt.deadline_ns == 500  # retained across exit
        pt.start()
        sim.run(until=700)
        assert fired == [600]  # fires at max(deadline, start-time)

    def test_double_start_rejected(self):
        sim = Simulator()
        pt = PreemptionTimer(sim, lambda: None)
        pt.set_deadline(100)
        pt.start()
        with pytest.raises(HardwareError):
            pt.start()

    def test_clear_drops_deadline(self):
        sim = Simulator()
        fired = []
        pt = PreemptionTimer(sim, lambda: fired.append(sim.now))
        pt.set_deadline(100)
        pt.clear()
        pt.start()
        sim.run(until=500)
        assert fired == []
        assert pt.deadline_ns is None

    def test_start_without_deadline_is_noop(self):
        sim = Simulator()
        pt = PreemptionTimer(sim, lambda: None)
        pt.start()
        assert not pt.running
