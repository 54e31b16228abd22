"""Tests for the simulator core and its pending-event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestEventQueue:
    """The simulator's one pending-event queue, driven through its API."""

    def test_pop_in_time_order(self):
        sim = Simulator()
        fired = []
        for t in (30, 10, 20):
            sim.at(t, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10, 20, 30]

    def test_fifo_within_same_instant(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.at(5, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_len_counts_live_only(self):
        sim = Simulator()
        ev = sim.at(1, lambda: None)
        sim.at(2, lambda: None)
        assert sim.pending_events() == 2
        sim.cancel(ev)
        assert sim.pending_events() == 1

    def test_pop_skips_cancelled(self):
        sim = Simulator()
        fired = []
        a = sim.at(1, fired.append, "a")
        sim.at(2, fired.append, "b")
        sim.cancel(a)
        sim.run()
        assert fired == ["b"]
        assert sim.pending_events() == 0

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        fired = []
        a = sim.at(1, lambda: fired.append(sim.now))
        sim.at(7, lambda: fired.append(sim.now))
        sim.cancel(a)
        sim.run(until=7)
        assert fired == [7]

    def test_compact_drops_dead_entries(self):
        sim = Simulator()
        fired = []
        evs = [sim.at(i, lambda: fired.append(sim.now)) for i in range(100)]
        for ev in evs[::2]:
            sim.cancel(ev)
        sim._compact()
        assert len(sim._heap) == 50
        assert sim._dead == 0
        sim.run()
        assert fired == list(range(1, 100, 2))

    @given(times=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_property_pop_is_sorted_and_stable(self, times):
        sim = Simulator()
        out = []
        for i, t in enumerate(times):
            sim.at(t, lambda i=i: out.append((sim.now, i)))
        sim.run()
        # Sorted by time; ties in insertion order.
        assert out == sorted(out)
        assert [times[i] for _, i in out] == [t for t, _ in out]
        assert len(out) == len(times)


class TestSimulatorScheduling:
    def test_now_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(50, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 100

    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        end = sim.run(until=500)
        assert end == 500
        assert sim.now == 500

    def test_events_at_horizon_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(500, fired.append, 1)
        sim.schedule(501, fired.append, 2)
        sim.run(until=500)
        assert fired == [1]
        assert sim.pending_events() == 1

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_zero_delay_fires_after_current_callback(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0, order.append, "inner")

        sim.schedule(5, outer)
        sim.schedule(5, order.append, "peer")
        sim.run()
        assert order == ["outer", "peer", "inner"]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(10, fired.append, 1)
        sim.cancel(ev)
        sim.run()
        assert fired == []
        assert sim.pending_events() == 0

    def test_cancel_none_and_dead_is_noop(self):
        sim = Simulator()
        sim.cancel(None)
        ev = sim.schedule(1, lambda: None)
        sim.run()
        sim.cancel(ev)  # already fired
        sim.cancel(ev)

    def test_stop_ends_run_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: (fired.append(1), sim.stop()))
        sim.schedule(20, fired.append, 2)
        sim.run()
        assert fired == [1]
        assert sim.now == 10
        # A later run picks up the remaining event.
        sim.run()
        assert fired == [1, 2]

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        caught = []

        def reenter():
            try:
                sim.run()
            except SimulationError as e:
                caught.append(e)

        sim.schedule(1, reenter)
        sim.run()
        assert len(caught) == 1

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_dispatched_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.dispatched == 7

    def test_callbacks_can_chain(self):
        """A self-rescheduling callback models a periodic timer."""
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                sim.schedule(100, tick)

        sim.schedule(100, tick)
        sim.run()
        assert ticks == [100, 200, 300, 400, 500]

    @given(delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_property_clock_is_monotonic(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == max(delays)


class TestAdvanceTo:
    """Fast-forward: only when no queued entry could run first."""

    def _probe(self, sim, *targets):
        """Schedule one callback that tries each target, in order."""
        got = []
        sim.schedule(10, lambda: got.extend(
            (t, sim.advance_to(t), sim.now) for t in targets))
        return got

    def test_refused_outside_run(self):
        sim = Simulator()
        assert sim.advance_to(5) is False
        assert sim.now == 0
        assert sim.fast_forwarded == 0

    def test_moves_the_clock_before_the_first_entry(self):
        sim = Simulator()
        got = self._probe(sim, 15, 19)
        sim.at(20, lambda: got.append(("fired", sim.now)))
        sim.run()
        assert got == [(15, True, 15), (19, True, 19), ("fired", 20)]
        assert sim.fast_forwarded == 2
        assert sim.dispatched == 2

    def test_equal_time_entry_wins(self):
        sim = Simulator()
        got = self._probe(sim, 20)
        sim.at(20, lambda: None)
        sim.run()
        assert got == [(20, False, 10)]
        assert sim.fast_forwarded == 0

    def test_dead_entries_count(self):
        sim = Simulator()
        got = self._probe(sim, 25)
        sim.cancel(sim.at(20, lambda: None))
        sim.run()
        assert got == [(25, False, 10)]

    def test_horizon_is_inclusive_and_never_passed(self):
        sim = Simulator()
        got = self._probe(sim, 31, 30)
        assert sim.run(until=30) == 30
        assert got == [(31, False, 10), (30, True, 30)]

    def test_refused_after_stop(self):
        sim = Simulator()
        got = []

        def stop_then_try():
            sim.stop()
            got.append(sim.advance_to(15))

        sim.schedule(10, stop_then_try)
        sim.run()
        assert got == [False]
        assert sim.now == 10
        again = self._probe(sim, 25)
        sim.run()
        assert again == [(25, True, 25)]

    def test_time_travel_raises(self):
        sim = Simulator()
        got = []

        def back():
            with pytest.raises(SimulationError):
                sim.advance_to(5)
            got.append(sim.now)

        sim.schedule(10, back)
        sim.run()
        assert got == [10]


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a, b = Simulator(seed=42), Simulator(seed=42)
        xa = [a.rng.exponential_ns("dev", 1000.0) for _ in range(100)]
        xb = [b.rng.exponential_ns("dev", 1000.0) for _ in range(100)]
        assert xa == xb

    def test_different_seed_differs(self):
        a, b = Simulator(seed=1), Simulator(seed=2)
        xa = [a.rng.exponential_ns("dev", 1000.0) for _ in range(20)]
        xb = [b.rng.exponential_ns("dev", 1000.0) for _ in range(20)]
        assert xa != xb

    def test_streams_are_independent_of_creation_order(self):
        a, b = Simulator(seed=7), Simulator(seed=7)
        # Touch streams in different orders; each named stream must be equal.
        a1 = [a.rng.stream("one").integers(0, 1000) for _ in range(10)]
        a2 = [a.rng.stream("two").integers(0, 1000) for _ in range(10)]
        b2 = [b.rng.stream("two").integers(0, 1000) for _ in range(10)]
        b1 = [b.rng.stream("one").integers(0, 1000) for _ in range(10)]
        assert a1 == b1
        assert a2 == b2
