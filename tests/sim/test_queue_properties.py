"""Property tests for the simulator's event queue and free-list reuse.

Seeded stdlib-``random`` interleavings of schedule/cancel/rearm/run on
:class:`~repro.sim.engine.Simulator`, asserting the invariants the
fast-path engine must preserve:

* events dispatch in monotonically non-decreasing time order;
* events at the same timestamp fire in scheduling (FIFO) order;
* the live count stays consistent through mass cancellation;
* a cancelled event is never dispatched;
* re-used Event objects (the free list) never resurrect a cancelled or
  stale handle — including the same-instant dispatch-batch edge.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import _FREE_CAP, Simulator


def _recorder(sim: Simulator, fired: list):
    """Callback factory: each dispatch appends ``(now, key)``."""
    return lambda key: fired.append((sim.now, key))


class TestRandomInterleavings:
    @pytest.mark.parametrize("seed", range(8))
    def test_pop_order_monotonic_under_churn(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired: list = []
        record = _recorder(sim, fired)
        live = []
        for i in range(500):
            op = rng.random()
            if op < 0.55 or not live:
                t = rng.randrange(0, 10_000)
                live.append(sim.at(t, record, i))
            elif op < 0.80:
                sim.cancel(live.pop(rng.randrange(len(live))))
            else:
                ev = live.pop(rng.randrange(len(live)))
                sim.rearm(ev, rng.randrange(0, 10_000))
                live.append(ev)
        expected = sorted(ev.args[0] for ev in live)
        assert sim.pending_events() == len(live)
        sim.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert sorted(key for _, key in fired) == expected
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_fifo_among_same_timestamp(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired: list = []
        record = _recorder(sim, fired)
        expected = []
        for i in range(300):
            t = rng.randrange(0, 5)  # few distinct times → many ties
            sim.at(t, record, i)
            expected.append((t, i))
        expected.sort()  # by time, then scheduling order
        sim.run()
        assert fired == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_len_consistent_after_mass_cancellation(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired: list = []
        record = _recorder(sim, fired)
        handles = [sim.at(rng.randrange(0, 1000), record, i) for i in range(400)]
        doomed = set(rng.sample(range(400), 250))
        for i in doomed:
            sim.cancel(handles[i])
        assert sim.pending_events() == 150
        sim.run()
        assert len(fired) == 150
        assert {key for _, key in fired} == set(range(400)) - doomed
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_cancelled_event_never_dispatched(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired: list[int] = []
        cancelled: set[int] = set()
        handles: dict[int, object] = {}

        def make_cb(i):
            return lambda: fired.append(i)

        for i in range(300):
            handles[i] = sim.schedule(rng.randrange(0, 2000), make_cb(i))
        for i in rng.sample(sorted(handles), 120):
            sim.cancel(handles[i])
            cancelled.add(i)
        # Interleave fresh pushes so free-list reuse happens mid-run.
        def late_pushes():
            for j in range(300, 350):
                handles[j] = sim.schedule(rng.randrange(0, 1500), make_cb(j))
        sim.schedule(0, late_pushes)
        sim.run()
        assert not (set(fired) & cancelled)
        assert set(fired) == (set(handles) - cancelled)

    @pytest.mark.parametrize("seed", range(6))
    def test_rearm_fires_exactly_once_at_new_time(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        ev = sim.schedule(rng.randrange(1, 50), lambda: fired.append(sim.now))
        new_t = rng.randrange(100, 200)
        sim.rearm(ev, new_t)
        sim.run()
        assert fired == [new_t]


class TestQueueAccounting:
    def test_dead_counter_drains_to_zero(self):
        sim = Simulator()
        handles = [sim.at(i, lambda: None) for i in range(100)]
        for ev in handles[::2]:
            sim.cancel(ev)
        for ev in handles[1::4]:
            sim.rearm(ev, ev.time + 1000)
        sim.run()
        assert sim._dead == 0
        assert len(sim._heap) == 0

    def test_compaction_triggers_under_cancel_storm(self):
        sim = Simulator()
        handles = [sim.at(i, lambda: None) for i in range(400)]
        for ev in handles[:-1]:
            sim.cancel(ev)
        # Amortized compaction must have fired: the heap cannot still
        # hold all 399 dead entries.
        assert len(sim._heap) < 400
        assert sim.pending_events() == 1

    def test_repeated_cancel_keeps_live_count(self):
        sim = Simulator()
        ev = sim.at(1, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending_events() == 0
        sim.at(2, lambda: None)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0 and sim._dead == 0


class TestFreeListSafety:
    """Satellite regression: free-list reuse must never resurrect a
    handle — most subtly when a cancel lands inside the same-instant
    dispatch batch."""

    def test_cancel_during_same_instant_batch_never_refires(self):
        sim = Simulator()
        fired = []
        handles = {}

        def a():
            fired.append("a")
            # Cancel b (same timestamp, later in this dispatch batch),
            # then push new same-instant events: with naive eager
            # recycling, one of these pushes could reuse b's object
            # while b's heap entry is still queued → ghost refire.
            sim.cancel(handles["b"])
            for i in range(5):
                handles[f"c{i}"] = sim.schedule(0, lambda i=i: fired.append(f"c{i}"))

        handles["a"] = sim.schedule(10, a)
        handles["b"] = sim.schedule(10, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "c0", "c1", "c2", "c3", "c4"]

    def test_cancelled_unreferenced_event_is_not_resurrected(self):
        sim = Simulator()
        fired = []

        def starter():
            # Cancel a handle and drop every reference to it, then
            # saturate the same instant with new events so the free
            # list is certainly exercised.
            ev = sim.schedule(0, lambda: fired.append("ghost"))
            sim.cancel(ev)
            del ev
            for i in range(10):
                sim.schedule(0, lambda i=i: fired.append(i))

        sim.schedule(5, starter)
        sim.run()
        assert fired == list(range(10))

    def test_held_handle_is_never_recycled(self):
        sim = Simulator()
        held = sim.schedule(1, lambda: None)
        churn = []
        def spin(n):
            if n:
                churn.append(sim.schedule(2, lambda: None))
                sim.schedule(3, spin, n - 1)
        sim.schedule(2, spin, 2 * _FREE_CAP)
        sim.run()
        # The held handle survived heavy free-list churn untouched:
        # still the same fired event, and cancel stays a safe no-op.
        assert held.fired and not held.pending
        sim.cancel(held)
        assert held.fired and not held.cancelled  # untouched: full no-op
        assert sim.pending_events() == 0

    def test_cancel_after_fire_is_noop_even_with_reuse(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1, lambda: fired.append("first"))
        sim.run()
        # first has fired; cancelling its stale handle now must not
        # affect whatever event the engine schedules next, even though
        # the engine may be reusing object memory internally.
        sim.cancel(first)
        second = sim.schedule(1, lambda: fired.append("second"))
        assert second.pending
        sim.run()
        assert fired == ["first", "second"]

    def test_rearm_of_pending_event_orphans_old_entry(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(10, lambda: fired.append(sim.now))
        sim.rearm(ev, 50)
        sim.rearm(ev, 30)  # re-arm again before anything fires
        sim.run()
        assert fired == [30]

    def test_rearm_interleaves_fifo_with_fresh_events(self):
        # A re-arm consumes exactly one sequence number, like the
        # cancel+schedule pair it replaces — same-instant ordering with
        # fresh events must reflect that.
        sim = Simulator()
        order = []
        ev = sim.schedule(5, lambda: order.append("rearmed"))
        sim.rearm(ev, 20)                       # seq bumped here...
        sim.schedule(20, lambda: order.append("fresh"))  # ...so this is later
        sim.run()
        assert order == ["rearmed", "fresh"]

    def test_rearm_dead_handle_revives_it(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1, lambda: fired.append("x"))
        sim.cancel(ev)
        sim.rearm(ev, 7)
        sim.run()
        assert fired == ["x"]
        assert ev.fired and not ev.pending

    def test_rearm_past_raises(self):
        sim = Simulator()
        ev = sim.schedule(100, lambda: None)
        sim.schedule(50, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.rearm(ev, sim.now - 1)

    def test_rearm_none_raises(self):
        with pytest.raises(SimulationError):
            Simulator().rearm(None, 10)
