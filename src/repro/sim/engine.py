"""The discrete-event simulator core.

A :class:`Simulator` owns the clock (integer nanoseconds since boot), the
pending-event queue, the deterministic RNG streams and the tracer. All
simulated components receive the simulator instance and schedule their
behaviour through it; nothing in the model reads wall-clock time or global
random state, which keeps every run bit-reproducible from its seed.

The queue is a binary heap of ``(time, seq, event)`` entries: ties at the
same instant fire in scheduling order, which keeps runs deterministic,
and the unique ``seq`` means tuple comparison never reaches the event
object. Cancellation is lazy — it flips a flag and the drain discards
the dead entry — so the arm/cancel/re-arm pattern of timer hardware
stays cheap. Four mechanisms ride on top, all invisible to behaviour
(the golden battery in :mod:`repro.analysis.golden` pins bit-identical
runs):

* **Free-list reuse** — dispatched and drained-cancelled events are
  recycled by :meth:`Simulator.at`/``schedule`` instead of re-allocated,
  but *only* when a ``sys.getrefcount`` check proves the engine holds the
  sole reference. A component that keeps a handle (a LAPIC, a preemption
  timer) therefore keeps the documented contract — cancelling a dead
  handle stays a no-op forever — while the fire-and-forget majority of
  events allocate nothing in steady state.
* **Sequence numbers as generations** — a heap entry is live only while
  ``event.seq`` still equals the seq recorded in the entry.
  :meth:`Simulator.rearm` re-schedules a handle by assigning it a fresh
  ``(time, seq)`` and pushing a new entry; the old entry's seq no longer
  matches, so it is discarded on drain exactly like a cancelled one.
* **Amortized compaction** — cancellations and re-arms leave dead
  entries behind; when they outnumber the live ones (beyond a small
  floor) the heap is rebuilt in place, so arm/cancel churn cannot grow
  the heap unboundedly.
* **Fast-forward** — a callback about to schedule its own continuation
  as the last thing it does may call :meth:`Simulator.advance_to`
  instead. When no queued entry (live or dead) is due at or before the
  continuation's time and the run's horizon and stop state allow it,
  the clock jumps there and the caller runs the continuation inline:
  no other callback could have run in between, and every queued event
  keeps its relative ``seq`` order, so the same callbacks run in the
  same order at the same instants. Two counters tell the paths apart:
  ``dispatched`` counts events popped from the heap, ``fast_forwarded``
  counts continuations run inline, and their sum is the number of
  modelled events.

The dispatch loop in :meth:`Simulator.run` is the hottest code in the
repository — every guest tick, VM exit and I/O completion in every paper
experiment flows through it. It is deliberately monomorphic: the heap,
free list and the heap primitives are cached in locals and the peek/pop
pair of the naive loop is fused into one drain.
"""

from __future__ import annotations

from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from sys import getrefcount as _getrefcount
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.rng import RngStreams
from repro.sim.trace import NullTracer, Tracer

#: Free-list bound: enough to absorb timer churn bursts, small enough
#: that an idle queue does not pin memory.
_FREE_CAP = 256

#: Compaction floor: below this many dead entries a rebuild cannot win.
_COMPACT_MIN_DEAD = 64


class Simulator:
    """Event loop, clock, RNG root and tracer for one simulation run.

    Args:
        seed: root seed from which every named RNG stream is derived.
        tracer: optional event tracer; defaults to a no-op tracer.

    The engine is single-threaded and re-entrant only in the sense that
    callbacks may schedule/cancel further events; they must not call
    :meth:`run` recursively.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None):
        #: Current simulated time in integer nanoseconds. Read-only
        #: outside the engine; a plain attribute rather than a property
        #: because every layer reads it several times per modelled event.
        self.now: int = 0
        # The pending-event queue (see the module docstring). An entry
        # is live iff ``event.seq == seq and not event._cancelled``.
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        #: Live (pending) events.
        self._live = 0
        #: Dead entries (cancelled or orphaned by re-arm) still in the heap.
        self._dead = 0
        self._free: list[Event] = []
        self._running = False
        self._stopped = False
        #: Latest time advance_to may reach: run()'s horizon while it is
        #: active and not stopped, else -1 (no fast-forward at all).
        self._ff_limit = -1
        self.rng = RngStreams(seed)
        self.trace: Tracer = tracer if tracer is not None else NullTracer()
        #: Number of events popped from the heap and dispatched so far.
        self.dispatched: int = 0
        #: Number of continuations run inline by :meth:`advance_to`.
        self.fast_forwarded: int = 0

    # ------------------------------------------------------------------ time

    def advance_to(self, time: int) -> bool:
        """Move the clock to ``time`` if no queued event could run first.

        For a callback's *last* act: instead of scheduling its own
        continuation at ``time``, it calls this and, on True, runs the
        continuation inline. True only while :meth:`run` is active with
        no :meth:`stop` pending, ``time`` is within its ``until``
        horizon, and ``time`` is strictly earlier than the heap's first
        entry. Dead entries count (the check stays conservative), and an
        entry at exactly ``time`` fails it: its smaller seq fires first.
        """
        if time > self._ff_limit:
            return False
        if time < self.now:
            raise SimulationError(
                f"cannot advance to t={time} (now is {self.now}): time travel"
            )
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        self.now = time
        self.fast_forwarded += 1
        return True

    # ------------------------------------------------------------- scheduling

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``.

        Scheduling *at the current instant* is allowed (the event fires
        after all callbacks already queued for this instant); scheduling
        in the past is a :class:`SimulationError`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is {self.now}): time travel"
            )
        # The push is written out here and in schedule: at/schedule run
        # once per dispatched event in every simulation, and a shared
        # helper's call frame is measurable there.
        seq = self._seq
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev._cancelled = False
            ev._fired = False
        else:
            ev = Event(time, seq, fn, args)
        _heappush(self._heap, (time, seq, ev))
        self._seq = seq + 1
        self._live += 1
        return ev

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` ns (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        seq = self._seq
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev._cancelled = False
            ev._fired = False
        else:
            ev = Event(time, seq, fn, args)
        _heappush(self._heap, (time, seq, ev))
        self._seq = seq + 1
        self._live += 1
        return ev

    def rearm(self, event: Event, time: int) -> Event:
        """Re-schedule ``event``'s callback at absolute ``time``.

        The allocation-free fast path for timer churn: periodic ticks,
        preemption-timer start/stop and deadline reprogramming re-use
        their one :class:`Event` handle instead of cancelling and
        allocating a fresh one each period. Accepts pending handles
        (the event simply moves), fired ones (periodic re-fire) and
        cancelled ones (re-arm after disarm); the handle stays valid
        and is returned. Same-time re-arms queue behind events already
        scheduled for that instant, exactly like a cancel+schedule
        pair. A pending event's old heap entry is orphaned (its seq no
        longer matches) and cleaned up lazily, like a cancelled one.
        """
        if event is None:
            raise SimulationError("cannot rearm None")
        if time < self.now:
            raise SimulationError(
                f"cannot rearm at t={time} (now is {self.now}): time travel"
            )
        seq = self._seq
        if event._cancelled or event._fired:
            event._cancelled = False
            event._fired = False
            self._live += 1
        else:
            # Pending: the event moves; its old entry becomes garbage.
            self._dead += 1
        event.time = time
        event.seq = seq
        _heappush(self._heap, (time, seq, event))
        self._seq = seq + 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event. None and already-dead events are no-ops.

        Cancelling an event that already fired is a no-op, matching how
        hardware timer disarm races with expiry: the losing side simply
        has no effect.
        """
        if event is not None and not (event._cancelled or event._fired):
            event._cancelled = True
            self._live -= 1
            self._dead += 1
            if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop dead entries eagerly and rebuild the heap **in place**.

        In place matters: :meth:`run` holds a local alias of the heap
        list across callbacks, and a callback may trigger this via
        cancel/re-arm bookkeeping. The rebuild is charged against the
        cancellations that created the debt: amortized O(log n) each.
        """
        heap = self._heap
        free = self._free
        live_entries = []
        for entry in heap:
            ev = entry[2]
            if ev.seq == entry[1]:
                if not ev._cancelled:
                    live_entries.append(entry)
                    continue
                # Cancelled, current entry: refs are the heap entry (kept
                # alive by `entry`/`heap`), the local and the argument.
                if len(free) < _FREE_CAP and _getrefcount(ev) == 3:
                    ev.fn = None
                    ev.args = ()
                    free.append(ev)
        heap[:] = live_entries
        _heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------- run

    def run(self, until: Optional[int] = None) -> int:
        """Run the event loop.

        Args:
            until: absolute stop time. Events at exactly ``until`` do
                fire; later events stay queued. ``None`` runs until the
                queue drains or :meth:`stop` is called.

        Returns:
            The simulated time at which the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(f"run until t={until} is in the past (now {self.now})")
        self._running = True
        self._stopped = False
        # Hot-loop locals. `heap`/`free` alias lists that are mutated
        # only in place (_compact() rebuilds with a slice assignment),
        # so the aliases stay valid across callbacks.
        heap = self._heap
        free = self._free
        heappop = _heappop
        refcount = _getrefcount
        free_cap = _FREE_CAP
        dispatched = self.dispatched
        # One int comparison per event instead of a None test + compare:
        # simulated times are ns and never reach the sentinel.
        horizon = (1 << 63) if until is None else until
        self._ff_limit = horizon
        try:
            while True:
                if self._stopped or not heap:
                    break
                t, entry_seq, ev = heap[0]
                if ev._cancelled or ev.seq != entry_seq:
                    # Dead entry (cancelled or orphaned by a re-arm):
                    # drop it; the discarded heappop return releases the
                    # entry tuple, so local + argument = 2 refs means
                    # the handle is gone and the object is reusable.
                    heappop(heap)
                    self._dead -= 1
                    if ev.seq == entry_seq and len(free) < free_cap and refcount(ev) == 2:
                        ev.fn = None
                        ev.args = ()
                        free.append(ev)
                    continue
                if t > horizon:
                    break
                heappop(heap)
                self._live -= 1
                self.now = t
                ev._fired = True
                dispatched += 1
                ev.fn(*ev.args)
                # Steady-state allocation killer: a fired, unreferenced
                # event (local + argument = 2 refs) feeds the next push.
                # A re-arm inside the callback clears _fired and skips
                # this. fn/args are left in place — at/schedule overwrite both
                # before reuse, and an engine-owned event has no other
                # observer.
                if ev._fired and len(free) < free_cap and refcount(ev) == 2:
                    free.append(ev)
            if until is not None and not self._stopped and self.now < until:
                # Queue drained early: the clock still advances to the horizon,
                # mirroring a machine sitting fully idle until the deadline.
                self.now = until
        finally:
            self.dispatched = dispatched
            self._running = False
            self._ff_limit = -1
        return self.now

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this callback."""
        self._stopped = True
        self._ff_limit = -1

    # ------------------------------------------------------------- inspection

    def pending_events(self) -> int:
        """Number of live events still queued."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now} pending={self._live}>"
