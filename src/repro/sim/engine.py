"""The discrete-event simulator core.

A :class:`Simulator` owns the clock (integer nanoseconds since boot), the
pending-event queue, the deterministic RNG streams and the tracer. All
simulated components receive the simulator instance and schedule their
behaviour through it; nothing in the model reads wall-clock time or global
random state, which keeps every run bit-reproducible from its seed.

The dispatch loop in :meth:`Simulator.run` is the hottest code in the
repository — every guest tick, VM exit and I/O completion in every paper
experiment flows through it. It is deliberately monomorphic: the queue's
heap, free list and the heap primitives are cached in locals, the
peek/pop pair of the naive loop is fused into one drain, and dispatched
events are recycled through the queue's free list (see
:mod:`repro.sim.events` for the safety argument). Behaviour is pinned
bit-identical to the straightforward loop by the golden battery
(:mod:`repro.analysis.golden`).
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from sys import getrefcount as _getrefcount
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import _FREE_CAP, Event, EventQueue
from repro.sim.rng import RngStreams
from repro.sim.trace import NullTracer, Tracer


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
        self._now: int = 0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.rng = RngStreams(seed)
        self.trace: Tracer = tracer if tracer is not None else NullTracer()
        #: Number of events dispatched so far (for engine benchmarks).
        self.dispatched: int = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> int:
        """Current simulated time in integer nanoseconds."""
        return self._now

    # ------------------------------------------------------------- scheduling

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``.

        Scheduling *at the current instant* is allowed (the event fires
        after all callbacks already queued for this instant); scheduling
        in the past is a :class:`SimulationError`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is {self._now}): time travel"
            )
        # Inlined EventQueue.push (also below in schedule): at/schedule
        # run once per dispatched event in every simulation, and the
        # extra call frame is measurable there. Keep the three copies in
        # sync with EventQueue.push.
        queue = self._queue
        seq = queue._seq
        free = queue._free
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
        _heappush(queue._heap, (time, seq, ev))
        queue._seq = seq + 1
        queue._live += 1
        return ev

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` ns (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        queue = self._queue
        time = self._now + delay
        seq = queue._seq
        free = queue._free
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
        _heappush(queue._heap, (time, seq, ev))
        queue._seq = seq + 1
        queue._live += 1
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
        pair.
        """
        if event is None:
            raise SimulationError("cannot rearm None")
        if time < self._now:
            raise SimulationError(
                f"cannot rearm at t={time} (now is {self._now}): time travel"
            )
        return self._queue.rearm(event, time)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event. None and already-dead events are no-ops."""
        if event is not None and not (event._cancelled or event._fired):
            event._cancelled = True
            self._queue.notify_cancelled()

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
        if until is not None and until < self._now:
            raise SimulationError(f"run until t={until} is in the past (now {self._now})")
        self._running = True
        self._stopped = False
        # Hot-loop locals. `heap`/`free` alias list objects the queue
        # mutates only in place (compact() rebuilds with a slice
        # assignment), so the aliases stay valid across callbacks.
        queue = self._queue
        heap = queue._heap
        free = queue._free
        heappop = _heappop
        refcount = _getrefcount
        free_cap = _FREE_CAP
        dispatched = self.dispatched
        # One int comparison per event instead of a None test + compare:
        # simulated times are ns and never reach the sentinel.
        horizon = (1 << 63) if until is None else until
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
                    queue._dead -= 1
                    if ev.seq == entry_seq and len(free) < free_cap and refcount(ev) == 2:
                        ev.fn = None
                        ev.args = ()
                        free.append(ev)
                    continue
                if t > horizon:
                    break
                heappop(heap)
                queue._live -= 1
                self._now = t
                ev._fired = True
                dispatched += 1
                ev.fn(*ev.args)
                # Steady-state allocation killer: a fired, unreferenced
                # event (local + argument = 2 refs) feeds the next push.
                # A re-arm inside the callback clears _fired and skips
                # this. fn/args are left in place — push overwrites both
                # before reuse, and an engine-owned event has no other
                # observer.
                if ev._fired and len(free) < free_cap and refcount(ev) == 2:
                    free.append(ev)
            if until is not None and not self._stopped and self._now < until:
                # Queue drained early: the clock still advances to the horizon,
                # mirroring a machine sitting fully idle until the deadline.
                self._now = until
        finally:
            self.dispatched = dispatched
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this callback."""
        self._stopped = True

    # ------------------------------------------------------------- inspection

    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now} pending={len(self._queue)}>"
