"""Event objects and the pending-event priority queue.

The queue is a binary heap keyed on ``(time, seq)``: ties at the same
instant fire in scheduling order, which keeps runs deterministic. Events
are cancelled lazily — cancellation just flips a flag, and the heap pop
discards dead entries — so ``cancel`` is O(1) and the common
arm/cancel/re-arm pattern of timer hardware stays cheap.

Three throughput mechanisms ride on top of that base design, all of
them invisible to behaviour (the golden battery in
:mod:`repro.analysis.golden` pins bit-identical runs):

* **Free-list reuse** — dispatched and drained-cancelled ``Event``
  objects are recycled by :meth:`EventQueue.push` instead of
  re-allocated, but *only* when a ``sys.getrefcount`` check proves the
  engine holds the sole reference. A component that keeps a handle (a
  LAPIC, a preemption timer, a process) therefore keeps the documented
  contract — cancelling a dead handle stays a no-op forever — while the
  fire-and-forget majority of events allocate nothing in steady state.
* **Sequence numbers as generations** — a heap entry is live only while
  ``event.seq`` still equals the seq recorded in the entry.
  :meth:`EventQueue.rearm` re-schedules a handle by assigning it a
  fresh ``(time, seq)`` and pushing a new entry; the old entry's seq no
  longer matches, so it is discarded on drain exactly like a cancelled
  one. Re-arming is how timer hardware models avoid the
  cancel+allocate+push triple on their hottest path.
* **Amortized compaction** — cancellations and re-arms leave dead
  entries behind; when they outnumber the live ones (beyond a small
  floor) the heap is rebuilt in place, so pathological arm/cancel churn
  cannot grow the heap unboundedly. The rebuild is charged against the
  cancellations that created the debt: amortized O(log n) per
  operation.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Free-list bound: enough to absorb timer churn bursts, small enough
#: that an idle queue does not pin memory.
_FREE_CAP = 256

#: Compaction floor: below this many dead entries a rebuild cannot win.
_COMPACT_MIN_DEAD = 64

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.at` /
    ``schedule`` and should be treated as opaque handles; the only public
    operations are :meth:`cancel`, re-arming through the owning
    simulator, and the read-only properties.

    A handle you hold is never recycled out from under you: the queue
    re-uses an object only once the holder's reference is provably gone.
    """

    __slots__ = ("time", "seq", "fn", "args", "_cancelled", "_fired")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the callback has run (cleared again by a re-arm)."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent.

        Cancelling an event that already fired is a no-op (matching how
        hardware timer disarm races with expiry: the losing side simply
        has no effect).
        """
        self._cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} #{self.seq} {name} {state}>"


class EventQueue:
    """Min-heap of :class:`Event` with lazy deletion and object reuse.

    Heap entries are ``(time, seq, event)`` tuples: the unique ``seq``
    guarantees tuple comparison never reaches the event object, so
    ordering uses native tuple compare instead of a Python-level
    ``__lt__`` call — the single hottest operation in large simulations.

    An entry is *live* iff ``event.seq == seq and not event.cancelled``;
    a re-arm bumps the event's seq, orphaning its old entry. Orphaned
    and cancelled entries are dropped on drain or by the amortized
    :meth:`compact`.

    Exposed separately from the engine so property tests can exercise the
    ordering invariants in isolation.
    """

    __slots__ = ("_heap", "_seq", "_live", "_dead", "_free")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Dead entries (cancelled or orphaned by re-arm) still in the heap.
        self._dead = 0
        self._free: list[Event] = []

    def __len__(self) -> int:
        """Number of *live* (non-cancelled, unfired) events."""
        return self._live

    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Enqueue a callback at absolute time ``time`` and return its handle."""
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

    def rearm(self, ev: Event, time: int) -> Event:
        """Re-schedule ``ev``'s callback at absolute ``time``, in place.

        Works on pending, fired and cancelled handles alike; the handle
        stays valid and no allocation happens. A pending event's old
        heap entry is orphaned (its seq no longer matches) and cleaned
        up lazily, exactly like a cancelled one.
        """
        seq = self._seq
        if ev._cancelled or ev._fired:
            ev._cancelled = False
            ev._fired = False
            self._live += 1
        else:
            # Pending: the event moves; its old entry becomes garbage.
            self._dead += 1
        ev.time = time
        ev.seq = seq
        _heappush(self._heap, (time, seq, ev))
        self._seq = seq + 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self.compact()
        return ev

    def notify_cancelled(self) -> None:
        """Bookkeeping hook: the engine calls this when it cancels an event."""
        if self._live <= 0:
            raise SimulationError("cancelled more events than were live")
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self.compact()

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty.

        Dead (cancelled/orphaned) heap entries encountered on the way
        are dropped, and recycled when provably unreferenced.
        """
        heap = self._heap
        free = self._free
        while heap:
            _, seq, ev = _heappop(heap)
            if ev._cancelled or ev.seq != seq:
                self._dead -= 1
                # Refs here: the local + the getrefcount argument. A
                # cancelled event whose handle was dropped is reusable;
                # an orphaned (re-armed) one is alive elsewhere and its
                # seq mismatch keeps it out.
                if ev.seq == seq and len(free) < _FREE_CAP and getrefcount(ev) == 2:
                    ev.fn = None
                    ev.args = ()
                    free.append(ev)
                continue
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> Optional[int]:
        """Firing time of the earliest live event, without removing it."""
        heap = self._heap
        free = self._free
        while heap:
            _, seq, ev = heap[0]
            if ev._cancelled or ev.seq != seq:
                _heappop(heap)
                self._dead -= 1
                if ev.seq == seq and len(free) < _FREE_CAP and getrefcount(ev) == 2:
                    ev.fn = None
                    ev.args = ()
                    free.append(ev)
                continue
            return heap[0][0]
        return None

    def compact(self) -> None:
        """Drop dead entries eagerly and rebuild the heap **in place**.

        In place matters: the engine's run loop holds a local alias of
        the heap list across callbacks, and a callback may trigger this
        via cancel/re-arm bookkeeping.
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
                if len(free) < _FREE_CAP and getrefcount(ev) == 3:
                    ev.fn = None
                    ev.args = ()
                    free.append(ev)
        heap[:] = live_entries
        heapq.heapify(heap)
        self._dead = 0
