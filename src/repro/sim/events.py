"""Event handles of the simulator's pending-event queue.

An :class:`Event` is what :meth:`repro.sim.engine.Simulator.at` and
``schedule`` return; the queue itself (a binary heap with lazy
cancellation, re-arm generations, amortized compaction and a free list)
lives in :class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.at` /
    ``schedule`` and should be treated as opaque handles; the only
    operations are cancelling and re-arming through the owning simulator,
    and the read-only properties.

    A handle you hold is never recycled out from under you: the engine
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
        """True if the event was cancelled before it fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the callback has run (cleared again by a re-arm)."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} #{self.seq} {name} {state}>"
