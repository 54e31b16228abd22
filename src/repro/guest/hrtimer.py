"""High-resolution timers (guest-side).

A per-vCPU queue of absolute-deadline timers, mirroring Linux's hrtimer
red-black tree. The scheduler tick in tickless mode *is* an hrtimer
(``tick_sched_timer``); paratick's idle wake timer is one too. The
earliest enqueued timer is what the clockevents layer programs into the
``TSC_DEADLINE`` MSR — so the number of hardware (re)programmings, and
therefore VM exits, falls out of this queue's behaviour.

Implemented exactly like the engine's event queue: a heap of
``(expires, seq, timer)`` tuples (native tuple compare, no Python-level
``__lt__`` on the hot path) with lazy deletion. A heap entry is live iff
the timer is active *and* its seq still matches — :meth:`HrtimerQueue.rearm`
moves a timer by assigning a fresh seq and pushing a new entry, so the
tick restart of tickless/paratick mode (the single hottest hrtimer
operation) allocates nothing. Dead entries are dropped on drain or by an
amortized in-place compaction.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import GuestError

#: Compaction floor, matching the engine queue's rationale: below this
#: many dead entries a rebuild cannot win.
_COMPACT_MIN_DEAD = 32


class Hrtimer:
    """One high-resolution timer."""

    __slots__ = ("expires_ns", "callback", "name", "_seq", "_active")

    def __init__(self, expires_ns: int, callback: Callable[[], None], name: str, seq: int):
        self.expires_ns = expires_ns
        self.callback = callback
        self.name = name
        self._seq = seq
        self._active = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self._active else " cancelled"
        return f"<Hrtimer {self.name} @{self.expires_ns}{state}>"


class HrtimerQueue:
    """Per-vCPU set of pending hrtimers."""

    __slots__ = ("_heap", "_live", "_dead", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Hrtimer]] = []
        self._live = 0
        #: Dead entries (cancelled or orphaned by re-arm) still heaped.
        self._dead = 0
        self._seq = 0

    def __len__(self) -> int:
        return self._live

    def add(self, expires_ns: int, callback: Callable[[], None], *, name: str = "hrtimer") -> Hrtimer:
        """Enqueue a timer with an absolute expiry."""
        if expires_ns < 0:
            raise GuestError(f"negative expiry {expires_ns}")
        seq = self._seq
        self._seq = seq + 1
        t = Hrtimer(expires_ns, callback, name, seq)
        heapq.heappush(self._heap, (expires_ns, seq, t))
        self._live += 1
        return t

    def rearm(self, timer: Hrtimer, expires_ns: int) -> Hrtimer:
        """Re-enqueue ``timer`` at a new expiry without allocating.

        Accepts active timers (the old heap entry is orphaned — its seq
        no longer matches — and dropped lazily), as well as expired or
        cancelled ones (Linux's ``hrtimer_restart``). This is the tick
        restart path of tickless and paratick modes.
        """
        if expires_ns < 0:
            raise GuestError(f"negative expiry {expires_ns}")
        seq = self._seq
        self._seq = seq + 1
        if timer._active:
            self._dead += 1
        else:
            timer._active = True
            self._live += 1
        timer.expires_ns = expires_ns
        timer._seq = seq
        heapq.heappush(self._heap, (expires_ns, seq, timer))
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()
        return timer

    def cancel(self, timer: Optional[Hrtimer]) -> bool:
        """Deactivate a timer; returns True if it was still pending."""
        if timer is None or not timer._active:
            return False
        timer._active = False
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()
        return True

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap:
            _, seq, t = heap[0]
            if t._active and t._seq == seq:
                return
            heapq.heappop(heap)
            self._dead -= 1

    def _compact(self) -> None:
        """Rebuild the heap in place, dropping every dead entry."""
        heap = self._heap
        heap[:] = [e for e in heap if e[2]._active and e[2]._seq == e[1]]
        heapq.heapify(heap)
        self._dead = 0

    def next_expiry(self) -> Optional[int]:
        """Earliest pending expiry, or None when the queue is empty."""
        self._drop_dead()
        return self._heap[0][0] if self._heap else None

    def pop_expired(self, now_ns: int) -> list[Hrtimer]:
        """Remove and return every timer with ``expires <= now``, in order."""
        out: list[Hrtimer] = []
        heap = self._heap
        while heap:
            expires, seq, t = heap[0]
            if not (t._active and t._seq == seq):
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if expires > now_ns:
                break
            heapq.heappop(heap)
            t._active = False
            self._live -= 1
            out.append(t)
        return out

    def pending_names(self) -> list[str]:
        """Names of live timers (for tests/traces)."""
        return sorted(t.name for _, seq, t in self._heap if t._active and t._seq == seq)
