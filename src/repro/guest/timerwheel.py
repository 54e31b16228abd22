"""Hierarchical timer wheel (guest-side soft timers).

Models Linux's timer wheel (§2: "the application timer is added to a
dedicated data structure (e.g. the timer wheel in Linux)"). Soft timers
(``nanosleep``, network timeouts, writeback deadlines) live here; they
are serviced from the timer softirq, which runs when a scheduler tick —
physical, deferred-deadline or paratick-virtual — arrives.

The implementation is the classic cascading hierarchy: level 0 buckets
have jiffy resolution, each higher level is ``LVL_SIZE`` times coarser.
Timers on higher levels cascade down as their slot boundary is crossed;
they fire on jiffy granularity, possibly *later* than requested but never
earlier — a property the hypothesis tests pin down.

Like Linux 5.10, the wheel tracks which buckets are non-empty and never
visits the rest: only non-empty buckets exist, in one dict whose key set
plays the role of Linux's per-level ``pending_map``. A bucket is created
by the first timer placed in it and dropped when its slot is drained, so
memory and the ``next_expiry`` scan follow the queued timers, not the
``LEVELS × LVL_SIZE`` capacity.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import GuestError


class WheelTimer:
    """One soft timer."""

    __slots__ = ("expires_jiffies", "callback", "name")

    def __init__(self, expires_jiffies: int, callback: Callable[[], None], name: str):
        self.expires_jiffies = expires_jiffies
        self.callback = callback
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WheelTimer {self.name} @j{self.expires_jiffies}>"


class TimerWheel:
    """Hierarchical wheel keyed in jiffies (guest tick units)."""

    LVL_BITS = 6
    LVL_SIZE = 1 << LVL_BITS  # 64 buckets per level
    LEVELS = 8

    def __init__(self, *, start_jiffies: int = 0) -> None:
        #: Non-empty buckets only, keyed ``level << LVL_BITS | slot``.
        self._buckets: dict[int, list[WheelTimer]] = {}
        self._current = start_jiffies
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def current_jiffies(self) -> int:
        return self._current

    # -------------------------------------------------------------- placing

    def _place(self, timer: WheelTimer) -> None:
        """Append ``timer`` to the bucket covering its expiry."""
        delta = max(timer.expires_jiffies - self._current, 0)
        level = 0
        span = self.LVL_SIZE
        while delta >= span and level < self.LEVELS - 1:
            level += 1
            span <<= self.LVL_BITS
        gran_bits = level * self.LVL_BITS
        slot = (timer.expires_jiffies >> gran_bits) & (self.LVL_SIZE - 1)
        self._buckets.setdefault(level << self.LVL_BITS | slot, []).append(timer)

    def add(self, expires_jiffies: int, callback: Callable[[], None], *, name: str = "timer") -> WheelTimer:
        """Enqueue a timer for an absolute jiffy count."""
        if expires_jiffies <= self._current:
            expires_jiffies = self._current + 1  # fires on the next advance
        t = WheelTimer(expires_jiffies, callback, name)
        self._place(t)
        self._count += 1
        return t

    # ------------------------------------------------------------- advancing

    def advance_to(self, jiffies: int) -> list[WheelTimer]:
        """Move time forward; return fired timers in expiry order."""
        if jiffies < self._current:
            raise GuestError(f"wheel cannot run backwards ({jiffies} < {self._current})")
        fired: list[WheelTimer] = []
        while self._current < jiffies:
            self._current += 1
            self._step(fired)
        fired.sort(key=lambda t: t.expires_jiffies)
        return fired

    def _step(self, fired: list[WheelTimer]) -> None:
        """Process one jiffy: fire level 0, cascade crossed boundaries."""
        cur = self._current
        # Level 0: every live timer in this slot is due (placement
        # guarantees expiry within one wheel revolution).
        self._drain(cur & (self.LVL_SIZE - 1), fired)
        # Higher levels: when a level's granularity boundary is crossed,
        # re-place (cascade) that slot's timers; due ones fire.
        for level in range(1, self.LEVELS):
            gran_bits = level * self.LVL_BITS
            if cur & ((1 << gran_bits) - 1):
                break
            slot = (cur >> gran_bits) & (self.LVL_SIZE - 1)
            self._drain(level << self.LVL_BITS | slot, fired)

    def _drain(self, key: int, fired: list[WheelTimer]) -> None:
        """Drop bucket ``key``; fire its due timers, re-place the rest."""
        for t in self._buckets.pop(key, ()):
            if t.expires_jiffies <= self._current:
                self._count -= 1
                fired.append(t)
            else:
                self._place(t)

    # -------------------------------------------------------------- queries

    def next_expiry(self) -> Optional[int]:
        """Earliest pending expiry in jiffies, or None if empty.

        Scans only the buckets that exist, so the cost is O(timers still
        queued). The idle path calls it once per idle entry.
        """
        best: Optional[int] = None
        for bucket in self._buckets.values():
            for t in bucket:
                if best is None or t.expires_jiffies < best:
                    best = t.expires_jiffies
        return best
