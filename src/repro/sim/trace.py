"""Lightweight structured tracing for simulation runs.

Tracing is how we debugged the tick-sched state machines and how the
integration tests assert *sequences* of behaviour (e.g. "idle entry is
followed by exactly one MSR-write exit in tickless mode, none in
paratick"). Production experiment runs use :class:`NullTracer`, which
compiles down to a single attribute check on the hot path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: ``(time, source, kind, detail)``."""

    time: int
    source: str
    kind: str
    detail: Any = None

    def __str__(self) -> str:
        d = f" {self.detail}" if self.detail is not None else ""
        return f"[{self.time:>12}ns] {self.source}: {self.kind}{d}"


class Tracer:
    """Base tracer interface."""

    #: Fast-path flag: components skip building detail objects when False.
    enabled: bool = True

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        raise NotImplementedError


class NullTracer(Tracer):
    """Discards everything; ``enabled`` is False so callers skip work."""

    enabled = False

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        pass


class RingTracer(Tracer):
    """Keeps the last ``capacity`` records in memory.

    Optionally filters by ``kinds`` (an iterable of kind strings) so long
    runs can trace only the events of interest.
    """

    enabled = True

    def __init__(self, capacity: int = 100_000, kinds: Optional[Iterable[str]] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.records: deque[TraceRecord] = deque(maxlen=capacity)
        self._kinds = frozenset(kinds) if kinds is not None else None
        #: Total records offered, including ones filtered or evicted.
        self.offered = 0
        #: Records evicted by capacity overflow. Consumers (profiler,
        #: trace export) must surface a non-zero count instead of
        #: silently under-reporting the head of the run.
        self.dropped = 0

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        self.offered += 1
        if self._kinds is not None and kind not in self._kinds:
            return
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(TraceRecord(time, source, kind, detail))

    @property
    def truncated(self) -> bool:
        """True when the ring evicted records (output is a suffix)."""
        return self.dropped > 0

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All retained records of one kind, in time order."""
        return [r for r in self.records if r.kind == kind]

    def kinds(self) -> dict[str, int]:
        """Histogram of retained record kinds."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out


class TeeTracer(Tracer):
    """Fans every record out to several tracers.

    This is how an analysis sink (e.g. the invariant sanitizer in
    :mod:`repro.analysis`) rides along with a user-facing tracer: both
    attach as sinks and see the identical stream. ``enabled`` is True
    iff any sink is enabled, so the NullTracer fast path is preserved
    when every sink is disabled.
    """

    def __init__(self, *sinks: Tracer):
        if not sinks:
            raise ValueError("TeeTracer needs at least one sink")
        self.sinks = tuple(sinks)
        self.enabled = any(s.enabled for s in self.sinks)

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        for s in self.sinks:
            if s.enabled:
                s.emit(time, source, kind, detail)
