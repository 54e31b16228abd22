"""Degradation policy: circuit breaker, structured run report.

The engine's original failure handling was binary — retry once, then
report. Under correlated failure (a cgroup OOM-killing every worker, a
flaky filesystem) that either hammers the failing resource at full
parallelism or gives up a thousand-cell grid over a transient. This
module gives the grid a *ladder* instead:

* :class:`CircuitBreaker` — a windowed failure-rate monitor; when it
  trips, the pool is shrunk (half the workers), then execution falls
  back to serial in-process, *then* the remaining cells are failed —
  degrade before giving up;
* :class:`RunReport` — the structured outcome every driver can print
  or serialize: ``completed`` (clean), ``degraded`` (finished, but
  recovery machinery had to act), or ``failed`` (cells permanently
  lost), with the evidence attached.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

#: Failure kinds the engine distinguishes (satellite: a timeout, a
#: worker crash, and an in-worker exception are different diseases).
FAILURE_KINDS = ("timeout", "crash", "error")


@dataclass
class CircuitBreaker:
    """Windowed failure-rate monitor over settled grid attempts.

    ``record(ok)`` after every attempt outcome; :attr:`tripped` once at
    least ``min_events`` of the last ``window`` attempts are recorded
    and the failure fraction reaches ``threshold``. ``reset()`` after
    the caller has degraded (new pool, new chances).
    """

    threshold: float = 0.5
    min_events: int = 4
    window: int = 20
    trips: int = 0
    _outcomes: deque = field(default_factory=lambda: deque(maxlen=20), repr=False)

    def __post_init__(self) -> None:
        self._outcomes = deque(maxlen=self.window)

    def record(self, ok: bool) -> None:
        self._outcomes.append(bool(ok))

    @property
    def events(self) -> int:
        return len(self._outcomes)

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - (sum(self._outcomes) / len(self._outcomes))

    @property
    def tripped(self) -> bool:
        return (len(self._outcomes) >= self.min_events
                and self.failure_rate >= self.threshold)

    def trip_and_reset(self) -> int:
        """Acknowledge a trip: bump the counter, clear the window."""
        self.trips += 1
        self._outcomes.clear()
        return self.trips


@dataclass
class RunReport:
    """Structured outcome of one grid execution.

    ``outcome``:

    * ``"completed"`` — every cell has a result and no recovery
      machinery had to act;
    * ``"degraded"`` — every cell has a result, but the run leaned on
      retries, pool rebuilds, degradation steps, or quarantine to get
      there;
    * ``"failed"`` — at least one cell is permanently failed.
    """

    cells: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Cache files quarantined during this run (corrupt on read).
    quarantined: int = 0
    retries: Counter = field(default_factory=Counter)      # kind -> count
    failures: Counter = field(default_factory=Counter)     # kind -> count
    pool_rebuilds: int = 0
    #: Human-readable ladder steps taken ("pool shrunk to 2", ...).
    degradation: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def outcome(self) -> str:
        if self.failed:
            return "failed"
        if (self.retries or self.pool_rebuilds or self.degradation
                or self.quarantined):
            return "degraded"
        return "completed"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "quarantined": self.quarantined,
            "retries": dict(self.retries),
            "failures": dict(self.failures),
            "failed": self.failed,
            "pool_rebuilds": self.pool_rebuilds,
            "degradation": list(self.degradation),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunReport":
        """Inverse of :meth:`to_json_dict` (``outcome``/``failed`` are derived)."""
        fields = {k: v for k, v in data.items() if k not in ("outcome", "failed")}
        return cls(**{**fields, "retries": Counter(fields["retries"]),
                      "failures": Counter(fields["failures"])})

    def render(self) -> str:
        """One operator-facing summary line."""
        parts = [f"outcome={self.outcome}", f"cells={self.cells}",
                 f"cached={self.cache_hits}", f"executed={self.executed}"]
        if self.quarantined:
            parts.append(f"quarantined={self.quarantined}")
        if self.retries:
            parts.append("retries=" + ",".join(
                f"{k}:{v}" for k, v in sorted(self.retries.items())))
        if self.failed:
            parts.append("failed=" + ",".join(
                f"{k}:{v}" for k, v in sorted(self.failures.items())))
        if self.pool_rebuilds:
            parts.append(f"pool_rebuilds={self.pool_rebuilds}")
        for step in self.degradation:
            parts.append(f"degraded[{step}]")
        return " ".join(parts)


def classify_failure(exc: BaseException) -> str:
    """Map an attempt's exception to a :data:`FAILURE_KINDS` member."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.experiments.parallel import RunTimeout

    if isinstance(exc, RunTimeout):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    return "error"
