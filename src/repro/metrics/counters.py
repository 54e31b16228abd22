"""VM-exit counters.

Counts exits per ``(reason, tag)`` pair and per vCPU — the raw material
for the paper's "VM exits" metric and for the trace-level assertions in
the integration tests ("tickless idle entry produces exactly one
TIMER_PROGRAM exit; paratick produces none unless a wake timer differs").

The hot path never hashes an enum: :meth:`ExitCounters.record` counts
into a ``Counter`` keyed by the dense int slot
``reason.index * len(ExitTag) + tag.index``. Every read maps the slots
back to :class:`ExitRecordKey`; the counter's insertion order is the
first-occurrence order that reports (and ``repro run`` stdout, where
counts tie) depend on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.host.exitreasons import TIMER_TAGS, ExitReason, ExitTag


@dataclass(frozen=True)
class ExitRecordKey:
    """Classification key of one exit."""

    reason: ExitReason
    tag: ExitTag


_NTAGS = len(ExitTag)
#: Every classification key, at its slot ``reason.index * _NTAGS + tag.index``.
_KEYS = tuple(ExitRecordKey(r, t) for r in ExitReason for t in ExitTag)


class ExitCounters:
    """Per-VM exit counters, also split per vCPU."""

    def __init__(self) -> None:
        self._by_slot: Counter[int] = Counter()
        self._by_vcpu: Counter[int] = Counter()

    def record(self, vcpu_index: int, reason: ExitReason, tag: ExitTag) -> None:
        """Record one exit."""
        self._by_slot[reason.index * _NTAGS + tag.index] += 1
        self._by_vcpu[vcpu_index] += 1

    def _items(self) -> list[tuple[ExitRecordKey, int]]:
        """``(key, count)`` pairs in first-occurrence order."""
        return [(_KEYS[s], c) for s, c in self._by_slot.items()]

    # --------------------------------------------------------------- totals

    @property
    def total(self) -> int:
        """All exits."""
        return sum(self._by_slot.values())

    def by_reason(self, reason: ExitReason) -> int:
        return sum(c for k, c in self._items() if k.reason is reason)

    def by_tag(self, tag: ExitTag) -> int:
        return sum(c for k, c in self._items() if k.tag is tag)

    def by_tags(self, tags: Iterable[ExitTag]) -> int:
        wanted = frozenset(tags)
        return sum(c for k, c in self._items() if k.tag in wanted)

    @property
    def timer_related(self) -> int:
        """Exits caused by scheduler-tick management (the paper's target)."""
        return self.by_tags(TIMER_TAGS)

    def for_vcpu(self, vcpu_index: int) -> int:
        return self._by_vcpu[vcpu_index]

    def breakdown(self) -> dict[ExitRecordKey, int]:
        """Copy of the full (reason, tag) -> count table."""
        return dict(self._items())

    def tag_breakdown(self) -> dict[ExitTag, int]:
        out: dict[ExitTag, int] = {}
        for k, c in self._items():
            out[k.tag] = out.get(k.tag, 0) + c
        return out

    def merge(self, other: "ExitCounters") -> "ExitCounters":
        """Sum of two counter sets (used to aggregate multi-VM scenarios)."""
        out = ExitCounters()
        out._by_slot = self._by_slot + other._by_slot
        out._by_vcpu = self._by_vcpu + other._by_vcpu
        return out

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-safe encoding (the experiment cache stores these)."""
        return {
            "by_key": [
                [k.reason.value, k.tag.value, c]
                for k, c in sorted(
                    self._items(), key=lambda kc: (kc[0].reason.value, kc[0].tag.value)
                )
            ],
            "by_vcpu": {str(i): c for i, c in sorted(self._by_vcpu.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExitCounters":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        out = cls()
        for reason, tag, count in data["by_key"]:
            out._by_slot[ExitReason(reason).index * _NTAGS + ExitTag(tag).index] = int(count)
        for idx, count in data["by_vcpu"].items():
            out._by_vcpu[int(idx)] = int(count)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExitCounters):
            return NotImplemented
        return self._by_slot == other._by_slot and self._by_vcpu == other._by_vcpu

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExitCounters total={self.total} timer={self.timer_related}>"
