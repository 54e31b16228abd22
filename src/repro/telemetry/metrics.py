"""Harness metrics registry: counters, gauges, and log2 histograms.

A minimal, dependency-free metrics model: a metric has a name, HELP
text, a type, and one time-series per label-set. Counters are monotonic
ints, gauges are set-to-anything numbers, and histograms reuse
:class:`repro.obs.histograms.Log2Histogram` so the harness and the
simulator report distributions with the same bucket layout.

:meth:`MetricsRegistry.to_json_dict` is the one export: a canonical
JSON snapshot, written as ``metrics.json`` and read back by tests and
the ``telemetry report`` subcommand.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from repro.obs.histograms import Log2Histogram

Number = Union[int, float]

#: Metric and label name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Canonical label-set key: a sorted tuple of (label, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name: {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """One named metric family: type, help, per-label-set series."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.series: dict[LabelKey, Union[Number, Log2Histogram]] = {}


class MetricsRegistry:
    """Counters, gauges, and log2 histograms for the harness."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------ recording

    def _family(self, name: str, kind: str, help: str) -> _Metric:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = _Metric(name, kind, help)
        elif m.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {m.kind}, not {kind}")
        return m

    def counter(self, name: str, amount: int = 1, help: str = "",
                **labels: str) -> int:
        """Increment a monotonic counter; returns the new value."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        m = self._family(name, "counter", help)
        key = _label_key(labels)
        value = int(m.series.get(key, 0)) + amount
        m.series[key] = value
        return value

    def gauge(self, name: str, value: Number, help: str = "",
              **labels: str) -> None:
        """Set a gauge to an arbitrary current value."""
        m = self._family(name, "gauge", help)
        m.series[_label_key(labels)] = value

    def observe(self, name: str, value_ns: int, help: str = "",
                **labels: str) -> None:
        """Record one observation into a log2 histogram (ns-valued)."""
        m = self._family(name, "histogram", help)
        key = _label_key(labels)
        h = m.series.get(key)
        if not isinstance(h, Log2Histogram):
            h = m.series[key] = Log2Histogram()
        h.record(max(0, int(value_ns)))

    # ------------------------------------------------------------- readouts

    def counter_value(self, name: str, **labels: str) -> int:
        m = self._metrics.get(name)
        if m is None:
            return 0
        return int(m.series.get(_label_key(labels), 0))

    def histogram(self, name: str, **labels: str) -> Optional[Log2Histogram]:
        m = self._metrics.get(name)
        if m is None:
            return None
        h = m.series.get(_label_key(labels))
        return h if isinstance(h, Log2Histogram) else None

    # -------------------------------------------------------------- exports

    def to_json_dict(self) -> dict:
        """Canonical JSON snapshot: ``{name: {type, help, series: [...]}}``."""
        out: dict[str, dict] = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            series = []
            for key in sorted(m.series):
                v = m.series[key]
                series.append({
                    "labels": dict(key),
                    "value": v.to_json_dict() if isinstance(v, Log2Histogram) else v,
                })
            out[m.name] = {"type": m.kind, "help": m.help, "series": series}
        return out
