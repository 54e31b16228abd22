"""Harness metrics registry: counters, gauges, and log2 histograms.

A minimal, dependency-free metrics model shaped after the Prometheus
client data model: a metric has a name, HELP text, a type, and one
time-series per label-set. Counters are monotonic ints, gauges are
set-to-anything numbers, and histograms reuse
:class:`repro.obs.histograms.Log2Histogram` so the harness and the
simulator report distributions with the same bucket layout.

Two exports:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` + sample lines, cumulative ``le`` buckets),
  scrape-able or artifact-uploadable as ``metrics.prom``;
* :meth:`MetricsRegistry.to_json_dict` — a canonical JSON snapshot for
  programmatic reconciliation in tests and the report subcommand.

:func:`validate_prometheus_text` is the exposition-format linter the CI
job runs over the uploaded snapshot.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Union

from repro.obs.histograms import Log2Histogram

Number = Union[int, float]

#: Prometheus metric/label name grammar (exposition format spec).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Canonical label-set key: a sorted tuple of (label, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name: {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


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

    def __init__(self, prefix: str = "repro_harness") -> None:
        if not _NAME_RE.match(prefix):
            raise ValueError(f"invalid metric prefix: {prefix!r}")
        self.prefix = prefix
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

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4).

        Histograms emit cumulative ``le`` buckets at the log2 bucket
        upper bounds (``2^b - 1`` ns, matching
        :meth:`Log2Histogram.nonzero_buckets`), a ``+Inf`` bucket, and
        ``_sum`` / ``_count`` series.
        """
        lines: list[str] = []
        for name in sorted(self._metrics):
            m = self._metrics[name]
            full = f"{self.prefix}_{m.name}"
            if m.help:
                lines.append(f"# HELP {full} {m.help}")
            lines.append(f"# TYPE {full} {m.kind}")
            if m.kind == "counter":
                # The exposition format expects counters suffixed _total.
                sample = full if full.endswith("_total") else f"{full}_total"
                for key in sorted(m.series):
                    lines.append(f"{sample}{_format_labels(key)} "
                                 f"{_format_value(m.series[key])}")
            elif m.kind == "gauge":
                for key in sorted(m.series):
                    lines.append(f"{full}{_format_labels(key)} "
                                 f"{_format_value(m.series[key])}")
            else:
                for key in sorted(m.series):
                    h = m.series[key]
                    assert isinstance(h, Log2Histogram)
                    cumulative = 0
                    for b, c in enumerate(h.counts):
                        if not c:
                            continue
                        cumulative += c
                        le = str((1 << b) - 1) if b else "0"
                        lines.append(
                            f"{full}_bucket"
                            f"{_format_labels(key, (('le', le),))} {cumulative}")
                    lines.append(
                        f"{full}_bucket"
                        f"{_format_labels(key, (('le', '+Inf'),))} {h.count}")
                    lines.append(f"{full}_sum{_format_labels(key)} {h.total}")
                    lines.append(f"{full}_count{_format_labels(key)} {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")

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

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges
        take the other's value, histograms merge bucket-wise)."""
        for name, om in other._metrics.items():
            m = self._family(name, om.kind, om.help or
                             (self._metrics[name].help if name in self._metrics else ""))
            for key, v in om.series.items():
                if om.kind == "counter":
                    m.series[key] = int(m.series.get(key, 0)) + int(v)
                elif om.kind == "gauge":
                    m.series[key] = v
                else:
                    assert isinstance(v, Log2Histogram)
                    cur = m.series.get(key)
                    m.series[key] = cur.merge(v) if isinstance(cur, Log2Histogram) else v.merge(Log2Histogram())


# ---------------------------------------------------------------- validation

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(\s+(?P<ts>-?\d+))?$"
)


def validate_prometheus_text(text: str) -> list[str]:
    """Lint a text-format exposition; returns violations (empty == OK).

    Checks the subset a scraper actually parses: TYPE lines precede
    their samples, sample names match their family (modulo the
    ``_total`` / ``_bucket`` / ``_sum`` / ``_count`` suffixes), values
    parse as floats, histogram buckets are cumulative and end in a
    ``+Inf`` bucket that equals ``_count``.
    """
    errors: list[str] = []
    typed: dict[str, str] = {}
    # family -> label-prefix -> (last cumulative, inf seen, count value)
    bucket_state: dict[tuple[str, str], list] = {}

    def family_of(name: str) -> Optional[str]:
        for fam, kind in typed.items():
            if kind == "counter" and name in (fam, f"{fam}_total"):
                return fam
            if kind == "gauge" and name == fam:
                return fam
            if kind == "histogram" and name in (
                    f"{fam}_bucket", f"{fam}_sum", f"{fam}_count"):
                return fam
        return None

    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                errors.append(f"line {n}: malformed HELP")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                errors.append(f"line {n}: malformed TYPE")
                continue
            if parts[2] in typed:
                errors.append(f"line {n}: duplicate TYPE for {parts[2]}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {n}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"line {n}: non-numeric value {m.group('value')!r}")
            continue
        fam = family_of(name)
        if fam is None:
            errors.append(f"line {n}: sample {name!r} has no preceding TYPE")
            continue
        if typed[fam] == "counter" and value < 0:
            errors.append(f"line {n}: negative counter {name}")
        if typed[fam] == "histogram" and name == f"{fam}_bucket":
            labels = m.group("labels") or "{}"
            le_m = re.search(r'le="([^"]*)"', labels)
            if not le_m:
                errors.append(f"line {n}: bucket without le label")
                continue
            prefix = re.sub(r',?le="[^"]*"', "", labels)
            st = bucket_state.setdefault((fam, prefix), [0.0, False, None])
            if value < st[0]:
                errors.append(f"line {n}: non-cumulative bucket for {fam}")
            st[0] = value
            if le_m.group(1) == "+Inf":
                st[1] = True
                st[2] = value
    for (fam, _prefix), (last, inf_seen, _inf_val) in bucket_state.items():
        if not inf_seen:
            errors.append(f"histogram {fam}: missing +Inf bucket")
    return errors
