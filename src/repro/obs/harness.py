"""Harness telemetry: where real wall-clock goes while a grid runs.

The rest of :mod:`repro.obs` observes the *simulated* machines; this
module observes the platform that runs them — the parallel pool, the
content-addressed cache, fleet aggregation and the sanitizer. One
:class:`HarnessTelemetry` rides through ``run_grid`` / ``run_fleet`` /
``check_cells`` and is itself the record ring:

* a **span** is a named wall-clock interval on a *lane* (the grid
  scheduler, a worker process, the cache, the sanitizer, the fleet)
  with free-form scalar attributes; an **instant** is a point event on
  a lane (a cache hit, a quarantine, a pool rebuild);
* records land in a bounded ring of :data:`CAPACITY` records (overflow
  is counted, never unbounded); timestamps are ``time.monotonic_ns()``
  relative to the ring's construction;
* each finished grid hands over its
  :class:`~repro.resilience.policy.RunReport`, the one count of every
  grid outcome (cache hits, quarantines, retries, failures, rebuilds).

:meth:`HarnessTelemetry.write_outputs` writes ``spans.jsonl`` (the
ring), ``metrics.json`` (``{"grids": [RunReport, ...]}``) and
``harness_trace.json`` (a Perfetto timeline built by the same
:class:`~repro.obs.export.TraceBuilder` as the simulated one), and
:func:`report_lines` renders such a directory for ``telemetry report``.

Telemetry observes harness wall-clock only, never simulated state, so
results, cache keys and cache bytes are identical with it attached or
not (``telemetry=None``). The grid engine duck-types it and never
imports this module, so a detached grid loads none of ``repro.obs``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import ReproError
from repro.metrics.report import format_table
from repro.obs.export import TraceBuilder, write_chrome_trace
from repro.resilience.policy import RunReport
from repro.sim.timebase import fmt_time

#: Ring capacity (records). A grid cell contributes a handful of
#: records, so this covers grids of tens of thousands of cells.
CAPACITY = 200_000

#: Lane used when the caller does not name one (the grid scheduler).
DEFAULT_LANE = "harness"

#: Artifact filenames inside a ``--telemetry-out`` directory.
SPANS_FILE = "spans.jsonl"
METRICS_JSON_FILE = "metrics.json"
TRACE_FILE = "harness_trace.json"

#: All harness tracks live in one trace "process".
HARNESS_PID = 0


@dataclass(frozen=True)
class SpanRecord:
    """One finished harness span: ``[ts_ns, ts_ns + dur_ns)`` on a lane."""

    name: str
    ts_ns: int
    dur_ns: int
    lane: str = DEFAULT_LANE
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"type": "span", "name": self.name, "ts_ns": self.ts_ns,
                "dur_ns": self.dur_ns, "lane": self.lane, "attrs": self.attrs}


@dataclass(frozen=True)
class InstantRecord:
    """One point event on a lane (a cache hit, a quarantine, a rebuild)."""

    name: str
    ts_ns: int
    lane: str = DEFAULT_LANE
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"type": "instant", "name": self.name, "ts_ns": self.ts_ns,
                "lane": self.lane, "attrs": self.attrs}


def _json_safe(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


class HarnessTelemetry:
    """The bounded ring of harness spans and instants, plus the
    :class:`~repro.resilience.policy.RunReport` of every finished grid."""

    def __init__(self) -> None:
        self.records: deque[SpanRecord | InstantRecord] = deque(maxlen=CAPACITY)
        #: Records evicted by ring overflow.
        self.dropped = 0
        #: ``RunReport.to_json_dict()`` of each finished grid, in run order.
        self.grids: list[dict] = []
        #: Wall-clock (epoch seconds) at construction — anchors the
        #: monotonic timeline to calendar time.
        self.wall_epoch_s = time.time()
        self._epoch_ns = time.monotonic_ns()

    # ------------------------------------------------------------ recording

    def now_ns(self) -> int:
        """Monotonic ns since this ring's construction."""
        return time.monotonic_ns() - self._epoch_ns

    def add_span(self, name: str, ts_ns: int, dur_ns: int,
                 lane: str = DEFAULT_LANE, **attrs: Any) -> SpanRecord:
        """Record an externally measured span (e.g. a worker's run)."""
        rec = SpanRecord(name, max(0, ts_ns), max(0, dur_ns), lane, attrs)
        self._push(rec)
        return rec

    def instant(self, name: str, lane: str = DEFAULT_LANE, **attrs: Any) -> InstantRecord:
        """Record a point event at the current time."""
        rec = InstantRecord(name, self.now_ns(), lane, attrs)
        self._push(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str, lane: str = DEFAULT_LANE, **attrs: Any) -> Iterator[dict]:
        """Measure a ``with`` body as one span.

        Yields the (mutable) attrs dict so the body can attach results
        (``attrs["cells"] = n``); the span is recorded on exit, including
        the exceptional path (with ``attrs["error"]`` set).
        """
        start = self.now_ns()
        try:
            yield attrs
        except BaseException as exc:
            attrs.setdefault("error", repr(exc))
            raise
        finally:
            self.add_span(name, start, self.now_ns() - start, lane, **attrs)

    def grid_finished(self, report: RunReport) -> None:
        """Keep a finished grid's outcome counts."""
        self.grids.append(report.to_json_dict())

    def _push(self, rec: SpanRecord | InstantRecord) -> None:
        if len(self.records) == self.records.maxlen:
            self.dropped += 1
        self.records.append(rec)

    # ------------------------------------------------------------- readouts

    def spans(self) -> list[SpanRecord]:
        return [r for r in self.records if isinstance(r, SpanRecord)]

    def instants(self) -> list[InstantRecord]:
        return [r for r in self.records if isinstance(r, InstantRecord)]

    def lanes(self) -> list[str]:
        """Lane names in first-appearance order (stable track layout)."""
        return list(dict.fromkeys(r.lane for r in self.records))

    def chrome_trace(self) -> dict:
        """The ring as a Chrome/Perfetto trace document.

        One ``pid 0`` "harness" process; lanes become thread tracks in
        first-appearance order (tid 1..N; tid 0 is the process-name
        row). Spans become ``X`` slices and instants ``i`` events.
        """
        trace = TraceBuilder()
        trace.track(HARNESS_PID, 0, "harness")
        tid_of = {lane: tid for tid, lane in enumerate(self.lanes(), 1)}
        for lane, tid in tid_of.items():
            trace.track(HARNESS_PID, tid, lane)
        for rec in self.records:
            args = {k: _json_safe(v) for k, v in rec.attrs.items()}
            if isinstance(rec, SpanRecord):
                trace.slice(rec.name, "harness", HARNESS_PID, tid_of[rec.lane],
                            rec.ts_ns, rec.dur_ns, args)
            else:
                trace.instant(rec.name, "harness", HARNESS_PID, tid_of[rec.lane],
                              rec.ts_ns, args)
        return trace.document(generator="repro.obs.harness",
                              clock="wall-monotonic",
                              wall_epoch_s=self.wall_epoch_s,
                              dropped=self.dropped)

    # -------------------------------------------------------------- outputs

    def write_jsonl(self, path: str) -> int:
        """Dump the ring as JSON-lines; returns records written.

        The first line is a header carrying the epoch, the drop count
        and the record count, so a reader knows whether the file is
        complete.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "type": "header", "wall_epoch_s": self.wall_epoch_s,
                "dropped": self.dropped, "records": len(self.records),
            }, sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")
        return len(self.records)

    def write_outputs(self, out_dir: str) -> dict[str, str]:
        """Write ``spans.jsonl``, ``metrics.json`` and ``harness_trace.json``
        (validated before it is written) into ``out_dir``; returns
        name -> path."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {"spans": os.path.join(out_dir, SPANS_FILE),
                 "metrics_json": os.path.join(out_dir, METRICS_JSON_FILE),
                 "trace": os.path.join(out_dir, TRACE_FILE)}
        self.write_jsonl(paths["spans"])
        with open(paths["metrics_json"], "w", encoding="utf-8") as fh:
            json.dump({"grids": self.grids}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_chrome_trace(self.chrome_trace(), paths["trace"])
        return paths


def read_jsonl(path: str) -> tuple[dict, list[dict]]:
    """Load a spans JSONL file: ``(header, records)``.

    Tolerates a missing header and skips corrupt lines rather than
    failing — a reader must cope with a file truncated by a crash. A
    path that cannot be read at all is a :class:`ReproError`.
    """
    header: dict = {}
    records: list[dict] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"{path}: cannot read spans file: {exc.strerror}") from None
    with fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if not isinstance(obj, dict):
                continue
            if obj.get("type") == "header":
                header = obj
            elif obj.get("type") in ("span", "instant"):
                records.append(obj)
    return header, records


# --------------------------------------------------------------------------
# ``telemetry report``: read-side rendering of an artifact directory
# --------------------------------------------------------------------------


def span_summary_rows(records: Iterable[dict]) -> list[tuple[str, ...]]:
    """Aggregate spans by name: count, total/mean/max wall, lanes."""
    total: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    peak: dict[str, int] = defaultdict(int)
    lanes: dict[str, set] = defaultdict(set)
    for rec in records:
        if rec.get("type") != "span":
            continue
        name = rec["name"]
        dur = int(rec.get("dur_ns", 0))
        total[name] += dur
        count[name] += 1
        peak[name] = max(peak[name], dur)
        lanes[name].add(rec.get("lane", ""))
    return [(name, f"{count[name]:,}", fmt_time(total[name]),
             fmt_time(total[name] // count[name]), fmt_time(peak[name]),
             str(len(lanes[name])))
            for name in sorted(total, key=lambda n: -total[n])]


def instant_summary_rows(records: Iterable[dict]) -> list[tuple[str, str]]:
    counts: dict[str, int] = defaultdict(int)
    for rec in records:
        if rec.get("type") == "instant":
            counts[rec["name"]] += 1
    return [(name, f"{counts[name]:,}")
            for name in sorted(counts, key=lambda n: (-counts[n], n))]


def _read_grid_reports(path: str) -> list[RunReport]:
    """The :class:`RunReport` of every grid in a ``metrics.json``; a file
    of any other shape is a :class:`~repro.errors.ReproError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            grids = json.load(fh).get("grids", [])
        return [RunReport.from_json_dict(grid) for grid in grids]
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ReproError(f"{path}: not a metrics file: {exc!r}") from None


def report_lines(out_dir: str) -> Iterable[str]:
    """Full ``telemetry report`` output for one artifact directory: the
    span and instant tables, then one ``RunReport`` line per grid."""
    spans_path = os.path.join(out_dir, SPANS_FILE)
    metrics_path = os.path.join(out_dir, METRICS_JSON_FILE)
    reports = (_read_grid_reports(metrics_path)
               if os.path.exists(metrics_path) else None)
    if os.path.exists(spans_path):
        header, records = read_jsonl(spans_path)
        dropped = int(header.get("dropped", 0))
        note = f" ({dropped:,} dropped by ring overflow)" if dropped else ""
        yield f"spans: {len(records):,} records{note}"
        rows = span_summary_rows(records)
        if rows:
            yield format_table(
                ("span", "count", "total", "mean", "max", "lanes"),
                rows, title="wall-clock by span")
        inst = instant_summary_rows(records)
        if inst:
            yield ""
            yield format_table(("instant", "count"), inst, title="instant events")
    elif reports is None:
        yield (f"no telemetry artifacts in {out_dir} "
               f"(expected {SPANS_FILE} and/or {METRICS_JSON_FILE})")
    if reports:
        yield ""
        for i, report in enumerate(reports, 1):
            yield f"grid {i}: {report.render()}"
