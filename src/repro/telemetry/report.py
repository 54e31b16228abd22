"""Text rendering of a telemetry output directory.

``python -m repro telemetry report DIR`` reads the artifacts that
:meth:`repro.telemetry.HarnessTelemetry.write_outputs` wrote
(``spans.jsonl``, ``metrics.json``) and prints an operator-facing
summary: where wall-clock went by span name, per-lane totals, and the
counter/histogram readouts. Pure read-side code — nothing here touches
the recording path.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Iterable

from repro.metrics.report import format_table
from repro.telemetry.spans import read_jsonl

#: Artifact filenames inside a ``--telemetry-out`` directory.
SPANS_FILE = "spans.jsonl"
METRICS_JSON_FILE = "metrics.json"
TRACE_FILE = "harness_trace.json"


def _fmt_wall(ns: float) -> str:
    """Human wall-clock: harness spans range from µs to minutes."""
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{int(ns)}ns"


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
    rows = []
    for name in sorted(total, key=lambda n: -total[n]):
        rows.append((
            name,
            f"{count[name]:,}",
            _fmt_wall(total[name]),
            _fmt_wall(total[name] / count[name] if count[name] else 0),
            _fmt_wall(peak[name]),
            str(len(lanes[name])),
        ))
    return rows


def instant_summary_rows(records: Iterable[dict]) -> list[tuple[str, str]]:
    counts: dict[str, int] = defaultdict(int)
    for rec in records:
        if rec.get("type") == "instant":
            counts[rec["name"]] += 1
    return [(name, f"{counts[name]:,}")
            for name in sorted(counts, key=lambda n: (-counts[n], n))]


def metrics_summary_rows(metrics: dict) -> list[tuple[str, ...]]:
    """Flatten a metrics.json snapshot into report rows."""
    rows = []
    for name, fam in sorted(metrics.items()):
        for s in fam.get("series", []):
            labels = ",".join(f"{k}={v}" for k, v in sorted(s.get("labels", {}).items()))
            v = s.get("value")
            if fam.get("type") == "histogram" and isinstance(v, dict):
                count = int(v.get("count", 0))
                mean = (int(v.get("total_ns", 0)) // count) if count else 0
                shown = f"n={count:,} mean={_fmt_wall(mean)} max={_fmt_wall(int(v.get('max_ns', 0)))}"
            else:
                shown = str(v)
            rows.append((name, fam.get("type", "?"), labels or "-", shown))
    return rows


#: Counters the recovery section surfaces (journal resume, integrity
#: quarantine, degradation ladder) — absent counters are simply omitted.
RESILIENCE_COUNTERS = (
    ("cells_resumed", "cells resumed from the run journal"),
    ("cells_reverified", "resumed cells re-verified against journaled hashes"),
    ("resume_mismatches", "resume re-verifications that failed (re-run)"),
    ("cache_quarantined", "corrupt cache files quarantined"),
    ("pool_rebuilds", "process pool crash recoveries"),
    ("pool_degrades", "degradation ladder steps taken"),
)

#: Instants counted in the recovery section.
RESILIENCE_INSTANTS = ("resume.hit", "resume.miss", "resume.mismatch",
                       "cache.quarantine", "chaos.abort", "pool.degrade",
                       "pool.rebuild")


def resilience_summary_rows(metrics: dict,
                            records: Iterable[dict] = ()) -> list[tuple[str, str, str]]:
    """Recovery/resilience readout: resumes, quarantines, degradation.

    Pulls the journal/integrity/degradation counters out of the metrics
    snapshot and the matching instants out of the span stream, so an
    operator sees at a glance whether a run leaned on its recovery
    machinery. Empty when the run was clean and un-resumed.
    """
    rows: list[tuple[str, str, str]] = []
    for name, what in RESILIENCE_COUNTERS:
        fam = metrics.get(name)
        if not fam:
            continue
        total = 0
        for s in fam.get("series", []):
            v = s.get("value")
            if isinstance(v, (int, float)):
                total += int(v)
        rows.append((name, f"{total:,}", what))
    counts: dict[str, int] = defaultdict(int)
    for rec in records:
        if rec.get("type") == "instant" and rec.get("name") in RESILIENCE_INSTANTS:
            counts[rec["name"]] += 1
    seen = {name for name, _, _ in rows}
    for name in sorted(counts):
        if name not in seen:
            rows.append((name, f"{counts[name]:,}", "instant events"))
    return rows


def report_lines(out_dir: str) -> Iterable[str]:
    """Full ``telemetry report`` output for one artifact directory."""
    spans_path = os.path.join(out_dir, SPANS_FILE)
    metrics_path = os.path.join(out_dir, METRICS_JSON_FILE)
    found = False
    records: list[dict] = []
    metrics: dict = {}
    if os.path.exists(spans_path):
        found = True
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
    if os.path.exists(metrics_path):
        found = True
        with open(metrics_path, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        rows = metrics_summary_rows(metrics)
        if rows:
            yield ""
            yield format_table(("metric", "type", "labels", "value"),
                               rows, title="metrics snapshot")
    if found:
        rows = resilience_summary_rows(metrics, records)
        if rows:
            yield ""
            yield format_table(("event", "count", "meaning"), rows,
                               title="recovery / resilience")
    if not found:
        yield (f"no telemetry artifacts in {out_dir} "
               f"(expected {SPANS_FILE} and/or {METRICS_JSON_FILE})")
