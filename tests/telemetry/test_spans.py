"""Harness span ring contract: recording, the bounded ring, readers.

The ring observes the harness, so its own failure modes must be
harmless: overflow is counted (never unbounded memory), and the JSONL
reader tolerates files truncated by a crash.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import harness
from repro.obs.harness import (
    HarnessTelemetry,
    InstantRecord,
    SpanRecord,
    read_jsonl,
)


class TestRecording:
    def test_span_context_measures_and_records(self):
        t = HarnessTelemetry()
        with t.span("work", lane="sched", cells=3) as attrs:
            attrs["extra"] = "yes"
        [rec] = t.spans()
        assert rec.name == "work"
        assert rec.lane == "sched"
        assert rec.dur_ns >= 0
        assert rec.attrs == {"cells": 3, "extra": "yes"}

    def test_exceptional_span_still_recorded_with_error(self):
        t = HarnessTelemetry()
        with pytest.raises(ValueError, match="inner"):
            with t.span("work"):
                raise ValueError("inner")
        [rec] = t.spans()
        assert "ValueError" in rec.attrs["error"]

    def test_instant_records_point_event(self):
        t = HarnessTelemetry()
        t.instant("cache.probe", lane="cache", spec="x")
        [rec] = t.instants()
        assert isinstance(rec, InstantRecord)
        assert rec.ts_ns >= 0 and rec.attrs == {"spec": "x"}

    def test_add_span_clamps_negative_times(self):
        t = HarnessTelemetry()
        rec = t.add_span("w", ts_ns=-5, dur_ns=-7)
        assert (rec.ts_ns, rec.dur_ns) == (0, 0)

    def test_timestamps_are_monotonic_per_tracer(self):
        t = HarnessTelemetry()
        a = t.now_ns()
        b = t.now_ns()
        assert 0 <= a <= b


class TestBoundedRing:
    def test_overflow_evicts_oldest_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(harness, "CAPACITY", 4)
        t = HarnessTelemetry()
        for i in range(6):
            t.instant(f"e{i}")
        assert len(t.records) == 4
        assert t.dropped == 2
        assert [r.name for r in t.records] == ["e2", "e3", "e4", "e5"]

    def test_lanes_in_first_appearance_order(self):
        t = HarnessTelemetry()
        t.instant("a", lane="cache")
        t.instant("b", lane="harness")
        t.instant("c", lane="cache")
        t.instant("d", lane="worker-1")
        assert t.lanes() == ["cache", "harness", "worker-1"]


class TestJsonlFile:
    def test_write_read_round_trip(self, tmp_path):
        t = HarnessTelemetry()
        t.add_span("grid.run", 0, 1000, cells=2)
        t.instant("cache.hit", lane="cache")
        path = str(tmp_path / "spans.jsonl")
        assert t.write_jsonl(path) == 2
        header, records = read_jsonl(path)
        assert header["records"] == 2 and header["dropped"] == 0
        assert [r["type"] for r in records] == ["span", "instant"]
        assert records[0]["attrs"] == {"cells": 2}

    def test_reader_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = SpanRecord("ok", 0, 5).to_json_dict()
        path.write_text(
            json.dumps(good) + "\n"
            + "{ truncated by a cra\n"
            + "[1, 2, 3]\n"
            + json.dumps(good) + "\n"
        )
        header, records = read_jsonl(str(path))
        assert header == {}  # streamed files carry no header
        assert len(records) == 2
