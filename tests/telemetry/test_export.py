"""Harness timeline export and the HarnessTelemetry facade outputs.

The Chrome trace must pass the same validator the obs exporter is held
to, and ``write_outputs`` must produce all three artifacts in a form
their respective validators/readers accept.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import validate_chrome_trace
from repro.telemetry import HarnessTelemetry, harness_chrome_trace
from repro.telemetry.report import report_lines
from repro.telemetry.spans import SpanTracer, read_jsonl


def _tracer() -> SpanTracer:
    t = SpanTracer()
    t.add_span("grid.run", 0, 5_000_000, cells=2)
    t.add_span("shard.execute", 1_000, 2_000_000, lane="worker-11", spec="a")
    t.add_span("shard.execute", 500, 1_500_000, lane="worker-12", spec="b")
    t.instant("cache.miss", lane="cache", spec="a")
    return t


class TestChromeTrace:
    def test_validates_clean(self):
        assert validate_chrome_trace(harness_chrome_trace(_tracer())) == []

    def test_process_and_lane_tracks(self):
        doc = harness_chrome_trace(_tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0] == {"ph": "M", "name": "process_name", "pid": 0,
                           "tid": 0, "args": {"name": "harness"}}
        lane_names = [e["args"]["name"] for e in meta[1:]]
        assert lane_names == ["harness", "worker-11", "worker-12", "cache"]
        # tids are 1..N in first-appearance order; 0 is the process row.
        assert [e["tid"] for e in meta[1:]] == [1, 2, 3, 4]

    def test_spans_become_X_slices_in_us(self):
        doc = harness_chrome_trace(_tracer())
        [grid] = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "grid.run"]
        assert grid["ts"] == 0.0 and grid["dur"] == 5000.0  # ns -> µs
        assert grid["args"] == {"cells": 2}

    def test_instants_become_i_events(self):
        doc = harness_chrome_trace(_tracer())
        [miss] = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert miss["s"] == "t" and miss["args"]["spec"] == "a"

    def test_non_scalar_attrs_are_reprd(self):
        t = SpanTracer()
        t.instant("e", payload={"not": "scalar"})
        doc = harness_chrome_trace(t)
        [ev] = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert isinstance(ev["args"]["payload"], str)
        assert validate_chrome_trace(doc) == []

    def test_other_data_carries_epoch_and_drops(self):
        t = SpanTracer(capacity=1)
        t.instant("a")
        t.instant("b")
        doc = harness_chrome_trace(t)
        assert doc["otherData"]["dropped"] == 1
        assert doc["otherData"]["wall_epoch_s"] > 0


class TestWriteOutputs:
    def test_all_three_artifacts_written_and_valid(self, tmp_path):
        tel = HarnessTelemetry()
        with tel.span("grid.run", cells=1):
            tel.counter("cells", help="settled", status="ran")
            tel.observe("shard_wall_ns", 12_345, status="ran")
            tel.instant("cache.write", lane="cache")
        paths = tel.write_outputs(str(tmp_path))
        assert set(paths) == {"spans", "metrics_json", "trace"}

        header, records = read_jsonl(paths["spans"])
        assert header["records"] == len(records) == 2

        with open(paths["metrics_json"]) as fh:
            snap = json.load(fh)
        assert snap["cells"]["series"][0]["value"] == 1

        with open(paths["trace"]) as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_trace_validated_before_it_is_written(self, tmp_path, monkeypatch):
        tel = HarnessTelemetry()
        monkeypatch.setattr(tel, "chrome_trace",
                            lambda: {"traceEvents": [{"ph": "X", "pid": 0, "tid": 1}]})
        with pytest.raises(ValueError, match="failed validation"):
            tel.write_outputs(str(tmp_path))
        assert not (tmp_path / "harness_trace.json").exists()

    def test_report_renders_written_directory(self, tmp_path):
        tel = HarnessTelemetry()
        with tel.span("grid.run"):
            tel.counter("cells", status="ran")
        tel.instant("cache.miss", lane="cache")
        tel.write_outputs(str(tmp_path))
        text = "\n".join(report_lines(str(tmp_path)))
        assert "grid.run" in text
        assert "cache.miss" in text
        assert "cells" in text

    def test_report_on_empty_directory_says_so(self, tmp_path):
        text = "\n".join(report_lines(str(tmp_path)))
        assert "no telemetry artifacts" in text
