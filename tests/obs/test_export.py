"""Chrome trace_event export: schema validity and the Fig. 1 golden trace.

The acceptance-grade test here: exporting the Fig. 1 (tickless) idle
cycle produces a Perfetto-loadable document whose instant-event kinds
match the golden kind list the analysis tests pin — i.e. the exporter
drops nothing and invents nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.config import TickMode
from repro.obs.export import (
    slice_names,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.trace import TraceRecord

from tests.analysis.test_golden_traces import (
    FIG1_TICKLESS_CYCLE,
    one_idle_cycle,
    traced_idle_run,
)


@pytest.fixture(scope="module")
def fig1_records():
    return traced_idle_run(TickMode.TICKLESS)


@pytest.fixture(scope="module")
def fig1_doc(fig1_records):
    return to_chrome_trace(fig1_records, pcpu_of={"vm0/vcpu0": 0})


class TestFig1GoldenExport:
    def test_document_validates(self, fig1_doc):
        assert validate_chrome_trace(fig1_doc) == []

    def test_instant_kinds_match_golden_cycle(self, fig1_records, fig1_doc):
        """Every non-state kind of the golden Fig. 1 idle cycle appears
        as an instant event, in the same order, over the cycle window."""
        cycle = one_idle_cycle(fig1_records)
        assert cycle == FIG1_TICKLESS_CYCLE  # the premise the export rides on
        starts = [i for i, r in enumerate(fig1_records) if r.kind == "idle_enter"]
        window = fig1_records[starts[0]:starts[1]]
        t0, t1 = window[0].time, window[-1].time
        expected = [k for k in FIG1_TICKLESS_CYCLE if k != "vcpu_state"]
        instants = sorted(
            (ev for ev in fig1_doc["traceEvents"]
             if ev["ph"] == "i" and t0 <= ev["ts"] * 1000.0 <= t1),
            key=lambda ev: ev["ts"],
        )
        assert [ev["name"] for ev in instants] == expected

    def test_state_slices_alternate(self, fig1_doc):
        """The vCPU track renders the run-state machine: a guest slice
        is never followed directly by another guest slice."""
        names = slice_names(fig1_doc, "vm0/vcpu0")
        assert "guest" in names and "halted" in names
        for a, b in zip(names, names[1:]):
            assert not (a == "guest" and b == "guest")

    def test_durations_cover_trace(self, fig1_records, fig1_doc):
        """Complete events tile the vCPU's lifetime: total slice time
        equals first state transition -> trace horizon (the final open
        slice is closed at the horizon)."""
        states = [r for r in fig1_records
                  if r.source == "vm0/vcpu0" and r.kind == "vcpu_state"]
        horizon = max(r.time for r in fig1_records)
        end = horizon if states[-1].detail[1] != "off" else states[-1].time
        span_us = (end - states[0].time) / 1000.0
        total_us = sum(ev["dur"] for ev in fig1_doc["traceEvents"]
                       if ev["ph"] == "X")
        assert total_us == pytest.approx(span_us, rel=1e-9)

    def test_json_serializable(self, fig1_doc, tmp_path):
        path = tmp_path / "fig1.trace.json"
        write_chrome_trace(fig1_doc, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == fig1_doc["traceEvents"]
        assert loaded["displayTimeUnit"] == "ns"

    def test_writer_refuses_an_invalid_document(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        with pytest.raises(ValueError, match="failed validation"):
            write_chrome_trace({"traceEvents": [{"ph": "Q"}]}, str(path))
        assert not path.exists()


class TestExporterMechanics:
    def test_tracks_named_per_source(self):
        recs = [
            TraceRecord(10, "vm0/vcpu0", "idle_enter"),
            TraceRecord(20, "vm0/vcpu1", "idle_enter"),
        ]
        doc = to_chrome_trace(recs, pcpu_of={"vm0/vcpu0": 0, "vm0/vcpu1": 1})
        meta = [(ev["name"], ev["args"]["name"]) for ev in doc["traceEvents"]
                if ev["ph"] == "M"]
        assert ("process_name", "pCPU0") in meta
        assert ("process_name", "pCPU1") in meta
        assert ("thread_name", "vm0/vcpu0") in meta
        assert ("thread_name", "vm0/vcpu1") in meta

    def test_vlapic_rides_its_vcpu_pid(self):
        recs = [TraceRecord(5, "vm0/vcpu1/vlapic", "lapic_disarm")]
        doc = to_chrome_trace(recs, pcpu_of={"vm0/vcpu1": 3})
        inst = next(ev for ev in doc["traceEvents"] if ev["ph"] == "i")
        assert inst["pid"] == 3

    def test_open_slice_closed_at_end_ns(self):
        recs = [TraceRecord(100, "vm0/vcpu0", "vcpu_state", ("init", "guest"))]
        doc = to_chrome_trace(recs, end_ns=600)
        sl = next(ev for ev in doc["traceEvents"] if ev["ph"] == "X")
        assert sl["name"] == "guest"
        assert sl["ts"] == pytest.approx(0.1)
        assert sl["dur"] == pytest.approx(0.5)

    def test_ns_to_us_fractional(self):
        recs = [TraceRecord(1234, "x", "idle_enter")]
        doc = to_chrome_trace(recs)
        inst = next(ev for ev in doc["traceEvents"] if ev["ph"] == "i")
        assert inst["ts"] == pytest.approx(1.234)


class TestValidator:
    def test_rejects_non_list(self):
        assert validate_chrome_trace({"traceEvents": {}}) != []

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [{"ph": "Z", "pid": 0, "tid": 0, "ts": 0, "name": "x"}]}
        assert any("phase" in e for e in validate_chrome_trace(bad))

    def test_rejects_negative_ts(self):
        bad = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {"name": "p"}},
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1, "args": {"name": "t"}},
            {"ph": "i", "s": "t", "pid": 0, "tid": 1, "ts": -1, "name": "x", "args": {}},
        ]}
        assert any("ts" in e for e in validate_chrome_trace(bad))

    def test_rejects_unnamed_track(self):
        bad = {"traceEvents": [
            {"ph": "i", "s": "t", "pid": 0, "tid": 1, "ts": 0, "name": "x", "args": {}},
        ]}
        errors = validate_chrome_trace(bad)
        assert any("process_name" in e for e in errors)
        assert any("thread_name" in e for e in errors)

    def test_rejects_complete_without_dur(self):
        bad = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {"name": "p"}},
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1, "args": {"name": "t"}},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 0, "name": "x"},
        ]}
        assert any("dur" in e for e in validate_chrome_trace(bad))
