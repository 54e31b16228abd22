"""Perfetto/Chrome export of the *harness* execution timeline.

Same JSON Object Format that :mod:`repro.obs.export` produces for
simulated time, built by the same :class:`~repro.obs.export.TraceBuilder`
and held to the same validator, applied to harness wall-clock: one
process track (``pid 0`` = "harness"), one thread track per lane (the
scheduler, each worker process, the sanitizer), spans as complete
(``X``) slices and instants (cache probes, retries) as ``i`` events.
"""

from __future__ import annotations

from typing import Any

from repro.obs.export import TraceBuilder
from repro.telemetry.spans import SpanRecord, SpanTracer

#: All harness tracks live in one trace "process".
HARNESS_PID = 0
HARNESS_PROCESS_NAME = "harness"


def _json_safe(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def harness_chrome_trace(tracer: SpanTracer) -> dict:
    """Convert a :class:`SpanTracer` ring to a Chrome trace document.

    Lanes become thread tracks in first-appearance order (tid 1..N;
    tid 0 is reserved for the process-name row, matching the obs
    exporter's convention). Timestamps convert tracer-ns to trace-µs.
    """
    trace = TraceBuilder()
    trace.track(HARNESS_PID, 0, HARNESS_PROCESS_NAME)
    tid_of = {lane: tid for tid, lane in enumerate(tracer.lanes(), 1)}
    for lane, tid in tid_of.items():
        trace.track(HARNESS_PID, tid, lane)
    for rec in tracer.records:
        args = {k: _json_safe(v) for k, v in rec.attrs.items()}
        if isinstance(rec, SpanRecord):
            trace.slice(rec.name, "harness", HARNESS_PID, tid_of[rec.lane],
                        rec.ts_ns, rec.dur_ns, args)
        else:
            trace.instant(rec.name, "harness", HARNESS_PID, tid_of[rec.lane],
                          rec.ts_ns, args)
    return trace.document(generator="repro.telemetry.export",
                          clock="wall-monotonic",
                          wall_epoch_s=tracer.wall_epoch_s,
                          dropped=tracer.dropped)
