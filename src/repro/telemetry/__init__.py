"""Harness telemetry: spans, metrics, Prometheus/Perfetto export.

`repro.obs` makes the *simulated machines* observable; this package
makes the *platform that runs them* observable — the parallel pool,
the content-addressed cache, fleet sharding and aggregation. One
:class:`HarnessTelemetry` object rides through ``run_grid`` /
``run_fleet`` / ``check_cells`` and collects:

* wall-clock **spans** (grid scheduling, per-shard execute/retry,
  fleet aggregation) and **instants** (cache probe/hit/miss/write) in
  a bounded ring with an optional streaming JSONL sink
  (:mod:`repro.telemetry.spans`);
* **metrics** — counters, gauges, and log2 histograms shared with
  :mod:`repro.obs.histograms` — exported as Prometheus text and
  canonical JSON (:mod:`repro.telemetry.metrics`);
* a **Perfetto-loadable timeline** of the harness execution (worker
  lanes as tracks) via :mod:`repro.telemetry.export`.

House guarantees, mirrored from ``repro.obs``:

* **zero overhead when detached** — every producer checks
  ``telemetry is not None and telemetry.enabled`` (the grid engine once
  per grid); the exploding-telemetry test proves a disabled object is
  never touched;
* **bit-identical results** — telemetry observes only harness
  wall-clock, never simulated state, so RunMetrics and cache keys are
  unchanged whether it is attached or not (golden batteries enforce
  this).

The deterministic *in-sim* time-series companion (windowed exits /
steal / halt / tick-latency over simulated time) lives in
:mod:`repro.obs.series` because it derives from the simulation trace,
not from harness wall-clock.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Iterator, Optional, TextIO

from repro.telemetry.export import harness_chrome_trace
from repro.telemetry.metrics import MetricsRegistry, validate_prometheus_text
from repro.telemetry.report import (
    METRICS_JSON_FILE,
    METRICS_PROM_FILE,
    SPANS_FILE,
    TRACE_FILE,
)
from repro.telemetry.spans import DEFAULT_CAPACITY, SpanTracer

__all__ = [
    "HarnessTelemetry",
    "MetricsRegistry",
    "SpanTracer",
    "harness_chrome_trace",
    "validate_prometheus_text",
]


class HarnessTelemetry:
    """The facade a harness entry point threads through its layers.

    ``enabled`` is the single fast-path flag: producers check it (via
    the module-level convention ``telemetry is not None and
    telemetry.enabled``) before paying for any argument construction.
    Constructing with ``enabled=False`` yields an inert object whose
    recording methods are never called by conforming producers.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[TextIO] = None,
        prefix: str = "repro_harness",
    ) -> None:
        self.enabled = enabled
        self.tracer = SpanTracer(capacity=capacity, sink=sink)
        self.metrics = MetricsRegistry(prefix=prefix)

    # ------------------------------------------------------------ recording

    @contextlib.contextmanager
    def span(self, name: str, lane: str = "harness", **attrs: Any) -> Iterator[dict]:
        with self.tracer.span(name, lane, **attrs) as a:
            yield a

    def add_span(self, name: str, ts_ns: int, dur_ns: int,
                 lane: str = "harness", **attrs: Any) -> None:
        self.tracer.add_span(name, ts_ns, dur_ns, lane, **attrs)

    def instant(self, name: str, lane: str = "harness", **attrs: Any) -> None:
        self.tracer.instant(name, lane, **attrs)

    def now_ns(self) -> int:
        return self.tracer.now_ns()

    def counter(self, name: str, amount: int = 1, help: str = "",
                **labels: str) -> int:
        return self.metrics.counter(name, amount, help=help, **labels)

    def gauge(self, name: str, value: "int | float", help: str = "",
              **labels: str) -> None:
        self.metrics.gauge(name, value, help=help, **labels)

    def observe(self, name: str, value_ns: int, help: str = "",
                **labels: str) -> None:
        self.metrics.observe(name, value_ns, help=help, **labels)

    # -------------------------------------------------------------- outputs

    def chrome_trace(self) -> dict:
        """The harness timeline as a Chrome/Perfetto trace document."""
        return harness_chrome_trace(self.tracer)

    def write_outputs(self, out_dir: str) -> dict[str, str]:
        """Write all four artifacts into ``out_dir``; returns name->path.

        Produces ``spans.jsonl`` (the ring), ``metrics.prom``
        (Prometheus text), ``metrics.json`` (canonical snapshot), and
        ``harness_trace.json`` (Perfetto timeline).
        """
        os.makedirs(out_dir, exist_ok=True)
        paths: dict[str, str] = {}

        spans_path = os.path.join(out_dir, SPANS_FILE)
        self.tracer.write_jsonl(spans_path)
        paths["spans"] = spans_path

        prom_path = os.path.join(out_dir, METRICS_PROM_FILE)
        with open(prom_path, "w", encoding="utf-8") as fh:
            fh.write(self.metrics.to_prometheus())
        paths["prometheus"] = prom_path

        json_path = os.path.join(out_dir, METRICS_JSON_FILE)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(self.metrics.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["metrics_json"] = json_path

        trace_path = os.path.join(out_dir, TRACE_FILE)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, separators=(",", ":"))
        paths["trace"] = trace_path
        return paths
