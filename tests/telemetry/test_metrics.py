"""Metrics registry: recording semantics and the JSON snapshot."""

from __future__ import annotations

import pytest

from repro.obs.histograms import Log2Histogram
from repro.telemetry.metrics import MetricsRegistry


class TestRecording:
    def test_counter_accumulates_per_label_set(self):
        r = MetricsRegistry()
        r.counter("cells", status="ran")
        r.counter("cells", 2, status="ran")
        r.counter("cells", status="cached")
        assert r.counter_value("cells", status="ran") == 3
        assert r.counter_value("cells", status="cached") == 1
        assert r.counter_value("cells", status="failed") == 0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("cells", -1)

    def test_gauge_takes_latest_value(self):
        r = MetricsRegistry()
        r.gauge("pool_workers", 4)
        r.gauge("pool_workers", 2)
        [series] = r.to_json_dict()["pool_workers"]["series"]
        assert series["value"] == 2

    def test_observe_builds_log2_histogram(self):
        r = MetricsRegistry()
        for v in (100, 1000, 1_000_000):
            r.observe("wall_ns", v, status="ran")
        h = r.histogram("wall_ns", status="ran")
        assert isinstance(h, Log2Histogram)
        assert h.count == 3 and h.total == 1_001_100

    def test_kind_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x", 1)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            MetricsRegistry().counter("ok", **{"bad-label": "v"})


class TestJsonSnapshot:
    def test_json_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("cells", 2, help="h", status="ran")
        snap = r.to_json_dict()
        assert snap == {
            "cells": {
                "type": "counter",
                "help": "h",
                "series": [{"labels": {"status": "ran"}, "value": 2}],
            }
        }
