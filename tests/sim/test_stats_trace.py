"""Tests for online statistics and tracing."""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import OnlineStats, geomean
from repro.sim.trace import NullTracer, RingTracer


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)

    def test_single_sample(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert math.isnan(s.variance)
        assert s.min == s.max == 5.0

    def test_matches_statistics_module(self):
        xs = [3.0, 1.5, 7.25, -2.0, 4.0, 4.0]
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert s.mean == pytest.approx(statistics.fmean(xs))
        assert s.variance == pytest.approx(statistics.variance(xs))
        assert s.stdev == pytest.approx(statistics.stdev(xs))
        assert s.min == min(xs) and s.max == max(xs)
        assert s.total == pytest.approx(sum(xs))

    @given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=300))
    @settings(max_examples=50)
    def test_property_welford_matches_two_pass(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert s.mean == pytest.approx(statistics.fmean(xs), abs=1e-6)
        assert s.variance == pytest.approx(statistics.variance(xs), rel=1e-6, abs=1e-6)


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(geomean([]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestTracers:
    def test_null_tracer_disabled(self):
        t = NullTracer()
        assert not t.enabled
        t.emit(0, "x", "y")  # must not raise

    def test_ring_tracer_retains_and_filters(self):
        t = RingTracer(capacity=3, kinds={"keep"})
        for i in range(5):
            t.emit(i, "src", "keep", i)
        t.emit(99, "src", "drop")
        assert t.offered == 6
        assert [r.detail for r in t.records] == [2, 3, 4]
        assert [r.time for r in t.of_kind("keep")] == [2, 3, 4]
        assert t.kinds() == {"keep": 3}
        assert "src: keep 4" in str(t.records[-1])

    def test_ring_tracer_capacity_positive(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)

    def test_ring_tracer_counts_drops(self):
        """Overflow evictions are counted, not silent: a consumer can
        tell a complete trace from a suffix."""
        t = RingTracer(capacity=3)
        for i in range(3):
            t.emit(i, "src", "k")
        assert t.dropped == 0 and not t.truncated
        t.emit(3, "src", "k")
        t.emit(4, "src", "k")
        assert t.dropped == 2 and t.truncated
        assert [r.time for r in t.records] == [2, 3, 4]
        assert t.offered == 5

    def test_ring_tracer_filtered_records_are_not_drops(self):
        """Kind-filtered records never entered the ring, so they do not
        count as evictions."""
        t = RingTracer(capacity=2, kinds={"keep"})
        for i in range(5):
            t.emit(i, "src", "drop")
        assert t.dropped == 0 and not t.truncated
