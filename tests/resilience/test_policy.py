"""Degradation-policy unit tests: breaker, report, kinds."""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

from repro.experiments.parallel import RunTimeout
from repro.resilience.policy import (
    FAILURE_KINDS,
    CircuitBreaker,
    RunReport,
    classify_failure,
)


class TestCircuitBreaker:
    def test_quiet_below_min_events(self):
        brk = CircuitBreaker(threshold=0.5, min_events=4)
        for _ in range(3):
            brk.record(False)
        assert brk.failure_rate == 1.0
        assert not brk.tripped

    def test_trips_at_threshold(self):
        brk = CircuitBreaker(threshold=0.5, min_events=4)
        for ok in (True, True, True, False):
            brk.record(ok)
        assert not brk.tripped  # 25% failure, below threshold
        brk.record(False)
        brk.record(False)
        assert brk.failure_rate == 0.5  # reaching the threshold trips
        assert brk.tripped

    def test_window_slides_old_failures_out(self):
        brk = CircuitBreaker(threshold=0.5, min_events=4, window=4)
        for _ in range(4):
            brk.record(False)
        assert brk.tripped
        for _ in range(4):
            brk.record(True)
        assert brk.events == 4
        assert not brk.tripped

    def test_trip_and_reset_counts_and_clears(self):
        brk = CircuitBreaker(min_events=2)
        for _ in range(4):
            brk.record(False)
        assert brk.trip_and_reset() == 1
        assert brk.events == 0 and not brk.tripped
        for _ in range(4):
            brk.record(False)
        assert brk.trip_and_reset() == 2


class TestRunReport:
    def test_clean_run_is_completed(self):
        report = RunReport(cells=4, cache_hits=1, executed=3)
        assert report.outcome == "completed"
        assert report.failed == 0
        assert "outcome=completed" in report.render()

    def test_recovery_machinery_means_degraded(self):
        for field, value in (("pool_rebuilds", 1), ("quarantined", 1),
                             ("degradation", ["pool shrunk to 2"])):
            report = RunReport(cells=1, executed=1)
            setattr(report, field, value)
            assert report.outcome == "degraded", field
        report = RunReport(cells=1, executed=1)
        report.retries["crash"] += 1
        assert report.outcome == "degraded"

    def test_any_lost_cell_means_failed(self):
        report = RunReport(cells=2, executed=1)
        report.retries["timeout"] += 2
        report.failures["timeout"] += 1
        assert report.failed == 1
        assert report.outcome == "failed"
        rendered = report.render()
        assert "failed=timeout:1" in rendered and "retries=timeout:2" in rendered

    def test_fields_round_trip_to_json(self):
        report = RunReport(cells=3, cache_hits=2, executed=1, quarantined=1)
        report.retries["crash"] += 1
        as_json = report.to_json_dict()
        assert as_json["outcome"] == "degraded"
        assert as_json["cache_hits"] == 2 and as_json["quarantined"] == 1
        assert RunReport.from_json_dict(as_json) == report
        assert "cached=2" in report.render() and "quarantined=1" in report.render()


class TestClassifyFailure:
    def test_kinds_cover_the_taxonomy(self):
        assert classify_failure(RunTimeout("slow")) == "timeout"
        assert classify_failure(BrokenProcessPool("died")) == "crash"
        assert classify_failure(ValueError("boom")) == "error"
        assert set(FAILURE_KINDS) == {"timeout", "crash", "error"}
