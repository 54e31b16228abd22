"""Tests for counters, run metrics, comparisons and aggregation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.host.exitreasons import ExitReason, ExitTag
from repro.metrics.aggregate import aggregate_improvements
from repro.metrics.counters import ExitCounters
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison, compare_runs, format_table


def counters_with(entries):
    c = ExitCounters()
    for vcpu, reason, tag in entries:
        c.record(vcpu, reason, tag)
    return c


class TestExitCounters:
    def test_totals_and_splits(self):
        c = counters_with(
            [
                (0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
                (0, ExitReason.MSR_WRITE, ExitTag.IPI),
                (1, ExitReason.HLT, ExitTag.IDLE),
                (1, ExitReason.PREEMPTION_TIMER, ExitTag.TIMER_GUEST_TICK),
            ]
        )
        assert c.total == 4
        assert c.by_reason(ExitReason.MSR_WRITE) == 2
        assert c.by_tag(ExitTag.IPI) == 1
        assert c.timer_related == 2
        assert c.for_vcpu(0) == 2 and c.for_vcpu(1) == 2

    def test_merge(self):
        a = counters_with([(0, ExitReason.HLT, ExitTag.IDLE)])
        b = counters_with([(0, ExitReason.HLT, ExitTag.IDLE),
                           (1, ExitReason.EPT_VIOLATION, ExitTag.OTHER)])
        m = a.merge(b)
        assert m.total == 3
        assert m.by_reason(ExitReason.HLT) == 2
        assert a.total == 1  # originals untouched

    def test_breakdowns(self):
        c = counters_with(
            [
                (0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
                (0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
            ]
        )
        assert list(c.tag_breakdown().items()) == [(ExitTag.TIMER_PROGRAM, 2)]
        ((key, n),) = c.breakdown().items()
        assert key.reason is ExitReason.MSR_WRITE and n == 2

    def test_breakdown_first_occurrence_order(self):
        """Reports print tied counts in this order, so it is not enum order."""
        a = counters_with(
            [
                (0, ExitReason.IO_INSTRUCTION, ExitTag.IO),
                (0, ExitReason.HLT, ExitTag.IDLE),
                (1, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
                (0, ExitReason.HLT, ExitTag.IDLE),
            ]
        )
        assert [(k.reason, k.tag) for k in a.breakdown()] == [
            (ExitReason.IO_INSTRUCTION, ExitTag.IO),
            (ExitReason.HLT, ExitTag.IDLE),
            (ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
        ]
        assert list(a.tag_breakdown()) == [ExitTag.IO, ExitTag.IDLE, ExitTag.TIMER_PROGRAM]
        b = counters_with(
            [
                (2, ExitReason.EPT_VIOLATION, ExitTag.OTHER),
                (2, ExitReason.HLT, ExitTag.IDLE),
            ]
        )
        merged = a.merge(b)
        assert [(k.tag, n) for k, n in merged.breakdown().items()] == [
            (ExitTag.IO, 1),
            (ExitTag.IDLE, 3),
            (ExitTag.TIMER_PROGRAM, 1),
            (ExitTag.OTHER, 1),
        ]
        assert [k.tag for k in b.merge(a).breakdown()] == [
            ExitTag.OTHER,
            ExitTag.IDLE,
            ExitTag.IO,
            ExitTag.TIMER_PROGRAM,
        ]

    def test_dict_roundtrip(self):
        c = counters_with(
            [
                (3, ExitReason.VTIMER_IRQ, ExitTag.TIMER_GUEST_TICK),
                (0, ExitReason.EXTERNAL_INTERRUPT, ExitTag.TIMER_HOST_TICK),
                (0, ExitReason.EXTERNAL_INTERRUPT, ExitTag.TIMER_HOST_TICK),
                (1, ExitReason.HYPERCALL, ExitTag.HYPERCALL),
            ]
        )
        data = c.to_dict()
        assert data["by_key"] == [
            ["external_interrupt", "timer_host_tick", 2],
            ["hypercall", "hypercall", 1],
            ["vtimer_irq", "timer_guest_tick", 1],
        ]
        back = ExitCounters.from_dict(data)
        assert back == c
        assert back.to_dict() == data
        assert back.breakdown() == c.breakdown()
        assert back.for_vcpu(3) == 1 and back.total == 4


def metrics(label="x", exits=100, cycles=1_000_000, t=1_000_000, timer=50):
    c = ExitCounters()
    for _ in range(timer):
        c.record(0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM)
    for _ in range(exits - timer):
        c.record(0, ExitReason.HLT, ExitTag.IDLE)
    return RunMetrics(
        label=label,
        exec_time_ns=t,
        total_cycles=cycles,
        useful_cycles=cycles // 2,
        overhead_cycles=cycles // 10,
        exits=c,
    )


class TestRunMetrics:
    def test_properties(self):
        m = metrics()
        assert m.total_exits == 100
        assert m.timer_exits == 50
        assert m.overhead_ratio == pytest.approx(0.1)
        assert m.exits_per_second() == pytest.approx(100 / 0.001)


class TestComparison:
    def test_signs_follow_paper_convention(self):
        base = metrics("base", exits=200, cycles=2_000_000, t=2_000_000)
        cand = metrics("cand", exits=100, cycles=1_600_000, t=1_900_000)
        comp = compare_runs(base, cand, "w")
        assert comp.vm_exits == pytest.approx(-0.5)
        assert comp.throughput == pytest.approx(0.25)
        assert comp.exec_time == pytest.approx(-0.05)

    def test_degenerate_baseline_rejected(self):
        base = metrics(exits=0, timer=0)
        with pytest.raises(ReproError):
            compare_runs(base, metrics())

    def test_row_formatting(self):
        comp = Comparison("w", -0.5, 0.25, -0.05)
        assert comp.row() == ("w", "-50.0%", "+25.0%", "-5.0%")


class TestAggregation:
    def test_geomean_of_ratios(self):
        comps = [Comparison("a", -0.5, 0.0, 0.0), Comparison("b", -0.5, 0.0, 0.0)]
        agg = aggregate_improvements(comps)
        assert agg.vm_exits == pytest.approx(-0.5)

    def test_mixed(self):
        comps = [Comparison("a", -0.75, 1.0, 0.0), Comparison("b", 0.0, 0.0, 0.0)]
        agg = aggregate_improvements(comps)
        # geomean(0.25, 1) - 1 = -0.5; geomean(2,1)-1 = sqrt2-1
        assert agg.vm_exits == pytest.approx(-0.5)
        assert agg.throughput == pytest.approx(math.sqrt(2) - 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_improvements([])

    @given(
        deltas=st.lists(
            st.floats(min_value=-0.9, max_value=2.0, allow_nan=False), min_size=1, max_size=20
        )
    )
    @settings(max_examples=50)
    def test_property_aggregate_within_range(self, deltas):
        comps = [Comparison(str(i), d, d, d) for i, d in enumerate(deltas)]
        agg = aggregate_improvements(comps)
        assert min(deltas) - 1e-9 <= agg.vm_exits <= max(deltas) + 1e-9


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [("1", "2"), ("333", "4")], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert all(len(l) >= 6 for l in lines[1:])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ReproError):
            format_table(["a"], [("1", "2")])
