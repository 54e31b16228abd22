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
        b = counters_with([(0, ExitReason.HLT, ExitTag.IDLE), (1, ExitReason.PAUSE, ExitTag.OTHER)])
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
                (2, ExitReason.PAUSE, ExitTag.OTHER),
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


class TestMergeRunMetrics:
    """Integer-exact merging (the fleet layer's conservation substrate)."""

    @staticmethod
    def metrics(label, *, exec_ns, cycles, steal_ns, ledger_ns=0, extra=None):
        from repro.hw.cpu import CycleDomain

        base = {"steal_ns": steal_ns}
        base.update(extra or {})
        return RunMetrics(
            label=label,
            exec_time_ns=exec_ns,
            total_cycles=cycles,
            useful_cycles=cycles // 2,
            overhead_cycles=cycles // 4,
            exits=counters_with([(0, ExitReason.HLT, ExitTag.IDLE)]),
            ledger={CycleDomain.GUEST_USER: ledger_ns},
            extra=base,
        )

    def test_sums_makespan_and_exits(self):
        from repro.metrics.aggregate import merge_run_metrics

        m = merge_run_metrics([
            self.metrics("a", exec_ns=10, cycles=100, steal_ns=7, ledger_ns=50),
            self.metrics("b", exec_ns=25, cycles=40, steal_ns=3, ledger_ns=8),
        ], label="both")
        assert m.label == "both"
        assert m.exec_time_ns == 25  # makespan, not a sum
        assert m.total_cycles == 140
        assert m.exits.total == 2
        from repro.hw.cpu import CycleDomain

        assert m.ledger[CycleDomain.GUEST_USER] == 58
        assert m.extra["steal_ns"] == 10

    def test_integer_precision_beyond_2_53(self):
        """Nanosecond totals above 2**53 must merge without float loss.

        ``float(2**60 + 1)`` rounds to ``2**60`` — a float intermediate
        anywhere in the merge silently drops the low bits. The merged
        value must be the exact integer sum.
        """
        from repro.metrics.aggregate import merge_run_metrics

        big, small = 2**60 + 1, 3
        assert float(big) + small != big + small  # the failure this guards
        m = merge_run_metrics([
            self.metrics("a", exec_ns=big, cycles=big, steal_ns=big,
                         ledger_ns=big),
            self.metrics("b", exec_ns=small, cycles=small, steal_ns=small,
                         ledger_ns=small),
        ])
        assert m.total_cycles == big + small
        assert m.extra["steal_ns"] == big + small
        assert isinstance(m.extra["steal_ns"], int)
        from repro.hw.cpu import CycleDomain

        assert m.ledger[CycleDomain.GUEST_USER] == big + small
        assert m.exec_time_ns == big  # max keeps the exact value

    def test_disjoint_and_string_extras(self):
        from repro.metrics.aggregate import merge_run_metrics

        a = self.metrics("a", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "paratick", "only_a": 5})
        b = self.metrics("b", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "paratick", "only_b": 7})
        m = merge_run_metrics([a, b])
        assert m.extra["mode"] == "paratick"
        assert m.extra["only_a"] == 5 and m.extra["only_b"] == 7

    def test_conflicting_string_extras_rejected(self):
        from repro.metrics.aggregate import merge_run_metrics

        a = self.metrics("a", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "paratick"})
        b = self.metrics("b", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "periodic"})
        with pytest.raises(ValueError, match="disagrees"):
            merge_run_metrics([a, b])

    def test_empty_rejected(self):
        from repro.metrics.aggregate import merge_run_metrics

        with pytest.raises(ValueError):
            merge_run_metrics([])

    def test_inputs_not_mutated(self):
        from repro.metrics.aggregate import merge_run_metrics

        a = self.metrics("a", exec_ns=1, cycles=10, steal_ns=4)
        b = self.metrics("b", exec_ns=2, cycles=20, steal_ns=6)
        merge_run_metrics([a, b])
        assert a.total_cycles == 10 and a.extra["steal_ns"] == 4
        assert b.exits.total == 1

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=2**64), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60)
    def test_property_conservation_at_any_scale(self, values):
        from repro.metrics.aggregate import merge_run_metrics

        runs = [
            self.metrics(str(i), exec_ns=v, cycles=v, steal_ns=v, ledger_ns=v)
            for i, v in enumerate(values)
        ]
        m = merge_run_metrics(runs)
        assert m.total_cycles == sum(values)
        assert m.extra["steal_ns"] == sum(values)
        assert m.exec_time_ns == max(values)
        assert isinstance(m.extra["steal_ns"], int)
