"""Reconciliation mutation tests: counters vs trace vs cycle ledger.

Same philosophy as ``test_checkers.py``: start from a consistent run
description, break one accounting relationship, and assert the matching
reconciliation check — and only it — reports the drift.
"""

from __future__ import annotations

from repro.analysis.checkers import TickSanitizer
from repro.analysis.reconcile import (
    check_counters,
    check_ledger,
    check_machine,
    reconcile_exits,
    reconcile_run,
)
from repro.config import MachineSpec
from repro.host.exitreasons import ExitReason, ExitTag
from repro.hw.cpu import CycleDomain, Machine
from repro.metrics.counters import ExitCounters
from repro.metrics.perf import RunMetrics
from repro.sim.engine import Simulator
from repro.sim.timebase import CpuClock

FREQ = 2_000_000_000  # even 2 GHz: 1 cycle = 0.5 ns, exact conversions


def make_metrics(*, exits=None, skip_one_count=False) -> RunMetrics:
    """A RunMetrics whose ledger and cycle totals agree by construction."""
    clock = CpuClock(FREQ)
    ledger = {
        CycleDomain.GUEST_USER: 1_000_000,
        CycleDomain.GUEST_KERNEL: 200_000,
        CycleDomain.VMX_TRANSITION: 50_000,
        CycleDomain.HOST_HANDLER: 30_000,
        CycleDomain.HOST_TICK: 10_000,
    }
    overhead_ns = ledger[CycleDomain.VMX_TRANSITION] + ledger[CycleDomain.HOST_HANDLER]
    counters = exits if exits is not None else ExitCounters()
    if exits is None:
        for _ in range(3):
            counters.record(0, ExitReason.HLT, ExitTag.IDLE)
        if not skip_one_count:
            counters.record(0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM)
    return RunMetrics(
        label="test",
        exec_time_ns=2_000_000,
        total_cycles=clock.ns_to_cycles(sum(ledger.values())),
        useful_cycles=clock.ns_to_cycles(ledger[CycleDomain.GUEST_USER]),
        overhead_cycles=clock.ns_to_cycles(overhead_ns),
        exits=counters,
        ledger=ledger,
    )


def matching_sanitizer(metrics: RunMetrics) -> TickSanitizer:
    """A sanitizer whose vmexit tally mirrors the metrics' counters."""
    s = TickSanitizer()
    t = 0
    for key, count in metrics.exits.breakdown().items():
        for _ in range(count):
            s.emit(t, "vm0/vcpu0", "vmexit", (key.reason.value, key.tag.value))
            t += 1
    return s


class TestExitReconciliation:
    def test_consistent_run_reconciles(self):
        m = make_metrics()
        assert reconcile_exits(matching_sanitizer(m), m) == []

    def test_skipped_counter_increment_is_caught(self):
        """Mutation: the hypervisor 'forgot' to count one traced exit."""
        full = make_metrics()
        sanitizer = matching_sanitizer(full)  # trace saw everything
        broken = make_metrics(skip_one_count=True)
        problems = reconcile_exits(sanitizer, broken)
        assert len(problems) == 1
        assert "msr_write/timer_program" in problems[0]

    def test_untraced_exit_is_caught(self):
        """Mutation: an exit was counted but never traced."""
        m = make_metrics()
        sanitizer = matching_sanitizer(make_metrics(skip_one_count=True))
        problems = reconcile_exits(sanitizer, m)
        assert len(problems) == 1
        assert "traced 0 times but counted 1" in problems[0]


class TestLedgerConservation:
    def test_consistent_ledger_passes(self):
        assert check_ledger(make_metrics(), FREQ) == []

    def test_total_cycles_drift(self):
        m = make_metrics()
        m.total_cycles += 1
        problems = check_ledger(m, FREQ)
        assert any("total_cycles" in p for p in problems)

    def test_useful_cycles_drift(self):
        m = make_metrics()
        m.useful_cycles -= 7
        problems = check_ledger(m, FREQ)
        assert any("useful_cycles" in p for p in problems)

    def test_overhead_cycles_drift(self):
        m = make_metrics()
        m.overhead_cycles += 3
        problems = check_ledger(m, FREQ)
        assert any("overhead_cycles" in p for p in problems)

    def test_negative_ledger_entry(self):
        m = make_metrics()
        delta = m.ledger[CycleDomain.HOST_TICK] + 5
        m.ledger[CycleDomain.HOST_TICK] = -5
        # keep the sums consistent so only the sign check fires
        m.ledger[CycleDomain.GUEST_KERNEL] += delta
        problems = check_ledger(m, FREQ)
        assert len(problems) == 1
        assert "negative" in problems[0]

    def test_double_booked_domain(self):
        """useful + overhead exceeding total means a domain was counted
        as both useful and overhead."""
        m = make_metrics()
        m.useful_cycles = m.total_cycles
        m.overhead_cycles = 1
        problems = check_ledger(m, FREQ)
        assert any("exceed total_cycles" in p for p in problems)


class TestCounterConsistency:
    def test_consistent_counters_pass(self):
        assert check_counters(make_metrics()) == []

    def test_per_vcpu_drift_is_caught(self):
        data = make_metrics().exits.to_dict()
        data["by_vcpu"]["0"] += 1
        m = make_metrics(exits=ExitCounters.from_dict(data))
        problems = check_counters(m)
        assert len(problems) == 1
        assert "per-vCPU" in problems[0]


class TestMachineTimeline:
    def make_machine(self) -> Machine:
        return Machine(Simulator(), MachineSpec(sockets=1, cpus_per_socket=2, freq_hz=FREQ))

    def test_serialized_busy_within_elapsed(self):
        machine = self.make_machine()
        machine.cpu(0).account(CycleDomain.GUEST_USER, 900)
        assert check_machine(machine, 1000) == []

    def test_overbooked_cpu_is_caught(self):
        machine = self.make_machine()
        machine.cpu(1).account(CycleDomain.GUEST_USER, 1500)
        problems = check_machine(machine, 1000)
        assert len(problems) == 1
        assert "cpu1" in problems[0]

    def test_host_tick_and_io_are_off_timeline(self):
        machine = self.make_machine()
        machine.cpu(0).account(CycleDomain.GUEST_USER, 1000)
        machine.cpu(0).account(CycleDomain.HOST_TICK, 400)
        machine.cpu(0).account(CycleDomain.HOST_IO, 400)
        assert check_machine(machine, 1000) == []


class TestFullBattery:
    def test_reconcile_run_aggregates_everything(self):
        m = make_metrics()
        m.total_cycles += 1
        m.useful_cycles += 1
        machine = Machine(Simulator(), MachineSpec(sockets=1, cpus_per_socket=1, freq_hz=FREQ))
        machine.cpu(0).account(CycleDomain.GUEST_USER, 100)
        problems = reconcile_run(
            matching_sanitizer(m), m, freq_hz=FREQ, machine=machine, now_ns=50
        )
        assert any("total_cycles" in p for p in problems)
        assert any("useful_cycles" in p for p in problems)
        assert any("cpu0" in p for p in problems)

    def test_real_run_reconciles_end_to_end(self):
        from repro.analysis.fuzz import SOLO
        from repro.scenarios.fuzzbridge import fuzz_cells
        from repro.scenarios.runcheck import sanitized_run

        cell = next(c for c in fuzz_cells(1, placements=(SOLO,))
                    if c.coord("mode") == "tickless")
        metrics, sanitizer, problems = sanitized_run(cell.spec)
        assert metrics is not None
        assert problems == []
        assert sanitizer.events > 0
