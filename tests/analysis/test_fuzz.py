"""Differential fuzz sweep + unit tests for the fuzz harness.

The sweep runs 20 seeds, each expanded into a random scenario and
executed under all three tick modes in both solo and overcommitted
placements (120 sanitized runs total). Any failing seed is reported
with a ready-to-paste replay command.
"""

from __future__ import annotations

import pytest

from repro.analysis.fuzz import (
    OVERCOMMIT,
    SOLO,
    USEFUL_ABS_SLACK,
    differential_problems,
    fuzz_many,
    fuzz_seed,
    placement_for,
    scenario_for_seed,
)
from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec
from repro.metrics.counters import ExitCounters
from repro.metrics.perf import RunMetrics
from repro.scenarios.fuzzbridge import workload_spec_for
from repro.scenarios.runcheck import sanitized_run

SWEEP_SEEDS = range(20)


class TestScenarioGeneration:
    def test_deterministic(self):
        assert scenario_for_seed(42) == scenario_for_seed(42)

    def test_seeds_vary(self):
        scenarios = {scenario_for_seed(s) for s in SWEEP_SEEDS}
        assert len(scenarios) == len(SWEEP_SEEDS)

    def test_sweep_covers_multiple_workload_kinds(self):
        kinds = {scenario_for_seed(s).kind for s in SWEEP_SEEDS}
        assert len(kinds) >= 3, f"seed window too homogeneous: {kinds}"

    def test_workload_is_fresh_each_time(self):
        ws = workload_spec_for(scenario_for_seed(3))
        assert ws.build() is not ws.build()

    def test_describe_mentions_seed_and_kind(self):
        sc = scenario_for_seed(7)
        assert f"seed {sc.seed}" in sc.describe()
        assert sc.kind in sc.describe()


class TestPlacement:
    def test_solo_is_one_to_one(self):
        spec, pinned = placement_for(4, SOLO)
        assert spec.total_cpus == 4
        assert pinned == (0, 1, 2, 3)

    def test_overcommit_drops_one_pcpu(self):
        spec, pinned = placement_for(4, OVERCOMMIT)
        assert spec.total_cpus == 3
        assert pinned == (0, 1, 2, 0)

    def test_overcommit_single_vcpu_keeps_one_pcpu(self):
        spec, pinned = placement_for(1, OVERCOMMIT)
        assert spec.total_cpus == 1
        assert pinned == (0,)


def fake_metrics(useful: int) -> RunMetrics:
    return RunMetrics(
        label="fake", exec_time_ns=1, total_cycles=useful,
        useful_cycles=useful, overhead_cycles=0,
        exits=ExitCounters(), ledger={},
    )


class TestDifferentialComparison:
    def base(self, useful=100_000_000):
        return {mode.value: fake_metrics(useful) for mode in TickMode}

    def test_identical_work_is_clean(self):
        assert differential_problems(self.base(), "tickless") == []

    def test_divergence_is_reported(self):
        per_mode = self.base()
        per_mode["periodic"] = fake_metrics(80_000_000)
        problems = differential_problems(per_mode, "tickless")
        assert len(problems) == 1
        assert "periodic" in problems[0]
        assert "diverge" in problems[0]

    def test_within_tolerance_is_clean(self):
        per_mode = self.base()
        per_mode["paratick"] = fake_metrics(101_000_000)  # +1%
        assert differential_problems(per_mode, "tickless") == []

    def test_abs_slack_covers_tiny_runs(self):
        per_mode = self.base(useful=1000)
        per_mode["periodic"] = fake_metrics(1000 + USEFUL_ABS_SLACK)
        assert differential_problems(per_mode, "tickless") == []

    def test_missing_mode_skips_comparison(self):
        """A failed run leaves a hole; :func:`_sweep` skips the diff
        (the failure is reported on its own) instead of diffing a
        partial group."""
        from repro.analysis import fuzz

        spec = RunSpec(
            WorkloadSpec.make("micro.pingpong", rounds=10, work_cycles=50_000,
                              same_vcpu=False),
            tick_mode=TickMode.TICKLESS,
        )
        report = fuzz._sweep(0, [("solo", {
            "tickless": spec,
            "periodic": spec.with_(horizon_ns=1),  # too short: the run fails
        })], ref="tickless", tag="diff")
        assert report.runs == 2
        assert len(report.problems) == 1
        assert report.problems[0].startswith("[periodic/solo] run failed")


class TestForeignExits:
    def test_each_backend_rejects_the_other_taxonomy(self):
        from repro.analysis.fuzz import foreign_exit_problems
        from repro.host.exitreasons import ExitReason, ExitTag

        m = fake_metrics(1)
        m.exits.record(0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM)
        m.exits.record(0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM)
        assert foreign_exit_problems(m, "x86") == []
        (problem,) = foreign_exit_problems(m, "arm")
        assert problem.startswith("2 msr_write exit(s) — foreign")


class TestSingleRuns:
    def test_run_failure_is_reported_not_raised(self):
        spec = RunSpec(
            WorkloadSpec.make("micro.pingpong", rounds=10, work_cycles=50_000,
                              same_vcpu=False),
            tick_mode=TickMode.TICKLESS,
            horizon_ns=1,  # too short: workload can't finish
        )
        metrics, sanitizer, problems = sanitized_run(spec)
        assert metrics is None
        assert problems and "run failed" in problems[0]

    def test_report_labels_failing_cell(self):
        sc = scenario_for_seed(0)
        report = fuzz_seed(0, placements=(SOLO,))
        assert report.scenario == sc
        assert report.runs == len(TickMode)
        assert report.events > 0


@pytest.mark.slow
def test_fuzz_sweep_is_clean():
    """20 seeds x 3 tick modes x {solo, overcommitted}, all sanitized."""
    reports = fuzz_many(SWEEP_SEEDS)
    failing = {r.seed: r.problems for r in reports if not r.ok}
    detail = "\n".join(
        f"  seed {seed}: {problems[0]}" + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
        for seed, problems in sorted(failing.items())
    )
    replay = " ".join(str(s) for s in sorted(failing))
    assert not failing, (
        f"fuzz sweep found violations in seeds {sorted(failing)}:\n{detail}\n"
        f"replay with: python -m repro fuzz --seed-list {replay}"
    )
    assert sum(r.runs for r in reports) == len(SWEEP_SEEDS) * len(TickMode) * 2
