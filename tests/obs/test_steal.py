"""Steal-time accounting: trace vs runtime counters vs busy timeline."""

from __future__ import annotations

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.obs import ObsConfig, Observability
from repro.obs.steal import StealTracker
from repro.workloads.micro import PingPongWorkload, SyncStormWorkload


def run_overcommitted(workload, *, mode=TickMode.TICKLESS, seed=4):
    obs = Observability(ObsConfig())
    internals = {}

    def inspect(sim, machine, hv, vm):
        internals.update(machine=machine, hv=hv, now=sim.now)

    m = run_workload(
        workload, tick_mode=mode, seed=seed,
        machine_spec=MachineSpec(sockets=1, cpus_per_socket=1),
        pinned_cpus=(0, 0), obs=obs, inspect=inspect,
    )
    return m, obs.steal, internals


class TestStealReconciliation:
    @pytest.mark.parametrize("mode", list(TickMode))
    def test_trace_equals_runtime_counters(self, mode):
        """Two independent derivations of steal agree exactly: closed
        READY intervals from the trace vs the executors' counters."""
        m, steal, ctx = run_overcommitted(PingPongWorkload(rounds=80), mode=mode)
        assert steal.reconcile_runtime(ctx["hv"]) == []

    def test_timeline_bound_holds(self):
        """No vCPU's steal on a pCPU exceeds that CPU's busy timeline."""
        _, steal, ctx = run_overcommitted(PingPongWorkload(rounds=80))
        assert steal.reconcile_timeline(ctx["machine"], ctx["now"]) == []

    def test_overcommit_actually_steals(self):
        """Two vCPUs on one pCPU with CPU-bound work must contend."""
        m, steal, _ = run_overcommitted(SyncStormWorkload(
            threads=2, events_per_second=1000.0, duration_cycles=40_000_000))
        assert steal.total_steal_ns > 0
        # Both sides count dispatch-closed waits, so they agree exactly
        # even when a waiter is still READY at the horizon.
        assert m.steal_ns == steal.total_steal_ns

    def test_solo_run_steals_nothing(self):
        """Pinned 1:1 (the paper's setup) has no READY waits at all."""
        obs = Observability(ObsConfig())
        m = run_workload(PingPongWorkload(rounds=80), seed=4, obs=obs)
        assert obs.steal.total_steal_ns == 0
        assert obs.steal.episodes == {}
        assert m.steal_ns == 0

    def test_metrics_carry_steal(self):
        m, steal, _ = run_overcommitted(PingPongWorkload(rounds=80))
        assert m.steal_ns == steal.total_steal_ns
        assert m.extra["steal_episodes"] == sum(steal.episodes.values())
        assert 0.0 <= m.steal_ratio

    def test_detects_counter_drift(self):
        """Corrupting a runtime counter must fail reconciliation."""
        _, steal, ctx = run_overcommitted(PingPongWorkload(rounds=80))
        vcpu = ctx["hv"].vms[0].vcpus[0]
        vcpu.total_steal_ns += 1
        problems = steal.reconcile_runtime(ctx["hv"])
        assert problems and "steal" in problems[0]


class TestStealTrackerUnit:
    def test_interval_accounting(self):
        t = StealTracker()
        t.emit(100, "vm0/vcpu0", "vcpu_state", ("exited", "ready"))
        t.emit(350, "vm0/vcpu0", "vcpu_state", ("ready", "exited"))
        t.emit(350, "vm0/vcpu0", "sched_dispatch", (0, 250))
        assert t.steal_ns == {"vm0/vcpu0": 250}
        assert t.episodes == {"vm0/vcpu0": 1}
        assert t.pcpu_steal_ns == {0: 250}

    def test_open_interval_not_counted(self):
        t = StealTracker()
        t.emit(100, "vm0/vcpu0", "vcpu_state", ("exited", "ready"))
        assert t.total_steal_ns == 0
        assert t.open_waiters() == {"vm0/vcpu0": 100}

    def test_json_shape(self):
        t = StealTracker()
        t.emit(0, "vm0/vcpu1", "vcpu_state", ("exited", "ready"))
        t.emit(9, "vm0/vcpu1", "vcpu_state", ("ready", "exited"))
        d = t.to_json_dict()
        assert d["total_steal_ns"] == 9
        assert d["per_vcpu"]["vm0/vcpu1"] == {"steal_ns": 9, "episodes": 1}
