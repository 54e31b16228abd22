"""Sampling profiler: exact ledger reconciliation and attribution."""

from __future__ import annotations

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.obs import ObsConfig, Observability
from repro.obs.profiler import SamplingProfiler
from repro.workloads.micro import PingPongWorkload, SyncStormWorkload


def run_profiled(workload, *, period_ns=10_000, overcommit=False, **kw):
    obs = Observability(ObsConfig(sample_period_ns=period_ns))
    internals = {}

    def inspect(sim, machine, hv, vm):
        internals["machine"] = machine

    if overcommit:
        kw.update(machine_spec=MachineSpec(sockets=1, cpus_per_socket=1),
                  pinned_cpus=(0, 0))
    m = run_workload(workload, obs=obs, inspect=inspect, seed=4, **kw)
    return m, obs, internals["machine"]


class TestLedgerReconciliation:
    @pytest.mark.parametrize("period_ns", [1_000, 10_000, 77_777])
    def test_samples_equal_busy_over_period(self, period_ns):
        """The headline invariant: samples(p) == busy_ns(p) // period,
        exactly, for every pCPU — the profiler resamples the ledger
        without losing or inventing time."""
        _, obs, machine = run_profiled(
            PingPongWorkload(rounds=80), period_ns=period_ns)
        for cpu in machine.cpus:
            assert obs.profiler.samples_on(cpu.index) == cpu.busy_ns() // period_ns

    def test_reconciles_under_overcommit(self):
        _, obs, machine = run_profiled(
            PingPongWorkload(rounds=80), overcommit=True)
        assert obs.profiler.total_samples > 0
        for cpu in machine.cpus:
            assert obs.profiler.samples_on(cpu.index) == cpu.busy_ns() // 10_000

    def test_total_is_sum_of_stacks(self):
        _, obs, _ = run_profiled(SyncStormWorkload(
            threads=2, events_per_second=2000.0, duration_cycles=30_000_000))
        assert obs.profiler.total_samples == sum(obs.profiler.samples.values())


class TestAttribution:
    def test_guest_user_attributed_to_task(self):
        _, obs, _ = run_profiled(PingPongWorkload(rounds=80))
        contexts = obs.profiler.by_context()
        assert any(c.startswith("micro.pingpong") for c in contexts), contexts

    def test_domains_match_ledger_shape(self):
        """Sampled domains are a subset of ledger domains with nonzero
        time, and guest_user dominates a compute-bound run."""
        _, obs, machine = run_profiled(
            PingPongWorkload(rounds=40, work_cycles=2_000_000))
        by_domain = obs.profiler.by_domain()
        ledger = {d.value: ns for d, ns in machine.ledger().items() if ns > 0}
        assert set(by_domain) <= set(ledger)
        assert max(by_domain, key=by_domain.get) == "guest_user"

    def test_collapsed_format(self):
        _, obs, _ = run_profiled(PingPongWorkload(rounds=40))
        lines = obs.profiler.collapsed()
        assert lines, "no samples collapsed"
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            frames = stack.split(";")
            assert len(frames) == 4 and frames[0].startswith("pcpu")
        # Sorted most-samples-first.
        counts = [int(l.rpartition(" ")[2]) for l in lines]
        assert counts == sorted(counts, reverse=True)

    def test_json_dict_shape(self):
        _, obs, _ = run_profiled(PingPongWorkload(rounds=40))
        d = obs.profiler.to_json_dict()
        assert d["total_samples"] == sum(d["by_domain"].values())
        assert d["period_ns"] == 10_000


class TestProfilerGuards:
    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0)
        with pytest.raises(ValueError):
            SamplingProfiler(-5)

    def test_double_install_rejected(self):
        """Two observers cannot share a pCPU (single observer slot)."""
        from repro.hw.cpu import Machine
        from repro.host.kvm import Hypervisor
        from repro.sim.engine import Simulator

        sim = Simulator(seed=0)
        machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=2))
        hv = Hypervisor(sim, machine)
        a, b = SamplingProfiler(), SamplingProfiler()
        a.install(machine, hv)
        with pytest.raises(ValueError):
            b.install(machine, hv)
        a.uninstall()
        b.install(machine, hv)  # slot freed

    def test_uninstalled_after_run(self):
        """run_workload detaches the observer at finalize."""
        _, _, machine = run_profiled(PingPongWorkload(rounds=40))
        assert all(cpu.observer is None for cpu in machine.cpus)
