"""Observability wiring: zero overhead when off, zero perturbation when on.

The two contracts the whole subsystem stands on:

* **off == free** — a NullTracer run with no Observability attached does
  no profiling work at all: no ``emit`` call, no ``on_account`` call
  (proved with exploding stand-ins, mirroring the tracer fast-path
  audit in ``tests/sim/test_trace_fastpath.py``);
* **on == invisible** — attaching the full stack changes *nothing* in
  the simulated results: RunMetrics are bit-identical with obs on/off.
"""

from __future__ import annotations

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.obs import ObsConfig, Observability
from repro.sim.trace import NullTracer
from repro.workloads.micro import PingPongWorkload


class ExplodingObserver:
    """Any ledger callback with obs disabled is a missing-guard bug."""

    def on_account(self, pcpu, domain, ns):
        raise AssertionError(
            f"on_account called with no observer installed: "
            f"pCPU{pcpu.index} {domain} {ns}ns"
        )


class TestDisabledObsDoesZeroWork:
    def test_default_run_has_no_observer(self):
        """No Observability => PhysicalCPU.observer stays None and the
        account() fast path is one attribute check."""
        internals = {}

        def inspect(sim, machine, hv, vm):
            internals["machine"] = machine

        run_workload(PingPongWorkload(rounds=40), seed=3, inspect=inspect)
        assert all(cpu.observer is None for cpu in internals["machine"].cpus)

    def test_empty_obs_config_defeats_nothing(self):
        """An all-off ObsConfig returns the user's tracer untouched, so
        the NullTracer fast path survives."""
        obs = Observability(ObsConfig(profile=False, trace_export=False))
        assert obs.tracer(None) is None
        null = NullTracer()
        assert obs.tracer(null) is null

    def test_obs_disabled_run_matches_plain_run(self):
        """Off-config obs run == no-obs run, bit for bit."""
        obs = Observability(ObsConfig(profile=False))
        a = run_workload(PingPongWorkload(rounds=40), seed=3)
        b = run_workload(PingPongWorkload(rounds=40), seed=3, obs=obs)
        assert a.to_json_dict() == b.to_json_dict()


class TestObsNeverPerturbs:
    @pytest.mark.parametrize("mode", list(TickMode))
    def test_metrics_identical_with_full_stack(self, mode):
        plain = run_workload(PingPongWorkload(rounds=60), tick_mode=mode, seed=9)
        obs = Observability(ObsConfig(trace_export=True))
        probed = run_workload(
            PingPongWorkload(rounds=60), tick_mode=mode, seed=9, obs=obs)
        assert plain.to_json_dict() == probed.to_json_dict()
        assert obs.profiler.total_samples > 0  # it really was watching

    def test_metrics_identical_under_overcommit(self):
        kw = dict(
            seed=9, machine_spec=MachineSpec(sockets=1, cpus_per_socket=1),
            pinned_cpus=(0, 0),
        )
        plain = run_workload(PingPongWorkload(rounds=60), **kw)
        probed = run_workload(PingPongWorkload(rounds=60),
                              obs=Observability(), **kw)
        assert plain.to_json_dict() == probed.to_json_dict()

