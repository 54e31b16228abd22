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

import json

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.parallel import (
    ResultCache,
    RunSpec,
    WorkloadSpec,
    run_grid,
    spec_from_dict,
    spec_key,
    spec_to_dict,
)
from repro.experiments.runner import run_workload
from repro.obs import ObsConfig, Observability
from repro.resilience.integrity import attach_footer, read_verified
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
        obs = Observability(ObsConfig(
            profile=False, latency=False, steal=False, trace_export=False))
        assert obs.tracer(None) is None
        null = NullTracer()
        assert obs.tracer(null) is null

    def test_obs_disabled_run_matches_plain_run(self):
        """Off-config obs run == no-obs run, bit for bit."""
        obs = Observability(ObsConfig(profile=False, latency=False, steal=False))
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


class TestParallelProfileArtifacts:
    def spec(self, **kw):
        ws = WorkloadSpec.make("micro.pingpong", rounds=40,
                               work_cycles=50_000, same_vcpu=False)
        return RunSpec(workload=ws, seed=2, label="obs-test", **kw)

    def test_profile_field_round_trips(self):
        spec = self.spec(profile=True)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_profile_changes_cache_key(self):
        assert spec_key(self.spec(profile=True)) != spec_key(self.spec())

    def test_artifact_produced_and_cached(self, tmp_path):
        spec = self.spec(profile=True)
        grid = run_grid([spec], cache_dir=tmp_path)
        art = grid.artifacts[spec]
        assert art["profile"]["total_samples"] > 0
        assert "latency" in art and "steal" in art
        entry, _ = read_verified(ResultCache(tmp_path).path_for(spec_key(spec)))
        assert entry["obs"] == art  # inline in the spec's one entry file
        # Second pass: both result and artifact served from cache.
        again = run_grid([spec], cache_dir=tmp_path)
        assert again.cache_hits == 1 and again.executed == 0
        assert again.artifacts[spec] == art

    def test_missing_artifact_forces_rerun(self, tmp_path):
        """A cached entry without its profile is a miss — the grid must
        not return a profiled spec without its artifact."""
        spec = self.spec(profile=True)
        run_grid([spec], cache_dir=tmp_path)
        path = ResultCache(tmp_path).path_for(spec_key(spec))
        entry, _ = read_verified(path)
        del entry["obs"]
        path.write_text(attach_footer(json.dumps(entry, sort_keys=True)))
        again = run_grid([spec], cache_dir=tmp_path)
        assert again.executed == 1
        assert spec in again.artifacts

    def test_unprofiled_spec_has_no_artifact(self, tmp_path):
        spec = self.spec()
        grid = run_grid([spec], cache_dir=tmp_path)
        assert grid.artifacts == {}
        entry, _ = read_verified(ResultCache(tmp_path).path_for(spec_key(spec)))
        assert "obs" not in entry and "series" not in entry

    def test_profiled_worker_matches_unprofiled(self, tmp_path):
        """Profiling inside pool workers does not perturb results."""
        a = run_grid([self.spec(profile=True)], cache_dir=tmp_path / "a", jobs=2)
        b = run_grid([self.spec()], cache_dir=tmp_path / "b", jobs=2)
        ma = a[self.spec(profile=True)]
        mb = b[self.spec()]
        assert ma.to_json_dict() == mb.to_json_dict()
