"""Characterization of ``run_grid``'s cell lifecycle, consumer by consumer.

Three consumers watch every grid cell move through its lifecycle: the
``progress`` callback, the :class:`RunReport` (the one count of each
outcome) and the harness telemetry (the timeline of spans and
instants). These tests pin what each consumer sees on every lifecycle
path — cold miss, cache hit, a rerun after a crash, artifact-missing
miss, retry, failure, timeout, worker crash, the pool-rebuild cap and
the breaker ladder — at ``jobs=1`` and ``jobs=2``.

Serial grids settle in a fixed order, so their sequences are compared
exactly. Pool completion order is not fixed, so pooled grids are
compared per cell (the subsequence of one cell's events) and as
multisets.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.config import TickMode
from repro.experiments import parallel
from repro.experiments.parallel import (
    ResultCache,
    RunSpec,
    WorkloadSpec,
    register_workload,
    run_grid,
    spec_key,
)
from repro.resilience.chaos import ChaosAbort, ChaosPolicy
from repro.resilience.integrity import attach_footer, split_verified
from repro.resilience.policy import CircuitBreaker
from repro.obs.harness import HarnessTelemetry
from repro.workloads.micro import PingPongWorkload

# Fault workloads; the fork-based pool inherits the registry.


def _boom_factory(**kw):
    raise RuntimeError("lifecycle-boom")


def _slow_boom_factory(**kw):
    time.sleep(0.05)  # stagger settles so the breaker trips mid-grid
    raise RuntimeError("lifecycle-slowboom")


def _flaky_factory(fuse, **kw):
    """Fails the first attempt (burning ``fuse``), succeeds afterwards."""
    if not os.path.exists(fuse):
        Path(fuse).touch()
        raise RuntimeError("lifecycle-flaky")
    return PingPongWorkload(rounds=40, work_cycles=10_000)


def _sleep_factory(seconds=5.0, **kw):
    time.sleep(seconds)
    raise AssertionError("unreachable: the per-run alarm should fire first")


def _crash_factory(**kw):
    os._exit(3)


register_workload("lifecycle.boom", _boom_factory)
register_workload("lifecycle.slowboom", _slow_boom_factory)
register_workload("lifecycle.flaky", _flaky_factory)
register_workload("lifecycle.sleep", _sleep_factory)
register_workload("lifecycle.crash", _crash_factory)

JOBS = pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])

COMPLETED = {
    "outcome": "completed", "cells": 0, "cache_hits": 0, "executed": 0,
    "quarantined": 0, "retries": {}, "failures": {}, "failed": 0,
    "pool_rebuilds": 0, "degradation": [],
}


def cell(seed: int = 0, **changes) -> RunSpec:
    spec = RunSpec(
        WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000),
        tick_mode=TickMode.PARATICK,
        seed=seed,
        noise=False,
    )
    return spec.with_(**changes) if changes else spec


def fault(kind: str, seed: int = 0, **params) -> RunSpec:
    return cell(seed=seed).with_(workload=WorkloadSpec.make(kind, **params))


def report(**fields) -> dict:
    return {**COMPLETED, **fields}


class Observed:
    """Everything the three consumers saw of one grid execution."""

    def __init__(self, grid, names, events, tel):
        self.grid = grid
        self.progress = [
            (e.status, names[spec_key(e.spec)], e.done, e.total, e.attempt,
             e.cache_hit, e.failure_kind)
            for e in events
        ]
        self.report = grid.report.to_json_dict()
        assert tel.grids == [self.report]
        self.instants = Counter(i.name for i in tel.instants())
        self.spans = Counter(s.name for s in tel.spans())
        [grid_span] = [s for s in tel.spans() if s.name == "grid.run"]
        self.jobs = grid_span.attrs["jobs"]

    def progress_of(self, name: str) -> list:
        return [(status, attempt, hit, kind)
                for status, n, _done, _total, attempt, hit, kind in self.progress
                if n == name]


def observe(specs, names: dict, **kwargs) -> Observed:
    """Run ``specs`` with every consumer attached."""
    events: list = []
    tel = HarnessTelemetry()
    grid = run_grid(specs, progress=events.append, telemetry=tel, **kwargs)
    key_names = {spec_key(spec): name for spec, name in names.items()}
    return Observed(grid, key_names, events, tel)


# --------------------------------------------------------------------------
# Cache and rerun paths
# --------------------------------------------------------------------------


class TestCachePaths:
    @JOBS
    def test_cold_miss_then_cache_hit(self, tmp_path, jobs):
        a, b = cell(0), cell(1)
        names = {a: "A", b: "B"}
        cache = tmp_path / "cache"

        cold = observe([a, b], names, jobs=jobs, cache_dir=cache)
        if jobs == 1:
            assert cold.progress == [("ran", "A", 1, 2, 1, False, None),
                                     ("ran", "B", 2, 2, 1, False, None)]
        assert sorted(p[2] for p in cold.progress) == [1, 2]
        for name in "AB":
            assert cold.progress_of(name) == [("ran", 1, False, None)]
        assert cold.report == report(cells=2, executed=2)
        assert cold.instants == {"cache.miss": 2, "cache.write": 2}
        assert cold.spans == {"grid.run": 1, "shard.execute": 2}
        assert cold.jobs == jobs

        warm = observe([a, b], names, jobs=jobs, cache_dir=cache)
        assert warm.progress == [("cached", "A", 1, 2, 1, True, None),
                                 ("cached", "B", 2, 2, 1, True, None)]
        assert warm.report == report(cells=2, cache_hits=2)
        assert warm.instants == {"cache.hit": 2}
        assert warm.spans == {"grid.run": 1}

    @JOBS
    def test_resume_hit(self, tmp_path, jobs):
        """Rerunning a grid that crashed is its resume: the cell that
        settled before the crash is a cache hit, the rest run."""
        a, b, c = cell(0), cell(1), cell(2)
        names = {a: "A", b: "B", c: "C"}
        cache = tmp_path / "cache"
        with pytest.raises(ChaosAbort):
            run_grid([a, b, c], jobs=jobs, cache_dir=cache,
                     chaos=ChaosPolicy(abort_after=1))

        obs = observe([a, b, c], names, jobs=jobs, cache_dir=cache)
        if jobs == 1:
            assert obs.progress == [("cached", "A", 1, 3, 1, True, None),
                                    ("ran", "B", 2, 3, 1, False, None),
                                    ("ran", "C", 3, 3, 1, False, None)]
        assert sorted(p[0] for p in obs.progress) == ["cached", "ran", "ran"]
        assert obs.report == report(cells=3, cache_hits=1, executed=2)
        assert obs.instants == {"cache.hit": 1, "cache.miss": 2, "cache.write": 2}
        assert obs.spans == {"grid.run": 1, "shard.execute": 2}

    @JOBS
    def test_result_without_artifacts_is_a_miss(self, tmp_path, jobs):
        p = cell(0, series=True)
        names = {p: "P"}
        cache_dir = tmp_path / "cache"
        run_grid([p], jobs=jobs, cache_dir=cache_dir)
        path = ResultCache(cache_dir).path_for(spec_key(p))
        doc = json.loads(split_verified(path.read_text())[0])
        del doc["series"]
        path.write_text(attach_footer(json.dumps(doc, sort_keys=True)))

        obs = observe([p], names, jobs=jobs, cache_dir=cache_dir)
        assert obs.progress == [("ran", "P", 1, 1, 1, False, None)]
        assert obs.report == report(cells=1, executed=1)
        assert obs.instants == {"cache.miss": 1, "cache.write": 1}
        assert p in obs.grid.series


# --------------------------------------------------------------------------
# Retry and failure paths
# --------------------------------------------------------------------------


class TestFailurePaths:
    @JOBS
    def test_retry_then_ok(self, tmp_path, jobs):
        f = fault("lifecycle.flaky", fuse=str(tmp_path / "fuse"))
        names = {f: "F"}
        obs = observe([f], names, jobs=jobs, use_cache=False, retries=1)
        assert obs.progress == [("retry", "F", 0, 1, 1, False, "error"),
                                ("ran", "F", 1, 1, 1, False, None)]
        assert obs.report == report(outcome="degraded", cells=1, executed=1,
                                    retries={"error": 1})
        assert obs.instants == {}
        assert obs.spans == {"grid.run": 1, "shard.retry": 1, "shard.execute": 1}

    def test_retry_then_ok_serial_order_with_a_second_cell(self, tmp_path):
        f = fault("lifecycle.flaky", fuse=str(tmp_path / "fuse"))
        a = cell(0)
        obs = observe([f, a], {f: "F", a: "A"}, jobs=1, use_cache=False, retries=1)
        assert obs.progress == [("retry", "F", 0, 2, 1, False, "error"),
                                ("ran", "F", 1, 2, 1, False, None),
                                ("ran", "A", 2, 2, 1, False, None)]

    @JOBS
    def test_retry_then_failed(self, tmp_path, jobs):
        b = fault("lifecycle.boom")
        obs = observe([b], {b: "B"}, jobs=jobs, use_cache=False, retries=1)
        assert obs.progress == [("retry", "B", 0, 1, 1, False, "error"),
                                ("failed", "B", 1, 1, 2, False, "error")]
        assert obs.grid.failed_specs[0].error == "RuntimeError('lifecycle-boom')"
        assert obs.report == report(outcome="failed", cells=1, retries={"error": 1},
                                    failures={"error": 1}, failed=1)
        assert obs.instants == {}
        assert obs.spans == {"grid.run": 1, "shard.retry": 1, "shard.failed": 1}

    @JOBS
    def test_timeout(self, tmp_path, jobs, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_S", 0.2)
        s = fault("lifecycle.sleep", seconds=30.0)
        obs = observe([s], {s: "S"}, jobs=jobs, use_cache=False, retries=0)
        assert obs.progress == [("failed", "S", 1, 1, 1, False, "timeout")]
        assert obs.grid.failed_specs[0].error == (
            "RunTimeout('run exceeded the per-run timeout of 0.2s')")
        assert obs.report == report(outcome="failed", cells=1,
                                    failures={"timeout": 1}, failed=1)
        assert obs.instants == {}
        assert obs.spans == {"grid.run": 1, "shard.failed": 1}


# --------------------------------------------------------------------------
# Pool recovery: crash, rebuild cap, breaker ladder
# --------------------------------------------------------------------------


class TestPoolRecovery:
    def test_worker_crash_rebuilds_the_pool(self, tmp_path):
        a = cell(0)
        chaos = ChaosPolicy.plan([spec_key(a)], kills=1, fuse_dir=str(tmp_path / "fuse"))
        obs = observe([a], {a: "A"}, jobs=2, use_cache=False, retries=1, chaos=chaos)
        assert obs.progress == [("retry", "A", 0, 1, 1, False, "crash"),
                                ("ran", "A", 1, 1, 1, False, None)]
        assert obs.report == report(outcome="degraded", cells=1, executed=1,
                                    retries={"crash": 1}, pool_rebuilds=1)
        assert obs.instants == {"pool.rebuild": 1}
        assert obs.spans == {"grid.run": 1, "shard.retry": 1, "shard.execute": 1}
        assert obs.jobs == 2

    def test_rebuild_cap_fails_the_cell(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_MAX_POOL_REBUILDS", 2)
        c = fault("lifecycle.crash")
        obs = observe([c], {c: "C"}, jobs=2, use_cache=False, retries=10)
        assert obs.progress == [("retry", "C", 0, 1, 1, False, "crash"),
                                ("retry", "C", 0, 1, 2, False, "crash"),
                                ("failed", "C", 1, 1, 3, False, "crash")]
        [failure] = obs.grid.failed_specs
        assert failure.error.startswith(
            "pool rebuild cap reached (2); last crash: BrokenProcessPool(")
        assert failure.attempts == 3
        assert obs.report == report(outcome="failed", cells=1, retries={"crash": 2},
                                    failures={"crash": 1}, failed=1, pool_rebuilds=2)
        # The third crash hits the cap: no rebuild, so none is counted.
        assert obs.instants == {"pool.rebuild": 2}
        assert obs.spans == {"grid.run": 1, "shard.retry": 2, "shard.failed": 1}

    def test_breaker_shrinks_then_falls_back_to_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "CircuitBreaker", functools.partial(
            CircuitBreaker, threshold=0.5, min_events=2, window=4))
        specs = [fault("lifecycle.slowboom", seed=s) for s in range(8)]
        names = {s: f"S{i}" for i, s in enumerate(specs)}
        obs = observe(specs, names, jobs=2, use_cache=False, retries=0)
        for name in names.values():
            assert obs.progress_of(name) == [("failed", 1, False, "error")]
        assert {f.error for f in obs.grid.failed_specs} == {
            "RuntimeError('lifecycle-slowboom')"}
        assert [p[2] for p in obs.progress] == list(range(1, 9))
        assert obs.report == report(
            outcome="failed", cells=8, failures={"error": 8}, failed=8,
            degradation=["pool shrunk to 1", "fell back to serial"])
        assert obs.instants == {"pool.degrade": 2}
        assert obs.spans == {"grid.run": 1, "shard.failed": 8}


# --------------------------------------------------------------------------
# Invariants
# --------------------------------------------------------------------------


class _SpyBreaker(CircuitBreaker):
    def __post_init__(self):
        super().__post_init__()
        self.touched = 0

    def record(self, ok):
        self.touched += 1
        super().record(ok)

    def trip_and_reset(self):
        self.touched += 1
        return super().trip_and_reset()


class TestInvariants:
    @JOBS
    def test_ran_is_reported_only_after_the_entry_is_published(self, tmp_path, jobs):
        """A cell is on disk before anything sees it settle, so a harness
        that dies at any later point finds it served on the rerun."""
        specs = [cell(0), cell(1, series=True)]
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        published: list[str] = []

        def progress(event):
            assert event.status == "ran"
            result, series = cache.load(event.spec)
            assert result is not None, "ran before publish"
            assert (series is not None) == event.spec.series
            published.append(spec_key(event.spec))

        grid = run_grid(specs, jobs=jobs, cache_dir=cache_dir, progress=progress)
        assert grid.complete
        assert sorted(published) == sorted(spec_key(s) for s in specs)

    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_serial_grids_never_consult_the_breaker(self, jobs, monkeypatch):
        brk = _SpyBreaker(threshold=0.1, min_events=1, window=2)
        monkeypatch.setattr(parallel, "CircuitBreaker", lambda: brk)
        specs = [fault("lifecycle.boom", seed=s) for s in range(4)] + [cell(0)]
        grid = run_grid(specs, jobs=jobs, use_cache=False, retries=1)
        assert len(grid.failed_specs) == 4 and grid.executed == 1
        assert brk.touched == 0
        assert grid.report.degradation == []
