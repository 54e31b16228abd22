"""Characterization of ``run_grid``'s cell lifecycle, consumer by consumer.

Four consumers watch every grid cell move through its lifecycle: the
run journal, the ``progress`` callback, the :class:`RunReport` (the one
count of each outcome) and the harness telemetry (the timeline of spans
and instants). These tests pin what each consumer sees on every
lifecycle path — cold miss, cache hit, resume hit, resume mismatch,
artifact-missing miss, retry, failure, timeout, worker crash, the
pool-rebuild cap and the breaker ladder — at ``jobs=1`` and ``jobs=2``.

Serial grids settle in a fixed order, so their sequences are compared
exactly. Pool completion order is not fixed, so pooled grids are
compared per cell (the subsequence of one cell's records) and as
multisets.
"""

from __future__ import annotations

import functools
import json
import os
import re
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
    encode_result,
    register_workload,
    run_grid,
    spec_key,
)
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.integrity import attach_footer, split_verified
from repro.resilience.journal import RunJournal, result_hash
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
    "resumed": 0, "reverified": 0, "resume_mismatches": 0, "quarantined": 0,
    "retries": {}, "failures": {}, "failed": 0, "pool_rebuilds": 0,
    "degradation": [],
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
    """Everything the four consumers saw of one grid execution."""

    def __init__(self, grid, names, journal_lines, events, tel):
        self.grid = grid
        self.names = names
        self.journal = [self._record(json.loads(line)) for line in journal_lines]
        self.journal = [r for r in self.journal if r is not None]
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

    def _record(self, obj: dict):
        if obj.get("type") != "cell":
            return None
        name = self.names[obj["key"]]
        extras = {k: v for k, v in obj.items() if k not in ("type", "event", "key")}
        if "result_hash" in extras:
            spec = next(s for s in self.grid.results if spec_key(s) == obj["key"])
            expected = result_hash(encode_result(self.grid.results[spec]))
            extras["result_hash"] = "ok" if extras["result_hash"] == expected else "BAD"
        if "error" in extras:
            extras["error"] = re.sub(r"BrokenProcessPool\(.*\)",
                                     "BrokenProcessPool(...)", extras["error"])
        return (obj["event"], name, extras)

    def per_key(self, name: str) -> list:
        return [(event, extras) for event, n, extras in self.journal if n == name]

    def progress_of(self, name: str) -> list:
        return [(status, attempt, hit, kind)
                for status, n, _done, _total, attempt, hit, kind in self.progress
                if n == name]


def observe(specs, names: dict, journal_path: Path, **kwargs) -> Observed:
    """Run ``specs`` with every consumer attached; keep only new journal lines."""
    before = (journal_path.read_text().splitlines() if journal_path.exists() else [])
    events: list = []
    tel = HarnessTelemetry()
    kwargs.setdefault("journal", journal_path)
    grid = run_grid(specs, progress=events.append, telemetry=tel, **kwargs)
    lines = journal_path.read_text().splitlines()[len(before):]
    key_names = {spec_key(spec): name for spec, name in names.items()}
    return Observed(grid, key_names, lines, events, tel)


def started(attempt: int = 1) -> tuple:
    return ("started", {"attempt": attempt})


DONE = ("done", {"result_hash": "ok"})


# --------------------------------------------------------------------------
# Cache and resume paths
# --------------------------------------------------------------------------


class TestCachePaths:
    @JOBS
    def test_cold_miss_then_cache_hit(self, tmp_path, jobs):
        a, b = cell(0), cell(1)
        names = {a: "A", b: "B"}
        cache = tmp_path / "cache"

        cold = observe([a, b], names, tmp_path / "cold.journal",
                       jobs=jobs, cache_dir=cache)
        assert cold.journal[:2] == [("scheduled", "A", {}), ("scheduled", "B", {})]
        for name in "AB":
            assert cold.per_key(name) == [("scheduled", {}), started(), DONE]
        if jobs == 1:
            assert cold.journal[2:] == [
                ("started", "A", {"attempt": 1}), ("done", "A", {"result_hash": "ok"}),
                ("started", "B", {"attempt": 1}), ("done", "B", {"result_hash": "ok"}),
            ]
            assert cold.progress == [("ran", "A", 1, 2, 1, False, None),
                                     ("ran", "B", 2, 2, 1, False, None)]
        assert sorted(p[2] for p in cold.progress) == [1, 2]
        for name in "AB":
            assert cold.progress_of(name) == [("ran", 1, False, None)]
        assert cold.report == report(cells=2, executed=2)
        assert cold.instants == {"cache.miss": 2, "cache.write": 2}
        assert cold.spans == {"grid.run": 1, "shard.execute": 2}
        assert cold.jobs == jobs

        warm = observe([a, b], names, tmp_path / "warm.journal",
                       jobs=jobs, cache_dir=cache)
        assert warm.journal == [("cached", "A", {"result_hash": "ok"}),
                                ("cached", "B", {"result_hash": "ok"})]
        assert warm.progress == [("cached", "A", 1, 2, 1, True, None),
                                 ("cached", "B", 2, 2, 1, True, None)]
        assert warm.report == report(cells=2, cache_hits=2)
        assert warm.instants == {"cache.hit": 2}
        assert warm.spans == {"grid.run": 1}

    @JOBS
    def test_resume_hit(self, tmp_path, jobs):
        a, b = cell(0), cell(1)
        names = {a: "A", b: "B"}
        journal = tmp_path / "run.journal"
        run_grid([a, b], jobs=jobs, cache_dir=tmp_path / "cache", journal=journal)

        obs = observe([a, b], names, journal, jobs=jobs,
                      cache_dir=tmp_path / "cache", resume=journal)
        assert obs.journal == [("resumed", "A", {"result_hash": "ok"}),
                               ("resumed", "B", {"result_hash": "ok"})]
        assert obs.progress == [("resumed", "A", 1, 2, 1, True, None),
                                ("resumed", "B", 2, 2, 1, True, None)]
        assert obs.report == report(cells=2, cache_hits=2, resumed=2, reverified=2)
        assert obs.instants == {"resume.hit": 2, "cache.hit": 2}
        assert obs.spans == {"grid.run": 1}

    @JOBS
    def test_resume_mismatch_quarantines_and_reruns(self, tmp_path, jobs):
        a, b = cell(0), cell(1)
        names = {a: "A", b: "B"}
        journal = tmp_path / "run.journal"
        cache_dir = tmp_path / "cache"
        run_grid([a, b], jobs=jobs, cache_dir=cache_dir, journal=journal)

        # Give A's entry B's result under a valid footer: only the
        # journaled result hash can tell.
        cache = ResultCache(cache_dir)
        path_a = cache.path_for(spec_key(a))
        doc_a = json.loads(split_verified(path_a.read_text())[0])
        doc_b = json.loads(split_verified(cache.path_for(spec_key(b)).read_text())[0])
        doc_a["result"] = doc_b["result"]
        path_a.write_text(attach_footer(json.dumps(doc_a, sort_keys=True)))

        obs = observe([a, b], names, journal, jobs=jobs, cache_dir=cache_dir,
                      resume=journal)
        assert obs.journal == [
            ("scheduled", "A", {}),
            ("resumed", "B", {"result_hash": "ok"}),
            ("started", "A", {"attempt": 1}),
            ("done", "A", {"result_hash": "ok"}),
        ]
        assert obs.progress == [("resumed", "B", 1, 2, 1, True, None),
                                ("ran", "A", 2, 2, 1, False, None)]
        assert obs.report == report(
            outcome="degraded", cells=2, cache_hits=1, executed=1, resumed=1,
            reverified=1, resume_mismatches=1, quarantined=1)
        assert obs.instants == {
            "resume.mismatch": 1, "cache.quarantine": 1,
            "resume.miss": 1, "cache.miss": 1, "resume.hit": 1, "cache.hit": 1,
            "cache.write": 1,
        }

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

        obs = observe([p], names, tmp_path / "run.journal", jobs=jobs,
                      cache_dir=cache_dir)
        assert obs.journal == [("scheduled", "P", {}), ("started", "P", {"attempt": 1}),
                               ("done", "P", {"result_hash": "ok"})]
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
        obs = observe([f], names, tmp_path / "run.journal", jobs=jobs,
                      use_cache=False, retries=1)
        assert obs.journal == [("scheduled", "F", {}), ("started", "F", {"attempt": 1}),
                               ("started", "F", {"attempt": 2}),
                               ("done", "F", {"result_hash": "ok"})]
        assert obs.progress == [("retry", "F", 0, 1, 1, False, "error"),
                                ("ran", "F", 1, 1, 1, False, None)]
        assert obs.report == report(outcome="degraded", cells=1, executed=1,
                                    retries={"error": 1})
        assert obs.instants == {}
        assert obs.spans == {"grid.run": 1, "shard.retry": 1, "shard.execute": 1}

    def test_retry_then_ok_serial_order_with_a_second_cell(self, tmp_path):
        f = fault("lifecycle.flaky", fuse=str(tmp_path / "fuse"))
        a = cell(0)
        obs = observe([f, a], {f: "F", a: "A"}, tmp_path / "run.journal",
                      jobs=1, use_cache=False, retries=1)
        assert obs.journal == [
            ("scheduled", "F", {}), ("scheduled", "A", {}),
            ("started", "F", {"attempt": 1}), ("started", "F", {"attempt": 2}),
            ("done", "F", {"result_hash": "ok"}),
            ("started", "A", {"attempt": 1}), ("done", "A", {"result_hash": "ok"}),
        ]
        assert obs.progress == [("retry", "F", 0, 2, 1, False, "error"),
                                ("ran", "F", 1, 2, 1, False, None),
                                ("ran", "A", 2, 2, 1, False, None)]

    @JOBS
    def test_retry_then_failed(self, tmp_path, jobs):
        b = fault("lifecycle.boom")
        obs = observe([b], {b: "B"}, tmp_path / "run.journal", jobs=jobs,
                      use_cache=False, retries=1)
        error = "RuntimeError('lifecycle-boom')"
        assert obs.journal == [
            ("scheduled", "B", {}), ("started", "B", {"attempt": 1}),
            ("started", "B", {"attempt": 2}),
            ("failed", "B", {"error": error, "kind": "error", "attempts": 2}),
        ]
        assert obs.progress == [("retry", "B", 0, 1, 1, False, "error"),
                                ("failed", "B", 1, 1, 2, False, "error")]
        assert obs.report == report(outcome="failed", cells=1, retries={"error": 1},
                                    failures={"error": 1}, failed=1)
        assert obs.instants == {}
        assert obs.spans == {"grid.run": 1, "shard.retry": 1, "shard.failed": 1}

    @JOBS
    def test_timeout(self, tmp_path, jobs, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_S", 0.2)
        s = fault("lifecycle.sleep", seconds=30.0)
        obs = observe([s], {s: "S"}, tmp_path / "run.journal", jobs=jobs,
                      use_cache=False, retries=0)
        error = "RunTimeout('run exceeded the per-run timeout of 0.2s')"
        assert obs.journal == [
            ("scheduled", "S", {}), ("started", "S", {"attempt": 1}),
            ("failed", "S", {"error": error, "kind": "timeout", "attempts": 1}),
        ]
        assert obs.progress == [("failed", "S", 1, 1, 1, False, "timeout")]
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
        obs = observe([a], {a: "A"}, tmp_path / "run.journal", jobs=2,
                      use_cache=False, retries=1, chaos=chaos)
        assert obs.journal == [("scheduled", "A", {}), ("started", "A", {"attempt": 1}),
                               ("started", "A", {"attempt": 2}),
                               ("done", "A", {"result_hash": "ok"})]
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
        obs = observe([c], {c: "C"}, tmp_path / "run.journal", jobs=2,
                      use_cache=False, retries=10)
        error = ("pool rebuild cap reached (2); last crash: BrokenProcessPool(...)")
        assert obs.journal == [
            ("scheduled", "C", {}), ("started", "C", {"attempt": 1}),
            ("started", "C", {"attempt": 2}), ("started", "C", {"attempt": 3}),
            ("failed", "C", {"error": error, "kind": "crash", "attempts": 3}),
        ]
        assert obs.progress == [("retry", "C", 0, 1, 1, False, "crash"),
                                ("retry", "C", 0, 1, 2, False, "crash"),
                                ("failed", "C", 1, 1, 3, False, "crash")]
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
        obs = observe(specs, names, tmp_path / "run.journal", jobs=2,
                      use_cache=False, retries=0)
        error = "RuntimeError('lifecycle-slowboom')"
        assert [e for e, _n, _x in obs.journal[:8]] == ["scheduled"] * 8
        for name in names.values():
            records = obs.per_key(name)
            assert records[0] == ("scheduled", {})
            assert records[-1] == ("failed", {"error": error, "kind": "error",
                                              "attempts": 1})
            # A cell in flight when the breaker trips is resubmitted.
            assert set(map(repr, records[1:-1])) == {repr(started(1))}
            assert obs.progress_of(name) == [("failed", 1, False, "error")]
        assert [p[2] for p in obs.progress] == list(range(1, 9))
        assert obs.report == report(
            outcome="failed", cells=8, failures={"error": 8}, failed=8,
            degradation=["pool shrunk to 1", "fell back to serial"])
        assert obs.instants == {"pool.degrade": 2}
        assert obs.spans == {"grid.run": 1, "shard.failed": 8}


# --------------------------------------------------------------------------
# Invariants
# --------------------------------------------------------------------------


class _PublishCheckingJournal(RunJournal):
    """Fails a ``done`` record whose cache entry is not yet published."""

    def __init__(self, path, cache: ResultCache, specs):
        super().__init__(path)
        self.cache = cache
        self.by_key = {spec_key(s): s for s in specs}
        self.done: list[str] = []

    def record(self, event, key, **extra):
        if event == "done":
            spec = self.by_key[key]
            result, series = self.cache.load(spec)
            assert result is not None, "done before publish"
            assert (series is not None) == spec.series
            self.done.append(key)
        super().record(event, key, **extra)


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
    def test_done_is_journaled_only_after_the_entry_is_published(self, tmp_path, jobs):
        specs = [cell(0), cell(1, series=True)]
        cache_dir = tmp_path / "cache"
        journal = _PublishCheckingJournal(tmp_path / "run.journal",
                                          ResultCache(cache_dir), specs)
        with journal:
            grid = run_grid(specs, jobs=jobs, cache_dir=cache_dir, journal=journal)
        assert grid.complete
        assert sorted(journal.done) == sorted(spec_key(s) for s in specs)

    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_serial_grids_never_consult_the_breaker(self, jobs, monkeypatch):
        brk = _SpyBreaker(threshold=0.1, min_events=1, window=2)
        monkeypatch.setattr(parallel, "CircuitBreaker", lambda: brk)
        specs = [fault("lifecycle.boom", seed=s) for s in range(4)] + [cell(0)]
        grid = run_grid(specs, jobs=jobs, use_cache=False, retries=1)
        assert len(grid.failed_specs) == 4 and grid.executed == 1
        assert brk.touched == 0
        assert grid.report.degradation == []
