"""Engine-level resilience battery: the recovery paths, end to end.

The contract under test is the issue's acceptance clause: **every
recovery path preserves byte-identity** — a grid that was SIGKILLed,
crashed, corrupted and resumed must hand back exactly the bytes an
uninterrupted run produces, and corruption is demoted to a miss (plus
quarantine forensics), never an exception.
"""

from __future__ import annotations

import functools
import json
import os
import time

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    GridError,
    ResultCache,
    RunSpec,
    WorkloadSpec,
    encode_result,
    register_workload,
    run_grid,
    spec_key,
)
from repro.resilience.chaos import (
    ChaosAbort,
    ChaosPolicy,
    FaultyFS,
    corrupt_cache_entry,
)
from repro.resilience.integrity import QUARANTINE_DIR, attach_footer, split_verified
from repro.resilience.journal import ResumeError, replay_journal
from repro.resilience.policy import CircuitBreaker
from repro.scenarios.runcheck import canonical_result_bytes

from .conftest import make_spec

# Fault workloads, registered at import time; the fork-based pool
# inherits the registry (same trick as tests/experiments/test_parallel).


def _boom_factory(**kw):
    raise RuntimeError("resilience-boom")


def _slow_boom_factory(**kw):
    time.sleep(0.05)  # stagger settles so breaker trips mid-grid
    raise RuntimeError("resilience-slow-boom")


def _sleep_factory(seconds=5.0, **kw):
    time.sleep(seconds)
    raise AssertionError("unreachable: the per-run alarm should fire first")


def _crash_factory(**kw):
    os._exit(3)


register_workload("resilience.boom", _boom_factory)
register_workload("resilience.slowboom", _slow_boom_factory)
register_workload("resilience.sleep", _sleep_factory)
register_workload("resilience.crash", _crash_factory)


def _fault_spec(kind: str, seed: int = 0) -> RunSpec:
    return make_spec(seed=seed).with_(workload=WorkloadSpec.make(kind))


def _golden(specs) -> dict:
    clean = run_grid(specs, jobs=None, use_cache=False).raise_if_failed()
    return {s: canonical_result_bytes(clean[s]) for s in specs}


def _assert_bytes_identical(grid, golden) -> None:
    for spec, reference in golden.items():
        assert canonical_result_bytes(grid[spec]) == reference, (
            f"{spec.display_label()}: recovered bytes diverged")


class TestFailureKinds:
    def test_in_worker_exception_is_kind_error(self):
        events = []
        grid = run_grid([_fault_spec("resilience.boom")], jobs=None,
                        use_cache=False, retries=1, progress=events.append)
        assert grid.failed_by_kind() == {"error": 1}
        assert grid.failed_specs[0].kind == "error"
        assert grid.report.failures == {"error": 1}
        assert grid.report.retries == {"error": 1}
        kinds = [(e.status, e.failure_kind) for e in events]
        assert ("retry", "error") in kinds and ("failed", "error") in kinds

    def test_timeout_is_kind_timeout(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_S", 0.3)
        grid = run_grid([_fault_spec("resilience.sleep")], jobs=None,
                        use_cache=False, retries=0)
        assert grid.failed_by_kind() == {"timeout": 1}
        assert "RunTimeout" in grid.failed_specs[0].error

    def test_worker_crash_is_kind_crash_with_pool_rebuild(self):
        grid = run_grid([_fault_spec("resilience.crash")], jobs=2,
                        use_cache=False, retries=1)
        assert grid.failed_by_kind() == {"crash": 1}
        assert grid.report.pool_rebuilds >= 1
        assert grid.report.outcome == "failed"

    def test_raise_if_failed_names_the_kinds(self):
        grid = run_grid([_fault_spec("resilience.boom")], jobs=None,
                        use_cache=False, retries=0)
        with pytest.raises(GridError, match=r"error: 1"):
            grid.raise_if_failed()


class TestPoolRebuildCap:
    def test_persistent_crasher_hits_the_cap_with_a_clear_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_MAX_POOL_REBUILDS", 2)
        grid = run_grid([_fault_spec("resilience.crash")], jobs=2,
                        use_cache=False, retries=10)
        assert len(grid.failed_specs) == 1
        failure = grid.failed_specs[0]
        assert failure.kind == "crash"
        assert "pool rebuild cap reached (2)" in failure.error
        # The cap bounds the damage: 3 crashes, not 11, and only the
        # first 2 were followed by a rebuild.
        assert grid.report.pool_rebuilds == 2


class TestDegradationLadder:
    def test_breaker_shrinks_pool_then_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "CircuitBreaker", functools.partial(
            CircuitBreaker, threshold=0.5, min_events=2, window=4))
        specs = [_fault_spec("resilience.slowboom", seed=s) for s in range(8)]
        grid = run_grid(specs, jobs=2, use_cache=False, retries=0)
        assert len(grid.failed_specs) == 8
        assert "pool shrunk to 1" in grid.report.degradation
        assert "fell back to serial" in grid.report.degradation
        assert grid.report.outcome == "failed"


class TestChaosKill:
    def test_seeded_worker_kill_recovers_byte_identically(self, tmp_path):
        specs = [make_spec(seed=s) for s in range(4)]
        golden = _golden(specs)
        chaos = ChaosPolicy.plan([spec_key(s) for s in specs], seed=0,
                                 kills=1, fuse_dir=str(tmp_path / "fuse"))
        grid = run_grid(specs, jobs=2, use_cache=False, retries=1,
                        chaos=chaos).raise_if_failed()
        assert grid.report.pool_rebuilds >= 1
        assert grid.report.outcome == "degraded"
        # The fuse burnt: the victim died exactly once.
        (victim,) = chaos.kill_keys
        assert chaos.fuse_burnt(victim)
        _assert_bytes_identical(grid, golden)


class TestJournalResume:
    def _run(self, specs, tmp_path, **kw):
        return run_grid(specs, jobs=None, cache_dir=tmp_path / "cache",
                        journal=tmp_path / "run.journal", **kw)

    def test_acceptance_abort_corrupt_resume_bytes_identical(self, tmp_path, specs):
        """The issue's acceptance test: crash mid-grid, corrupt an
        entry, ``--resume``, and the recovered grid is byte-identical."""
        golden = _golden(specs)
        journal = tmp_path / "run.journal"

        with pytest.raises(ChaosAbort, match="simulated harness crash"):
            self._run(specs, tmp_path, chaos=ChaosPolicy(abort_after=2))

        state = replay_journal(journal)
        assert len(state.done) == 2  # two cells survived the "crash"

        # Silent corruption of one completed entry (bad sector, torn
        # write): only the checksum footer can catch this.
        victim_key = sorted(state.done)[0]
        corrupt_cache_entry(tmp_path / "cache", key=victim_key, mode="garble")

        grid = self._run(specs, tmp_path, resume=journal).raise_if_failed()
        report = grid.report
        assert report.resumed == 1      # the intact journaled cell
        assert report.reverified == 1
        assert report.quarantined == 1  # the corrupt one, caught on read
        assert report.executed == 3     # corrupt + the two never-run cells
        assert report.outcome == "degraded"
        _assert_bytes_identical(grid, golden)
        assert any((tmp_path / "cache" / QUARANTINE_DIR).iterdir())

        # The journal now witnesses all four cells; the resumed cell's
        # record duplicates its original hash (idempotent by design).
        final = replay_journal(journal)
        assert len(final.done) == len(specs)
        assert final.duplicate_done >= 1
        assert not final.conflicting

    def test_resume_mismatch_quarantines_and_reruns(self, tmp_path, specs):
        golden = _golden(specs)
        journal = tmp_path / "run.journal"
        self._run(specs, tmp_path).raise_if_failed()

        # Swap two entries' result payloads: both files carry *valid*
        # footers, so only the journal's result hash can catch it.
        cache = ResultCache(tmp_path / "cache")
        path_a = cache.path_for(spec_key(specs[0]))
        path_b = cache.path_for(spec_key(specs[1]))
        payload_a, _ = split_verified(path_a.read_text())
        payload_b, _ = split_verified(path_b.read_text())
        doc_a, doc_b = json.loads(payload_a), json.loads(payload_b)
        doc_a["result"] = doc_b["result"]
        path_a.write_text(attach_footer(json.dumps(doc_a, sort_keys=True)))

        grid = self._run(specs, tmp_path, resume=journal).raise_if_failed()
        report = grid.report
        assert report.resume_mismatches == 1
        assert report.quarantined >= 1
        assert report.resumed == 3 and report.executed == 1
        assert report.outcome == "degraded"
        _assert_bytes_identical(grid, golden)

    def test_resume_with_evicted_entry_reruns_that_cell(self, tmp_path, specs):
        golden = _golden(specs)
        journal = tmp_path / "run.journal"
        self._run(specs, tmp_path).raise_if_failed()

        evicted = ResultCache(tmp_path / "cache").path_for(spec_key(specs[2]))
        evicted.unlink()

        grid = self._run(specs, tmp_path, resume=journal).raise_if_failed()
        report = grid.report
        assert report.resumed == 3 and report.executed == 1
        assert report.resume_mismatches == 0 and report.quarantined == 0
        # An eviction is not degradation: the cache is allowed to forget.
        assert report.outcome == "completed"
        _assert_bytes_identical(grid, golden)

    def test_clean_resume_reverifies_everything(self, tmp_path, specs):
        journal = tmp_path / "run.journal"
        self._run(specs, tmp_path).raise_if_failed()
        grid = self._run(specs, tmp_path, resume=journal).raise_if_failed()
        report = grid.report
        assert report.resumed == len(specs)
        assert report.reverified == len(specs)
        assert report.executed == 0
        assert report.outcome == "completed"

    def test_resume_against_changed_matrix_is_hard_error(self, tmp_path, specs):
        journal = tmp_path / "run.journal"
        self._run(specs, tmp_path).raise_if_failed()
        changed = specs[:3] + [make_spec(seed=99)]
        with pytest.raises(ResumeError, match="matrix changed"):
            self._run(changed, tmp_path, resume=journal)


class TestAtomicMultiFileEntries:
    """A series entry (result and series artifact) is one file published
    by one rename: it lands whole or not at all."""

    def test_failed_result_publish_leaves_a_cold_miss(self, tmp_path):
        spec = make_spec(series=True)
        cache_dir = tmp_path / "cache"
        with pytest.warns(RuntimeWarning, match="result cache disabled"):
            run_grid([spec], jobs=None, cache_dir=cache_dir,
                     cache_fs=FaultyFS(fail_replaces=(0,))).raise_if_failed()
        cache = ResultCache(cache_dir)
        assert not cache.path_for(spec_key(spec)).exists()
        assert cache.load(spec) == (None, None)
        # No tmp debris survives the interrupted publish.
        assert not [p for p in cache_dir.rglob("*") if p.is_file()]
        # The next run sees a cold miss and repairs the entry whole.
        repaired = run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        assert repaired.executed == 1 and repaired.cache_hits == 0
        warm = run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        assert warm.cache_hits == 1
        assert warm.series[spec] == repaired.series[spec]

    def test_failed_artifact_publish_keeps_the_unit_cold(self, tmp_path):
        spec = make_spec(series=True)
        cache_dir = tmp_path / "cache"
        grid = run_grid([spec], jobs=None, use_cache=False).raise_if_failed()
        cache = ResultCache(cache_dir, fs=FaultyFS(fail_writes=(0,)))
        with pytest.raises(OSError):
            cache.store(spec, encode_result(grid.results[spec]),
                        series=grid.series[spec])
        assert not [p for p in cache_dir.rglob("*") if p.is_file()]
        repaired = run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        assert repaired.executed == 1 and spec in repaired.series

    def test_series_entry_is_one_file(self, tmp_path):
        spec = make_spec(series=True)
        cache_dir = tmp_path / "cache"
        cold = run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        entry = ResultCache(cache_dir).path_for(spec_key(spec))
        assert [p for p in cache_dir.rglob("*") if p.is_file()] == [entry]
        doc = json.loads(split_verified(entry.read_text())[0])
        assert set(doc) == {"version", "key", "spec", "result", "series"}
        warm = run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        assert warm.cache_hits == 1
        assert warm.series[spec] == cold.series[spec] == doc["series"]

    def test_result_without_artifacts_reads_as_miss(self, tmp_path):
        spec = make_spec(series=True)
        cache_dir = tmp_path / "cache"
        run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        path = ResultCache(cache_dir).path_for(spec_key(spec))
        doc = json.loads(split_verified(path.read_text())[0])
        # Rewritten without its series, under a valid footer: a
        # structural miss, discarded like a stale version.
        path.write_text(attach_footer(json.dumps(
            {k: v for k, v in doc.items() if k != "series"}, sort_keys=True)))
        grid = run_grid([spec], jobs=None, cache_dir=cache_dir).raise_if_failed()
        assert grid.cache_hits == 0 and grid.executed == 1
        assert grid.report.quarantined == 0
        assert spec in grid.series  # the re-run restored it


class TestCorruptionDemotion:
    def test_corrupt_entry_is_quarantined_and_rerun(self, tmp_path, specs):
        golden = _golden(specs)
        cache_dir = tmp_path / "cache"
        run_grid(specs, jobs=None, cache_dir=cache_dir).raise_if_failed()
        corrupt_cache_entry(cache_dir, seed=3, mode="truncate")

        grid = run_grid(specs, jobs=None, cache_dir=cache_dir).raise_if_failed()
        report = grid.report
        assert report.quarantined == 1
        assert report.cache_hits == len(specs) - 1 and report.executed == 1
        assert report.outcome == "degraded"
        _assert_bytes_identical(grid, golden)
        quarantined = list((cache_dir / QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1

    def test_high_bit_flip_is_quarantined_and_rerun(self, tmp_path, specs):
        golden = _golden(specs)
        cache_dir = tmp_path / "cache"
        run_grid(specs, jobs=None, cache_dir=cache_dir).raise_if_failed()
        victim = ResultCache(cache_dir).path_for(spec_key(specs[1]))
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] |= 0x80  # no longer valid UTF-8
        victim.write_bytes(bytes(data))

        grid = run_grid(specs, jobs=None, cache_dir=cache_dir).raise_if_failed()
        assert grid.report.quarantined == 1
        assert grid.report.cache_hits == len(specs) - 1 and grid.report.executed == 1
        _assert_bytes_identical(grid, golden)
        assert [p.name for p in (cache_dir / QUARANTINE_DIR).iterdir()] == [victim.name]
