"""Chaos-harness unit tests: deterministic victims, injectable faults.

Chaos must be as replayable as the simulation it attacks: the same
seed over the same grid picks the same casualties, and the filesystem
shim fails exactly the operations it was told to.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.resilience.chaos import (
    ChaosAbort,
    ChaosPolicy,
    FaultyFS,
    corrupt_cache_entry,
)
from repro.resilience.integrity import attach_footer, split_verified

KEYS = [f"key-{i:02d}" for i in range(10)]


class TestChaosPolicyPlanning:
    def test_same_seed_same_victims(self):
        a = ChaosPolicy.plan(KEYS, seed=7, kills=2, slow=3, slow_s=0.5)
        b = ChaosPolicy.plan(list(reversed(KEYS)), seed=7, kills=2, slow=3,
                             slow_s=0.5)
        assert a.kill_keys == b.kill_keys
        assert a.slow_keys == b.slow_keys

    def test_different_seed_different_victims(self):
        picks = {ChaosPolicy.plan(KEYS, seed=s, kills=2).kill_keys
                 for s in range(8)}
        assert len(picks) > 1

    def test_kill_and_slow_sets_are_disjoint(self):
        policy = ChaosPolicy.plan(KEYS, seed=1, kills=4, slow=6, slow_s=0.1)
        assert len(policy.kill_keys) == 4 and len(policy.slow_keys) == 6
        assert not (policy.kill_keys & policy.slow_keys)

    def test_victim_counts_cap_at_pool_size(self):
        policy = ChaosPolicy.plan(KEYS[:3], seed=0, kills=99, slow=99)
        assert len(policy.kill_keys) == 3
        assert len(policy.slow_keys) == 0  # kills consumed the pool

    def test_policy_pickles_into_workers(self):
        import pickle

        policy = ChaosPolicy.plan(KEYS, seed=2, kills=1, fuse_dir="/tmp/f")
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy


class TestChaosPolicyInjury:
    def test_harness_pid_guard_never_shoots_the_driver(self):
        # kill_keys includes our key and harness_pid is *us*: the kill
        # must not fire (a serial in-process grid never commits suicide).
        policy = ChaosPolicy(kill_keys=frozenset({"k"}))
        assert policy.harness_pid == os.getpid()
        policy.maybe_injure("k")  # alive == pass

    def test_burnt_fuse_spares_the_retry(self, tmp_path):
        policy = ChaosPolicy(kill_keys=frozenset({"k"}), fuse_dir=str(tmp_path),
                             harness_pid=-1)  # pretend another process planned
        fuse = policy._fuse_path("k")
        fuse.touch()  # the victim already died once
        assert policy.fuse_burnt("k")
        policy.maybe_injure("k")  # alive == the retry survives

    def test_unlisted_key_is_untouched(self, tmp_path):
        policy = ChaosPolicy(kill_keys=frozenset({"other"}),
                             fuse_dir=str(tmp_path), harness_pid=-1)
        policy.maybe_injure("k")
        assert not policy.fuse_burnt("k")


class TestFaultyFS:
    def test_fails_exactly_the_named_write(self, tmp_path):
        fs = FaultyFS(fail_writes=(1,))
        fs.write_text(tmp_path / "a", "first")  # write #0 succeeds
        with pytest.raises(OSError, match="injected filesystem failure"):
            fs.write_text(tmp_path / "b", "second")  # write #1 injected
        fs.write_text(tmp_path / "c", "third")
        assert fs.writes == 3
        assert (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_fails_exactly_the_named_replace(self, tmp_path):
        fs = FaultyFS(fail_replaces=(0,))
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_text("x")
        with pytest.raises(OSError):
            fs.replace(src, dst)
        assert src.exists() and not dst.exists()
        fs.replace(src, dst)  # replace #1 passes through
        assert dst.exists()


class TestCorruptCacheEntry:
    def _populate(self, root, n=4):
        for i in range(n):
            name = f"e{i}aa"
            path = root / name[:2] / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(attach_footer(json.dumps({"i": i})))

    def test_deterministic_victim(self, tmp_path):
        self._populate(tmp_path)
        a = corrupt_cache_entry(tmp_path, seed=5)
        # Re-running with the same seed picks the same file.
        assert corrupt_cache_entry(tmp_path, seed=5) == a

    def test_truncate_and_garble_defeat_the_footer(self, tmp_path):
        self._populate(tmp_path)
        for seed, mode in ((0, "truncate"), (1, "garble")):
            victim = corrupt_cache_entry(tmp_path, seed=seed, mode=mode)
            body, status = split_verified(victim.read_text(errors="replace"))
            assert status != "ok" or body is None

    def test_key_selects_the_entry(self, tmp_path):
        self._populate(tmp_path)
        victim = corrupt_cache_entry(tmp_path, key="e2aa")
        assert victim.name == "e2aa.json"

    def test_unknown_mode_and_empty_root_raise(self, tmp_path):
        self._populate(tmp_path)
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_cache_entry(tmp_path, mode="eat")
        with pytest.raises(ChaosAbort, match="no cache entries"):
            corrupt_cache_entry(tmp_path / "empty")
