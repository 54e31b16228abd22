"""Deterministic fault injection for the grid/fleet harness.

Every recovery path the engine grew — pool rebuild after a SIGKILLed
worker, cache-write failure demoting to no-cache, quarantine of corrupt
entries, a rerun on the same cache after a harness crash — must be
*exercised*, not believed. This module injects those faults
deterministically, from a seed, so a chaos test is as replayable as
any other cell of the matrix:

* :class:`ChaosPolicy` rides into worker processes (it is plain
  picklable data) and strikes by **spec key**: SIGKILL the worker
  executing a chosen cell (once — a *fuse file* burns before the kill,
  so the retry recovers), or delay it past its timeout;
* :func:`ChaosPolicy.plan` picks victims with a seeded RNG over the
  sorted spec keys — same seed, same grid, same casualties, always;
* ``abort_after`` simulates the *harness* dying mid-grid: the engine
  raises :class:`ChaosAbort` after N settled cells, leaving the cache
  exactly as a real crash would;
* :class:`FaultyFS` wraps the cache's filesystem shim and fails chosen
  write/replace operations (the fsync-failure and torn-write paths);
* :func:`corrupt_cache_entry` damages a stored entry on disk the way a
  torn write would (truncation or byte garbling), for integrity tests.

None of this perturbs simulated time: chaos acts on the *harness*, so
a recovered or rerun grid must still be byte-identical to a clean one
— which is exactly the property the chaos battery asserts.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.errors import ReproError
from repro.resilience.integrity import CacheFS, _cache_files


class ChaosAbort(ReproError):
    """The chaos policy simulated a harness crash mid-grid."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Declarative, seedable fault plan for one grid execution.

    Workers consult :meth:`maybe_injure` (kill/delay by spec key); the
    driver consults :attr:`abort_after`. All fields are JSON-scalar
    containers so the policy forks/pickles into workers unchanged.
    """

    seed: int = 0
    #: Spec keys whose executing worker is SIGKILLed (once each).
    kill_keys: frozenset = frozenset()
    #: Spec keys delayed by ``slow_s`` before executing (drive timeouts).
    slow_keys: frozenset = frozenset()
    slow_s: float = 0.0
    #: Simulate a harness crash after this many non-cached settles.
    abort_after: Optional[int] = None
    #: Directory holding one *fuse file* per kill: created before the
    #: SIGKILL, so each victim dies exactly once and the retry lives.
    #: None disables the fuse (every attempt dies — rerun territory).
    fuse_dir: Optional[str] = None
    #: PID of the planning harness; kills only fire in *other*
    #: processes (a serial in-process grid must never shoot itself).
    harness_pid: int = field(default_factory=os.getpid)

    @classmethod
    def plan(
        cls,
        keys: Iterable[str],
        *,
        seed: int = 0,
        kills: int = 0,
        slow: int = 0,
        slow_s: float = 0.0,
        abort_after: Optional[int] = None,
        fuse_dir: Optional[str] = None,
    ) -> "ChaosPolicy":
        """Pick victims deterministically from ``seed`` over sorted keys."""
        pool = sorted(set(keys))
        rng = random.Random(seed)
        kills = min(kills, len(pool))
        kill_keys = frozenset(rng.sample(pool, kills)) if kills else frozenset()
        remaining = [k for k in pool if k not in kill_keys]
        slow = min(slow, len(remaining))
        slow_keys = frozenset(rng.sample(remaining, slow)) if slow else frozenset()
        return cls(seed=seed, kill_keys=kill_keys, slow_keys=slow_keys,
                   slow_s=slow_s, abort_after=abort_after, fuse_dir=fuse_dir)

    # ------------------------------------------------------------ worker side

    def _fuse_path(self, key: str) -> Optional[Path]:
        if self.fuse_dir is None:
            return None
        return Path(self.fuse_dir) / f"fuse-{key[:16]}"

    def fuse_burnt(self, key: str) -> bool:
        fuse = self._fuse_path(key)
        return fuse is not None and fuse.exists()

    def maybe_injure(self, key: str) -> None:
        """Apply worker-side faults for ``key`` (called in the worker).

        Delay first (timeout injection), then kill — a key in both sets
        dies, which is the more interesting casualty.
        """
        if key in self.slow_keys and self.slow_s > 0:
            time.sleep(self.slow_s)
        if key in self.kill_keys and os.getpid() != self.harness_pid:
            fuse = self._fuse_path(key)
            if fuse is not None:
                if fuse.exists():
                    return  # already died once; let the retry succeed
                fuse.parent.mkdir(parents=True, exist_ok=True)
                fuse.touch()
            os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------------------
# Filesystem fault injection
# --------------------------------------------------------------------------


class FaultyFS(CacheFS):
    """A :class:`CacheFS` that fails chosen operations deterministically.

    ``fail_writes`` / ``fail_replaces`` name 0-based operation indices
    (per category, in call order) that raise ``OSError`` — e.g.
    ``FaultyFS(fail_writes=(0,))`` makes the very first cache write
    look like a full disk. State is per-instance and driver-side (the
    cache writes from the harness process), so injection is exact.
    """

    def __init__(
        self,
        fail_writes: Sequence[int] = (),
        fail_replaces: Sequence[int] = (),
        errno_msg: str = "chaos: injected filesystem failure",
    ) -> None:
        self.fail_writes = frozenset(fail_writes)
        self.fail_replaces = frozenset(fail_replaces)
        self.errno_msg = errno_msg
        self.writes = 0
        self.replaces = 0

    def write_text(self, path, text) -> None:
        index = self.writes
        self.writes += 1
        if index in self.fail_writes:
            raise OSError(f"{self.errno_msg} (write #{index}: {path})")
        super().write_text(path, text)

    def replace(self, src, dst) -> None:
        index = self.replaces
        self.replaces += 1
        if index in self.fail_replaces:
            raise OSError(f"{self.errno_msg} (replace #{index}: {dst})")
        super().replace(src, dst)


def corrupt_cache_entry(
    root: os.PathLike | str,
    *,
    seed: int = 0,
    key: Optional[str] = None,
    mode: str = "truncate",
) -> Path:
    """Damage one stored cache file in place, deterministically.

    Picks the victim by seeded choice over the sorted entry files
    (or the entry for ``key`` when given) and either truncates it to
    half (a torn write) or garbles its tail bytes (silent corruption
    that only the checksum footer can catch). Returns the victim path.
    """
    candidates = _cache_files(Path(root))
    if key is not None:
        candidates = [p for p in candidates if p.name.startswith(key)]
    if not candidates:
        raise ChaosAbort(f"no cache entries under {root} to corrupt")
    victim = random.Random(seed).choice(candidates)
    data = victim.read_bytes()
    if mode == "truncate":
        victim.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garble":
        tail = bytes((b ^ 0x5A) for b in data[-16:])
        victim.write_bytes(data[:-16] + tail)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return victim
