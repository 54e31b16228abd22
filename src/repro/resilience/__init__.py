"""Crash-safe grid execution: journal + resume, integrity, chaos, policy.

The parallel engine (:mod:`repro.experiments.parallel`) promises that a
grid's results are byte-identical however they were produced — serial,
pooled, or cached. This package extends that promise across *failures*:

* :mod:`repro.resilience.journal` — an append-only JSONL record of
  every cell's lifecycle, durable per record, replayable after any
  crash; ``--resume`` skips completed cells and **re-verifies** their
  cached bytes against the journaled result hash;
* :mod:`repro.resilience.integrity` — checksum footers on every cache
  entry, one verifying reader, quarantine (never crash) for corrupt
  files, and the ``cache verify|gc`` maintenance pass;
* :mod:`repro.resilience.chaos` — deterministic, seedable fault
  injection (worker SIGKILL, injected fsync/write failures, timeout
  delays, simulated harness crash) so every
  recovery path above is exercised in tests;
* :mod:`repro.resilience.policy` — a failure-rate circuit breaker that
  shrinks the pool and falls back to serial before giving up, and the
  structured :class:`~repro.resilience.policy.RunReport`
  (completed / degraded / failed).

House rule, inherited from the rest of the platform: every recovery
path preserves byte identity — a resumed, degraded, or
quarantine-recovered run's aggregate bytes equal an uninterrupted
run's, and the chaos battery asserts exactly that.
"""

from __future__ import annotations

from repro.resilience.chaos import ChaosAbort, ChaosPolicy, FaultyFS
from repro.resilience.integrity import (
    CacheAudit,
    CacheFS,
    CacheIntegrityError,
    GcStats,
    gc_cache,
    verify_cache,
)
from repro.resilience.journal import (
    JournalError,
    JournalState,
    ResumeError,
    RunJournal,
    grid_digest,
    replay_journal,
    result_hash,
)
from repro.resilience.policy import CircuitBreaker, RunReport, classify_failure

__all__ = [
    "CacheAudit",
    "CacheFS",
    "CacheIntegrityError",
    "ChaosAbort",
    "ChaosPolicy",
    "CircuitBreaker",
    "FaultyFS",
    "GcStats",
    "JournalError",
    "JournalState",
    "ResumeError",
    "RunJournal",
    "RunReport",
    "classify_failure",
    "gc_cache",
    "grid_digest",
    "replay_journal",
    "result_hash",
    "verify_cache",
]
