"""Crash-safe grid execution: integrity, chaos, policy.

The parallel engine (:mod:`repro.experiments.parallel`) promises that a
grid's results are byte-identical however they were produced — serial,
pooled, or cached. This package extends that promise across *failures*.
There is one recovery path for a harness that died mid-grid: run the
same grid again against the same cache. Every finished cell was
published with a checksum footer the moment it settled, so the rerun
serves it as a verified hit and runs only the rest.

* :mod:`repro.resilience.integrity` — checksum footers on every cache
  entry, fsynced and published by one atomic rename, one verifying
  reader, quarantine (never crash) for corrupt files, and the
  ``cache verify|gc`` maintenance pass;
* :mod:`repro.resilience.chaos` — deterministic, seedable fault
  injection (worker SIGKILL, injected fsync/write failures, timeout
  delays, simulated harness crash) so every
  recovery path above is exercised in tests;
* :mod:`repro.resilience.policy` — a failure-rate circuit breaker that
  shrinks the pool and falls back to serial before giving up, and the
  structured :class:`~repro.resilience.policy.RunReport`
  (completed / degraded / failed).

House rule, inherited from the rest of the platform: every recovery
path preserves byte identity — a rerun, degraded, or
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
    "RunReport",
    "classify_failure",
    "gc_cache",
    "verify_cache",
]
