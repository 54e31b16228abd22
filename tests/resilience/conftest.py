"""Shared helpers for the resilience battery.

Every test here runs tiny ping-pong cells — small enough that a full
chaos round-trip (run, crash, corrupt, rerun, compare) stays in the
tens of milliseconds, large enough that the results are real simulation
output whose byte-identity is worth asserting.
"""

from __future__ import annotations

import pytest

from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec


def make_spec(seed: int = 0, **changes) -> RunSpec:
    """One small deterministic grid cell (distinct per ``seed``)."""
    spec = RunSpec(
        WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000),
        tick_mode=TickMode.PARATICK,
        seed=seed,
        noise=False,
    )
    return spec.with_(**changes) if changes else spec


@pytest.fixture
def specs() -> list[RunSpec]:
    """A four-cell grid, one cell per seed."""
    return [make_spec(seed=s) for s in range(4)]
