"""ARM golden battery: the second timer architecture, pinned to the bit.

Mirrors ``test_determinism_golden.py`` for ``arch="arm"``: the committed
fixture (tests/fixtures/golden_arm.json) was captured when the ARM
generic-timer backend landed, and every run replays the full battery —
12 traced workload cells plus 120 fuzz metric hashes — against it. Any
drift in the CNTV trap decode, the vtimer deadline translation, or the
per-arch cost model diverges a hash here.

The x86 fixture's continued byte-identity (proved next door) is the
refactor gate: introducing the :mod:`repro.hw.timerhw` seam moved the
x86 decode behind an interface without changing a single emitted byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import golden
from repro.config import TickMode
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_arm.json"

MODES = list(TickMode)


class TestArmGoldenFixture:
    def test_fixture_is_committed(self):
        assert FIXTURE.exists(), (
            "ARM golden fixture missing; capture it with "
            "`PYTHONPATH=src python -m repro.analysis.golden arm --write`"
        )

    def test_fixture_declares_arm(self):
        assert golden.load(FIXTURE).get("arch") == "arm"

    def test_full_battery_matches_fixture(self):
        problems = golden.compare("arm", FIXTURE)
        assert not problems, "ARM backend diverged:\n" + "\n".join(problems)

    def test_arch_mismatch_is_reported_not_silent(self):
        """Replaying an ARM fixture with the x86 battery must fail fast
        instead of diffing apples against oranges."""
        problems = golden.compare("simcore", FIXTURE)
        assert problems and "pins arch 'arm'" in problems[0]


class TestArmEngineIdentity:
    def test_jobs1_vs_jobsN_identical_all_modes(self):
        """The parallel engine is arch-oblivious: ARM cells produce the
        same bytes serially and across a worker pool."""
        specs = [
            RunSpec(
                WorkloadSpec.make("micro.syncstorm", threads=2,
                                  events_per_second=600.0, duration_cycles=15_000_000),
                tick_mode=mode,
                seed=31,
                label=f"determinism-arm/{mode.value}",
            ).with_(arch="arm")
            for mode in MODES
        ]
        serial = parallel.run_grid(specs, jobs=1, use_cache=False).raise_if_failed()
        pooled = parallel.run_grid(specs, jobs=2, use_cache=False).raise_if_failed()
        for spec, mode in zip(specs, MODES):
            assert serial[spec].to_json_dict() == pooled[spec].to_json_dict(), (
                f"{mode.value}: serial and pooled ARM execution diverged"
            )


class TestArchCacheKey:
    def test_default_arch_serialized_and_round_trips(self):
        """The default arch rides the cache key like any other field."""
        spec = RunSpec(
            WorkloadSpec.make("micro.syncstorm", threads=2,
                              events_per_second=600.0, duration_cycles=15_000_000),
            tick_mode=TickMode.TICKLESS, seed=1,
        )
        data = parallel.spec_to_dict(spec)
        assert data["arch"] == "x86"
        assert parallel.spec_from_dict(data) == spec

    def test_arm_arch_serialized_and_round_trips(self):
        spec = RunSpec(
            WorkloadSpec.make("micro.syncstorm", threads=2,
                              events_per_second=600.0, duration_cycles=15_000_000),
            tick_mode=TickMode.TICKLESS, seed=1,
        ).with_(arch="arm")
        data = parallel.spec_to_dict(spec)
        assert data["arch"] == "arm"
        assert parallel.spec_from_dict(data).arch == "arm"

    def test_arch_changes_the_cache_key(self):
        spec = RunSpec(
            WorkloadSpec.make("micro.syncstorm", threads=2,
                              events_per_second=600.0, duration_cycles=15_000_000),
            tick_mode=TickMode.TICKLESS, seed=1,
        )
        assert parallel.spec_key(spec) != parallel.spec_key(spec.with_(arch="arm"))
