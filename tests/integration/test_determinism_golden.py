"""Determinism and bit-identity guarantees of the simulation core.

Three layers of protection, all riding on :mod:`repro.analysis.golden`:

1. **Run-to-run**: the same seed + workload produces an identical
   structured event stream (SHA-256) and identical ``RunMetrics`` JSON
   across two in-process runs, for every tick mode.
2. **Across the parallel engine**: ``jobs=1`` (serial in-process) and
   ``jobs=N`` (worker pool) produce identical metrics for the same
   specs — results must not depend on where a cell executes.
3. **Across engine rewrites**: the committed golden fixture
   (tests/fixtures/golden_simcore.json), captured on the seed-era
   engine *before* the fast-path rewrite, is replayed in full — any
   behavioural drift in the event engine, however subtle, diverges a
   metrics hash or a stream hash here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import golden
from repro.config import TickMode
from repro.experiments import parallel
from repro.experiments.runner import run_workload
from repro.workloads.micro import PingPongWorkload, SyncStormWorkload

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_simcore.json"

MODES = list(TickMode)


def _traced_run(mode: TickMode, seed: int) -> tuple[dict, str]:
    tracer = golden.HashTracer()
    metrics = run_workload(
        PingPongWorkload(rounds=60, work_cycles=40_000),
        tick_mode=mode,
        seed=seed,
        tracer=tracer,
    )
    return metrics.to_json_dict(), tracer.hexdigest()


class TestRunToRun:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_same_seed_same_stream_and_metrics(self, mode):
        first_metrics, first_hash = _traced_run(mode, seed=13)
        second_metrics, second_hash = _traced_run(mode, seed=13)
        assert first_hash == second_hash
        assert first_metrics == second_metrics

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_different_seed_diverges(self, mode):
        # Sanity check that the hash actually has discriminating power;
        # uses a workload whose arrivals consult the seeded RNG.
        def run(seed):
            tracer = golden.HashTracer()
            run_workload(
                SyncStormWorkload(threads=2, events_per_second=600.0,
                                  duration_cycles=15_000_000),
                tick_mode=mode, seed=seed, tracer=tracer,
            )
            return tracer.hexdigest()

        assert run(13) != run(14)


class TestAcrossParallelEngine:
    def test_jobs1_vs_jobsN_identical_all_modes(self):
        specs = [
            parallel.spec_for(
                SyncStormWorkload(threads=2, events_per_second=600.0,
                                  duration_cycles=15_000_000),
                tick_mode=mode,
                seed=31,
                label=f"determinism/{mode.value}",
            )
            for mode in MODES
        ]
        serial = parallel.run_grid(specs, jobs=1, use_cache=False).raise_if_failed()
        pooled = parallel.run_grid(specs, jobs=2, use_cache=False).raise_if_failed()
        for spec, mode in zip(specs, MODES):
            assert serial[spec].to_json_dict() == pooled[spec].to_json_dict(), (
                f"{mode.value}: serial and pooled execution diverged"
            )


class TestGoldenFixture:
    def test_fixture_is_committed(self):
        assert FIXTURE.exists(), (
            "golden fixture missing; capture it with "
            "`PYTHONPATH=src python -m repro.analysis.golden simcore --write`"
        )

    def test_full_battery_matches_pre_rewrite_fixture(self):
        """Replays every golden case: 4 workloads x 3 tick modes with
        stream hashes, plus 20 fuzz seeds x 3 modes x 2 placements of
        metrics hashes — all captured on the pre-rewrite engine."""
        problems = golden.compare("simcore", FIXTURE)
        assert not problems, "engine behaviour diverged:\n" + "\n".join(problems)
