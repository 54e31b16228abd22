"""In-sim time series: exact window splitting and RunMetrics reconciliation.

The series artifact promises *exactness*, not approximation: interval
quantities split across window boundaries with integer arithmetic sum
back to the un-windowed totals, and a real run's windows reconcile
to-the-nanosecond against its final RunMetrics — solo, overcommitted,
and at the fleet-host level.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.config import TickMode
from repro.experiments.parallel import (
    ResultCache,
    RunSpec,
    WorkloadSpec,
    encode_result,
    execute_spec,
    execute_spec_full,
    run_grid,
    spec_from_dict,
    spec_key,
    spec_to_dict,
)
from repro.hw.interrupts import Vector
from repro.obs import ObsConfig, Observability, reconcile_series
from repro.obs.series import SeriesRecorder, series_totals
from repro.resilience.integrity import attach_footer, read_verified


def series_spec(**changes) -> RunSpec:
    """Overcommitted noisy ping-pong: nonzero steal, halt, and ticks."""
    spec = RunSpec(
        WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000),
        tick_mode=TickMode.PERIODIC,
        seed=0,
        noise=True,
        pinned_cpus=(0, 0),
        series=True,
    )
    return spec.with_(**changes) if changes else spec


class TestWindowSplitting:
    def test_interval_split_exactly_at_boundaries(self):
        r = SeriesRecorder(window_ns=100)
        r.emit(50, "v0", "vcpu_state", ("running", "ready"))
        r.emit(250, "v0", "vcpu_state", ("ready", "running"))
        per_window = {i: w.steal_ns for i, w in r._windows.items()}
        assert per_window == {0: 50, 1: 100, 2: 50}
        assert r.totals()["steal_ns"] == 200

    def test_random_intervals_sum_exactly(self):
        rng = random.Random(7)
        r = SeriesRecorder(window_ns=137)  # awkward width on purpose
        expected = 0
        t = 0
        for _ in range(200):
            t += rng.randrange(1, 50)
            start = t
            t += rng.randrange(1, 400)
            expected += t - start
            r.emit(start, "v0", "vcpu_state", ("running", "ready"))
            r.emit(t, "v0", "vcpu_state", ("ready", "running"))
        assert r.totals()["steal_ns"] == expected

    def test_open_interval_at_horizon_excluded(self):
        r = SeriesRecorder(window_ns=100)
        r.emit(50, "v0", "vcpu_state", ("running", "ready"))
        r.finalize(400)
        assert r.totals()["steal_ns"] == 0
        assert r.end_ns == 400

    def test_halt_residency_counted_on_close(self):
        r = SeriesRecorder(window_ns=100)
        r.emit(30, "v0", "vcpu_state", ("running", "halted"))
        r.emit(130, "v0", "vcpu_state", ("halted", "running"))
        per_window = {i: w.halted_ns for i, w in r._windows.items()}
        assert per_window == {0: 70, 1: 30}

    def test_vmexits_land_in_their_window(self):
        r = SeriesRecorder(window_ns=100)
        for t in (5, 99, 100, 250):
            r.emit(t, "v0", "vmexit", None)
        assert {i: w.exits for i, w in r._windows.items()} == {0: 2, 1: 1, 2: 1}

    def test_tick_latency_lands_in_inject_window(self):
        r = SeriesRecorder(window_ns=100)
        r.emit(10, "v0", "deadline_fire", (1000, "periodic"))
        r.emit(120, "v0", "inject", (int(Vector.LOCAL_TIMER),))
        w = r._windows[1]
        assert w.tick is not None
        assert w.tick.count == 1 and w.tick.total == 110

    def test_non_tick_inject_ignored(self):
        r = SeriesRecorder(window_ns=100)
        r.emit(10, "v0", "deadline_fire", (1000, "periodic"))
        r.emit(50, "v0", "inject", (99,))
        assert not any(w.tick for w in r._windows.values())

    def test_json_totals_match_windows(self):
        r = SeriesRecorder(window_ns=100)
        r.emit(5, "v0", "vmexit", None)
        r.emit(30, "v0", "vcpu_state", ("running", "ready"))
        r.emit(250, "v0", "vcpu_state", ("ready", "running"))
        r.finalize(300)
        doc = r.to_json_dict()
        assert doc["version"] == 1
        assert doc["totals"] == series_totals(doc)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window_ns"):
            SeriesRecorder(window_ns=0)


class TestRunReconciliation:
    def test_overcommitted_run_reconciles_exactly(self):
        metrics, series = execute_spec_full(series_spec())
        assert series is not None and series["windows"]
        assert reconcile_series(series, metrics) == []
        # The run genuinely exercised the interval paths.
        assert series_totals(series)["steal_ns"] > 0
        assert series_totals(series)["halted_ns"] > 0

    def test_solo_run_reconciles_exactly(self):
        spec = series_spec(pinned_cpus=None, noise=False,
                           tick_mode=TickMode.PARATICK)
        metrics, series = execute_spec_full(spec)
        assert reconcile_series(series, metrics) == []

    def test_fleet_host_shard_reconciles_exactly(self):
        from repro.fleet import FleetSpec
        from repro.sim.timebase import MSEC

        fleet = FleetSpec(
            name="serfleet",
            workload=WorkloadSpec.make("micro.pingpong", rounds=8,
                                       work_cycles=15_000, same_vcpu=False),
            tick_mode=TickMode.PARATICK,
            hosts=1, guests_per_host=3, consolidation=3,
            burst="poisson", burst_window_ns=2 * MSEC,
            seed=4, horizon_ns=400 * MSEC,
        )
        [spec] = [s.with_(series=True) for s in fleet.host_specs()]
        metrics, series = execute_spec_full(spec)
        assert reconcile_series(series, metrics) == []

    def test_metrics_bit_identical_with_and_without_series(self):
        with_series = execute_spec_full(series_spec())[0]
        without = execute_spec(series_spec(series=False))
        assert encode_result(with_series) == encode_result(without)

    def test_reconcile_reports_mismatch(self):
        metrics, series = execute_spec_full(series_spec())
        series = json.loads(json.dumps(series))
        series["windows"][0]["exits"] += 1
        errors = reconcile_series(series, metrics)
        assert errors and any("exits" in e for e in errors)


class TestSpecAndCache:
    def test_default_spec_dict_has_no_series_field(self):
        # Cache-key stability: pre-series specs must keep their keys.
        assert "series" not in spec_to_dict(series_spec(series=False))
        assert spec_to_dict(series_spec())["series"] is True

    def test_series_changes_the_cache_key(self):
        assert spec_key(series_spec()) != spec_key(series_spec(series=False))

    def test_series_field_round_trips(self):
        spec = series_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_plain_spec_has_no_series_artifact(self, tmp_path):
        spec = series_spec(series=False)
        grid = run_grid([spec], jobs=1, cache_dir=tmp_path)
        assert grid.series == {}
        entry, _ = read_verified(ResultCache(tmp_path).path_for(spec_key(spec)))
        assert set(entry) == {"version", "key", "spec", "result"}

    def test_pooled_series_run_matches_plain_run(self, tmp_path):
        """Recording the series inside pool workers does not perturb results."""
        spec = series_spec()
        a = run_grid([spec], jobs=2, cache_dir=tmp_path / "a")
        b = run_grid([spec.with_(series=False)], jobs=2, cache_dir=tmp_path / "b")
        assert spec in a.series
        assert encode_result(a[spec]) == encode_result(b[spec.with_(series=False)])

    def test_grid_caches_and_replays_series(self, tmp_path):
        spec = series_spec()
        cold = run_grid([spec], jobs=1, cache_dir=tmp_path)
        assert (cold.executed, cold.cache_hits) == (1, 0)
        entry, _ = read_verified(ResultCache(tmp_path).path_for(spec_key(spec)))
        assert entry["series"] == cold.series[spec]
        warm = run_grid([spec], jobs=1, cache_dir=tmp_path)
        assert (warm.executed, warm.cache_hits) == (0, 1)
        assert warm.series[spec] == cold.series[spec]
        assert reconcile_series(warm.series[spec], warm[spec]) == []

    def test_missing_series_artifact_demotes_hit_to_miss(self, tmp_path):
        spec = series_spec()
        run_grid([spec], jobs=1, cache_dir=tmp_path)
        path = ResultCache(tmp_path).path_for(spec_key(spec))
        entry, _ = read_verified(path)
        del entry["series"]
        path.write_text(attach_footer(json.dumps(entry, sort_keys=True)))
        again = run_grid([spec], jobs=1, cache_dir=tmp_path)
        assert (again.executed, again.cache_hits) == (1, 0)
        assert spec in again.series

    def test_series_artifact_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        spec = series_spec()
        run_grid([spec], jobs=1, cache_dir=a)
        run_grid([spec], jobs=1, cache_dir=b)
        pa = ResultCache(a).path_for(spec_key(spec))
        pb = ResultCache(b).path_for(spec_key(spec))
        assert pa.read_bytes() == pb.read_bytes()  # the entry holds the series


class TestObsWiring:
    def test_series_json_requires_enablement(self):
        obs = Observability(ObsConfig())
        with pytest.raises(ValueError, match="series"):
            obs.series_json()

    def test_obs_json_schema_unchanged_by_series(self):
        on = Observability(ObsConfig(series=True))
        off = Observability(ObsConfig())
        assert set(on.to_json_dict()) == set(off.to_json_dict())
