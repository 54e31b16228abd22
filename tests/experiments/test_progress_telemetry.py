"""Progress-callback and harness-telemetry behavior of ``run_grid``.

Covers the extended :class:`ProgressEvent` (per-attempt wall-clock,
cache-hit flag) across every settle path — ran, cached, retry, timeout,
failed — plus the two house guarantees of the telemetry subsystem:
a raising callback is contained (never sinks the grid), and a detached
grid (``telemetry=None``) loads no ``repro.obs`` module at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.config import TickMode
from repro.experiments import parallel
from repro.experiments.parallel import (
    ProgressEvent,
    RunSpec,
    WorkloadSpec,
    encode_result,
    register_workload,
    run_grid,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.harness import HarnessTelemetry


def _boom_factory(**kw):
    raise RuntimeError("boom")


def _sleep_factory(seconds=5.0, **kw):
    time.sleep(seconds)
    raise AssertionError("unreachable: the per-run alarm should fire first")


register_workload("test.boom", _boom_factory)
register_workload("test.sleep", _sleep_factory)


def cheap_spec(seed: int = 0, **changes) -> RunSpec:
    spec = RunSpec(
        WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000),
        tick_mode=TickMode.PARATICK,
        seed=seed,
        noise=False,
    )
    return spec.with_(**changes) if changes else spec


def _obs_modules_after_detached_grid(code: str) -> list:
    """Run ``code`` (a detached grid) in a fresh interpreter; return the
    ``repro.obs`` modules it loaded."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    script = (
        "import json, sys\n"
        "from repro.config import TickMode\n"
        "from repro.experiments.parallel import RunSpec, WorkloadSpec, run_grid\n"
        "def cell(seed):\n"
        "    return RunSpec(WorkloadSpec.make('micro.pingpong', rounds=40,\n"
        "                   work_cycles=10_000), tick_mode=TickMode.PARATICK,\n"
        "                   seed=seed, noise=False)\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.obs'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


# --------------------------------------------------------------------------
# ProgressEvent extensions
# --------------------------------------------------------------------------


class TestProgressEvent:
    def test_new_fields_are_defaulted(self):
        # Pre-telemetry construction sites must keep working unchanged.
        ev = ProgressEvent(cheap_spec(), "ran", 1, 2)
        assert ev.duration_s is None
        assert ev.cache_hit is False

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_ran_events_carry_wall_clock(self, jobs):
        events = []
        run_grid([cheap_spec(seed=s) for s in (0, 1)], jobs=jobs,
                 use_cache=False, progress=events.append)
        assert [e.status for e in events] == ["ran", "ran"]
        for e in events:
            assert isinstance(e.duration_s, float) and e.duration_s >= 0
            assert e.cache_hit is False

    def test_cached_events_flagged(self, tmp_path):
        spec = cheap_spec()
        run_grid([spec], jobs=1, cache_dir=tmp_path)
        events = []
        run_grid([spec], jobs=1, cache_dir=tmp_path, progress=events.append)
        [ev] = events
        assert ev.status == "cached"
        assert ev.cache_hit is True
        assert ev.duration_s is None  # nothing executed

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_retry_and_failed_events_carry_duration(self, jobs):
        boom = RunSpec(WorkloadSpec.make("test.boom"))
        events = []
        grid = run_grid([boom], jobs=jobs, use_cache=False, retries=1,
                        progress=events.append)
        assert not grid.complete
        assert [e.status for e in events] == ["retry", "failed"]
        for e in events:
            assert isinstance(e.duration_s, float) and e.duration_s >= 0

    def test_timeout_events_carry_duration(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_S", 0.2)
        stuck = RunSpec(WorkloadSpec.make("test.sleep", seconds=30.0))
        events = []
        run_grid([stuck], jobs=1, use_cache=False, retries=0, progress=events.append)
        [ev] = events
        assert ev.status == "failed" and "RunTimeout" in ev.error
        assert ev.duration_s >= 0.2


class TestCallbackContainment:
    def test_raising_callback_warns_once_and_grid_completes(self):
        specs = [cheap_spec(seed=s) for s in (0, 1, 2)]
        calls = []

        def bad(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="progress callback disabled"):
            grid = run_grid(specs, jobs=1, use_cache=False, progress=bad)
        assert grid.complete and grid.executed == 3
        assert len(calls) == 1, "disabled after the first raise"


# --------------------------------------------------------------------------
# Harness telemetry through the grid
# --------------------------------------------------------------------------


class TestGridTelemetry:
    def test_counters_and_spans_match_outcomes(self, tmp_path):
        tel = HarnessTelemetry()
        specs = [cheap_spec(seed=s) for s in (0, 1)]
        cold = run_grid(specs, jobs=1, cache_dir=tmp_path, telemetry=tel)
        warm = run_grid(specs, jobs=1, cache_dir=tmp_path, telemetry=tel)
        # The RunReport is the one count of each outcome.
        assert (cold.report.executed, cold.report.cache_hits) == (2, 0)
        assert (warm.report.executed, warm.report.cache_hits) == (0, 2)
        instants = [i.name for i in tel.instants()]
        assert instants.count("cache.miss") == 2
        assert instants.count("cache.write") == 2
        assert instants.count("cache.hit") == 2
        names = [s.name for s in tel.spans()]
        assert names.count("grid.run") == 2
        assert names.count("shard.execute") == 2

    def test_failure_paths_recorded(self):
        tel = HarnessTelemetry()
        boom = RunSpec(WorkloadSpec.make("test.boom"))
        grid = run_grid([boom], jobs=1, use_cache=False, retries=1, telemetry=tel)
        assert grid.report.retries == {"error": 1}
        assert grid.report.failures == {"error": 1}
        # Each failed attempt is a span of its submit-to-settle time.
        failed = {s.name: s for s in tel.spans() if s.name.startswith("shard.")}
        assert set(failed) == {"shard.retry", "shard.failed"}
        assert failed["shard.retry"].attrs["attempt"] == 1
        assert failed["shard.failed"].attrs["attempts"] == 2
        assert all(s.dur_ns >= 0 for s in failed.values())

    def test_pool_records_worker_lanes_and_gauge(self):
        tel = HarnessTelemetry()
        specs = [cheap_spec(seed=s) for s in (0, 1, 2)]
        run_grid(specs, jobs=2, use_cache=False, telemetry=tel)
        [grid_span] = [s for s in tel.spans() if s.name == "grid.run"]
        assert grid_span.attrs["jobs"] == 2
        lanes = {s.lane for s in tel.spans() if s.name == "shard.execute"}
        assert lanes and all(lane.startswith("worker-") for lane in lanes)

    def test_grid_attrs_summarize_outcomes(self, tmp_path):
        tel = HarnessTelemetry()
        run_grid([cheap_spec()], jobs=1, cache_dir=tmp_path, telemetry=tel)
        [grid_span] = [s for s in tel.spans() if s.name == "grid.run"]
        assert grid_span.attrs["executed"] == 1
        assert grid_span.attrs["cache_hits"] == 0
        assert grid_span.attrs["failed"] == 0

    def test_exports_validate_after_real_grid(self):
        tel = HarnessTelemetry()
        run_grid([cheap_spec()], jobs=1, use_cache=False, telemetry=tel)
        assert validate_chrome_trace(tel.chrome_trace()) == []


class TestZeroOverheadDetached:
    def test_disabled_telemetry_never_touched(self, tmp_path):
        # A detached grid, cold then warm, loads no observability code.
        code = (f"for _ in range(2):\n"
                f"    g = run_grid([cell(0), cell(1)], jobs=1, cache_dir={str(tmp_path)!r})\n"
                f"    assert g.complete")
        assert _obs_modules_after_detached_grid(code) == []

    def test_disabled_telemetry_on_failure_paths(self):
        # Retry, failure and pool paths of a detached grid load none either.
        code = ("g = run_grid([cell(0), cell(1).with_(workload=WorkloadSpec.make('nope'))],\n"
                "             jobs=2, use_cache=False, retries=1)\n"
                "assert g.report.retries and len(g.failed_specs) == 1 and g.executed == 1")
        assert _obs_modules_after_detached_grid(code) == []

    def test_results_bit_identical_with_and_without_telemetry(self):
        spec = cheap_spec()
        plain = run_grid([spec], jobs=1, use_cache=False)
        observed = run_grid([spec], jobs=1, use_cache=False,
                            telemetry=HarnessTelemetry())
        assert encode_result(plain[spec]) == encode_result(observed[spec])

    def test_cache_bytes_identical_with_and_without_telemetry(self, tmp_path):
        from repro.experiments.parallel import ResultCache, spec_key

        spec = cheap_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        run_grid([spec], jobs=1, cache_dir=a)
        run_grid([spec], jobs=1, cache_dir=b, telemetry=HarnessTelemetry())
        pa = ResultCache(a).path_for(spec_key(spec))
        pb = ResultCache(b).path_for(spec_key(spec))
        # Footer and body must both match: the cache bytes are identical
        # with telemetry on or off.
        assert pa.read_bytes() == pb.read_bytes()


# --------------------------------------------------------------------------
# Satellite: run-summary helpers every driver prints
# --------------------------------------------------------------------------


class TestRunSummaryHelpers:
    def test_format_run_summary_counts_everything(self, tmp_path):
        from repro.fleet.report import format_run_summary

        boom = RunSpec(WorkloadSpec.make("test.boom"))
        good = cheap_spec()
        run_grid([good], jobs=1, cache_dir=tmp_path)
        grid = run_grid([good, boom], jobs=1, cache_dir=tmp_path, retries=0)
        assert format_run_summary("mygrid", grid) == \
            "mygrid: 2 cell(s), 1 cached, 0 executed, 1 FAILED"

    def test_failed_lines_carry_error_and_attempts(self):
        from repro.fleet.report import failed_lines

        boom = RunSpec(WorkloadSpec.make("test.boom"))
        grid = run_grid([boom], jobs=1, use_cache=False, retries=1)
        [line] = failed_lines(grid)
        assert line.startswith("[FAIL]")
        assert "boom" in line and "2 attempts" in line
