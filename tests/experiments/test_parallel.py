"""Determinism, equivalence, cache and fault-path tests for the
parallel experiment engine (:mod:`repro.experiments.parallel`).

The engine's contract, in test form:

* the same :class:`RunSpec` always produces the identical
  :class:`RunMetrics`, no matter whether it runs in-process or in a
  worker, fresh or from cache;
* the cache is keyed by spec content — any knob change invalidates the
  cell, corruption is discarded rather than fatal;
* a raising, timing-out or crashing cell is retried and then reported
  in ``failed_specs`` without sinking the rest of the grid.
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
import time
import weakref

import pytest

from repro.config import HostFeatures, TickMode
from repro.experiments import parallel
from repro.experiments.figure import run_ab
from repro.experiments.parallel import (
    GridError,
    ResultCache,
    RunSpec,
    WorkloadSpec,
    encode_result,
    execute_spec,
    progress_reporter,
    register_workload,
    run_grid,
    spec_from_dict,
    spec_key,
    spec_to_dict,
)
from repro.experiments.runner import run_comparison, run_replicated_comparison
from repro.metrics.perf import RunMetrics
from repro.resilience.integrity import attach_footer, split_verified
from repro.workloads.micro import PingPongWorkload

# Fault-injection workload factories. Registered at import time in the
# parent process; the fork-based pool inherits the registry, so workers
# can resolve these kinds too.


def _boom_factory(**kw):
    raise RuntimeError("boom")


def _sleep_factory(seconds=5.0, **kw):
    time.sleep(seconds)
    raise AssertionError("unreachable: the per-run alarm should fire first")


def _crash_factory(**kw):
    os._exit(3)  # hard worker death: exercises BrokenProcessPool recovery


register_workload("test.boom", _boom_factory)
register_workload("test.sleep", _sleep_factory)
register_workload("test.crash", _crash_factory)


def cheap_spec(seed: int = 0, **changes) -> RunSpec:
    """A sub-millisecond deterministic cell (40-round ping-pong)."""
    spec = RunSpec(
        WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000),
        tick_mode=TickMode.PARATICK,
        seed=seed,
        noise=False,
    )
    return spec.with_(**changes) if changes else spec


# --------------------------------------------------------------------------
# Spec encoding and keys
# --------------------------------------------------------------------------


def test_spec_key_stable_across_construction():
    a = cheap_spec()
    b = RunSpec(
        WorkloadSpec.make("micro.pingpong", work_cycles=10_000, rounds=40),
        tick_mode=TickMode.PARATICK, seed=0, noise=False,
    )
    assert a == b
    assert spec_key(a) == spec_key(b)


@pytest.mark.parametrize(
    "change",
    [
        {"seed": 1},
        {"tick_mode": TickMode.TICKLESS},
        {"tick_hz": 1000},
        {"noise": True},
        {"cost_overrides": (("pollution", 9000),)},
        {"features": HostFeatures(halt_poll_ns=50_000)},
        {"keep_timer_on_idle_exit": False},
        {"workload": WorkloadSpec.make("micro.pingpong", rounds=41, work_cycles=10_000)},
    ],
    ids=lambda c: next(iter(c)),
)
def test_spec_key_sensitive_to_every_knob(change):
    assert spec_key(cheap_spec()) != spec_key(cheap_spec(**change))


def test_spec_dict_round_trip():
    spec = cheap_spec(
        cost_overrides=(("pollution", 9000),),
        features=HostFeatures(halt_poll_ns=50_000),
        label="rt",
        series=True,
        arch="arm",
    )
    back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert back == spec
    assert spec_key(back) == spec_key(spec)


def test_spec_encoding_has_only_settable_fields():
    """The cache-key input holds every knob a grid can set, and no other."""
    assert set(spec_to_dict(cheap_spec())) == {
        "workload", "tick_mode", "seed", "vcpus", "pinned_cpus", "machine",
        "features", "cost_overrides", "tick_hz", "noise", "cpuidle",
        "horizon_ns", "label", "keep_timer_on_idle_exit", "perturbations",
        "series", "arch",
    }


def test_run_metrics_json_round_trip():
    m = execute_spec(cheap_spec())
    assert isinstance(m, RunMetrics)
    back = RunMetrics.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
    assert back.to_json_dict() == m.to_json_dict()
    assert back.label == m.label
    assert back.exits == m.exits
    assert back.total_exits == m.total_exits


# --------------------------------------------------------------------------
# Determinism and serial/parallel equivalence
# --------------------------------------------------------------------------


def test_same_spec_twice_is_identical():
    spec = cheap_spec()
    assert encode_result(execute_spec(spec)) == encode_result(execute_spec(spec))


def test_serial_and_worker_results_identical():
    specs = [cheap_spec(seed=s, tick_mode=m)
             for s in (0, 1) for m in (TickMode.TICKLESS, TickMode.PARATICK)]
    serial = run_grid(specs, jobs=1, use_cache=False)
    pooled = run_grid(specs, jobs=2, use_cache=False)
    assert serial.complete and pooled.complete
    assert serial.executed == pooled.executed == len(specs)
    for spec in specs:
        assert encode_result(serial[spec]) == encode_result(pooled[spec])


def test_grid_matches_direct_execution():
    spec = cheap_spec(seed=3)
    grid = run_grid([spec], jobs=1, use_cache=False)
    assert encode_result(grid[spec]) == encode_result(execute_spec(spec))


def test_grid_dedups_repeated_specs():
    spec = cheap_spec()
    grid = run_grid([spec, spec, spec], jobs=1, use_cache=False)
    assert grid.executed == 1
    assert len(grid.ordered()) == 3
    assert all(r is grid[spec] for r in grid.ordered())


def test_missing_spec_raises_grid_error():
    grid = run_grid([cheap_spec()], jobs=1, use_cache=False)
    with pytest.raises(GridError):
        grid[cheap_spec(seed=99)]


# --------------------------------------------------------------------------
# Result cache
# --------------------------------------------------------------------------


def test_cache_hit_skips_execution(tmp_path):
    specs = [cheap_spec(seed=s) for s in (0, 1)]
    first = run_grid(specs, jobs=1, cache_dir=tmp_path)
    assert (first.executed, first.cache_hits) == (2, 0)
    second = run_grid(specs, jobs=1, cache_dir=tmp_path)
    assert (second.executed, second.cache_hits) == (0, 2)
    for spec in specs:
        assert encode_result(first[spec]) == encode_result(second[spec])


def test_cached_equals_fresh_bit_for_bit(tmp_path):
    spec = cheap_spec()
    fresh = run_grid([spec], jobs=1, cache_dir=tmp_path)[spec]
    cached = run_grid([spec], jobs=1, cache_dir=tmp_path)[spec]
    assert cached.to_json_dict() == fresh.to_json_dict()


def test_knob_change_invalidates_cache(tmp_path):
    run_grid([cheap_spec()], jobs=1, cache_dir=tmp_path)
    changed = run_grid([cheap_spec(tick_hz=1000)], jobs=1, cache_dir=tmp_path)
    assert (changed.executed, changed.cache_hits) == (1, 0)


def test_use_cache_false_forces_execution(tmp_path):
    spec = cheap_spec()
    run_grid([spec], jobs=1, cache_dir=tmp_path)
    bypass = run_grid([spec], jobs=1, cache_dir=tmp_path, use_cache=False)
    assert (bypass.executed, bypass.cache_hits) == (1, 0)


def test_corrupted_cache_file_discarded_not_fatal(tmp_path):
    spec = cheap_spec()
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec_key(spec))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    grid = run_grid([spec], jobs=1, cache_dir=tmp_path)
    assert (grid.executed, grid.cache_hits) == (1, 0)
    # The corrupt file was replaced by a valid one: next run hits.
    again = run_grid([spec], jobs=1, cache_dir=tmp_path)
    assert (again.executed, again.cache_hits) == (0, 1)


def test_stale_cache_version_discarded(tmp_path):
    spec = cheap_spec()
    cache = ResultCache(tmp_path)
    cache.store(spec, encode_result(execute_spec(spec)))
    path = cache.path_for(spec_key(spec))
    body, status = split_verified(path.read_text())
    assert status == "ok"
    payload = json.loads(body)
    payload["version"] = parallel.CACHE_VERSION + 1
    path.write_text(attach_footer(json.dumps(payload)))
    assert cache.load(spec) == (None, None)
    assert not path.exists(), "stale-format file should be discarded"


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_finished_grid_is_freed_without_a_garbage_collection(tmp_path, jobs):
    # A reference cycle through the cache's quarantine hook would keep
    # every finished grid, with all its results, alive until a full
    # collection: memory then grows with each grid a process runs.
    spec = cheap_spec()
    gc.disable()
    try:
        for _ in ("cold", "warm"):
            grid = weakref.ref(run_grid([spec], jobs=jobs, cache_dir=tmp_path))
            assert grid() is None
    finally:
        gc.enable()


def test_unwritable_cache_store_degrades_to_no_cache(tmp_path):
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("plain file where the cache root should be")
    spec = cheap_spec()
    with pytest.warns(RuntimeWarning, match="result cache disabled"):
        grid = run_grid([spec, cheap_spec(seed=1)], jobs=1, cache_dir=bogus)
    assert grid.complete and grid.executed == 2
    assert grid[spec] is not None


def test_worker_results_land_in_cache(tmp_path):
    specs = [cheap_spec(seed=s) for s in (0, 1)]
    run_grid(specs, jobs=2, cache_dir=tmp_path)
    second = run_grid(specs, jobs=2, cache_dir=tmp_path)
    assert (second.executed, second.cache_hits) == (0, 2)


# --------------------------------------------------------------------------
# Fault paths
# --------------------------------------------------------------------------


def _statuses(events):
    return [e.status for e in events]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_raising_cell_retried_then_reported(jobs):
    boom = RunSpec(WorkloadSpec.make("test.boom"))
    good = [cheap_spec(seed=s) for s in (0, 1)]
    events = []
    grid = run_grid([boom] + good, jobs=jobs, use_cache=False,
                    progress=events.append)
    assert not grid.complete
    [failed] = grid.failed_specs
    assert failed.spec == boom
    assert failed.attempts == 2, "one automatic retry, then reported"
    assert "boom" in failed.error
    # The rest of the grid completed regardless.
    for spec in good:
        assert grid[spec] is not None
    assert _statuses(events).count("retry") == 1
    with pytest.raises(GridError, match="failed"):
        grid.raise_if_failed()


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_timeout_enforced_per_run(jobs, monkeypatch):
    monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_S", 0.2)
    stuck = RunSpec(WorkloadSpec.make("test.sleep", seconds=30.0))
    grid = run_grid([stuck], jobs=jobs, use_cache=False, retries=0)
    [failed] = grid.failed_specs
    assert "RunTimeout" in failed.error
    assert failed.attempts == 1


def test_worker_crash_recovered_gracefully():
    """A worker dying mid-run (os._exit) breaks the pool; the engine
    rebuilds it and reports the casualty instead of raising."""
    crash = RunSpec(WorkloadSpec.make("test.crash"))
    grid = run_grid([crash], jobs=2, use_cache=False, retries=1)
    assert grid.results == {}
    [failed] = grid.failed_specs
    assert failed.spec == crash
    assert failed.attempts == 2
    # The engine is fully usable afterwards.
    spec = cheap_spec()
    assert run_grid([spec], jobs=2, use_cache=False).complete


def test_failed_cells_leave_holes_in_ordered():
    boom = RunSpec(WorkloadSpec.make("test.boom"))
    good = cheap_spec()
    grid = run_grid([boom, good], jobs=1, use_cache=False, retries=0)
    assert grid.ordered()[0] is None
    assert grid.ordered()[1] is grid[good]


# --------------------------------------------------------------------------
# Progress reporting
# --------------------------------------------------------------------------


def test_progress_reporter_tallies_and_prints(tmp_path):
    specs = [cheap_spec(seed=s) for s in (0, 1)]
    boom = RunSpec(WorkloadSpec.make("test.boom"), label="boom")
    out = io.StringIO()
    cb = progress_reporter(stream=out)
    run_grid(specs, jobs=1, cache_dir=tmp_path, progress=cb)
    run_grid(specs, jobs=1, cache_dir=tmp_path, progress=cb)
    run_grid([boom], jobs=1, cache_dir=tmp_path, progress=cb, retries=0)
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 5
    assert [line.split()[1] for line in lines] == ["ran"] * 2 + ["cached"] * 2 + ["failed"]
    assert all("micro.pingpong" in line for line in lines[:4])
    # The error comes before the attempt's wall time, as `repro` prints it.
    assert re.fullmatch(r"\[1/1\] failed boom \(.+\) \[\d+\.\d\ds\]", lines[4]), lines[4]


# --------------------------------------------------------------------------
# Comparison drivers on top of the engine
# --------------------------------------------------------------------------


def _workload_spec():
    return WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000)


def _workload():
    return PingPongWorkload(rounds=40, work_cycles=10_000)


def test_run_comparison_propagates_label_into_runs():
    comp, base, cand = run_comparison(_workload(), label="mylabel", noise=False)
    assert comp.label == "mylabel"
    assert base.label == "mylabel/tickless"
    assert cand.label == "mylabel/paratick"


def test_run_comparison_default_label_is_workload_name():
    comp, base, cand = run_comparison(_workload(), noise=False)
    assert comp.label == "micro.pingpong"
    assert base.label == "micro.pingpong/tickless"


def test_replicated_comparison_engine_matches_serial_loop():
    seeds = (0, 1)
    mean, sds = run_replicated_comparison(
        _workload_spec(), seeds=seeds, noise=False, jobs=2
    )
    expected = [run_comparison(_workload(), seed=s, noise=False)[0] for s in seeds]
    assert mean.label == "micro.pingpong"
    assert mean.vm_exits == pytest.approx(
        sum(c.vm_exits for c in expected) / len(expected))
    assert mean.exec_time == pytest.approx(
        sum(c.exec_time for c in expected) / len(expected))
    assert set(sds) == {"vm_exits", "throughput", "exec_time"}


def test_replicated_comparison_uses_cache(tmp_path):
    events = []
    run_replicated_comparison(
        _workload_spec(), seeds=(0, 1), noise=False,
        cache_dir=tmp_path, use_cache=True, progress=events.append,
    )
    run_replicated_comparison(
        _workload_spec(), seeds=(0, 1), noise=False,
        cache_dir=tmp_path, use_cache=True, progress=events.append,
    )
    assert _statuses(events).count("ran") == 4
    assert _statuses(events).count("cached") == 4


def test_replicated_comparison_and_figure_share_spec_keys(tmp_path):
    """One A/B spec builder: a replication's cells are the figure driver's
    cells, so the figure grid is served entirely from the same cache."""
    ws, seed = _workload_spec(), 3
    first, second = [], []
    run_replicated_comparison(ws, seeds=(seed,), cache_dir=tmp_path, use_cache=True,
                              progress=first.append)
    run_ab([("micro.pingpong", ws)], seed=seed, cache_dir=tmp_path, use_cache=True,
           progress=second.append)
    assert _statuses(first) == ["ran", "ran"]
    assert _statuses(second) == ["cached", "cached"]
    assert ([spec_key(e.spec) for e in first]
            == [spec_key(e.spec) for e in second])


def test_replicated_comparison_empty_seeds_raises():
    with pytest.raises(ValueError, match="seed"):
        run_replicated_comparison(_workload_spec(), seeds=())


def test_unknown_workload_kind_raises():
    with pytest.raises(GridError, match="unknown workload kind"):
        WorkloadSpec.make("no.such.kind").build()
