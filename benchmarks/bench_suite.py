"""Sim-core benchmark suite and perf-regression gate.

Standalone driver (no pytest-benchmark dependency) that measures the
simulation substrate's hot paths and the end-to-end experiment loop,
then emits ``BENCH_simcore.json``::

    PYTHONPATH=src python benchmarks/bench_suite.py                # print table
    PYTHONPATH=src python benchmarks/bench_suite.py --update      # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_suite.py --check       # CI gate

``--check`` compares fresh ops/sec against the committed baseline
(``BENCH_simcore.json`` at the repo root) and fails when any bench loses
more than ``--threshold`` (default 20%) of its throughput. The two
end-to-end benches are gated on ``model_overhead`` instead (bare-engine
events/sec over their own events/sec, measured in the same process),
which fails when it grows by more than ``--threshold``; their absolute
ops/sec is recorded only. ``--output
writes the fresh measurements as JSON (the CI job uploads it as an
artifact so the trajectory is recorded even on green runs).

The committed baseline is machine-dependent by nature; refresh it with
``--update`` on the reference runner whenever the hot path changes
intentionally (see docs/benchmarking.md for the workflow — speeding
things up also warrants an update, or the gate slowly goes blind).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_simcore.json"
SCHEMA = 1


# ---------------------------------------------------------------- benches


EVENT_QUEUE_OPS = 100_000


def _event_queue_run() -> int:
    """Dispatch ``EVENT_QUEUE_OPS`` chained events on a bare engine."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    remaining = [EVENT_QUEUE_OPS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(10, tick)

    sim.schedule(10, tick)
    sim.run()
    return sim.dispatched


def bench_event_queue_throughput() -> dict:
    """100k chained schedule+dispatch events (mirrors
    benchmarks/bench_engine.py::test_event_queue_throughput)."""
    return _time_best(_event_queue_run, ops=EVENT_QUEUE_OPS, expect=EVENT_QUEUE_OPS)


def bench_rearm_churn() -> dict:
    """100k Simulator.rearm cycles on one handle — the periodic-tick /
    preemption-timer fast path introduced with the free-list engine."""
    from repro.sim.engine import Simulator

    ops = 100_000

    def run() -> int:
        sim = Simulator()
        remaining = [ops]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.rearm(handle, sim.now + 10)

        handle = sim.schedule(10, tick)
        sim.run()
        return sim.dispatched

    return _time_best(run, ops=ops, expect=ops)


def bench_cancel_rearm_storm() -> dict:
    """50k arm/cancel/re-arm triples: lazy-deletion + compaction path."""
    from repro.sim.engine import Simulator

    ops = 50_000

    def run() -> int:
        sim = Simulator()
        remaining = [ops]

        def fire():
            remaining[0] -= 1
            if remaining[0] > 0:
                ev = sim.schedule(20, fire)
                sim.cancel(ev)
                sim.schedule(10, fire)

        sim.schedule(10, fire)
        sim.run()
        return sim.dispatched

    return _time_best(run, ops=ops, expect=ops)


def bench_timer_wheel_churn() -> dict:
    """Add/advance/fire 20k wheel timers across levels."""
    from repro.guest.timerwheel import TimerWheel

    ops = 20_000

    def run() -> int:
        w = TimerWheel()
        for i in range(ops):
            w.add(1 + (i * 37) % 70_000, lambda: None)
        return len(w.advance_to(70_001))

    return _time_best(run, ops=ops, expect=ops)


def bench_hrtimer_queue_churn() -> dict:
    """Interleaved add/cancel/rearm/pop on the hrtimer heap."""
    from repro.guest.hrtimer import HrtimerQueue

    ops = 10_000

    def run() -> int:
        q = HrtimerQueue()
        handles = []
        for i in range(ops):
            handles.append(q.add((i * 13) % 50_000, lambda: None))
        for h in handles[::3]:
            q.cancel(h)
        for h in handles[::3]:
            q.rearm(h, h.expires_ns + 7)
        return len(q.pop_expired(50_007))

    return _time_best(run, ops=ops, expect=ops)


def run_syncstorm_smoke(inspect: Callable[..., None]) -> None:
    """One syncstorm_smoke run; ``inspect`` gets its finished simulator."""
    from repro.config import TickMode
    from repro.experiments.runner import run_workload
    from repro.workloads.micro import SyncStormWorkload

    run_workload(
        SyncStormWorkload(threads=4, events_per_second=4000.0,
                          duration_cycles=60_000_000),
        tick_mode=TickMode.TICKLESS,
        seed=9,
        inspect=inspect,
    )


def run_fleet_host_smoke(inspect: Callable[..., None]) -> None:
    """One fleet_host_smoke run; ``inspect`` gets its finished simulator."""
    from repro.config import TickMode
    from repro.fleet.hostsim import run_host
    from repro.sim.timebase import MSEC

    run_host(
        guest_kind="micro.pingpong",
        guest_params={"rounds": 10, "work_cycles": 20_000,
                      "same_vcpu": False},
        guests=6,
        consolidation=4,
        tick_mode=TickMode.PARATICK,
        burst="poisson",
        burst_window_ns=2 * MSEC,
        seed=7,
        horizon_ns=400 * MSEC,
        inspect=inspect,
    )


def bench_syncstorm_smoke() -> dict:
    """End-to-end experiment loop: sync-heavy workload, tickless mode.

    ops/sec here is *modelled events* per wall-clock second — the
    figure the experiment sweeps are bottlenecked on.
    """
    return _end_to_end(run_syncstorm_smoke)


def bench_fleet_host_smoke() -> dict:
    """End-to-end fleet shard: one overcommitted host packing 6 guests
    at oc4 with poisson arrivals, paratick mode.

    This is the unit the fleet layer fans out per host — its wall clock
    bounds how fast a rack sweeps through ``repro.experiments.parallel``.
    Like syncstorm_smoke, ops/sec is modelled events per second, and
    the gate is on ``model_overhead``.
    """
    return _end_to_end(run_fleet_host_smoke)


BENCHES: dict[str, Callable[[], dict]] = {
    "event_queue_throughput": bench_event_queue_throughput,
    "rearm_churn": bench_rearm_churn,
    "cancel_rearm_storm": bench_cancel_rearm_storm,
    "timer_wheel_churn": bench_timer_wheel_churn,
    "hrtimer_queue_churn": bench_hrtimer_queue_churn,
    "syncstorm_smoke": bench_syncstorm_smoke,
    "fleet_host_smoke": bench_fleet_host_smoke,
}


def _end_to_end(run: Callable[[Callable[..., None]], None], rounds: int = 11) -> dict:
    """Time an end-to-end run; ops are the events it modelled.

    A modelled event is one the engine popped from its heap
    (``dispatched``) or one continuation it fast-forwarded to and ran
    inline (``fast_forwarded``): the sum is what the run would dispatch
    without fast-forwarding, so the unit stays "bare dispatches per
    modelled event" whichever path ran it.

    End-to-end wall clock swings far more than the microbenches on a
    shared runner, so absolute ops/sec (best round) is recorded but not
    gated (``"gate": false``). What is gated is ``model_overhead``:
    bare-engine events/sec (the ``event_queue_throughput`` loop) over this
    bench's events/sec — how many bare dispatches one modelled event
    costs. Each round times one run of both, back to back, so both sides
    of a round's ratio see the same host conditions; the median over
    rounds is recorded.
    """
    seen = {}
    walls, ratios = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        run(lambda sim, *_: seen.update(sim=sim))
        t1 = time.perf_counter()
        _event_queue_run()
        t2 = time.perf_counter()
        walls.append(t1 - t0)
        ratios.append((t1 - t0) / (t2 - t1))
    sim = seen["sim"]
    ops = sim.dispatched + sim.fast_forwarded
    best = min(walls)
    return {"wall_s": round(best, 6), "repeats": rounds, "ops": ops,
            "dispatched": sim.dispatched, "fast_forwarded": sim.fast_forwarded,
            "ops_per_sec": round(ops / best, 1), "gate": False,
            "model_overhead": round(statistics.median(ratios) * EVENT_QUEUE_OPS / ops, 3)}


def _time_best(run: Callable[[], int], *, ops: int | None,
               expect: int | None = None, repeats: int = 5) -> dict:
    """Best-of-N wall clock (min is the standard noise filter for
    throughput benches: interference only ever adds time)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        dt = time.perf_counter() - t0
        best = min(best, dt)
    if expect is not None and result != expect:
        raise AssertionError(f"bench returned {result}, expected {expect}")
    out = {"wall_s": round(best, 6), "repeats": repeats}
    if ops is not None:
        out["ops"] = ops
        out["ops_per_sec"] = round(ops / best, 1)
    return out


# ------------------------------------------------------------------ driver


def run_suite(names: list[str] | None = None, progress: bool = True) -> dict:
    results: dict[str, dict] = {}
    for name, fn in BENCHES.items():
        if names and name not in names:
            continue
        results[name] = fn()
        if progress:
            r = results[name]
            overhead = (f"   model overhead {r['model_overhead']:.2f}"
                        if "model_overhead" in r else "")
            print(f"  {name:<28} {r['wall_s']*1e3:9.1f} ms   "
                  f"{r.get('ops_per_sec', 0):>12,.0f} ops/s{overhead}")
    return {"schema": SCHEMA, "benches": results}


def check(fresh: dict, baseline_path: Path, threshold: float) -> list[str]:
    """Compare fresh ops/sec to the committed baseline; list failures."""
    base = json.loads(baseline_path.read_text())
    if base.get("schema") != SCHEMA:
        return [f"baseline schema {base.get('schema')} != {SCHEMA}; re-run --update"]
    problems: list[str] = []
    for name, want in base["benches"].items():
        got = fresh["benches"].get(name)
        if got is None:
            problems.append(f"{name}: missing from fresh run")
            continue
        base_ops = want.get("ops_per_sec")
        fresh_ops = got.get("ops_per_sec")
        if not base_ops or not fresh_ops:
            continue
        if want.get("gate") is False:
            print(f"  ---  {name:<28} {fresh_ops:>12,.0f} ops/s "
                  f"(recorded, not gated)")
            problems += _check_overhead(name, want, got, threshold)
            continue
        ratio = fresh_ops / base_ops
        status = "OK " if ratio >= 1.0 - threshold else "FAIL"
        print(f"  {status} {name:<28} {fresh_ops:>12,.0f} ops/s "
              f"(baseline {base_ops:,.0f}, {ratio:5.2f}x)")
        if ratio < 1.0 - threshold:
            problems.append(
                f"{name}: throughput {fresh_ops:,.0f} ops/s is "
                f"{(1 - ratio) * 100:.1f}% below baseline {base_ops:,.0f} "
                f"(threshold {threshold * 100:.0f}%)"
            )
    return problems


def _check_overhead(name: str, want: dict, got: dict, threshold: float) -> list[str]:
    """Gate an end-to-end bench on its ``model_overhead`` ratio."""
    base, fresh = want.get("model_overhead"), got.get("model_overhead")
    if not base or not fresh:
        return []
    growth = fresh / base
    status = "OK " if growth <= 1.0 + threshold else "FAIL"
    print(f"  {status} {name + ' model_overhead':<28} {fresh:>12.2f}       "
          f"(baseline {base:.2f}, {growth:5.2f}x)")
    if growth <= 1.0 + threshold:
        return []
    return [f"{name}: model overhead {fresh:.2f} engine events per event is "
            f"{(growth - 1) * 100:.1f}% above baseline {base:.2f} "
            f"(threshold {threshold * 100:.0f}%)"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed baseline; exit 1 on regression")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed baseline from this run")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    ap.add_argument("--output", type=Path, default=None,
                    help="also write fresh results to this JSON file")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional throughput loss (or model-overhead growth) "
                         "that fails --check (default 0.20)")
    ap.add_argument("--bench", action="append", default=None,
                    help="run only the named bench (repeatable)")
    args = ap.parse_args(argv)

    print("sim-core benchmark suite")
    fresh = run_suite(args.bench)

    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if args.update:
        # Historical annotations (e.g. the pre-rewrite engine numbers)
        # survive baseline refreshes.
        if args.baseline.exists():
            prior = json.loads(args.baseline.read_text())
            if "reference" in prior:
                fresh["reference"] = prior["reference"]
        args.baseline.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
        return 0
    if args.check:
        print("perf-regression check:")
        problems = check(fresh, args.baseline, args.threshold)
        for p in problems:
            print(f"REGRESSION: {p}")
        print("perf gate:", "clean" if not problems else f"{len(problems)} regressions")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
