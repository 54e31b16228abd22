"""One pass of a workload in a fresh interpreter; prints one JSON line.

A pass prepares the workload (imports, grid expansion), runs the grid
against an empty cache (cold) and then :data:`WARM_RUNS` more times
against the now-filled cache (warm), checks the results, and reports
its timings, peak memory and result digest. ``run.py`` starts passes;
a pass is not meant to be run by hand.

With ``--trace`` the cold grid and one warm grid run under the
profiler and the pass reports the per-layer attribution instead of
memory.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPRO_DIR = HERE.parent / "src" / "repro"
#: Warm grid runs per pass; the pass's warm_wall_s is their median.
WARM_RUNS = 20


def _dir_bytes(root: str) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _run_grid(run, cache_dir, progress, probe=None):
    """``(grids, wall_s, error)`` of one run of the workload's grid.

    With a ``probe``, the run (and only the run) is profiled.
    """
    from repro.errors import ReproError

    from workloads import capture_grids

    error = None
    with capture_grids() as grids:
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        try:
            run(cache_dir, progress)
        except ReproError as exc:
            error = repr(exc)
        wall = time.perf_counter() - t0
        if probe is not None:
            probe.stop()
    return grids, wall, error


def one_pass(args) -> dict:
    sys.path.insert(0, str(REPRO_DIR.parent))
    from workloads import WORKLOADS, cell_bytes, digest

    run = WORKLOADS[args.workload](args.seed, args.scale)

    from attribution import Probe, attribute

    work = Path(tempfile.mkdtemp(dir=args.work))
    cache_dir = str(work / "cache")
    probe = Probe(trace=args.trace, out_dir=work)
    durations: list[float] = []

    def progress(event) -> None:
        if event.status == "ran" and event.duration_s is not None:
            durations.append(event.duration_s)

    traced = probe if args.trace else None
    grids, wall, error = _run_grid(run, cache_dir, progress, traced)
    first_cell = probe.first_cell
    cold = cell_bytes(grids)
    out = {
        "trace": args.trace,
        "cells": len(cold),
        "failed": sum(len(g.failed_specs) for g in grids),
        "error": error,
        "digest": digest(cold),
        "wall_s": wall,
        "setup_s": None if first_cell is None else first_cell - args.spawned,
        "cache_bytes": _dir_bytes(cache_dir),
        "exits": sum(r.total_exits for g in grids for r in g.ordered() if r is not None),
        "cell_durations": durations,
    }

    warm_walls, warm_drift, hits = [], 0, []
    for i in range(1 if args.trace else WARM_RUNS):
        grids, warm_wall, warm_error = _run_grid(run, cache_dir, None, traced)
        warm_walls.append(warm_wall)
        hits.append(sum(g.cache_hits for g in grids))
        out["error"] = out["error"] or warm_error
        if i == 0:
            warm = cell_bytes(grids)
            warm_drift = (len(cold) if len(warm) != len(cold)
                          else sum(a != b for a, b in zip(cold, warm)))
    for child in multiprocessing.active_children():
        child.join()
    out.update(warm_wall_s=statistics.median(warm_walls), warm_drift=warm_drift,
               cache_hits=min(hits))
    if args.trace:
        stats, events, sim_ns = probe.collect()
        out.update(attribute(stats, str(REPRO_DIR)), events=events, sim_ns=sim_ns)
    else:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out["peak_rss_mb"] = peak_kb / 1024
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--work", required=True, help="directory for the pass's cache")
    print(json.dumps(one_pass(ap.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
