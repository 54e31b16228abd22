"""The benchmark's four workloads, each run through the entry point the CLI uses.

:data:`WORKLOADS` maps each name to a ``prepare(seed, scale)``.
Preparing imports what the workload needs and expands its grid; that is
the set-up ``setup_s`` times. The prepared ``run(cache_dir, progress)``
then executes the whole grid the way ``python -m repro ... --cache-dir
DIR`` does. The per-cell results are read from the grids the entry
point ran (:func:`capture_grids`), so the entry points stay untouched.
``scale`` is ``"bench"`` (what BENCHMARK.json measures) or ``"smoke"``
(the same grid shapes at a tiny size, for the self-test).

Every workload is a closed loop: a grid cell starts only when a worker
is free, and the grid ends when its last cell settles. Why each
workload was chosen is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tomllib
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent

#: Workers of the one pooled workload: two, or fewer on a smaller host.
FLEET_JOBS = min(2, os.cpu_count() or 1)

Run = Callable[[str, Callable[[Any], None]], Any]


def _parsec_mt(seed: int, scale: str) -> Run:
    from repro.experiments import table3_fig5
    from repro.experiments.scenarios import MEDIUM
    from repro.workloads.parsec import BENCHMARK_NAMES

    benches, budget = ((BENCHMARK_NAMES, 40_000_000) if scale == "bench"
                       else (BENCHMARK_NAMES[:2], 2_000_000))

    def run(cache_dir, progress):
        return table3_fig5.run_size(
            MEDIUM, benches=benches, target_cycles=budget, seed=seed, jobs=1,
            cache_dir=cache_dir, use_cache=True, progress=progress)

    return run


def _fio_io(seed: int, scale: str) -> Run:
    from repro.experiments import table4_fig6

    total = (4 << 20) if scale == "bench" else (256 << 10)

    def run(cache_dir, progress):
        return table4_fig6.run(total_bytes=total, seed=seed, jobs=1,
                               cache_dir=cache_dir, use_cache=True,
                               progress=progress)

    return run


def _idle_ticks(seed: int, scale: str) -> Run:
    from repro.experiments import overcommit, table1
    from repro.sim.timebase import MSEC, SEC

    duration = SEC if scale == "bench" else 20 * MSEC

    def run(cache_dir, progress):
        kw = dict(duration_ns=duration, seed=seed, jobs=1, cache_dir=cache_dir,
                  use_cache=True, progress=progress)
        return table1.simulated_cross_check(**kw), overcommit.compare_modes(**kw)

    return run


def _fleet_rack(seed: int, scale: str) -> Run:
    from repro.fleet import aggregate_hosts
    from repro.fleet.run import group_host_cells
    from repro.scenarios import Matrix, run_cells

    path = HERE / "fleet_rack.toml"
    doc = tomllib.loads(path.read_text())
    doc["matrix"]["seeds"] = [seed]
    if scale == "smoke":
        doc["axes"]["fleet"] = ["rack4"]
    cells = Matrix(doc, origin=str(path)).expand()
    groups = group_host_cells(cells)

    def run(cache_dir, progress):
        grid = run_cells(cells, jobs=FLEET_JOBS, cache_dir=cache_dir,
                         use_cache=True, progress=progress).raise_if_failed()
        return {key: aggregate_hosts([grid[s] for s in specs])
                for key, specs in groups.items()}

    return run


WORKLOADS: dict[str, Callable[[int, str], Run]] = {
    "parsec_mt": _parsec_mt,
    "fio_io": _fio_io,
    "idle_ticks": _idle_ticks,
    "fleet_rack": _fleet_rack,
}


@contextlib.contextmanager
def capture_grids() -> Iterator[list]:
    """Collect every ``GridResult`` the entry points produce, in call order.

    Replaces ``run_grid`` in each loaded ``repro`` module that bound it
    by name, for the duration of the block.
    """
    from repro.experiments import parallel

    real = parallel.run_grid
    grids: list = []

    def run_grid(*args, **kwargs):
        grid = real(*args, **kwargs)
        grids.append(grid)
        return grid

    holders = [m for name, m in list(sys.modules.items())
               if name.startswith("repro.") and getattr(m, "run_grid", None) is real]
    for module in holders:
        module.run_grid = run_grid
    try:
        yield grids
    finally:
        for module in holders:
            module.run_grid = real


def cell_bytes(grids: list) -> list[bytes | None]:
    """Canonical result bytes of every cell, in spec order (None if failed)."""
    from repro.scenarios.runcheck import canonical_result_bytes

    return [None if r is None else canonical_result_bytes(r)
            for grid in grids for r in grid.ordered()]


def digest(cells: list[bytes | None]) -> str:
    """SHA-256 over the canonical result bytes of all cells, in order."""
    h = hashlib.sha256()
    for blob in cells:
        h.update(blob if blob is not None else b"<failed>")
        h.update(b"\n")
    return h.hexdigest()
