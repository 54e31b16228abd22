"""Run and check expanded scenario cells.

Three entry points, all over the shared :class:`~repro.scenarios.matrix.Cell`
representation (hand-written matrices and fuzz expansions alike):

* :func:`check_cell` / :func:`check_cells` — serial **conformance** runs:
  every cell's spec executes through :func:`sanitized_run`, the one
  sanitized run in the repo: the engine's own ``RunSpec`` translation
  under the full :class:`~repro.analysis.checkers.TickSanitizer`
  (including the perturbation-aware suspend-span / restore-rearm /
  hotplug checkers) with a :class:`~repro.obs.steal.StealTracker` teed
  onto the same event stream, then the reconcile battery.
* :func:`run_cells` — throughput path: compile to specs and hand the
  grid to :func:`repro.experiments.parallel.run_grid` (cache, workers,
  journal and resume).
* :func:`identity_problems` — the determinism gate: the same cells run
  serially, pooled, and from a warm cache must produce **byte-identical**
  canonical metrics. :func:`_identity_runs` is the four-way run behind
  it, shared with the fleet gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.analysis.checkers import TickSanitizer
from repro.analysis.reconcile import reconcile_run
from repro.config import MachineSpec
from repro.errors import ReproError
from repro.experiments.parallel import GridResult, RunSpec, execute_spec_full, run_grid
from repro.metrics.perf import RunMetrics
from repro.scenarios.matrix import Cell


@dataclass
class CellCheck:
    """Outcome of one sanitized cell run."""

    cell: Cell
    metrics: Optional[RunMetrics]
    problems: list[str]
    events: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def sanitized_run(spec: RunSpec) -> tuple[Optional[RunMetrics], TickSanitizer, list[str]]:
    """Execute one spec under the sanitizer + reconcile battery.

    The run goes through :func:`repro.experiments.parallel.execute_spec_full`
    with a :class:`TickSanitizer` and a
    :class:`~repro.obs.steal.StealTracker` teed onto its event stream,
    then the reconcile battery cross-checks the trace against the
    counters, the cycle ledger and the runtime steal accounting. Returns
    ``(metrics, sanitizer, problems)``; a run that raises a
    :class:`ReproError` yields ``metrics=None`` and a ``run failed``
    problem instead of a traceback.
    """
    from repro.obs.steal import StealTracker
    from repro.sim.trace import TeeTracer

    sanitizer = TickSanitizer(mode=spec.tick_mode)
    steal = StealTracker()
    internals: dict = {}

    def inspect(sim, machine, hv, vm) -> None:
        internals.update(machine=machine, now=sim.now, hv=hv)

    try:
        metrics = execute_spec_full(
            spec, tracer=TeeTracer(sanitizer, steal), inspect=inspect)[0]
    except ReproError as exc:
        sanitizer.finish()
        return None, sanitizer, [f"run failed: {type(exc).__name__}: {exc}"]
    problems = [str(v) for v in sanitizer.finish()]
    problems += reconcile_run(
        sanitizer, metrics,
        freq_hz=(spec.machine or MachineSpec()).freq_hz,
        machine=internals.get("machine"),
        now_ns=internals.get("now"),
        steal_tracker=steal,
        hv=internals.get("hv"),
    )
    return metrics, sanitizer, problems


def check_cell(cell: Cell) -> CellCheck:
    """Execute one cell serially under :func:`sanitized_run`, so matrix
    cells and fuzz scenarios are checked to exactly the same standard."""
    metrics, sanitizer, problems = sanitized_run(cell.spec)
    return CellCheck(cell, metrics, problems, events=sanitizer.events)


def check_cells(
    cells: Iterable[Cell],
    *,
    progress: Optional[Callable[[CellCheck], None]] = None,
    telemetry=None,
) -> list[CellCheck]:
    """Sanitize every cell; ``progress(check)`` is called per cell.

    ``telemetry`` records a ``check.cell`` span per cell on the
    ``sanitizer`` lane plus pass/fail counters; detached costs one
    boolean check per cell.
    """
    tel = telemetry if (telemetry is not None and telemetry.enabled) else None
    checks = []
    for cell in cells:
        if tel is not None:
            with tel.span("check.cell", lane="sanitizer", cell=cell.id) as attrs:
                check = check_cell(cell)
                attrs.update(ok=check.ok, events=check.events)
            tel.counter("cells_checked", help="sanitizer cells checked",
                        outcome="ok" if check.ok else "failed")
        else:
            check = check_cell(cell)
        checks.append(check)
        if progress is not None:
            progress(check)
    return checks


def run_cells(cells: Iterable[Cell], **grid_kwargs: Any) -> GridResult:
    """Run cells through the parallel engine (cache, workers, retries).

    ``grid_kwargs`` go to :func:`~repro.experiments.parallel.run_grid`,
    including ``journal`` (a path that records every cell's lifecycle
    durably) and ``resume`` (a previous journal to replay, skipping
    completed cells after re-verifying their cached bytes).
    """
    return run_grid([c.spec for c in cells], **grid_kwargs)


def canonical_result_bytes(result: Any) -> bytes:
    """Deterministic byte encoding of a run result (identity compares)."""
    from repro.experiments.parallel import encode_result

    return json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":")).encode()


def _identity_runs(
    labelled: list[tuple[str, RunSpec]],
    *,
    jobs: int,
    cache_dir: str,
    progress: Optional[Callable[[Any], None]],
    noun: str,
) -> tuple[dict[str, GridResult], list[str]]:
    """Run a grid four ways and compare each cell's bytes to the serial run.

    The runs: "serial" and "pooled" without a cache, "warm" (pooled
    into ``cache_dir``) and "cached" (serial, and it must be served
    entirely from that cache). Problems name a cell by the label it is
    paired with in ``labelled``, and count cells as ``noun``. Returns
    the four grids by name, and the problems.
    """
    specs = [spec for _, spec in labelled]
    grids = {
        name: run_grid(specs, jobs=workers, cache_dir=cache_dir, use_cache=cached,
                       progress=progress).raise_if_failed()
        for name, workers, cached in (("serial", None, False), ("pooled", jobs, False),
                                      ("warm", jobs, True), ("cached", None, True))
    }
    problems: list[str] = []
    unique = len(set(specs))
    if grids["cached"].cache_hits != unique:
        problems.append(f"cache replay served {grids['cached'].cache_hits}/{unique} "
                        f"{noun} from the store")
    for label, spec in labelled:
        reference = canonical_result_bytes(grids["serial"][spec])
        for name in ("pooled", "warm", "cached"):
            if canonical_result_bytes(grids[name][spec]) != reference:
                problems.append(f"{label}: {name} result differs from serial run")
    return grids, problems


def identity_problems(
    cells: list[Cell],
    *,
    jobs: int = 2,
    cache_dir: str,
    progress: Optional[Callable[[Any], None]] = None,
) -> list[str]:
    """Check serial / pooled / cached execution agree byte-for-byte.

    See :func:`_identity_runs`; problems are reported per cell ID.
    """
    _, problems = _identity_runs([(c.id, c.spec) for c in cells], jobs=jobs,
                                cache_dir=cache_dir, progress=progress, noun="cells")
    return problems
