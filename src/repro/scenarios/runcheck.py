"""Run and check expanded scenario cells.

Three entry points, all over the shared :class:`~repro.scenarios.matrix.Cell`
representation (hand-written matrices and fuzz expansions alike):

* :func:`check_cell` / :func:`check_cells` — serial **conformance** runs:
  every cell executes under the full :class:`~repro.analysis.checkers.TickSanitizer`
  (including the perturbation-aware suspend-span / restore-rearm /
  hotplug checkers) with a :class:`~repro.obs.steal.StealTracker` teed
  onto the same event stream, then goes through the reconcile battery.
* :func:`run_cells` — throughput path: compile to specs and hand the
  grid to :func:`repro.experiments.parallel.run_grid` (cache + workers).
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
from repro.experiments.parallel import GridResult, RunSpec, _keep_timer, run_grid
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


def check_cell(cell: Cell) -> CellCheck:
    """Execute one cell serially under the sanitizer + reconcile battery.

    Mirrors :func:`repro.experiments.parallel.execute_spec` (costs,
    keep-timer policy, horizon default) but wraps the run in the tracer
    stack the fuzz harness uses, so matrix cells and fuzz scenarios are
    checked to exactly the same standard.
    """
    from repro.experiments.parallel import FLEET_HOST
    from repro.experiments.runner import DEFAULT_HORIZON_NS, run_workload
    from repro.host.costs import DEFAULT_COSTS
    from repro.obs.steal import StealTracker
    from repro.sim.trace import TeeTracer

    spec = cell.spec
    sanitizer = TickSanitizer(mode=spec.tick_mode)
    steal = StealTracker()
    internals: dict = {}

    def inspect(sim, machine, hv, vm) -> None:
        internals["machine"] = machine
        internals["now"] = sim.now
        internals["hv"] = hv

    costs = DEFAULT_COSTS
    if spec.cost_overrides:
        costs = costs.with_overrides(**dict(spec.cost_overrides))
    try:
        with _keep_timer(spec.keep_timer_on_idle_exit):
            if spec.workload.kind == FLEET_HOST:
                # A fleet host shard: the same tracer stack and the same
                # battery, over the multi-VM host simulation.
                from repro.fleet.hostsim import run_host
                from repro.fleet.spec import fleet_params

                metrics = run_host(
                    tick_mode=spec.tick_mode,
                    seed=spec.seed,
                    tick_hz=spec.tick_hz,
                    noise=spec.noise,
                    cpuidle=spec.cpuidle,
                    costs=costs,
                    features=spec.features,
                    horizon_ns=spec.horizon_ns,
                    label=spec.label or cell.id,
                    perturbations=spec.perturbations,
                    tracer=TeeTracer(sanitizer, steal),
                    inspect=inspect,
                    **fleet_params(spec),
                )
            else:
                metrics = run_workload(
                    spec.workload.build(),
                    tick_mode=spec.tick_mode,
                    vcpus=spec.vcpus,
                    pinned_cpus=spec.pinned_cpus,
                    machine_spec=spec.machine,
                    features=spec.features,
                    costs=costs,
                    tick_hz=spec.tick_hz,
                    seed=spec.seed,
                    noise=spec.noise,
                    cpuidle=spec.cpuidle,
                    device_kind=spec.device_kind,
                    horizon_ns=spec.horizon_ns if spec.horizon_ns is not None else DEFAULT_HORIZON_NS,
                    label=spec.label or cell.id,
                    perturbations=spec.perturbations,
                    tracer=TeeTracer(sanitizer, steal),
                    inspect=inspect,
                )
    except ReproError as exc:
        sanitizer.finish()
        return CellCheck(cell, None, [f"run failed: {type(exc).__name__}: {exc}"],
                         events=sanitizer.events)
    problems = [str(v) for v in sanitizer.finish()]
    machine_spec = spec.machine if spec.machine is not None else MachineSpec()
    problems += reconcile_run(
        sanitizer, metrics,
        freq_hz=machine_spec.freq_hz,
        machine=internals.get("machine"),
        now_ns=internals.get("now"),
        steal_tracker=steal,
        hv=internals.get("hv"),
    )
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
    """Run cells through the parallel engine (cache, workers, retries)."""
    return run_grid([c.spec for c in cells], **grid_kwargs)


def run_cells_resumable(
    cells: Iterable[Cell],
    *,
    journal=None,
    resume=None,
    **grid_kwargs: Any,
) -> GridResult:
    """:func:`run_cells` with crash-safe journaling and ``--resume``.

    ``journal`` (a path) records every cell's lifecycle durably;
    ``resume`` (a path) replays a previous journal, skipping completed
    cells after re-verifying their cached bytes. Resuming without a
    separate ``journal`` appends the new lifecycle to the resumed file
    — the common ``--resume run.journal`` shape. Raises
    :class:`~repro.resilience.journal.ResumeError` when the matrix no
    longer matches the journaled grid.
    """
    if resume is not None and journal is None:
        journal = resume
    return run_grid([c.spec for c in cells], journal=journal, resume=resume,
                    **grid_kwargs)


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
