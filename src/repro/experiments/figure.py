"""The paper's A/B figures (§6): one driver, one result type.

Figs. 4–6 and Tables 2–4 all come from one measurement: the same
workload on the same machine with the same seed, where only the guest's
tick management differs (tickless vs paratick). Each figure is a list
of per-benchmark comparisons plus their average. :func:`run_ab` runs the
A/B pairs as one grid and folds each pair into a
:class:`~repro.metrics.report.Comparison`; :class:`Figure` renders the
result as the paper's table, as an ASCII figure, or as CSV (one row per
benchmark/category, one column per metric) for any plotting tool.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec, run_grid
from repro.metrics.chart import comparison_panels
from repro.metrics.report import Comparison, compare_runs, format_table


@dataclass(frozen=True)
class Figure:
    """One paper figure: per-benchmark comparisons plus their average."""

    title: str
    rows: list[Comparison]
    aggregate: Comparison
    #: Header of the label column: "benchmark" (Figs. 4/5) or "category".
    label_header: str = "benchmark"
    #: Fig. 6 reports I/O throughput where Figs. 4/5 report system
    #: throughput; the table column, chart panel and CSV column follow.
    io_throughput: bool = False

    def render(self) -> str:
        """The table: one row per benchmark, then the average."""
        return format_table(
            [self.label_header, "VM exits",
             "I/O throughput" if self.io_throughput else "throughput", "exec time"],
            [c.row() for c in [*self.rows, self.aggregate]],
            title=self.title,
        )

    def chart(self) -> str:
        """The figure's three panels as ASCII bars (average excluded)."""
        return comparison_panels(self.rows, metric_titles=(
            "(a) VM exits",
            "(b) I/O throughput" if self.io_throughput else "(b) system throughput",
            "(c) execution time",
        ))

    def csv(self) -> str:
        """The figure's data series as CSV text (average as last row)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("label", "vm_exits",
                         "io_throughput" if self.io_throughput else "throughput",
                         "exec_time"))
        for c in [*self.rows, self.aggregate]:
            writer.writerow([c.label, f"{c.vm_exits:.6f}", f"{c.throughput:.6f}",
                             f"{c.exec_time:.6f}"])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> Path:
        """Write :meth:`csv` to ``path`` (parents created); returns the path."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.csv())
        return p


def ab_specs(workload: WorkloadSpec, *, seed: int, label: str,
             **knobs: Any) -> tuple[RunSpec, RunSpec]:
    """The paper's A/B pair: same workload/seed/knobs, tickless vs paratick."""
    base = RunSpec(workload=workload, tick_mode=TickMode.TICKLESS, seed=seed,
                   label=f"{label}/{TickMode.TICKLESS.value}", **knobs)
    cand = base.with_(tick_mode=TickMode.PARATICK,
                      label=f"{label}/{TickMode.PARATICK.value}")
    return base, cand


def run_ab(
    pairs: Sequence[tuple[str, WorkloadSpec]],
    *,
    seed: int,
    prefix: str = "",
    compare: Callable[..., Comparison] = compare_runs,
    knobs: Optional[dict[str, Any]] = None,
    use_cache: bool = False,
    **engine: Any,
) -> list[Comparison]:
    """Run every ``(label, workload)`` pair tickless vs paratick, as one grid.

    Each pair's specs are labelled ``<prefix><label>/<mode>`` and carry
    ``knobs`` (extra :class:`RunSpec` fields); ``compare(base, cand,
    label)`` folds each finished pair into a comparison. ``engine``
    (``jobs``, ``cache_dir``, ``progress``, ``telemetry``) goes to
    :func:`~repro.experiments.parallel.run_grid`.
    """
    specs = [ab_specs(ws, seed=seed, label=prefix + label, **(knobs or {}))
             for label, ws in pairs]
    grid = run_grid([s for ab in specs for s in ab], use_cache=use_cache,
                    **engine).raise_if_failed()
    return [compare(grid[base], grid[cand], label)
            for (label, _), (base, cand) in zip(pairs, specs)]
