"""Table 1 — VM exits of periodic vs tickless for W1–W4 (§3.3).

Two reproductions:

* **analytical** — the §3.1/§3.2 formulas under the bookkeeping
  convention that matches the printed table (see
  :mod:`repro.core.model` for the paper-internal factor-2 note);
* **simulated** — W1 (idle VM) and W3 (sync storm) cross-checked on the
  full simulator at reduced duration, verifying that the mechanical
  exit counts behave like the closed forms predict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TickMode
from repro.core.model import TABLE1_PAPER, table1_row
from repro.metrics.report import format_table
from repro.sim.timebase import SEC


@dataclass(frozen=True)
class Table1Row:
    workload: str
    periodic: int
    tickless: int
    paper_periodic: int
    paper_tickless: int

    @property
    def matches_paper(self) -> bool:
        return (self.periodic, self.tickless) == (self.paper_periodic, self.paper_tickless)


def analytical_rows() -> list[Table1Row]:
    """The four printed rows, recomputed from the formulas."""
    rows = []
    for name in ("W1", "W2", "W3", "W4"):
        periodic, tickless = table1_row(name)
        paper_p, paper_t = TABLE1_PAPER[name]
        rows.append(Table1Row(name, periodic, tickless, paper_p, paper_t))
    return rows


def cross_check_specs(*, duration_ns: int = SEC, seed: int = 0):
    """The W1/W3 cross-check as a declarative grid.

    Returns ``(specs, horizon_map)`` where ``specs`` maps
    ``(workload_name, TickMode)`` to its :class:`RunSpec`.
    """
    from repro.experiments.parallel import RunSpec, WorkloadSpec

    w1 = WorkloadSpec.make("micro.idle", vcpus=16)
    w3 = WorkloadSpec.make(
        "micro.syncstorm", threads=16, events_per_second=1000.0,
        duration_cycles=int(2.2e9 * duration_ns / SEC),
    )
    specs = {}
    for mode in (TickMode.PERIODIC, TickMode.TICKLESS):
        specs[("W1", mode)] = RunSpec(
            w1, tick_mode=mode, seed=seed, noise=False,
            horizon_ns=duration_ns, label=f"W1/{mode.value}",
        )
        specs[("W3", mode)] = RunSpec(
            w3, tick_mode=mode, seed=seed, noise=False,
            horizon_ns=10 * duration_ns, label=f"W3/{mode.value}",
        )
    return specs


def simulated_cross_check(
    *,
    duration_ns: int = SEC,
    seed: int = 0,
    use_cache: bool = False,
    **engine,
) -> dict[str, dict[str, float]]:
    """Simulate W1 and W3 (1 s) and report exits/s per mode.

    W2/W4 are four copies of W1/W3 and add nothing mechanical; the
    analytical model covers their scaling exactly. The four cells run
    through the parallel experiment engine (``--jobs``/cache aware).
    """
    from repro.experiments.parallel import run_grid

    specs = cross_check_specs(duration_ns=duration_ns, seed=seed)
    grid = run_grid(list(specs.values()), use_cache=use_cache, **engine).raise_if_failed()

    out: dict[str, dict[str, float]] = {"W1": {}, "W3": {}}
    for (name, mode), spec in specs.items():
        m = grid[spec]
        if name == "W1":
            out[name][mode.value] = m.total_exits / (duration_ns / SEC)
        else:
            out[name][mode.value] = m.total_exits / (m.exec_time_ns / SEC)
    return out


def render() -> str:
    rows = analytical_rows()
    table = format_table(
        ["workload", "periodic", "tickless", "paper periodic", "paper tickless", "match"],
        [
            (r.workload, f"{r.periodic:,}", f"{r.tickless:,}", f"{r.paper_periodic:,}",
             f"{r.paper_tickless:,}", "yes" if r.matches_paper else "NO")
            for r in rows
        ],
        title="Table 1 — tick-management VM exits, periodic vs tickless (10 s, 250 Hz)",
    )
    return table
