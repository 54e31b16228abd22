"""Cross-architecture table: the paratick win per timer backend.

The paper measures paratick on x86 (TSC-deadline MSR + VMX preemption
timer). The :mod:`repro.hw.timerhw` seam adds an ARM generic-timer
backend (trapped CNTV sysregs + vtimer IRQ, :mod:`repro.hw.arm`) with a
*different* per-program trap bill — arm64 re-arms with a single CVAL
write where x2APIC pays one TSC-deadline WRMSR, and EOI traps through
ICC_EOIR1 unless virtualized. This table re-runs a representative
workload set on **both** backends under all three tick modes and
reports, per (workload, arch):

* total and timer-attributed exits per mode;
* paratick's exit reduction relative to tickless — the paper's headline
  claim, which must *hold on both architectures* even though the
  absolute exit taxonomy differs completely;
* the useful-cycle agreement between backends (tick management and
  timer hardware change overhead, never the work).

All cells run through the parallel experiment engine, so ``--jobs`` and
the content-addressed cache apply; the ARM cells carry ``arch="arm"``
in their cache keys and never collide with x86 cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TickMode
from repro.host.exitreasons import ExitReason
from repro.metrics.perf import RunMetrics
from repro.metrics.report import format_table

#: Architectures compared, reference first.
ARCHES = ("x86", "arm")

#: Exit reasons counted as "timer programming traps" per backend.
PROGRAM_REASONS = {
    "x86": ExitReason.MSR_WRITE,
    "arm": ExitReason.SYSREG_TRAP,
}


def arch_specs(*, seed: int = 0, quick: bool = False):
    """The grid: 2 workloads x 2 arches x 3 modes -> 12 cells.

    Returns ``{(workload_name, arch, TickMode): RunSpec}``. The sync
    storm is the timer-heavy regime (every blocking sync re-programs
    the deadline); the idle-period workload is the §3.2 idle regime
    where periodic ticking dominates.
    """
    from repro.experiments.parallel import RunSpec, WorkloadSpec
    from repro.sim.timebase import USEC

    storm_cycles = 20_000_000 if quick else 60_000_000
    workloads = {
        "syncstorm": WorkloadSpec.make(
            "micro.syncstorm", threads=2, events_per_second=800.0,
            duration_cycles=storm_cycles,
        ),
        "idleperiod": WorkloadSpec.make(
            "micro.idleperiod", idle_ns=500 * USEC,
            iterations=10 if quick else 30, work_cycles=100_000,
        ),
    }
    specs = {}
    for name, ws in workloads.items():
        for arch in ARCHES:
            for mode in TickMode:
                specs[(name, arch, mode)] = RunSpec(
                    ws, tick_mode=mode, seed=seed, noise=False,
                    cpuidle=(name == "idleperiod"), arch=arch,
                    label=f"table-arch/{name}/{arch}/{mode.value}",
                )
    return specs


@dataclass(frozen=True)
class ArchRow:
    """One (workload, arch) line of the comparison."""

    workload: str
    arch: str
    per_mode: dict  # TickMode -> RunMetrics

    @property
    def paratick_reduction(self) -> float:
        """Paratick's exit reduction vs tickless (positive = fewer)."""
        base = self.per_mode[TickMode.TICKLESS].total_exits
        para = self.per_mode[TickMode.PARATICK].total_exits
        return (base - para) / base if base else 0.0

    def program_exits(self, mode: TickMode) -> int:
        return self.per_mode[mode].exits.by_reason(PROGRAM_REASONS[self.arch])


@dataclass(frozen=True)
class ArchResult:
    rows: list

    def useful_cycle_skews(self) -> list[tuple[str, TickMode, int, int]]:
        """(workload, mode, x86 useful, arm useful) where they differ."""
        by_key: dict = {}
        for row in self.rows:
            for mode, m in row.per_mode.items():
                by_key.setdefault((row.workload, mode), {})[row.arch] = m
        out = []
        for (name, mode), per_arch in sorted(
            by_key.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            if len(per_arch) < len(ARCHES):
                continue
            x86 = per_arch["x86"].useful_cycles
            arm = per_arch["arm"].useful_cycles
            if x86 != arm:
                out.append((name, mode, x86, arm))
        return out

    def render(self) -> str:
        body = []
        for row in sorted(self.rows, key=lambda r: (r.workload, r.arch)):
            body.append((
                row.workload,
                row.arch,
                f"{row.per_mode[TickMode.PERIODIC].total_exits:,}",
                f"{row.per_mode[TickMode.TICKLESS].total_exits:,}",
                f"{row.per_mode[TickMode.PARATICK].total_exits:,}",
                f"{row.program_exits(TickMode.TICKLESS):,}",
                f"{row.paratick_reduction:+.1%}",
            ))
        table = format_table(
            ["workload", "arch", "periodic", "tickless", "paratick",
             "program traps (tickless)", "paratick vs tickless"],
            body,
            title="Timer-architecture comparison — exits per backend "
                  "(program traps: WRMSR on x86, CNTV sysreg on ARM)",
        )
        skews = self.useful_cycle_skews()
        if skews:
            lines = [
                f"  {name}/{mode.value}: x86 {x86:,} vs arm {arm:,}"
                for name, mode, x86, arm in skews
            ]
            return table + "\nuseful-cycle skew across backends:\n" + "\n".join(lines)
        return table + "\nuseful cycles: bit-identical across backends in every cell"


def run(
    *,
    seed: int = 0,
    quick: bool = False,
    use_cache: bool = True,
    **engine,
) -> ArchResult:
    """Run the comparison grid and fold it into rows."""
    from repro.experiments.parallel import run_grid

    specs = arch_specs(seed=seed, quick=quick)
    grid = run_grid(list(specs.values()), use_cache=use_cache, **engine).raise_if_failed()

    cells: dict[tuple[str, str], dict[TickMode, RunMetrics]] = {}
    for (name, arch, mode), spec in specs.items():
        cells.setdefault((name, arch), {})[mode] = grid[spec]
    rows = [
        ArchRow(workload=name, arch=arch, per_mode=per_mode)
        for (name, arch), per_mode in cells.items()
    ]
    return ArchResult(rows=rows)
