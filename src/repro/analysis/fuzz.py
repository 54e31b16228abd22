"""Differential fuzz harness for the timer path.

Each seed deterministically expands into one randomized scenario (a
workload, tick rate, noise/cpuidle knobs and a horizon, drawn from the
same :class:`~repro.sim.rng.RngStreams` machinery the simulator uses),
which then runs under **all three tick modes** — periodic, tickless,
paratick — in both a solo (1:1 pinned) and an overcommitted placement,
every run wrapped in the :class:`~repro.analysis.checkers.TickSanitizer`
and reconciled afterwards (:mod:`repro.analysis.reconcile`). The runs are
the seed's :func:`~repro.scenarios.fuzzbridge.fuzz_cells`, executed by
:func:`~repro.scenarios.runcheck.sanitized_run` — the same checked run
``matrix check`` uses.

Two properties must hold for every seed:

1. **sanitizer-clean** — no run, in any mode or placement, violates a
   timer-path invariant or drifts from its own counters/ledger;
2. **differential** — tick management must not change the work done:
   every main task completes under every mode, and the useful
   (GUEST_USER) cycle totals agree across modes to within a small
   tolerance (preemption splits re-quantize ns↔cycles with round-up, so
   bit-equality is not expected; §4's claim is precisely that only the
   *overhead* differs).

Replay a failure with ``python -m repro fuzz --seed N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec, TickMode
from repro.host.perturb import Perturbation
from repro.metrics.perf import RunMetrics
from repro.sim.rng import RngStreams
from repro.sim.timebase import MSEC, USEC

#: Relative tolerance on useful cycles across tick modes; the absolute
#: slack covers tiny runs where one noise burst dominates the ratio.
USEFUL_REL_TOL = 0.02
USEFUL_ABS_SLACK = 200_000

#: Placement labels used in problem reports.
SOLO, OVERCOMMIT = "solo", "overcommit"


@dataclass(frozen=True)
class FuzzScenario:
    """One deterministic scenario, fully described by its seed."""

    seed: int
    kind: str
    params: tuple[tuple[str, int], ...]
    tick_hz: int
    noise: bool
    cpuidle: bool
    horizon_ns: int

    def describe(self) -> str:
        knobs = ", ".join(f"{k}={v}" for k, v in self.params)
        return (
            f"seed {self.seed}: {self.kind}({knobs}) @ {self.tick_hz} Hz, "
            f"noise={'on' if self.noise else 'off'}, "
            f"cpuidle={'on' if self.cpuidle else 'off'}, "
            f"horizon={self.horizon_ns / MSEC:.0f}ms"
        )


def scenario_for_seed(seed: int) -> FuzzScenario:
    """Expand a seed into a scenario (pure function of the seed)."""
    rng = RngStreams(seed).stream("fuzz.scenario")

    def pick(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    kind = ("pingpong", "syncstorm", "idleperiod", "idle")[pick(0, 3)]
    if kind == "pingpong":
        params = (
            ("rounds", pick(50, 250)),
            ("work_cycles", pick(20_000, 120_000)),
            ("same_vcpu", pick(0, 1)),
        )
    elif kind == "syncstorm":
        params = (
            ("threads", pick(2, 4)),
            ("events_hz", pick(200, 1500)),
            ("duration_cycles", pick(20, 60) * 1_000_000),
        )
    elif kind == "idleperiod":
        params = (
            ("idle_ns", pick(50, 3000) * USEC),
            ("iterations", pick(20, 80)),
            ("work_cycles", pick(50_000, 200_000)),
        )
    else:  # idle
        params = (("vcpus", pick(1, 3)),)
    return FuzzScenario(
        seed=seed,
        kind=kind,
        params=params,
        tick_hz=(100, 250, 1000)[pick(0, 2)],
        noise=bool(pick(0, 1)),
        cpuidle=bool(pick(0, 1)),
        horizon_ns=pick(60, 200) * MSEC if kind == "idle" else 10_000 * MSEC,
    )


def perturbations_for_seed(seed: int, horizon_ns: int) -> tuple[Perturbation, ...]:
    """Expand a seed into a perturbation schedule (pure function).

    Drawn from the dedicated ``fuzz.perturb`` RNG stream, so turning
    perturbations on never changes which *scenario* a seed maps to —
    the schedule rides on top of the frozen scenario expansion.
    Times are absolute and front-loaded (0.2–5 ms) so even short runs
    meet at least the first disturbance; schedules are identical across
    tick modes and placements, keeping the differential property sound.
    """
    rng = RngStreams(seed).stream("fuzz.perturb")

    def pick(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    out: list[Perturbation] = []
    for _ in range(pick(1, 3)):
        kind = ("suspend", "restore", "hotplug", "drift")[pick(0, 3)]
        at_ns = pick(200, 5000) * USEC
        if kind in ("suspend", "restore"):
            out.append(Perturbation(kind, at_ns=at_ns, duration_ns=pick(100, 2000) * USEC))
        elif kind == "hotplug":
            out.append(Perturbation("hotplug", at_ns=at_ns, duration_ns=pick(0, 3000) * USEC))
        else:
            steps = pick(1, 4)
            sign = 1 if pick(0, 1) else -1
            out.append(Perturbation(
                "drift", at_ns=at_ns, count=steps,
                period_ns=pick(500, 2000) * USEC if steps > 1 else 0,
                step_ns=sign * pick(1, 500) * USEC,
            ))
    # Clamp every occurrence inside the scenario horizon: events past
    # the stop instant would never fire and add nothing.
    return tuple(
        p for p in out
        if p.at_ns + p.duration_ns + (p.count - 1) * p.period_ns < horizon_ns
    )


def placement_for(nvcpus: int, placement: str) -> tuple[MachineSpec, tuple[int, ...]]:
    """Machine + pinning for a placement. Overcommit squeezes the vCPUs
    onto one fewer physical CPU, exercising the READY/preempt paths."""
    if placement == OVERCOMMIT:
        pcpus = max(1, nvcpus - 1)
    else:
        pcpus = nvcpus
    spec = MachineSpec(sockets=1, cpus_per_socket=pcpus)
    return spec, tuple(i % pcpus for i in range(nvcpus))


#: Architectures the cross-arch sweep compares (x86 is the reference).
ARCH_SWEEP = ("x86", "arm")


def differential_problems(per_cell: dict[str, RunMetrics], ref: str) -> list[str]:
    """Cells that differ only in tick mode or timer architecture must do
    the same work: each cell's useful cycles agree with ``ref``'s."""
    base = per_cell[ref].useful_cycles
    allowed = max(int(base * USEFUL_REL_TOL), USEFUL_ABS_SLACK)
    out: list[str] = []
    for name, metrics in per_cell.items():
        delta = abs(metrics.useful_cycles - base)
        if name != ref and delta > allowed:
            out.append(
                f"useful cycles diverge: {name} did {metrics.useful_cycles} "
                f"vs {ref} {base} (|delta| {delta} > {allowed})"
            )
    return out


def foreign_exit_problems(metrics: RunMetrics, arch: str) -> list[str]:
    """Each backend stays inside its own exit taxonomy: no MSR-write
    exits on ARM, no sysreg traps on x86."""
    from repro.host.exitreasons import ExitReason

    foreign = (
        (ExitReason.SYSREG_TRAP, ExitReason.VTIMER_IRQ)
        if arch == "x86"
        else (ExitReason.MSR_WRITE, ExitReason.PREEMPTION_TIMER)
    )
    return [
        f"{n} {reason.value} exit(s) — foreign to this architecture's taxonomy"
        for reason in foreign
        if (n := metrics.exits.by_reason(reason))
    ]


@dataclass
class FuzzReport:
    """Everything learned from fuzzing one seed."""

    seed: int
    scenario: FuzzScenario
    problems: list[str]
    runs: int
    events: int

    @property
    def ok(self) -> bool:
        return not self.problems


def _sweep(seed: int, groups, *, ref: str, tag: str) -> FuzzReport:
    """Sanitize every cell of every group, then diff each group.

    ``groups`` is ``[(where, {name: spec}), ...]``. A cell's own
    problems (sanitizer, reconcile, foreign exits) are reported as
    ``[<name>/<where>]``; once every cell of a group produced metrics,
    their useful cycles are diffed against cell ``ref`` as
    ``[<tag>/<where>]`` (a failed run is already reported on its own).
    """
    from repro.scenarios.runcheck import sanitized_run

    problems: list[str] = []
    runs = events = 0
    for where, specs in groups:
        per_cell: dict[str, RunMetrics] = {}
        for name, spec in specs.items():
            metrics, sanitizer, probs = sanitized_run(spec)
            runs += 1
            events += sanitizer.events
            if metrics is not None:
                per_cell[name] = metrics
                probs = probs + foreign_exit_problems(metrics, spec.arch)
            problems += [f"[{name}/{where}] {p}" for p in probs]
        if len(per_cell) == len(specs):
            problems += [f"[{tag}/{where}] {p}" for p in differential_problems(per_cell, ref)]
    return FuzzReport(seed=seed, scenario=scenario_for_seed(seed), problems=problems,
                      runs=runs, events=events)


def fuzz_seed(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
) -> FuzzReport:
    """Run one seed's scenario under every (mode, placement) cell.

    Per placement, tick management must not change the work: the modes'
    useful cycles are diffed against tickless. With ``perturb=True``
    the seed additionally expands (via :func:`perturbations_for_seed`)
    into a perturbation schedule applied identically to every cell —
    the sanitizer's suspend/restore/hotplug checkers then run against
    real disturbances, and the differential property must hold
    *through* them.
    """
    from repro.scenarios.fuzzbridge import fuzz_cells

    cells = fuzz_cells(seed, placements=placements, perturb=perturb)
    return _sweep(seed, [
        (placement, {c.spec.tick_mode.value: c.spec
                     for c in cells if c.coord("placement") == placement})
        for placement in placements
    ], ref=TickMode.TICKLESS.value, tag="diff")


def fuzz_seed_arch(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO,),
) -> FuzzReport:
    """Run one seed's scenario on every (arch, mode) cell and diff.

    The timer architecture changes the *overhead* (exit counts, handler
    costs) but must not change the *work*: per (mode, placement), useful
    cycles agree with x86. The placement list defaults to solo: the
    sweep's job is comparing timer backends, not re-testing overcommit
    — the plain :func:`fuzz_seed` already covers that per arch.
    """
    from repro.scenarios.fuzzbridge import fuzz_cells

    return _sweep(seed, [
        (f"{c.spec.tick_mode.value}/{c.coord('placement')}",
         {arch: c.spec.with_(arch=arch) for arch in ARCH_SWEEP})
        for c in fuzz_cells(seed, placements=placements)
    ], ref=ARCH_SWEEP[0], tag="archdiff")


def fuzz_many(
    seeds,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
    progress=None,
) -> list[FuzzReport]:
    """Fuzz a seed range; ``progress(report)`` is called per seed."""
    reports = []
    for seed in seeds:
        report = fuzz_seed(int(seed), placements=placements, perturb=perturb)
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports
