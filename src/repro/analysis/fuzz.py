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

    def param(self, name: str) -> int:
        return dict(self.params)[name]

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


def differential_problems(per_mode: dict[TickMode, RunMetrics]) -> list[str]:
    """Cross-mode comparison: tick management must not change the work."""
    if len(per_mode) < len(TickMode):
        return []  # some run already failed; reported individually
    ref = per_mode[TickMode.TICKLESS]
    out: list[str] = []
    allowed = max(int(ref.useful_cycles * USEFUL_REL_TOL), USEFUL_ABS_SLACK)
    for mode, metrics in per_mode.items():
        if mode is TickMode.TICKLESS:
            continue
        delta = abs(metrics.useful_cycles - ref.useful_cycles)
        if delta > allowed:
            out.append(
                f"useful cycles diverge: {mode.value} did {metrics.useful_cycles} "
                f"vs tickless {ref.useful_cycles} (|delta| {delta} > {allowed})"
            )
    return out


#: Architectures the cross-arch sweep compares (x86 is the reference).
ARCH_SWEEP = ("x86", "arm")


def arch_differential_problems(
    per_arch: dict[str, RunMetrics], mode: TickMode
) -> list[str]:
    """Cross-architecture comparison for one tick mode.

    The timer architecture changes the *overhead* (exit counts, handler
    costs) but must not change the *work*: useful cycles agree across
    backends to the same tolerance the cross-mode check uses, and each
    backend stays inside its own exit taxonomy (no MSR-write exits on
    ARM, no sysreg traps on x86).
    """
    from repro.host.exitreasons import ExitReason

    if len(per_arch) < len(ARCH_SWEEP):
        return []  # some run already failed; reported individually
    ref = per_arch["x86"]
    out: list[str] = []
    allowed = max(int(ref.useful_cycles * USEFUL_REL_TOL), USEFUL_ABS_SLACK)
    for arch, metrics in per_arch.items():
        if arch != "x86":
            delta = abs(metrics.useful_cycles - ref.useful_cycles)
            if delta > allowed:
                out.append(
                    f"useful cycles diverge: {arch} did {metrics.useful_cycles} "
                    f"vs x86 {ref.useful_cycles} (|delta| {delta} > {allowed})"
                )
        foreign = (
            (ExitReason.SYSREG_TRAP, ExitReason.VTIMER_IRQ)
            if arch == "x86"
            else (ExitReason.MSR_WRITE, ExitReason.PREEMPTION_TIMER)
        )
        for reason in foreign:
            n = metrics.exits.by_reason(reason)
            if n:
                out.append(
                    f"{arch}/{mode.value}: {n} {reason.value} exit(s) — "
                    f"foreign to this architecture's taxonomy"
                )
    return out


def fuzz_seed_arch(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO,),
) -> "FuzzReport":
    """Run one seed's scenario on every (arch, mode) cell and diff.

    The arch sweep keeps the placement list small by default (solo):
    its job is comparing timer backends, not re-testing overcommit —
    the plain :func:`fuzz_seed` already covers that per arch.
    """
    from repro.scenarios.fuzzbridge import fuzz_cells
    from repro.scenarios.runcheck import sanitized_run

    problems: list[str] = []
    runs = 0
    events = 0
    for cell in fuzz_cells(seed, placements=placements):
        mode, placement = cell.spec.tick_mode, cell.coord("placement")
        per_arch: dict[str, RunMetrics] = {}
        for arch in ARCH_SWEEP:
            metrics, sanitizer, probs = sanitized_run(cell.spec.with_(arch=arch))
            runs += 1
            events += sanitizer.events
            problems += [f"[{arch}/{mode.value}/{placement}] {p}" for p in probs]
            if metrics is not None:
                per_arch[arch] = metrics
        problems += [
            f"[archdiff/{mode.value}/{placement}] {p}"
            for p in arch_differential_problems(per_arch, mode)
        ]
    return FuzzReport(seed=seed, scenario=scenario_for_seed(seed), problems=problems,
                      runs=runs, events=events)


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


def fuzz_seed(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
) -> FuzzReport:
    """Run one seed's scenario under every (mode, placement) cell.

    With ``perturb=True`` the seed additionally expands (via
    :func:`perturbations_for_seed`) into a perturbation schedule applied
    identically to every cell — the sanitizer's suspend/restore/hotplug
    checkers then run against real disturbances, and the differential
    property must hold *through* them.
    """
    from repro.scenarios.fuzzbridge import fuzz_cells
    from repro.scenarios.runcheck import sanitized_run

    problems: list[str] = []
    runs = 0
    events = 0
    for placement in placements:
        per_mode: dict[TickMode, RunMetrics] = {}
        for cell in fuzz_cells(seed, placements=(placement,), perturb=perturb):
            mode = cell.spec.tick_mode
            metrics, sanitizer, probs = sanitized_run(cell.spec)
            runs += 1
            events += sanitizer.events
            problems += [f"[{mode.value}/{placement}] {p}" for p in probs]
            if metrics is not None:
                per_mode[mode] = metrics
        problems += [f"[diff/{placement}] {p}" for p in differential_problems(per_mode)]
    return FuzzReport(seed=seed, scenario=scenario_for_seed(seed), problems=problems,
                      runs=runs, events=events)


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
