"""Overcommitted multi-VM scenarios: the full §3.1/§3.3 regime, simulated.

The paper's Table 1 counts are analytical; this module runs the same
W2-style configuration — several idle VMs sharing physical CPUs — on
the full simulator with host-scheduler time sharing.
:func:`run_idle_overcommit` is a thin layer over
:func:`repro.experiments.runner.simulate`: G
:class:`~repro.workloads.micro.IdleWorkload` guests, run to a fixed
duration, collected into an :class:`OvercommitResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineSpec, TickMode
from repro.errors import ConfigError
from repro.metrics.counters import ExitCounters
from repro.sim.timebase import SEC


@dataclass
class OvercommitResult:
    """Per-mode measurement of one overcommitted scenario."""

    mode: TickMode
    duration_ns: int
    total_exits: int
    total_busy_ns: int
    host_switches: int

    @property
    def exits_per_second(self) -> float:
        return self.total_exits / (self.duration_ns / SEC)

    @property
    def busy_fraction(self) -> float:
        """Busy time as a fraction of one CPU-second per CPU."""
        return self.total_busy_ns / self.duration_ns


def run_idle_overcommit(
    mode: TickMode,
    *,
    vms: int = 4,
    vcpus_per_vm: int = 4,
    pcpus: int = 2,
    duration_ns: int = SEC,
    noise: bool = False,
    seed: int = 0,
    **stack,
) -> OvercommitResult:
    """N idle VMs time-sharing a small set of physical CPUs (W1/W2).

    With classic periodic ticks every vCPU is woken ``f_tick`` times a
    second; with tickless/paratick guests the host stays asleep.
    ``stack`` holds the remaining :func:`~repro.experiments.runner.simulate`
    keywords (``tick_hz``, ``costs``, ``features``, ``cpuidle``,
    ``perturbations``, ``arch``, ``tracer``, ``inspect``, ``obs``).
    """
    from repro.experiments.runner import Guest, simulate
    from repro.workloads.micro import IdleWorkload

    if vms <= 0 or vcpus_per_vm <= 0 or pcpus <= 0:
        raise ConfigError("vms, vcpus_per_vm and pcpus must be positive")
    run = simulate(
        [
            Guest(
                f"vm{v}",
                IdleWorkload(vcpus_per_vm),
                vcpus_per_vm,
                tuple((v * vcpus_per_vm + i) % pcpus for i in range(vcpus_per_vm)),
            )
            for v in range(vms)
        ],
        machine_spec=MachineSpec(sockets=1, cpus_per_socket=pcpus),
        tick_mode=mode,
        seed=seed,
        noise=noise,
        horizon_ns=duration_ns,
        **stack,
    )
    counters = ExitCounters()
    for vm in run.hv.vms:
        counters = counters.merge(vm.counters)
    return OvercommitResult(
        mode=mode,
        duration_ns=duration_ns,
        total_exits=counters.total,
        total_busy_ns=run.machine.total_busy_ns() // pcpus,
        host_switches=run.hv.sched.switches,
    )


def compare_modes(
    *,
    jobs: int | None = None,
    cache_dir=None,
    use_cache: bool = False,
    progress=None,
    **kwargs,
) -> dict[TickMode, OvercommitResult]:
    """The W1/W2 comparison across all three tick modes.

    The three scenarios are independent, so they run as a grid through
    the parallel experiment engine — ``jobs=3`` executes all modes
    concurrently, and the result cache makes repeat sweeps incremental.
    """
    from repro.experiments.parallel import OVERCOMMIT_IDLE, RunSpec, WorkloadSpec, run_grid

    seed = kwargs.pop("seed", 0)
    specs = {
        mode: RunSpec(
            WorkloadSpec.make(OVERCOMMIT_IDLE, **kwargs),
            tick_mode=mode, seed=seed, label=f"overcommit/{mode.value}",
        )
        for mode in TickMode
    }
    grid = run_grid(
        list(specs.values()), jobs=jobs, cache_dir=cache_dir,
        use_cache=use_cache, progress=progress,
    ).raise_if_failed()
    return {mode: grid[spec] for mode, spec in specs.items()}
