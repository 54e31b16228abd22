"""The experiment driver: build a simulated host, run it, measure.

:func:`simulate` is the one place a simulated host is built: a
Simulator, a Machine, a Hypervisor and one VM + guest kernel (block
device, NIC, noise daemons, perturbations) per :class:`Guest`. Its
callers are thin layers that choose the guests and fold the
:class:`HostRun` into their result:

* :func:`run_workload` — one workload in one VM, the entry point every
  benchmark, example and integration test uses;
* :func:`repro.fleet.hostsim.run_host` — one fleet host of staggered
  guests;
* :func:`repro.experiments.overcommit.run_idle_overcommit` — the W2
  idle-overcommit regime.

:func:`run_comparison` performs the A/B (tickless vs paratick)
measurement the paper's figures are built from, guaranteeing both runs
share machine, seed and workload parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.config import HostFeatures, IoDeviceKind, MachineSpec, TickMode, VmSpec
from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.guest.noise import install_noise
from repro.guest.task import Sleep
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.kvm import Hypervisor
from repro.hw.block import make_block_device
from repro.hw.cpu import Machine
from repro.metrics.perf import RunMetrics, collect_metrics
from repro.metrics.report import Comparison, compare_runs
from repro.sim.engine import Simulator
from repro.sim.timebase import SEC
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkloadSpec

#: Default wall-clock bound on a run (simulated).
DEFAULT_HORIZON_NS = 60 * SEC


class Guest(NamedTuple):
    """One VM of a simulated host and the workload it runs.

    ``arrival_ns`` delays every task the workload's build creates by a
    jiffy-granular ``Sleep`` — the workload "arrives" at that instant
    like a request hitting an already-booted VM. Noise daemons run from
    boot regardless.
    """

    name: str
    workload: Workload
    vcpus: int
    pinned_cpus: Optional[tuple[int, ...]]
    arrival_ns: int = 0


@dataclass
class HostRun:
    """A finished :func:`simulate`: the stack plus completion instants."""

    sim: Simulator
    machine: Machine
    hv: Hypervisor
    #: Execution time: when the last main task finished, or the
    #: horizon when no guest has main tasks.
    exec_time_ns: int
    #: Per guest, when its last main task finished (None when it has
    #: none).
    done_ns: list[Optional[int]]
    perturbed: bool

    def extra(self, **head) -> dict:
        """``head`` followed by the host-wide counters every run reports."""
        from repro.host.vcpu import VcpuState

        vcpus = [v for vm in self.hv.vms for v in vm.vcpus]
        extra = {
            **head,
            "virtual_ticks": sum(vm.virtual_ticks_injected for vm in self.hv.vms),
            "halt_episodes": sum(v.halt_episodes for v in vcpus),
            "halted_ns": sum(v.total_halted_ns for v in vcpus),
            "steal_ns": sum(v.total_steal_ns for v in vcpus),
            "steal_episodes": sum(v.steal_episodes for v in vcpus),
        }
        if self.perturbed:
            # Only perturbed runs carry these keys, so unperturbed metrics
            # stay bit-identical to the pre-perturbation engine.
            for key, attr in (
                ("suspend_count", "suspend_count"),
                ("suspended_ns", "total_suspended_ns"),
                ("clock_jump_ns", "clock_jump_ns"),
                ("clock_offset_ns", "guest_clock_offset_ns"),
                ("hotplug_count", "hotplug_count"),
                ("unplug_count", "unplug_count"),
            ):
                extra[key] = sum(getattr(vm, attr) for vm in self.hv.vms)
        for v in vcpus:
            residency = dict(v.cstate_residency_ns)
            if v.state is VcpuState.HALTED and v.requested_cstate is not None:
                # Still asleep at collection time: flush the open residency.
                name = v.requested_cstate.name
                residency[name] = residency.get(name, 0) + (self.sim.now - v.halted_since_ns)
            for state, ns in residency.items():
                extra[f"cstate_{state}_ns"] = extra.get(f"cstate_{state}_ns", 0) + ns
        return extra

    def metrics(self, label: str, extra: dict) -> RunMetrics:
        return collect_metrics(
            label, self.machine, list(self.hv.vms),
            exec_time_ns=self.exec_time_ns, extra=extra,
        )


def _arrive(body, ns: int):
    """Prefix a task body with an arrival sleep; delegates the original."""
    yield Sleep(ns)
    yield from body


def simulate(
    guests: list[Guest],
    *,
    machine_spec: MachineSpec,
    tick_mode: TickMode,
    features: HostFeatures = HostFeatures(),
    costs: CostModel = DEFAULT_COSTS,
    tick_hz: int = 250,
    seed: int = 0,
    noise: bool = True,
    cpuidle: bool = False,
    device_kind: Optional[IoDeviceKind] = None,
    horizon_ns: int = DEFAULT_HORIZON_NS,
    perturbations=(),
    arch: str = "x86",
    tracer=None,
    inspect=None,
    obs=None,
) -> HostRun:
    """Build one simulated host, run it, and return the finished stack.

    VMs are created in ``guests`` order, each with its guest kernel,
    block device (``device_kind`` or the workload's own), NIC, noise
    daemons and ``perturbations``. The run stops when the last main
    task of any guest finishes, or at ``horizon_ns`` when no guest has
    main tasks; main tasks still running at the horizon raise
    :class:`~repro.errors.WorkloadError` rather than report a truncated
    measurement.

    ``obs`` (a :class:`repro.obs.Observability` bundle) tees its trace
    sinks in front of ``tracer``, observes the cycle ledger, and is
    finalized after the run. ``inspect``, when given, is then called
    once as ``inspect(sim, machine, hv, vms)`` with the tuple of VMs.
    """
    if obs is not None:
        tracer = obs.tracer(tracer)
    sim = Simulator(seed=seed, tracer=tracer)
    machine = Machine(sim, machine_spec)
    hv = Hypervisor(sim, machine, costs=costs, features=features, arch=arch)
    if obs is not None:
        obs.install(machine, hv)

    mains: list[list] = []
    done_ns: list[Optional[int]] = [None] * len(guests)
    pending = 0
    for g, guest in enumerate(guests):
        vm = hv.create_vm(
            VmSpec(
                name=guest.name,
                vcpus=guest.vcpus,
                tick_mode=tick_mode,
                tick_hz=tick_hz,
                pinned_cpus=guest.pinned_cpus,
                noise=noise,
                cpuidle=cpuidle,
                arch=arch,
            )
        )
        kernel = GuestKernel(vm)
        workload = guest.workload

        kind = device_kind or workload.io_device
        if kind is not None:
            device = make_block_device(
                sim,
                kind,
                lambda req, vm=vm: hv.complete_io_request(vm, req.cookie[0], req),
            )
            kernel.attach_block_device(device)
        nic_profile = getattr(workload, "nic_profile", None)
        if nic_profile is not None:
            from repro.hw.interrupts import Vector
            from repro.hw.nic import Nic

            nic = Nic(
                sim,
                nic_profile,
                lambda req, vm=vm: hv.complete_io_request(
                    vm, req.cookie[0], req, vector=Vector.NET_IO
                ),
            )
            kernel.attach_nic(nic)
        if noise:
            install_noise(kernel)

        pre_build = len(kernel.sched.tasks)
        main_tasks = list(workload.build(kernel))
        if guest.arrival_ns > 0:
            # The delay applies to every task the build created (helper
            # threads must not run ahead of their request), but not to
            # the noise daemons, which run from boot on a real host.
            for task in kernel.sched.tasks[pre_build:]:
                task.body = _arrive(task.body, guest.arrival_ns)
        mains.append(main_tasks)
        pending += len(main_tasks)
        main_set = set(id(t) for t in main_tasks)

        def on_done(task, g=g, main_set=main_set) -> None:
            nonlocal pending
            if id(task) not in main_set:
                return
            main_set.discard(id(task))
            pending -= 1
            if not main_set:
                done_ns[g] = sim.now
            if not pending:
                sim.stop()

        kernel.task_done_callbacks.append(on_done)

        if perturbations:
            from repro.host.perturb import install_perturbations

            install_perturbations(hv, vm, perturbations)

    hv.start()
    sim.run(until=horizon_ns)

    if pending:
        running = {
            guest.name: [t.name for t in tasks if t.finished_ns is None][:5]
            for guest, tasks in zip(guests, mains)
            if any(t.finished_ns is None for t in tasks)
        }
        raise WorkloadError(f"run did not finish; still running: {running}")
    exec_time = max((t for t in done_ns if t is not None), default=sim.now)

    if obs is not None:
        obs.finalize(sim, machine, hv)
    if inspect is not None:
        inspect(sim, machine, hv, tuple(hv.vms))
    return HostRun(sim, machine, hv, exec_time, done_ns, bool(perturbations))


def run_workload(
    workload: Workload,
    *,
    tick_mode: TickMode = TickMode.TICKLESS,
    vcpus: Optional[int] = None,
    pinned_cpus: Optional[tuple[int, ...]] = None,
    machine_spec: Optional[MachineSpec] = None,
    features: HostFeatures = HostFeatures(),
    costs: CostModel = DEFAULT_COSTS,
    tick_hz: int = 250,
    seed: int = 0,
    noise: bool = True,
    cpuidle: bool = False,
    device_kind: Optional[IoDeviceKind] = None,
    horizon_ns: int = DEFAULT_HORIZON_NS,
    label: Optional[str] = None,
    perturbations=(),
    arch: str = "x86",
    tracer=None,
    inspect=None,
    obs=None,
) -> RunMetrics:
    """Run one workload in one VM and return its metrics.

    The run ends when every main task finishes (execution time = that
    instant) or at ``horizon_ns`` for open-ended workloads; a workload
    with main tasks that misses the horizon raises
    :class:`~repro.errors.WorkloadError` rather than reporting a
    truncated measurement.

    ``inspect``, when given, is called as ``inspect(sim, machine, hv,
    vms)`` after the run ends but before metrics collection — the
    sanitizer's reconciliation pass uses it to reach simulator internals
    (per-CPU ledgers) that :class:`RunMetrics` aggregates away.

    ``obs``, when given, is a :class:`repro.obs.Observability` bundle:
    its trace sinks are teed in front of ``tracer``, its sampling
    profiler observes the cycle ledger, and it is finalized before
    metrics collection. Observability never schedules simulator events,
    so metrics are bit-identical with ``obs`` on or off.

    ``perturbations``, when non-empty, is a schedule of
    :class:`repro.host.perturb.Perturbation` events (suspend/resume,
    save/restore, vCPU hotplug, clock drift) installed against the VM
    before boot; the run's metrics then carry the perturbation counters
    in :attr:`RunMetrics.extra`.
    """
    nvcpus = vcpus if vcpus is not None else workload.default_vcpus()
    if pinned_cpus is None:
        pinned_cpus = tuple(range(nvcpus))
    run = simulate(
        [Guest("vm0", workload, nvcpus, pinned_cpus)],
        machine_spec=machine_spec or MachineSpec(),
        tick_mode=tick_mode,
        features=features,
        costs=costs,
        tick_hz=tick_hz,
        seed=seed,
        noise=noise,
        cpuidle=cpuidle,
        device_kind=device_kind,
        horizon_ns=horizon_ns,
        perturbations=perturbations,
        arch=arch,
        tracer=tracer,
        inspect=inspect,
        obs=obs,
    )
    return run.metrics(
        label or f"{workload.name}/{tick_mode.value}",
        run.extra(vcpus=nvcpus, seed=seed),
    )


def run_comparison(
    workload: Workload,
    *,
    label: Optional[str] = None,
    **kwargs,
) -> tuple[Comparison, RunMetrics, RunMetrics]:
    """A/B run of a workload, tickless vs paratick, with shared parameters.

    This is the paper's measurement: the same workload, the same
    machine, the same seed — only the guest's tick management differs.
    A caller-supplied ``label`` names the comparison *and* is propagated
    into both runs' metrics (as ``label/<mode>``), so per-seed runs stay
    attributable when replicated or cached.
    """
    stem = label or workload.name
    base, cand = (
        run_workload(workload, tick_mode=mode, label=f"{stem}/{mode.value}", **kwargs)
        for mode in (TickMode.TICKLESS, TickMode.PARATICK)
    )
    return compare_runs(base, cand, stem), base, cand


def run_replicated_comparison(
    workload: WorkloadSpec,
    *,
    seeds: tuple[int, ...] = (0, 1, 2),
    label: Optional[str] = None,
    jobs: Optional[int] = None,
    cache_dir=None,
    use_cache: bool = False,
    progress=None,
    **knobs,
) -> tuple[Comparison, dict[str, float]]:
    """The paper's methodology (§6): repeat each experiment over several
    seeds and report the mean; the per-metric standard deviations are
    returned alongside ("a deviation of 5% is possible due to the
    multitude of non-deterministic factors").

    Each seed's pair is built by :func:`repro.experiments.figure.ab_specs`
    (``knobs`` are extra :class:`RunSpec` fields), and the whole
    (seed x tick-mode) grid runs through
    :func:`repro.experiments.parallel.run_grid`: ``jobs=N`` fans the
    replicas out over worker processes and ``use_cache``/``cache_dir``
    reuse previously computed cells. ``label`` defaults to the built
    workload's name.

    Returns the mean comparison and a dict of standard deviations
    (``vm_exits`` / ``throughput`` / ``exec_time``).

    Raises:
        ValueError: if ``seeds`` is empty — a replication without at
            least one seed has no defined mean.
    """
    from repro.experiments.figure import ab_specs
    from repro.experiments.parallel import run_grid
    from repro.sim.stats import OnlineStats

    if not seeds:
        raise ValueError("need at least one seed")
    stem = label or workload.build().name
    pairs = [ab_specs(workload, seed=seed, label=stem, **knobs) for seed in seeds]
    grid = run_grid([s for ab in pairs for s in ab], jobs=jobs, cache_dir=cache_dir,
                    use_cache=use_cache, progress=progress).raise_if_failed()
    stats = {m: OnlineStats() for m in ("vm_exits", "throughput", "exec_time")}
    for base, cand in pairs:
        comp = compare_runs(grid[base], grid[cand], stem)
        stats["vm_exits"].add(comp.vm_exits)
        stats["throughput"].add(comp.throughput)
        stats["exec_time"].add(comp.exec_time)
    mean = Comparison(
        label=stem,
        vm_exits=stats["vm_exits"].mean,
        throughput=stats["throughput"].mean,
        exec_time=stats["exec_time"].mean,
    )
    sds = {m: (s.stdev if s.n > 1 else 0.0) for m, s in stats.items()}
    return mean, sds
