"""One fleet host: tens of guests packed onto a few physical CPUs.

:func:`run_host` is the fleet counterpart of
:func:`repro.experiments.runner.run_workload` — same stack construction,
same tracer/inspect/obs hooks, same metrics collection — except it
builds *G* guest VMs (each running its own instance of the guest
workload) sharing ``ceil(G * vcpus / consolidation)`` physical CPUs, and
staggers guest start according to the fleet's burst profile.

Bursty arrival is modeled inside the guests: a guest's workload tasks
exist from boot (so every VM boots, idles, and ticks normally), but each
task's body is prefixed with a jiffy-granular ``Sleep`` until the
guest's arrival offset — the workload "arrives" at that instant exactly
like a request hitting an already-booted VM. Per-guest completion
instants, arrival-to-completion latency, and steal time land in
:attr:`RunMetrics.extra` under ``g<NN>_*`` keys (all integers), which is
what :mod:`repro.fleet.aggregate` folds into fleet-wide distributions.

Everything is a pure function of the spec: host ``i`` of fleet seed
``s`` simulates under :func:`repro.fleet.spec.host_sim_seed`'s derived
seed, so re-running any shard anywhere reproduces identical bytes.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HostFeatures, MachineSpec, TickMode, VmSpec
from repro.errors import WorkloadError
from repro.experiments.parallel import RunSpec, WorkloadSpec, _keep_timer
from repro.fleet.spec import (
    DEFAULT_BURST_WINDOW_NS,
    arrival_schedule,
    fleet_params,
    host_sim_seed,
)
from repro.guest.kernel import GuestKernel
from repro.guest.noise import install_noise
from repro.guest.task import Sleep
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.kvm import Hypervisor
from repro.hw.block import make_block_device
from repro.hw.cpu import Machine
from repro.metrics.perf import RunMetrics, collect_metrics
from repro.sim.engine import Simulator


def _delayed(body, ns: int):
    """Prefix a task body with an arrival sleep (jiffy-granular, like a
    request hitting the VM later); delegates the original generator."""
    yield Sleep(ns)
    yield from body


def run_host(
    *,
    guest_kind: str,
    guest_params: dict,
    guests: int,
    consolidation: int,
    tick_mode: TickMode,
    burst: str = "burst",
    burst_window_ns: int = DEFAULT_BURST_WINDOW_NS,
    burst_waves: int = 4,
    host_index: int = 0,
    seed: int = 0,
    tick_hz: int = 250,
    noise: bool = False,
    cpuidle: bool = False,
    costs: CostModel = DEFAULT_COSTS,
    features: HostFeatures = HostFeatures(),
    horizon_ns: Optional[int] = None,
    label: Optional[str] = None,
    perturbations=(),
    arch: str = "x86",
    tracer=None,
    inspect=None,
    obs=None,
) -> RunMetrics:
    """Simulate one overcommitted fleet host and return its metrics.

    ``perturbations`` apply to **every** guest VM — a fleet perturbation
    models a host-wide disturbance (live-migration pause, host clock
    step), and the injectors are defensive, so overlapping occurrences
    skip rather than misfire. ``inspect``, when given, is called as
    ``inspect(sim, machine, hv, vms)`` with the full VM tuple.
    """
    from repro.experiments.runner import DEFAULT_HORIZON_NS

    if horizon_ns is None:
        horizon_ns = DEFAULT_HORIZON_NS
    sim_seed = host_sim_seed(seed, host_index)
    arrivals = arrival_schedule(
        burst, guests, window_ns=burst_window_ns, waves=burst_waves, seed=sim_seed
    )

    guest_ws = WorkloadSpec.make(guest_kind, **guest_params)
    workloads = [guest_ws.build() for _ in range(guests)]
    nv = workloads[0].default_vcpus()
    pcpus = max(1, -(-guests * nv // consolidation))

    if obs is not None:
        tracer = obs.tracer(tracer)
    sim = Simulator(seed=sim_seed, tracer=tracer)
    machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=pcpus))
    hv = Hypervisor(sim, machine, costs=costs, features=features, arch=arch)
    if obs is not None:
        obs.install(machine, hv)

    total_main = 0
    finished = 0
    guest_mains: list[int] = []
    guest_done_ns: list[Optional[int]] = [None] * guests
    end_ns: Optional[int] = None

    for g, workload in enumerate(workloads):
        pins = tuple((g * nv + j) % pcpus for j in range(nv))
        vm = hv.create_vm(
            VmSpec(
                name=f"vm{g:02d}",
                vcpus=nv,
                tick_mode=tick_mode,
                tick_hz=tick_hz,
                pinned_cpus=pins,
                noise=noise,
                cpuidle=cpuidle,
                arch=arch,
            )
        )
        kernel = GuestKernel(vm)

        kind = workload.io_device
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
        main_tasks = workload.build(kernel)
        arrival = arrivals[g]
        if arrival > 0:
            # Stagger this guest's whole workload — the delay applies to
            # every task the build created (helper threads must not run
            # ahead of their request), but not to the noise daemons,
            # which run from boot on a real consolidated host.
            for task in kernel.sched.tasks[pre_build:]:
                task.body = _delayed(task.body, arrival)
        main_set = set(id(t) for t in main_tasks)
        guest_mains.append(len(main_tasks))
        total_main += len(main_tasks)

        def on_done(task, g=g, main_set=main_set) -> None:
            nonlocal finished, end_ns
            if id(task) not in main_set:
                return
            finished += 1
            main_set.discard(id(task))
            if not main_set:
                guest_done_ns[g] = sim.now
            if finished == total_main:
                end_ns = sim.now
                sim.stop()

        kernel.task_done_callbacks.append(on_done)

        if perturbations:
            from repro.host.perturb import install_perturbations

            install_perturbations(hv, vm, perturbations)

    hv.start()
    sim.run(until=horizon_ns)

    if total_main:
        if finished < total_main:
            missing = [
                f"vm{g:02d}" for g in range(guests) if guest_done_ns[g] is None
            ]
            raise WorkloadError(
                f"fleet host did not finish; guests still running: {missing[:5]}"
            )
        exec_time = end_ns if end_ns is not None else sim.now
    else:
        exec_time = sim.now  # all guests open-ended: ran to the horizon

    if obs is not None:
        obs.finalize(sim, machine, hv)
    if inspect is not None:
        inspect(sim, machine, hv, tuple(hv.vms))

    extra: dict = {
        "vcpus": guests * nv,
        "seed": seed,
        "guests": guests,
        "pcpus": pcpus,
        "consolidation": consolidation,
        "host_index": host_index,
        "virtual_ticks": sum(vm.virtual_ticks_injected for vm in hv.vms),
        "halt_episodes": sum(v.halt_episodes for vm in hv.vms for v in vm.vcpus),
        "halted_ns": sum(v.total_halted_ns for vm in hv.vms for v in vm.vcpus),
        "steal_ns": sum(v.total_steal_ns for vm in hv.vms for v in vm.vcpus),
        "steal_episodes": sum(v.steal_episodes for vm in hv.vms for v in vm.vcpus),
    }
    if perturbations:
        extra["suspend_count"] = sum(vm.suspend_count for vm in hv.vms)
        extra["suspended_ns"] = sum(vm.total_suspended_ns for vm in hv.vms)
        extra["clock_jump_ns"] = sum(vm.clock_jump_ns for vm in hv.vms)
        extra["clock_offset_ns"] = sum(vm.guest_clock_offset_ns for vm in hv.vms)
        extra["hotplug_count"] = sum(vm.hotplug_count for vm in hv.vms)
        extra["unplug_count"] = sum(vm.unplug_count for vm in hv.vms)
    from repro.host.vcpu import VcpuState

    for vm in hv.vms:
        for v in vm.vcpus:
            residency = dict(v.cstate_residency_ns)
            if v.state is VcpuState.HALTED and v.requested_cstate is not None:
                name = v.requested_cstate.name
                residency[name] = residency.get(name, 0) + (sim.now - v.halted_since_ns)
            for state, ns in residency.items():
                extra[f"cstate_{state}_ns"] = extra.get(f"cstate_{state}_ns", 0) + ns

    for g, vm in enumerate(hv.vms):
        done = guest_done_ns[g] if guest_done_ns[g] is not None else exec_time
        extra[f"g{g:02d}_arrival_ns"] = arrivals[g]
        extra[f"g{g:02d}_done_ns"] = done
        extra[f"g{g:02d}_latency_ns"] = max(0, done - arrivals[g])
        extra[f"g{g:02d}_steal_ns"] = sum(v.total_steal_ns for v in vm.vcpus)

    return collect_metrics(
        label or f"fleet/h{host_index:02d}/{tick_mode.value}",
        machine,
        list(hv.vms),
        exec_time_ns=exec_time,
        extra=extra,
    )


def execute_fleet_spec(
    spec: RunSpec, *, tracer=None, inspect=None
) -> tuple[RunMetrics, Optional[dict], Optional[dict]]:
    """Parallel-engine entry point for ``fleet.host`` specs.

    Mirrors the workload arm of
    :func:`repro.experiments.parallel.execute_spec_full`: applies cost
    overrides and the keep-timer policy, honors ``spec.profile`` /
    ``spec.series`` with an :class:`repro.obs.Observability` bundle,
    forwards ``tracer`` / ``inspect`` to :func:`run_host`, and returns
    ``(metrics, obs_json_or_None, series_json_or_None)``.
    """
    from repro.experiments.parallel import _obs_for

    params = fleet_params(spec)
    costs = DEFAULT_COSTS
    if spec.cost_overrides:
        costs = costs.with_overrides(**dict(spec.cost_overrides))
    obs = _obs_for(spec)
    with _keep_timer(spec.keep_timer_on_idle_exit):
        metrics = run_host(
            tick_mode=spec.tick_mode,
            seed=spec.seed,
            tick_hz=spec.tick_hz,
            noise=spec.noise,
            cpuidle=spec.cpuidle,
            costs=costs,
            features=spec.features,
            horizon_ns=spec.horizon_ns,
            label=spec.label,
            perturbations=spec.perturbations,
            arch=spec.arch,
            tracer=tracer,
            inspect=inspect,
            obs=obs,
            **params,
        )
    return (
        metrics,
        obs.to_json_dict() if spec.profile and obs is not None else None,
        obs.series_json() if spec.series and obs is not None else None,
    )
