"""One fleet host: tens of guests packed onto a few physical CPUs.

:func:`run_host` is a thin layer over
:func:`repro.experiments.runner.simulate` — the same stack builder
:func:`~repro.experiments.runner.run_workload` uses — that chooses *G*
guest VMs (each running its own instance of the guest workload)
sharing ``ceil(G * vcpus / consolidation)`` physical CPUs, and staggers
guest start according to the fleet's burst profile.

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

from repro.config import MachineSpec, TickMode
from repro.experiments.parallel import WorkloadSpec
from repro.fleet.spec import (
    DEFAULT_BURST_WINDOW_NS,
    arrival_schedule,
    host_sim_seed,
)
from repro.metrics.perf import RunMetrics


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
    noise: bool = False,
    horizon_ns: Optional[int] = None,
    label: Optional[str] = None,
    **stack,
) -> RunMetrics:
    """Simulate one overcommitted fleet host and return its metrics.

    ``stack`` holds the remaining :func:`~repro.experiments.runner.simulate`
    keywords (``tick_hz``, ``cpuidle``, ``costs``, ``features``,
    ``perturbations``, ``arch``, ``tracer``, ``inspect``, ``obs``).
    ``perturbations`` apply to **every** guest VM — a fleet perturbation
    models a host-wide disturbance (live-migration pause, host clock
    step), and the injectors are defensive, so overlapping occurrences
    skip rather than misfire.
    """
    from repro.experiments.runner import DEFAULT_HORIZON_NS, Guest, simulate

    sim_seed = host_sim_seed(seed, host_index)
    arrivals = arrival_schedule(
        burst, guests, window_ns=burst_window_ns, waves=burst_waves, seed=sim_seed
    )

    guest_ws = WorkloadSpec.make(guest_kind, **guest_params)
    workloads = [guest_ws.build() for _ in range(guests)]
    nv = workloads[0].default_vcpus()
    pcpus = max(1, -(-guests * nv // consolidation))

    run = simulate(
        [
            Guest(
                f"vm{g:02d}",
                workload,
                nv,
                tuple((g * nv + j) % pcpus for j in range(nv)),
                arrivals[g],
            )
            for g, workload in enumerate(workloads)
        ],
        machine_spec=MachineSpec(sockets=1, cpus_per_socket=pcpus),
        tick_mode=tick_mode,
        seed=sim_seed,
        noise=noise,
        horizon_ns=horizon_ns if horizon_ns is not None else DEFAULT_HORIZON_NS,
        **stack,
    )

    extra = run.extra(
        vcpus=guests * nv,
        seed=seed,
        guests=guests,
        pcpus=pcpus,
        consolidation=consolidation,
        host_index=host_index,
    )
    for g, vm in enumerate(run.hv.vms):
        done = run.done_ns[g] if run.done_ns[g] is not None else run.exec_time_ns
        extra[f"g{g:02d}_arrival_ns"] = arrivals[g]
        extra[f"g{g:02d}_done_ns"] = done
        extra[f"g{g:02d}_latency_ns"] = max(0, done - arrivals[g])
        extra[f"g{g:02d}_steal_ns"] = sum(v.total_steal_ns for v in vm.vcpus)

    return run.metrics(label or f"fleet/h{host_index:02d}/{tick_mode.value}", extra)
