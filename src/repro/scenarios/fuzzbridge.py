"""Bridge the differential fuzzer's seed expansion into matrix cells.

The fuzz harness (:mod:`repro.analysis.fuzz`) expands a seed into a
scenario plus (optionally) a perturbation schedule. This module compiles
that expansion into the same :class:`~repro.scenarios.matrix.Cell`
representation the matrix DSL produces, so random fuzz scenarios and
hand-written matrices share one schema, one cell-ID convention, one
cache key and one check/run path (:mod:`repro.scenarios.runcheck`).
"""

from __future__ import annotations

from repro.analysis.fuzz import (
    OVERCOMMIT,
    SOLO,
    FuzzScenario,
    perturbations_for_seed,
    placement_for,
    scenario_for_seed,
)
from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec
from repro.scenarios.matrix import Cell

#: Fuzz scenario kind -> registered workload-factory kind; the only
#: place a fuzz kind turns into a workload.
_KIND_MAP = {
    "pingpong": "micro.pingpong",
    "syncstorm": "micro.syncstorm",
    "idleperiod": "micro.idleperiod",
    "idle": "micro.idle",
}


def workload_spec_for(scenario: FuzzScenario) -> WorkloadSpec:
    """The scenario's workload as a grid-compatible :class:`WorkloadSpec`."""
    p = dict(scenario.params)
    if scenario.kind == "pingpong":
        params = {"rounds": p["rounds"], "work_cycles": p["work_cycles"],
                  "same_vcpu": bool(p["same_vcpu"])}
    elif scenario.kind == "syncstorm":
        params = {"threads": p["threads"],
                  "events_per_second": float(p["events_hz"]),
                  "duration_cycles": p["duration_cycles"]}
    elif scenario.kind == "idleperiod":
        params = {"idle_ns": p["idle_ns"], "iterations": p["iterations"],
                  "work_cycles": p["work_cycles"]}
    elif scenario.kind == "idle":
        params = {"vcpus": p["vcpus"]}
    else:
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    return WorkloadSpec.make(_KIND_MAP[scenario.kind], **params)


def fuzz_cells(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
) -> list[Cell]:
    """Expand one fuzz seed into matrix cells (mode x placement).

    Cell IDs follow the fuzz run labels (``fuzz<seed>/<kind>/<mode>/
    <placement>[/perturbed]``), and since the ID becomes the spec's
    ``label`` — part of the content-addressed cache key — a fuzz cell
    and a matrix cell can never collide in the result cache.
    """
    scenario = scenario_for_seed(seed)
    perturbations = (
        perturbations_for_seed(seed, scenario.horizon_ns) if perturb else ()
    )
    ws = workload_spec_for(scenario)
    nvcpus = ws.build().default_vcpus()
    cells: list[Cell] = []
    for placement in placements:
        mspec, pinned = placement_for(nvcpus, placement)
        for mode in TickMode:
            cid = f"fuzz{seed}/{scenario.kind}/{mode.value}/{placement}"
            perturb_coord = "none"
            if perturb:
                cid += "/perturbed"
                perturb_coord = "fuzzed"
            spec = RunSpec(
                workload=ws,
                tick_mode=mode,
                seed=seed,
                vcpus=nvcpus,
                machine=mspec,
                pinned_cpus=pinned,
                tick_hz=scenario.tick_hz,
                noise=scenario.noise,
                cpuidle=scenario.cpuidle,
                horizon_ns=scenario.horizon_ns,
                perturbations=perturbations,
                label=cid,
            )
            cells.append(Cell(
                id=cid,
                coords=(
                    ("workload", scenario.kind),
                    ("mode", mode.value),
                    ("placement", placement),
                    ("stress", _stress_name(scenario)),
                    ("host_timer", f"hz{scenario.tick_hz}"),
                    ("perturb", perturb_coord),
                    ("seed", str(seed)),
                ),
                spec=spec,
            ))
    return cells


def _stress_name(scenario: FuzzScenario) -> str:
    if scenario.noise and scenario.cpuidle:
        return "noise+cpuidle"
    if scenario.noise:
        return "noise"
    if scenario.cpuidle:
        return "cpuidle"
    return "none"
