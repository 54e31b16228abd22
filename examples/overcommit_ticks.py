#!/usr/bin/env python3
"""Idle, overcommitted VMs: the classic periodic-tick failure (§3.1).

Places four idle 4-vCPU VMs on two physical CPUs (8 vCPUs per pCPU
pair). With classic periodic ticks every vCPU must be woken f_tick
times a second just to run a no-op tick handler; tickless and paratick
guests stay quiet. This is Table 1's W1/W2 regime, run on the full
simulator with host-scheduler time sharing instead of the closed-form
model.

    python examples/overcommit_ticks.py
"""

from repro.config import TickMode
from repro.experiments.overcommit import run_idle_overcommit
from repro.metrics.report import format_table
from repro.sim.timebase import SEC


def run(mode: TickMode) -> tuple[int, float]:
    # Two vCPUs of each VM share pCPU0, two share pCPU1.
    result = run_idle_overcommit(
        mode, vms=4, vcpus_per_vm=4, pcpus=2, duration_ns=SEC, noise=False, seed=0
    )
    busy_ms = result.total_busy_ns * 2 / 1e6  # per-pCPU busy time x 2 pCPUs
    return result.total_exits, busy_ms


def main() -> None:
    rows = []
    for mode in TickMode:
        exits, busy_ms = run(mode)
        rows.append((mode.value, f"{exits:,}", f"{busy_ms:.1f}"))
    print(
        format_table(
            ["tick mode", "VM exits/s", "host CPU busy (ms per 2 CPU-seconds)"],
            rows,
            title="4 idle VMs x 4 vCPUs on 2 physical CPUs, 1 simulated second",
        )
    )
    print(
        "\n16 idle vCPUs with periodic ticks cost the host thousands of\n"
        "wakeups and exits per second (§3.1's overcommit problem);\n"
        "tickless and paratick guests leave the host idle."
    )


if __name__ == "__main__":
    main()
