"""Benchmark: Table 1 — periodic vs tickless exit counts (§3.3).

Regenerates the analytical table (must match the paper digit-for-digit)
and cross-checks W1/W3 on the full simulator.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

from repro.core.model import TABLE1_PAPER
from repro.experiments import table1


def test_table1_analytical(benchmark):
    rows = benchmark(table1.analytical_rows)
    print("\n" + table1.render())
    for row in rows:
        assert (row.periodic, row.tickless) == (row.paper_periodic, row.paper_tickless), (
            f"{row.workload}: computed ({row.periodic}, {row.tickless}) != paper "
            f"({row.paper_periodic}, {row.paper_tickless})"
        )
    assert {r.workload for r in rows} == set(TABLE1_PAPER)


def test_table1_simulated_cross_check(benchmark):
    out = benchmark.pedantic(table1.simulated_cross_check, rounds=1, iterations=1)
    print("\nSimulated exits/s:", out)
    # W1 (idle, 16 vCPU, 250 Hz): periodic pays ~one exit per tick per
    # vCPU (4000/s); tickless is near-silent.
    assert 3_500 <= out["W1"]["periodic"] <= 4_600
    assert out["W1"]["tickless"] < 200
    # W3 (sync storm): the §3.3 reversal — tickless now exceeds periodic.
    assert out["W3"]["tickless"] > out["W3"]["periodic"]


def test_table1_w2_overcommitted_scaling(benchmark):
    """W2 = 4 x W1 with the vCPUs time-sharing physical CPUs: exits
    scale with the VM count even though the host is overcommitted 4:1 —
    the §3.1 throughput sink."""
    from repro.config import TickMode
    from repro.experiments.overcommit import run_idle_overcommit
    from repro.sim.timebase import SEC

    def run():
        return {
            mode: run_idle_overcommit(
                mode, vms=4, vcpus_per_vm=16, pcpus=16, duration_ns=SEC // 2
            )
            for mode in (TickMode.PERIODIC, TickMode.TICKLESS)
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    per, nohz = out[TickMode.PERIODIC], out[TickMode.TICKLESS]
    print(f"\nW2 simulated: periodic {per.exits_per_second:,.0f}/s "
          f"(busy {per.busy_fraction:.1%}/CPU), tickless {nohz.exits_per_second:,.0f}/s")
    # 64 idle vCPUs at 250 Hz -> ~16k exits/s under periodic ticks.
    assert 13_000 <= per.exits_per_second <= 18_500
    assert nohz.exits_per_second < 500
