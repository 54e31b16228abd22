"""Benchmark: Table 2 + Fig. 4 — sequential PARSEC (§6.1).

Paper: −50 % VM exits, +7 % system throughput, −2 % execution time on
average across 13 benchmarks. Shape assertions: the exit reduction
matches closely (it is mechanical); throughput/exec-time improvements
must be directionally right with the documented conservative magnitude
(see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

from repro.experiments import table2_fig4


def test_table2_fig4_sequential_parsec(benchmark):
    result = benchmark.pedantic(
        table2_fig4.run, kwargs={"target_cycles": 300_000_000}, rounds=1, iterations=1
    )
    print("\n" + result.render())
    agg = result.aggregate
    # Exits: paper −50 %; mechanical, must be close.
    assert -0.70 <= agg.vm_exits <= -0.30
    # Throughput: paper +7 %; direction + conservative band.
    assert agg.throughput > 0.0
    # Execution time: paper −2 %; small improvement, never a regression
    # beyond noise (§6.1: "not affected negatively").
    assert agg.exec_time <= 0.005
    # Per-benchmark: paratick must never *increase* exits (§4.2's
    # never-worse-than-tickless guarantee).
    for comp in result.rows:
        assert comp.vm_exits < 0, f"{comp.label} gained exits"
