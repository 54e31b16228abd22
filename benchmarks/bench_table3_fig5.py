"""Benchmark: Table 3 + Fig. 5 — multithreaded PARSEC (§6.2).

Paper averages: small −42 %/+12 %/−1 %, medium −47 %/+13 %/−3 %,
large −44 %/+16 %/−1 % (exits / throughput / exec time).

Shape assertions: exit reductions in band for every size; throughput
positive and larger than the sequential aggregate; execution-time
improvement far smaller than the throughput improvement (the critical-
path argument of §4.2/§6.2).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

from repro.experiments import table3_fig5
from repro.experiments.scenarios import LARGE, MEDIUM, SMALL

@pytest.mark.parametrize("size", [SMALL, MEDIUM, LARGE], ids=lambda s: s.name)
def test_table3_fig5_multithreaded_parsec(benchmark, size):
    result = benchmark.pedantic(
        table3_fig5.run_size,
        args=(size,),
        kwargs={"target_cycles": table3_fig5.DEFAULT_BUDGETS[size.name]},
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    agg = result.aggregate
    assert -0.70 <= agg.vm_exits <= -0.20, f"{size.name}: exits {agg.vm_exits:+.1%}"
    assert agg.throughput > 0.0
    # §6.2: throughput gains do not translate into comparable runtime
    # gains for multithreaded workloads.
    assert agg.exec_time <= 0.01
    assert abs(agg.exec_time) < agg.throughput
    for comp in result.rows:
        assert comp.vm_exits < 0, f"{comp.label} gained exits"
