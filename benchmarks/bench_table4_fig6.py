"""Benchmark: Table 4 + Fig. 6 — fio storage workloads (§6.3).

Paper: −34 % VM exits, +20 % I/O throughput, −18 % execution time on
average; reads benefit more than writes (Fig. 6c).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

from repro.experiments import table4_fig6


def test_table4_fig6_fio(benchmark):
    result = benchmark.pedantic(
        table4_fig6.run, kwargs={"total_bytes": 16 << 20}, rounds=1, iterations=1
    )
    print("\n" + result.render())
    agg = result.aggregate
    # Exits: paper −34 % — mechanical, tight band.
    assert -0.55 <= agg.vm_exits <= -0.20
    # I/O throughput: positive, and exec time mirrors it (Table 4's
    # near-equality of the two columns).
    assert agg.throughput > 0.02
    assert agg.exec_time < -0.02
    # Fig. 6c: reads gain more than writes.
    by_cat = {c.label: c for c in result.rows}
    read_gain = (by_cat["seqr"].throughput + by_cat["rndr"].throughput) / 2
    write_gain = (by_cat["seqwr"].throughput + by_cat["rndwr"].throughput) / 2
    assert read_gain > write_gain, f"reads {read_gain:+.1%} <= writes {write_gain:+.1%}"
