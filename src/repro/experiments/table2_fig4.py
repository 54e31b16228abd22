"""Table 2 + Figure 4 — sequential PARSEC, paratick vs vanilla (§6.1).

Figure 4 shows three per-benchmark panels (VM exits, system throughput,
execution time, all relative to tickless Linux); Table 2 is the suite
average: paper values **−50 % exits, +7 % throughput, −2 % execution
time**. One call to :func:`run` regenerates both: the per-benchmark rows
are the figure's series, the aggregate row is the table.
"""

from __future__ import annotations

from repro.experiments.figure import Figure, run_ab
from repro.experiments.parallel import WorkloadSpec
from repro.metrics.aggregate import aggregate_improvements
from repro.workloads import parsec

#: The paper's Table 2.
PAPER_TABLE2 = {"vm_exits": -0.50, "throughput": +0.07, "exec_time": -0.02}


def run(*, target_cycles: int = 300_000_000, seed: int = 0, **engine) -> Figure:
    """Run all 13 benchmarks sequentially in both modes.

    The 13 x 2 grid goes through the parallel experiment engine:
    ``jobs=N`` fans benchmarks out over worker processes, and the
    result cache (``use_cache``/``cache_dir``) re-executes only cells
    whose spec changed since the last sweep.
    """
    rows = run_ab(
        [(bench, WorkloadSpec.make("parsec", name=bench, target_cycles=target_cycles))
         for bench in parsec.BENCHMARK_NAMES],
        seed=seed, **engine,
    )
    return Figure(
        title=(
            "Fig. 4 / Table 2 — sequential PARSEC, paratick vs tickless\n"
            f"(paper averages: {PAPER_TABLE2['vm_exits']:+.0%} exits, "
            f"{PAPER_TABLE2['throughput']:+.0%} throughput, "
            f"{PAPER_TABLE2['exec_time']:+.0%} exec time)"
        ),
        rows=rows,
        aggregate=aggregate_improvements(rows, label="average (Table 2)"),
    )
