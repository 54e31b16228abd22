"""Table 4 + Figure 6 — fio storage workloads (§6.3).

Four categories (seqr / seqwr / rndr / rndwr), each aggregating block
sizes 4 kB–256 kB, on a 1-vCPU VM with a SATA-class SSD model.

Metric note: for these workloads the paper measures **I/O throughput**
directly and argues "Since I/O operations are the sole system
bottleneck, I/O throughput equates to system throughput". We therefore
report throughput as bytes/second (the inverse execution-time ratio),
and additionally expose the cycle-based throughput for reference.

Paper Table 4: **−34 % exits, +20 % throughput, −18 % execution time**;
Fig. 6c additionally shows reads gaining more than writes.
"""

from __future__ import annotations

from repro.experiments.figure import Figure, run_ab
from repro.experiments.parallel import WorkloadSpec
from repro.metrics.aggregate import aggregate_improvements
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison
from repro.workloads import fio

#: The paper's Table 4.
PAPER_TABLE4 = {"vm_exits": -0.34, "throughput": +0.20, "exec_time": -0.18}


def _io_comparison(base: RunMetrics, cand: RunMetrics, label: str) -> Comparison:
    # I/O throughput = bytes / time; same byte count both runs.
    return Comparison(
        label=label,
        vm_exits=cand.total_exits / base.total_exits - 1.0,
        throughput=base.exec_time_ns / cand.exec_time_ns - 1.0,
        exec_time=cand.exec_time_ns / base.exec_time_ns - 1.0,
    )


def run(
    *,
    total_bytes: int = 16 << 20,
    block_sizes: tuple[int, ...] = fio.BLOCK_SIZES,
    seed: int = 0,
    **engine,
) -> Figure:
    """The full category x block-size sweep, aggregated per category.

    The category x block-size x tick-mode grid runs through the
    parallel experiment engine (``jobs``/cache aware). Every job uses
    the fio workload's own SATA-class SSD model.
    """
    comps = run_ab(
        [(f"{cat}.{bs // 1024}k", WorkloadSpec.make(
            "fio", category=cat, block_size=bs, total_bytes=total_bytes))
         for cat in fio.CATEGORIES for bs in block_sizes],
        seed=seed, compare=_io_comparison, **engine,
    )
    n = len(block_sizes)
    rows = [aggregate_improvements(comps[i * n:(i + 1) * n], label=cat)
            for i, cat in enumerate(fio.CATEGORIES)]
    return Figure(
        title=(
            "Fig. 6 / Table 4 — fio, paratick vs tickless "
            f"(paper averages: {PAPER_TABLE4['vm_exits']:+.0%} exits, "
            f"{PAPER_TABLE4['throughput']:+.0%} throughput, "
            f"{PAPER_TABLE4['exec_time']:+.0%} exec time)"
        ),
        rows=rows,
        aggregate=aggregate_improvements(rows, label="average (Table 4)"),
        label_header="category",
        io_throughput=True,
    )
