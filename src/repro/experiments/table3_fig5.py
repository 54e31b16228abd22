"""Table 3 + Figure 5 — multithreaded PARSEC in three VM sizes (§6.2).

The paper's scenarios: small (4 vCPUs, 1 socket), medium (16 vCPUs,
2 sockets), large (64 vCPUs, 4 sockets); parallelism equals the vCPU
count. Paper Table 3:

    small   −42 % exits   +12 % throughput   −1 % exec time
    medium  −47 % exits   +13 % throughput   −3 % exec time
    large   −44 % exits   +16 % throughput   −1 % exec time
"""

from __future__ import annotations

from repro.experiments.figure import Figure, run_ab
from repro.experiments.parallel import WorkloadSpec
from repro.experiments.scenarios import VmSize, pins_for_size
from repro.metrics.aggregate import aggregate_improvements
from repro.workloads import parsec

#: The paper's Table 3 (exits, throughput, exec time).
PAPER_TABLE3 = {
    "small": (-0.42, +0.12, -0.01),
    "medium": (-0.47, +0.13, -0.03),
    "large": (-0.44, +0.16, -0.01),
}

#: Per-thread work budgets chosen so the large scenario stays tractable
#: (results are rates; run length does not change the relative numbers).
DEFAULT_BUDGETS = {"small": 500_000_000, "medium": 300_000_000, "large": 120_000_000}


def run_size(
    size: VmSize,
    *,
    benches: tuple[str, ...] = parsec.BENCHMARK_NAMES,
    target_cycles: int | None = None,
    seed: int = 0,
    **engine,
) -> Figure:
    """One VM-size scenario across the benchmark list.

    The benchmark x tick-mode grid runs through the parallel experiment
    engine (``jobs``/cache aware; see :mod:`repro.experiments.parallel`).
    """
    budget = target_cycles if target_cycles is not None else DEFAULT_BUDGETS[size.name]
    rows = run_ab(
        [(bench, WorkloadSpec.make("parsec", name=bench, threads=size.vcpus,
                                   target_cycles=budget))
         for bench in benches],
        seed=seed, prefix=f"{size.name}.",
        knobs={"pinned_cpus": pins_for_size(size)}, **engine,
    )
    p = PAPER_TABLE3[size.name]
    return Figure(
        title=(
            f"Fig. 5 / Table 3 [{size.name}: {size.vcpus} vCPUs, "
            f"{size.sockets_used} socket(s)] — paratick vs tickless\n"
            f"(paper: {p[0]:+.0%} exits, {p[1]:+.0%} throughput, {p[2]:+.0%} exec time)"
        ),
        rows=rows,
        aggregate=aggregate_improvements(rows, label=f"average ({size.name})"),
    )
