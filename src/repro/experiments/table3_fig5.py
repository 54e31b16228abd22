"""Table 3 + Figure 5 — multithreaded PARSEC in three VM sizes (§6.2).

The paper's scenarios: small (4 vCPUs, 1 socket), medium (16 vCPUs,
2 sockets), large (64 vCPUs, 4 sockets); parallelism equals the vCPU
count. Paper Table 3:

    small   −42 % exits   +12 % throughput   −1 % exec time
    medium  −47 % exits   +13 % throughput   −3 % exec time
    large   −44 % exits   +16 % throughput   −1 % exec time
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.parallel import WorkloadSpec, ab_specs, compare_from_grid, run_grid
from repro.experiments.scenarios import VmSize, pins_for_size
from repro.metrics.aggregate import aggregate_improvements
from repro.metrics.report import Comparison, format_table
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


@dataclass
class Fig5Result:
    size: VmSize
    per_benchmark: list[Comparison]
    aggregate: Comparison

    def render(self) -> str:
        rows = [c.row() for c in self.per_benchmark]
        rows.append(self.aggregate.row())
        p = PAPER_TABLE3[self.size.name]
        return format_table(
            ["benchmark", "VM exits", "throughput", "exec time"],
            rows,
            title=(
                f"Fig. 5 / Table 3 [{self.size.name}: {self.size.vcpus} vCPUs, "
                f"{self.size.sockets_used} socket(s)] — paratick vs tickless\n"
                f"(paper: {p[0]:+.0%} exits, {p[1]:+.0%} throughput, {p[2]:+.0%} exec time)"
            ),
        )


def run_size(
    size: VmSize,
    *,
    benches: tuple[str, ...] = parsec.BENCHMARK_NAMES,
    target_cycles: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
    cache_dir=None,
    use_cache: bool = False,
    progress=None,
    telemetry=None,
) -> Fig5Result:
    """One VM-size scenario across the benchmark list.

    The benchmark x tick-mode grid runs through the parallel experiment
    engine (``jobs``/cache aware; see :mod:`repro.experiments.parallel`).
    """
    budget = target_cycles if target_cycles is not None else DEFAULT_BUDGETS[size.name]
    pins = pins_for_size(size)
    pairs = []
    specs = []
    for bench in benches:
        ws = WorkloadSpec.make(
            "parsec", name=bench, threads=size.vcpus, target_cycles=budget
        )
        b, c = ab_specs(ws, seed=seed, pinned_cpus=pins, label=f"{size.name}.{bench}")
        pairs.append((bench, b, c))
        specs += [b, c]
    grid = run_grid(
        specs, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        progress=progress, telemetry=telemetry,
    ).raise_if_failed()
    comps = [compare_from_grid(grid, b, c, bench) for bench, b, c in pairs]
    return Fig5Result(size, comps, aggregate_improvements(comps, label=f"average ({size.name})"))
