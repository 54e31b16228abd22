"""Benchmark: Table 4 + Fig. 6 — fio storage workloads (§6.3).

Paper: −34 % VM exits, +20 % I/O throughput, −18 % execution time on
average; reads benefit more than writes (Fig. 6c).

Also runnable as a script: ``python benchmarks/bench_table4_fig6.py --jobs 4``.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

import sys
from pathlib import Path

if not __package__:  # script mode: make src/ and the repo root importable
    _root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_root), str(_root / "src")]

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


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.parallel import progress_reporter
    from repro.workloads.fio import BLOCK_SIZES
    from benchmarks._driver import grid_arg_parser, report_grid

    ap = grid_arg_parser(__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer bytes, fewer block sizes")
    args = ap.parse_args(argv)
    stats, cb = progress_reporter()
    result = table4_fig6.run(
        total_bytes=(4 << 20) if args.quick else (16 << 20),
        block_sizes=BLOCK_SIZES[:2] if args.quick else BLOCK_SIZES,
        seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir,
        use_cache=not args.no_cache, progress=cb,
    )
    print(result.render())
    return report_grid(stats, jobs=args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
