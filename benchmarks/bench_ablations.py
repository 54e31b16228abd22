"""Benchmark: ablations of paratick's design choices (§5) and the DID
comparison (§7).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

from repro.experiments import ablations


def test_keep_timer_heuristic(benchmark):
    """§5.2.5: tearing the idle-entry timer down at idle exit costs
    extra exits — the reason the paper keeps it armed."""
    row = benchmark.pedantic(ablations.ablate_keep_timer, rounds=1, iterations=1)
    print(f"\n{row.name}: {row.variant_exits:,} vs {row.reference_exits:,} ({row.exit_delta:+.1%})")
    assert row.exit_delta > 0.10, "disabling the heuristic should cost >10% more exits"


def test_last_tick_heuristic(benchmark):
    """§5.1: without the last-tick update, the host injects redundant
    virtual ticks on entries that already carry a timer interrupt."""
    row = benchmark.pedantic(ablations.ablate_last_tick_heuristic, rounds=1, iterations=1)
    print(f"\n{row.name}: {row.variant_exits:,} vs {row.reference_exits:,} ({row.exit_delta:+.1%})")
    assert row.exit_delta > 0.10, "redundant virtual ticks expected without the heuristic"


def test_halt_polling_burns_cycles(benchmark):
    """§6: halt polling consumes CPU without improving runtime for
    contended workloads — why the paper disables it."""
    rows = benchmark.pedantic(ablations.ablate_halt_polling, rounds=1, iterations=1)
    print()
    for r in rows:
        print(f"  poll={r.poll_ns:>7,}ns exec={r.exec_time_ns / 1e6:8.2f}ms cycles={r.total_cycles / 1e6:7.0f}M")
    off, on = rows[0], rows[-1]
    assert on.total_cycles > off.total_cycles, "polling must burn extra cycles"
    # Runtime may improve marginally at best.
    assert on.exec_time_ns > off.exec_time_ns * 0.97


def test_frequency_mismatch_and_rate_adaptation(benchmark):
    """§4.1: virtual-tick delivery accuracy vs host tick rate, with and
    without the preemption-timer backstop the paper's design calls for."""
    rows = benchmark.pedantic(ablations.ablate_frequency_mismatch, rounds=1, iterations=1)
    print()
    for r in rows:
        print(f"  host {r.host_hz:>5} Hz adapt={'on ' if r.rate_adapt else 'off'} -> "
              f"~{r.delivered_hz:.0f}/s of {r.guest_hz} ({r.total_exits:,} exits)")
    by = {(r.host_hz, r.rate_adapt): r for r in rows}
    # Matching or faster host rates deliver the full guest rate already.
    assert by[(250, False)].delivered_hz > 230
    assert by[(1000, False)].delivered_hz > 230
    # A slower host degrades delivery toward its own rate...
    assert by[(100, False)].delivered_hz < 150
    # ...and the backstop restores it, at the cost of extra exits.
    assert by[(100, True)].delivered_hz > 230
    assert by[(100, True)].total_exits > by[(100, False)].total_exits


def test_virtual_eoi(benchmark):
    """Pre-APICv hosts (EOI traps): paratick's relative reduction is
    diluted by the extra universal exits but stays firmly negative."""
    rows = benchmark.pedantic(ablations.ablate_virtual_eoi, rounds=1, iterations=1)
    print()
    for r in rows:
        print(f"  virtual_eoi={r.virtual_eoi}: exits {r.exit_reduction:+.1%} "
              f"(baseline {r.base_exits:,})")
    with_eoi = next(r for r in rows if r.virtual_eoi)
    without = next(r for r in rows if not r.virtual_eoi)
    assert without.base_exits > with_eoi.base_exits, "trapped EOIs must add exits"
    assert without.exit_reduction < -0.15, "paratick must still win"
    assert without.exit_reduction > with_eoi.exit_reduction, (
        "universal EOI exits dilute the relative reduction"
    )


def test_exit_cost_sensitivity(benchmark):
    """Throughput gain scales with per-exit cost; exit counts do not."""
    rows = benchmark.pedantic(ablations.ablate_exit_cost_sensitivity, rounds=1, iterations=1)
    print()
    for r in rows:
        print(f"  pollution={r.pollution_cycles:>7,}cy: throughput {r.throughput_gain:+.1%}, "
              f"exits {r.exit_reduction:+.1%}")
    gains = [r.throughput_gain for r in rows]
    assert gains == sorted(gains), "gain must grow with per-exit cost"
    exits = [r.exit_reduction for r in rows]
    assert max(exits) - min(exits) < 0.10, "exit counts must be cost-insensitive"


def test_did_comparison(benchmark):
    """§7: DID removes even host-tick exits but dedicates a core; it
    only wins on large machines."""
    est, crossover, base, para = benchmark.pedantic(ablations.ablate_did, rounds=1, iterations=1)
    print(
        f"\nDID: exits {est.vm_exits:+.1%}, gross throughput "
        f"{est.throughput_without_core_loss:+.1%}, net (16 CPUs) {est.throughput:+.1%}, "
        f"breakeven ~{crossover:.0f} CPUs"
    )
    assert est.vm_exits < para.total_exits / base.total_exits - 1, "DID must remove more exits than paratick"
    assert est.throughput < est.throughput_without_core_loss, "the dedicated core must cost something"
    assert crossover > 16, "on the paper's argument DID loses on mid-size machines"
