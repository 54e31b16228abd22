"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro table1
    python -m repro table2            # Fig. 4 + Table 2 (sequential PARSEC)
    python -m repro --jobs 4 table3 --size medium
    python -m repro table4            # Fig. 6 + Table 4 (fio)
    python -m repro run streamcluster --threads 16 --mode paratick
    python -m repro --jobs 4 ablations

The heavy sweeps accept ``--quick`` to shrink the work budget (same
relative results, less wall-clock). ``--jobs N`` fans independent grid
cells out over N worker processes; results are cached on disk
(``.repro-cache/`` by default) so a repeated sweep only executes cells
whose spec changed — ``--no-cache`` forces re-execution and
``--cache-dir`` relocates the store.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import TickMode
from repro.errors import ReproError
from repro.experiments import runner
from repro.experiments.scenarios import VM_SIZES
from repro.metrics.report import format_table
from repro.workloads import parsec


def _engine_kwargs(args) -> dict:
    """Engine options shared by every grid-backed command."""
    return {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "use_cache": not args.no_cache,
        "progress": _progress_printer(args),
        "telemetry": getattr(args, "telemetry", None),
    }


def _progress_printer(args):
    """Per-cell progress lines on stderr (the CLI's progress callback)."""
    if args.quiet_progress:
        return None
    from repro.experiments.parallel import progress_reporter

    return progress_reporter()


def _cmd_table1(args) -> int:
    from repro.experiments import table1

    print(table1.render())
    if args.simulate:
        print("\nSimulated cross-check (exits/s at 250 Hz, 16 vCPUs):")
        for name, modes in table1.simulated_cross_check(**_engine_kwargs(args)).items():
            print(f"  {name}: " + ", ".join(f"{m}={v:,.0f}" for m, v in modes.items()))
    return 0


def _print_figure(figure, args, name: str) -> None:
    """A paper figure's table, then (``--chart``) its ASCII panels."""
    print(figure.render())
    if args.chart:
        print(f"\n{name} —")
        print(figure.chart())


def _cmd_table2(args) -> int:
    from repro.experiments import table2_fig4

    budget = 120_000_000 if args.quick else 300_000_000
    result = table2_fig4.run(target_cycles=budget, seed=args.seed, **_engine_kwargs(args))
    _print_figure(result, args, "Fig. 4")
    return 0


def _cmd_table3(args) -> int:
    from repro.experiments import table3_fig5

    sizes = [s for s in VM_SIZES if args.size in ("all", s.name)]
    benches = tuple(args.bench) if args.bench else parsec.BENCHMARK_NAMES
    for size in sizes:
        budget = None if not args.quick else max(20_000_000, (table3_fig5.DEFAULT_BUDGETS[size.name] // 3))
        result = table3_fig5.run_size(
            size, benches=benches, target_cycles=budget, seed=args.seed,
            **_engine_kwargs(args),
        )
        _print_figure(result, args, f"Fig. 5 [{size.name}]")
        print()
    return 0


def _cmd_table4(args) -> int:
    from repro.experiments import table4_fig6
    from repro.workloads.fio import BLOCK_SIZES

    total = (4 << 20) if args.quick else (16 << 20)
    sizes = BLOCK_SIZES[:2] if args.quick else BLOCK_SIZES
    result = table4_fig6.run(
        total_bytes=total, block_sizes=sizes, seed=args.seed, **_engine_kwargs(args)
    )
    _print_figure(result, args, "Fig. 6")
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments import ablations

    engine = _engine_kwargs(args)
    rows = [
        ablations.ablate_keep_timer(seed=args.seed, **engine),
        ablations.ablate_last_tick_heuristic(seed=args.seed, **engine),
    ]
    print(format_table(
        ["heuristic disabled", "exits", "vs paratick default"],
        [(r.name, f"{r.variant_exits:,}", f"{r.exit_delta:+.1%}") for r in rows],
        title="Paratick design-choice ablations",
    ))
    print()
    hp = ablations.ablate_halt_polling(seed=args.seed, **engine)
    print(format_table(
        ["halt_poll_ns", "exec time (ms)", "total cycles (M)"],
        [(f"{r.poll_ns:,}", f"{r.exec_time_ns / 1e6:.2f}", f"{r.total_cycles / 1e6:.0f}") for r in hp],
        title="Halt polling (why §6 disables it)",
    ))
    print()
    mm = ablations.ablate_frequency_mismatch(seed=args.seed, **engine)
    print(format_table(
        ["host Hz", "guest Hz", "rate adapt", "ticks delivered/s", "total exits"],
        [(r.host_hz, r.guest_hz, "on" if r.rate_adapt else "off",
          f"{r.delivered_hz:.0f}", f"{r.total_exits:,}") for r in mm],
        title="Host/guest tick-frequency mismatch (§4.1) and the backstop",
    ))
    print()
    eoi = ablations.ablate_virtual_eoi(seed=args.seed, **engine)
    print(format_table(
        ["virtual EOI (APICv)", "paratick exit reduction", "baseline exits"],
        [("on" if r.virtual_eoi else "off (traps)", f"{r.exit_reduction:+.1%}", f"{r.base_exits:,}") for r in eoi],
        title="EOI virtualization sensitivity",
    ))
    print()
    est, crossover, base, para = ablations.ablate_did(seed=args.seed, **engine)
    print("DID comparison (§7): "
          f"throughput {est.throughput:+.1%} (net of dedicated core) vs "
          f"{est.throughput_without_core_loss:+.1%} gross; "
          f"exits {est.vm_exits:+.1%}; breaks even above ~{crossover:.0f} CPUs")
    return 0


def _cmd_export(args) -> int:
    from pathlib import Path

    from repro.experiments import table2_fig4, table3_fig5, table4_fig6

    engine = _engine_kwargs(args)
    figures = []
    if args.figure in ("fig4", "all"):
        figures.append(("fig4_sequential_parsec.csv", table2_fig4.run(
            target_cycles=200_000_000, seed=args.seed, **engine)))
    if args.figure in ("fig5", "all"):
        figures += [(f"fig5_parallel_parsec_{size.name}.csv",
                     table3_fig5.run_size(size, seed=args.seed, **engine))
                    for size in VM_SIZES]
    if args.figure in ("fig6", "all"):
        figures.append(("fig6_fio.csv", table4_fig6.run(
            total_bytes=8 << 20, seed=args.seed, **engine)))
    for name, figure in figures:
        print(f"wrote {figure.write_csv(Path(args.out) / name)}")
    return 0


def _cmd_validate(args) -> int:
    from repro.experiments import validate

    results = validate.run_all(artifacts_dir=args.artifacts)
    for r in results:
        mark = "ok " if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
    if args.artifacts:
        print(f"observability artifacts written to {args.artifacts}/")
    return 0 if all(r.passed for r in results) else 1


def _cmd_list(args) -> int:
    from repro.workloads.fio import BLOCK_SIZES, CATEGORIES
    from repro.workloads.parsec import PROFILES

    rows = [
        (name, p.sync_kind, f"{p.sync_hz:,.0f}/s", f"{p.io_read_hz:,.0f}/s")
        for name, p in sorted(PROFILES.items())
    ]
    print(format_table(
        ["PARSEC benchmark", "sync kind", "blocking sync", "input streaming"],
        rows,
        title="PARSEC models (repro.workloads.parsec)",
    ))
    print(f"\nfio (repro.workloads.fio): {', '.join(CATEGORIES)} x "
          f"{', '.join(str(b // 1024) + 'k' for b in BLOCK_SIZES)}")
    print("micro (repro.workloads.micro): idle, syncstorm, pingpong, idleperiod")
    print("netserve (repro.workloads.netserve): RPC service, 10G/100G links")
    return 0


def _cmd_check(args) -> int:
    """Run one PARSEC model under the tick sanitizer; exit 1 on violation."""
    from repro.experiments.parallel import RunSpec
    from repro.scenarios.runcheck import sanitized_run

    ws = _parsec_spec(args)
    _, sanitizer, problems = sanitized_run(
        RunSpec(ws, tick_mode=TickMode(args.mode), seed=args.seed))
    print(f"{ws.build().name}/{args.mode}: {sanitizer.summary()}")
    for p in problems:
        print(f"  VIOLATION: {p}")
    if problems:
        print(f"sanitizer: {len(problems)} problem(s)")
        return 1
    print("sanitizer: clean")
    return 0


def _cmd_fuzz(args) -> int:
    """Differential fuzz of the timer path; exit 1 on any violation."""
    from repro.analysis import fuzz

    placements = (fuzz.SOLO,) if args.solo_only else (fuzz.SOLO, fuzz.OVERCOMMIT)
    if args.seed_list:
        seeds = [int(s) for s in args.seed_list]
    else:
        seeds = list(range(args.seed, args.seed + args.runs))

    failed: list[int] = []

    def progress(report) -> None:
        mark = "ok " if report.ok else "FAIL"
        print(f"[{mark}] {report.scenario.describe()} "
              f"({report.runs} runs, {report.events} events)")
        for p in report.problems:
            print(f"       {p}")
        if not report.ok:
            failed.append(report.seed)

    if args.arch:
        # Cross-architecture sweep: every seed runs under every
        # (arch, mode) cell and the backends are diffed against each
        # other (useful-cycle equivalence + per-arch exit taxonomy).
        for seed in seeds:
            progress(fuzz.fuzz_seed_arch(seed, placements=(fuzz.SOLO,)))
        if failed:
            print(f"\n{len(failed)}/{len(seeds)} seeds failed: {failed}")
            print("replay one with: python -m repro fuzz --arch --seed-list "
                  + " ".join(str(s) for s in failed))
            return 1
        print(f"\nall {len(seeds)} seeds clean across "
              f"{len(fuzz.ARCH_SWEEP) * 3} arch/mode cells each")
        return 0

    fuzz.fuzz_many(seeds, placements=placements, perturb=args.perturb,
                   progress=progress)
    if failed:
        print(f"\n{len(failed)}/{len(seeds)} seeds failed: {failed}")
        replay = "python -m repro fuzz " + ("--perturb " if args.perturb else "")
        print("replay one with: " + replay + "--seed-list "
              + " ".join(str(s) for s in failed))
        return 1
    suffix = " (perturbed)" if args.perturb else ""
    print(f"\nall {len(seeds)} seeds clean across "
          f"{len(placements) * 3} mode/placement cells each{suffix}")
    return 0


def _cmd_table_arch(args) -> int:
    from repro.experiments import table_arch

    result = table_arch.run(seed=args.seed, quick=args.quick,
                            **_engine_kwargs(args))
    print(result.render())
    return 0


def _series_check(labeled_specs, result, *, out_dir=None) -> int:
    """Reconcile each cell's in-sim time series against its RunMetrics.

    ``labeled_specs`` is ``[(label, spec), ...]`` for the cells that ran
    with ``series=True``; returns the number of cells whose series is
    missing or does not sum exactly to the final metrics. When
    ``out_dir`` is given (``--telemetry-out``), each series is also
    written there as ``<label>.series.json``.
    """
    import json
    import os

    from repro.obs import reconcile_series

    bad = 0
    checked = 0
    for label, spec in labeled_specs:
        metrics = result.results.get(spec)
        if metrics is None:
            continue  # already reported as [FAIL]
        series = result.series.get(spec)
        if series is None:
            print(f"[series] {label}: no time-series artifact recorded")
            bad += 1
            continue
        checked += 1
        errors = reconcile_series(series, metrics)
        if errors:
            bad += 1
            print(f"[series] {label}: reconciliation FAILED:")
            for e in errors:
                print(f"    {e}")
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, label.replace("/", "__") + ".series.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(series, fh, indent=2, sort_keys=True)
            print(f"wrote time series: {path} "
                  f"({len(series['windows'])} windows)", file=sys.stderr)
    if bad:
        print(f"series: {bad} cell(s) failed exact reconciliation")
    elif checked:
        print(f"series: {checked} cell(s) reconcile exactly with their RunMetrics")
    return bad


def _series_cells(cells, args) -> list:
    """Opt every cell into time-series recording under ``--series``."""
    if not args.series:
        return cells
    from dataclasses import replace

    return [replace(c, spec=c.spec.with_(series=True)) for c in cells]


def _journaled(run, work, args):
    """``run(work, journal=..., resume=..., **engine)``, or None after
    reporting a journal that no longer matches the grid."""
    from repro.resilience import ResumeError

    try:
        # Resuming without --journal appends to the resumed file.
        return run(work, journal=args.journal or args.resume, resume=args.resume,
                   **_engine_kwargs(args))
    except ResumeError as exc:
        print(f"resume failed: {exc}", file=sys.stderr)
        return None


def _identity_gate(check, work, args, *, prefix: str, ok: str) -> int:
    """Run a byte-identity ``check`` in a throwaway cache; 1 on problems."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix=prefix) as td:
        problems = check(work, jobs=args.jobs or 2, cache_dir=td,
                         progress=_progress_printer(args))
    if problems:
        print(f"\nidentity check FAILED ({len(problems)} problems):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"identity check: {ok} (byte-identical)")
    return 0


def _cmd_matrix(args) -> int:
    """Expand / check / run a scenario-matrix file; exit 1 on problems."""
    from repro.scenarios import check_cells, identity_problems, load_matrix

    mx = load_matrix(args.file)
    cells = mx.expand()
    if args.action == "expand":
        for cell in cells:
            print(cell.id)
        print(f"{mx.name}: {len(cells)} cells", file=sys.stderr)
        return 0

    if args.max_cells and len(cells) > args.max_cells:
        print(f"{mx.name}: limiting to first {args.max_cells} of {len(cells)} cells",
              file=sys.stderr)
        cells = cells[: args.max_cells]

    if args.action == "check":
        failed = 0

        def progress(check) -> None:
            nonlocal failed
            mark = "ok " if check.ok else "FAIL"
            print(f"[{mark}] {check.cell.id} ({check.events} events)")
            for p in check.problems:
                print(f"       {p}")
            failed += 0 if check.ok else 1

        check_cells(cells, progress=progress,
                    telemetry=getattr(args, "telemetry", None))
        if failed:
            print(f"\n{failed}/{len(cells)} cells failed the sanitizer")
            return 1
        print(f"\nall {len(cells)} cells sanitizer-clean")
        return 0

    # run
    from repro.fleet.report import format_run_summary
    from repro.scenarios import run_cells

    cells = _series_cells(cells, args)
    result = _journaled(run_cells, cells, args)
    if result is None:
        return 1
    failures = {f.spec: f for f in result.failed_specs}
    for cell in cells:
        metrics = result.results.get(cell.spec)
        if metrics is None:
            failed = failures.get(cell.spec)
            detail = (f": {failed.error} (after {failed.attempts} attempt(s))"
                      if failed is not None else "")
            print(f"[FAIL] {cell.id}{detail}")
        else:
            print(f"[ok ] {cell.id}: {metrics.total_exits} exits, "
                  f"{metrics.timer_exits} timer, "
                  f"overhead {metrics.overhead_ratio:.4f}")
    print("\n" + format_run_summary(mx.name, result))
    if result.report is not None:
        print(result.report.render())
    if args.series:
        bad = _series_check(
            [(cell.id, cell.spec) for cell in cells], result,
            out_dir=getattr(args, "telemetry_out", None),
        )
        if bad:
            return 1
    if args.identity and _identity_gate(identity_problems, cells, args,
                                        prefix="repro-matrix-id-",
                                        ok="serial == pooled == cached"):
        return 1
    return 0 if result.complete else 1


def _cmd_fleet(args) -> int:
    """Run a fleet matrix through the engine and print rack aggregates."""
    import json

    from repro.fleet.report import (
        failed_lines,
        format_fleet_table,
        format_run_summary,
        report_lines,
    )
    from repro.fleet.run import group_host_cells, identity_problems_for_groups, run_fleets
    from repro.scenarios import load_matrix

    mx = load_matrix(args.file)
    cells = _series_cells(mx.expand(), args)
    groups = group_host_cells(cells)
    if not groups:
        print(f"{mx.name}: no fleet cells — add a [fleets.*] table and put "
              f"its name on the [axes] fleet axis", file=sys.stderr)
        return 1
    outcome = _journaled(run_fleets, groups, args)
    if outcome is None:
        return 1
    aggregates, result = outcome
    hosts = sum(len(specs) for specs in groups.values())
    summary = format_run_summary(mx.name, result)
    if result.report is not None and result.report.outcome != "completed":
        summary += "\n" + result.report.render()
    if aggregates is None:
        for line in failed_lines(result):
            print(line)
        print("\n" + summary)
        return 1

    if args.json:
        print(json.dumps({k: a.to_json_dict() for k, a in aggregates.items()},
                         indent=2, sort_keys=True))
        print(summary, file=sys.stderr)
    elif args.action == "report":
        for chunk in report_lines(aggregates):
            print(chunk)
        print("\n" + summary)
    else:
        print(format_fleet_table(aggregates))
        print(f"\n{mx.name}: {len(groups)} fleet(s), {hosts} host shard(s)")
        print(summary)
    if args.series:
        bad = _series_check(
            [(c.id, c.spec) for c in cells if c.spec in result.results],
            result, out_dir=getattr(args, "telemetry_out", None),
        )
        if bad:
            return 1
    if args.identity:
        return _identity_gate(identity_problems_for_groups, groups, args,
                              prefix="repro-fleet-id-",
                              ok="serial == pooled == cached == order-shuffled")
    return 0


def _cmd_telemetry(args) -> int:
    """Summarize a ``--telemetry-out`` artifact directory."""
    from repro.obs.harness import report_lines

    for chunk in report_lines(args.dir):
        print(chunk)
    return 0


def _cmd_cache(args) -> int:
    """Verify (checksum every entry) or garbage-collect the result cache."""
    from repro.experiments.parallel import CACHE_VERSION, ResultCache
    from repro.resilience import gc_cache, verify_cache

    root = ResultCache(args.cache_dir).root
    if args.action == "verify":
        audit = verify_cache(root, quarantine=not args.no_quarantine)
        print(f"cache {root}: {audit.summary()}")
        for path in audit.corrupt:
            print(f"  corrupt: {path}")
        for path in audit.quarantined:
            print(f"  quarantined -> {path}")
        return 0 if audit.clean else 1
    stats = gc_cache(root, current_version=CACHE_VERSION,
                     purge_quarantine=args.purge_quarantine)
    print(f"cache {root}: {stats.summary()}")
    return 0


def _cmd_chaos(args) -> int:
    """Seeded chaos smoke: kill workers, crash the harness, corrupt the
    cache — then resume from the journal and require the fleet bytes to
    be identical to an uninterrupted run's."""
    import tempfile
    from pathlib import Path

    from repro.experiments.parallel import spec_key
    from repro.fleet.aggregate import fleet_bytes
    from repro.fleet.run import group_host_cells, run_fleets
    from repro.resilience import ChaosAbort, ChaosPolicy
    from repro.resilience.chaos import corrupt_cache_entry
    from repro.scenarios import load_matrix

    mx = load_matrix(args.file)
    groups = group_host_cells(mx.expand())
    if not groups:
        print(f"{mx.name}: no fleet cells to smoke", file=sys.stderr)
        return 1
    engine = _engine_kwargs(args)
    engine["jobs"] = engine["jobs"] or 2

    def fleet_run(cache_dir, **kwargs):
        return run_fleets(groups, **{**engine, "cache_dir": cache_dir,
                                     "use_cache": True, **kwargs})

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as td:
        golden_dir = Path(td) / "golden-cache"
        chaos_dir = Path(td) / "chaos-cache"
        journal = Path(td) / "run.journal"
        fuse_dir = Path(td) / "fuses"

        # 1. Uninterrupted run: the golden fleet bytes.
        golden, grid = fleet_run(golden_dir)
        grid.raise_if_failed()

        # 2. Chaos run: seeded worker SIGKILLs, then a simulated harness
        #    crash partway through — the journal survives, the run dies.
        policy = ChaosPolicy.plan(
            [spec_key(s) for specs in groups.values() for s in specs],
            seed=args.chaos_seed, kills=args.kills,
            abort_after=args.abort_after, fuse_dir=str(fuse_dir))
        interrupted = False
        try:
            fleet_run(chaos_dir, journal=journal, chaos=policy, retries=2)
        except ChaosAbort as exc:
            interrupted = True
            print(f"chaos: {exc}", file=sys.stderr)
        if args.abort_after is not None and not interrupted:
            print("chaos: expected the simulated harness crash to fire",
                  file=sys.stderr)
            return 1

        # 3. Corrupt one cached entry the way a torn write would.
        if args.corrupt:
            victim = corrupt_cache_entry(chaos_dir, seed=args.chaos_seed)
            print(f"chaos: corrupted {victim.name}", file=sys.stderr)

        # 4. Resume from the journal; re-verification must catch the
        #    corruption (quarantine, re-run) and the fleet bytes must
        #    equal the golden run's.
        recovered, resumed = fleet_run(chaos_dir, resume=journal, retries=2)
        report = resumed.raise_if_failed().report
        print(report.render())

    problems = [key for key in golden
                if fleet_bytes(recovered[key]) != fleet_bytes(golden[key])]
    if problems:
        print(f"chaos smoke FAILED: fleet bytes diverged for {problems}")
        return 1
    wanted_resume = args.abort_after is not None and report.resumed == 0
    if wanted_resume:
        print("chaos smoke FAILED: nothing was resumed from the journal")
        return 1
    print(f"chaos smoke ok: {len(groups)} fleet(s) byte-identical after "
          f"kill/crash/corrupt + resume "
          f"(resumed={report.resumed}, reverified={report.reverified}, "
          f"quarantined={report.quarantined})")
    return 0


def _make_obs(args):
    """Observability bundle for ``run``/``perf``-style commands."""
    from repro.obs import ObsConfig, Observability
    from repro.sim.timebase import USEC

    return Observability(ObsConfig(
        sample_period_ns=getattr(args, "sample_us", 10) * USEC,
        trace_export=args.trace_out is not None,
    ))


def _write_obs_outputs(obs, args) -> None:
    """Write --trace-out / --collapsed-out files, reporting each path."""
    if args.trace_out is not None:
        from repro.obs.export import write_chrome_trace

        doc = obs.chrome_trace()
        try:
            write_chrome_trace(doc, args.trace_out)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        print(f"wrote Perfetto-loadable trace: {args.trace_out} "
              f"({len(doc['traceEvents'])} events)", file=sys.stderr)
    if getattr(args, "collapsed_out", None) is not None:
        with open(args.collapsed_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(obs.profiler.collapsed()) + "\n")
        print(f"wrote collapsed-stack profile: {args.collapsed_out}", file=sys.stderr)


def _parsec_spec(args):
    """The PARSEC workload that the per-benchmark commands (run, report,
    perf, check) name by ``benchmark``/``--threads``/``--target-mcycles``."""
    from repro.experiments.parallel import WorkloadSpec

    return WorkloadSpec.make("parsec", name=args.benchmark, threads=args.threads,
                             target_cycles=args.target_mcycles * 1_000_000)


def _parsec_workload(args) -> tuple:
    """The :func:`_parsec_spec` workload, built, and the ``run_workload``
    keywords that run, report and perf describe."""
    wl = _parsec_spec(args).build()
    kwargs = {"tick_mode": TickMode(args.mode), "seed": args.seed}
    if getattr(args, "overcommit", False):
        from repro.analysis.fuzz import OVERCOMMIT, placement_for

        mspec, pinned = placement_for(wl.default_vcpus(), OVERCOMMIT)
        kwargs.update(machine_spec=mspec, pinned_cpus=pinned)
    return wl, kwargs


def _run_parsec(args, obs=None, inspect=None):
    wl, kwargs = _parsec_workload(args)
    return runner.run_workload(wl, obs=obs, inspect=inspect, **kwargs)


def _cmd_run(args) -> int:
    obs = _make_obs(args) if (args.profile or args.trace_out) else None
    m = _run_parsec(args, obs=obs)
    print(f"{m.label}: exec={m.exec_time_ns / 1e6:.2f} ms, exits={m.total_exits:,} "
          f"(timer {m.timer_exits:,}), cycles={m.total_cycles / 1e6:.0f} M, "
          f"overhead={m.overhead_ratio:.1%}")
    for key, count in sorted(m.exits.tag_breakdown().items(), key=lambda kv: -kv[1]):
        print(f"  {key.value:<18} {count:,}")
    if obs is not None:
        print(f"\nprofile ({obs.profiler.total_samples:,} samples, "
              f"{obs.profiler.period_ns // 1000} us busy-time period):")
        for line in obs.profiler.collapsed()[:10]:
            print(f"  {line}")
        _write_obs_outputs(obs, args)
    return 0


def _cmd_perf(args) -> int:
    """Virtual perf: run one workload with the full observability stack
    and print where the cycles went, the latency distributions, and the
    per-vCPU steal — the simulator's answer to `perf stat` + `perf
    sched` on the host."""
    import json

    from repro.metrics.report import format_overhead_breakdown
    from repro.obs.steal import runtime_steal_summary

    obs = _make_obs(args)
    internals: dict = {}

    def inspect(sim, machine, hv, vm) -> None:
        internals["hv"] = hv

    m = _run_parsec(args, obs=obs, inspect=inspect)
    steal = runtime_steal_summary(internals["hv"])

    if args.json:
        print(json.dumps({
            "metrics": m.to_json_dict(),
            "obs": obs.to_json_dict(),
            "steal_runtime": steal,
        }, indent=2, sort_keys=True))
    else:
        print(format_overhead_breakdown([m], title="Overhead breakdown"))
        print(f"\nprofile ({obs.profiler.total_samples:,} samples, "
              f"{obs.profiler.period_ns // 1000} us busy-time period):")
        for line in obs.profiler.collapsed()[: args.top]:
            print(f"  {line}")
        if len(obs.latency.registry):
            from repro.metrics.report import format_table

            print()
            print(format_table(
                ("histogram", "count", "p50", "p95", "p99", "max"),
                obs.latency.registry.summary_rows(),
                title="Latency histograms",
            ))
        print("\nsteal time (per vCPU):")
        for src, row in sorted(steal.items()):
            print(f"  {src}: {row['steal_ns'] / 1e6:.3f} ms "
                  f"over {row['episodes']} episodes")
    _write_obs_outputs(obs, args)
    return 0


def _cmd_report(args) -> int:
    """Run one PARSEC model and emit its RunMetrics (JSON on stdout with
    --json, an overhead-breakdown table otherwise) — the scriptable end
    of the CLI."""
    import json

    m = _run_parsec(args)
    if args.json:
        print(json.dumps(m.to_json_dict(), indent=2, sort_keys=True))
    else:
        from repro.metrics.report import format_overhead_breakdown

        print(format_overhead_breakdown([m]))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts and periods that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="paratick-repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="run independent grid cells across N worker processes")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the on-disk result cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache location (default: $REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--quiet-progress", action="store_true",
                   help="suppress per-cell grid progress lines on stderr")
    p.add_argument("--telemetry-out", default=None, metavar="DIR",
                   help="attach harness telemetry (span ring + per-grid run "
                        "reports) to the command and write spans.jsonl, "
                        "metrics.json and harness_trace.json under DIR on exit")
    sub = p.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="Table 1: periodic vs tickless exit counts")
    t1.add_argument("--simulate", action="store_true", help="also run the simulated cross-check")
    t1.set_defaults(fn=_cmd_table1)

    t2 = sub.add_parser("table2", help="Table 2 / Fig. 4: sequential PARSEC")
    t2.add_argument("--quick", action="store_true")
    t2.add_argument("--chart", action="store_true", help="also draw the figure as ASCII bars")
    t2.set_defaults(fn=_cmd_table2)

    t3 = sub.add_parser("table3", help="Table 3 / Fig. 5: multithreaded PARSEC")
    t3.add_argument("--size", choices=["small", "medium", "large", "all"], default="all")
    t3.add_argument("--bench", action="append", help="restrict to specific benchmarks")
    t3.add_argument("--quick", action="store_true")
    t3.add_argument("--chart", action="store_true", help="also draw the figure as ASCII bars")
    t3.set_defaults(fn=_cmd_table3)

    t4 = sub.add_parser("table4", help="Table 4 / Fig. 6: fio storage")
    t4.add_argument("--quick", action="store_true")
    t4.add_argument("--chart", action="store_true", help="also draw the figure as ASCII bars")
    t4.set_defaults(fn=_cmd_table4)

    ab = sub.add_parser("ablations", help="design-choice ablations + DID comparison")
    ab.set_defaults(fn=_cmd_ablations)

    ta = sub.add_parser(
        "table-arch",
        help="cross-architecture comparison: paratick's win per timer backend",
    )
    ta.add_argument("--quick", action="store_true")
    ta.set_defaults(fn=_cmd_table_arch)

    ex = sub.add_parser("export", help="write figure data series as CSV")
    ex.add_argument("figure", choices=["fig4", "fig5", "fig6", "all"])
    ex.add_argument("--out", default="figures", help="output directory")
    ex.set_defaults(fn=_cmd_export)

    ls = sub.add_parser("list", help="list available workload models")
    ls.set_defaults(fn=_cmd_list)

    va = sub.add_parser("validate", help="fast self-check of the core invariants")
    va.add_argument("--artifacts", default=None, metavar="DIR",
                    help="write observability artifacts (Perfetto trace, "
                         "collapsed profile) from the battery to DIR")
    va.set_defaults(fn=_cmd_validate)

    ck = sub.add_parser("check", help="run one PARSEC model under the tick sanitizer")
    ck.add_argument("benchmark", choices=list(parsec.BENCHMARK_NAMES))
    ck.add_argument("--threads", type=int, default=1)
    ck.add_argument("--mode", choices=[m.value for m in TickMode], default="tickless")
    ck.add_argument("--target-mcycles", type=int, default=100)
    ck.set_defaults(fn=_cmd_check)

    fz = sub.add_parser(
        "fuzz", help="differential fuzz: 3 tick modes x {solo, overcommit} per seed"
    )
    fz.add_argument("--runs", type=_positive_int, default=20,
                    help="number of consecutive seeds starting at --seed")
    fz.add_argument("--seed-list", nargs="+", metavar="N",
                    help="fuzz exactly these seeds (replay failures)")
    fz.add_argument("--solo-only", action="store_true",
                    help="skip the overcommitted placement")
    fz.add_argument("--perturb", action="store_true",
                    help="additionally expand each seed into a perturbation "
                         "schedule (suspend/restore/hotplug/drift) applied to "
                         "every cell")
    fz.add_argument("--arch", action="store_true",
                    help="cross-architecture sweep instead: run each seed on "
                         "every timer backend (x86, arm) x tick mode and diff "
                         "useful cycles + per-arch exit taxonomy")
    fz.set_defaults(fn=_cmd_fuzz)

    mx = sub.add_parser(
        "matrix", help="scenario-matrix DSL: expand, sanitize, or run a grid file"
    )
    mx.add_argument("action", choices=["expand", "check", "run"],
                    help="expand: print cell IDs; check: sanitized serial runs; "
                         "run: parallel engine (cache + workers)")
    mx.add_argument("file", help="matrix file (.toml / .yaml / .yml)")
    mx.add_argument("--max-cells", type=int, default=0, metavar="N",
                    help="check/run at most the first N cells")
    mx.add_argument("--identity", action="store_true",
                    help="after run: verify serial, pooled and cached results "
                         "are byte-identical")
    mx.add_argument("--series", action="store_true",
                    help="run: record the windowed in-sim time series per "
                         "cell and require it to reconcile exactly with the "
                         "final RunMetrics")
    mx.add_argument("--journal", default=None, metavar="FILE",
                    help="run: record every cell's lifecycle to an "
                         "append-only crash-safe journal")
    mx.add_argument("--resume", default=None, metavar="FILE",
                    help="run: resume an interrupted run from its journal — "
                         "completed cells are served from the cache after "
                         "re-verifying their bytes against the journaled "
                         "result hash")
    mx.set_defaults(fn=_cmd_matrix)

    fl = sub.add_parser(
        "fleet", help="fleet-scale overcommit: run host shards, aggregate racks"
    )
    fl.add_argument("action", choices=["run", "report"],
                    help="run: summary table; report: full percentile "
                         "distributions per fleet")
    fl.add_argument("file", help="matrix file with a [fleets.*] axis "
                                 "(.toml / .yaml / .yml)")
    fl.add_argument("--identity", action="store_true",
                    help="additionally verify serial, pooled, cached and "
                         "order-shuffled aggregates are byte-identical")
    fl.add_argument("--json", action="store_true",
                    help="emit the fleet aggregates as JSON on stdout")
    fl.add_argument("--series", action="store_true",
                    help="record the windowed in-sim time series per host "
                         "shard and require exact reconciliation with the "
                         "shard's RunMetrics")
    fl.add_argument("--journal", default=None, metavar="FILE",
                    help="record every host shard's lifecycle to an "
                         "append-only crash-safe journal")
    fl.add_argument("--resume", default=None, metavar="FILE",
                    help="resume an interrupted fleet run from its journal "
                         "(cached shards re-verified byte-for-byte)")
    fl.set_defaults(fn=_cmd_fleet)

    te = sub.add_parser(
        "telemetry", help="inspect harness telemetry written by --telemetry-out"
    )
    te.add_argument("action", choices=["report"],
                    help="report: span summary tables and per-grid run reports "
                         "for a directory")
    te.add_argument("dir", help="directory written by --telemetry-out")
    te.set_defaults(fn=_cmd_telemetry)

    ca = sub.add_parser(
        "cache", help="integrity tooling for the on-disk result cache"
    )
    ca.add_argument("action", choices=["verify", "gc"],
                    help="verify: checksum every entry (corrupt files are "
                         "quarantined; exit 1 if any); gc: remove tmp files "
                         "of interrupted writes and stale-version entries")
    ca.add_argument("--no-quarantine", action="store_true",
                    help="verify: report corrupt files but leave them in place")
    ca.add_argument("--purge-quarantine", action="store_true",
                    help="gc: also delete previously quarantined files")
    ca.set_defaults(fn=_cmd_cache)

    ch = sub.add_parser(
        "chaos", help="seeded fault-injection smoke for the resilience layer"
    )
    ch.add_argument("action", choices=["fleet-smoke"],
                    help="fleet-smoke: SIGKILL workers, simulate a harness "
                         "crash, corrupt the cache, resume from the journal, "
                         "and require byte-identical fleet aggregates")
    ch.add_argument("file", help="matrix file with a [fleets.*] axis")
    ch.add_argument("--kills", type=int, default=1, metavar="N",
                    help="SIGKILL the workers executing N seeded-random cells")
    ch.add_argument("--abort-after", type=int, default=None, metavar="N",
                    help="simulate the harness dying after N settled cells "
                         "(the resume path's reason to exist)")
    ch.add_argument("--corrupt", type=int, default=1, metavar="N",
                    help="corrupt a seeded-random cached entry between crash "
                         "and resume (0 disables)")
    ch.add_argument("--chaos-seed", type=int, default=0,
                    help="seed for victim selection (same seed, same faults)")
    ch.set_defaults(fn=_cmd_chaos)

    run = sub.add_parser("run", help="run one PARSEC model and print its profile")
    run.add_argument("benchmark", choices=list(parsec.BENCHMARK_NAMES))
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--mode", choices=[m.value for m in TickMode], default="paratick")
    run.add_argument("--target-mcycles", type=int, default=300)
    run.add_argument("--profile", action="store_true",
                     help="attach the virtual-perf profiler and print top stacks")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="export the run as a Perfetto-loadable Chrome trace")
    run.set_defaults(fn=_cmd_run, sample_us=10)

    pf = sub.add_parser(
        "perf", help="virtual perf: cycle profile, latency histograms, steal time"
    )
    pf.add_argument("benchmark", choices=list(parsec.BENCHMARK_NAMES))
    pf.add_argument("--threads", type=int, default=2)
    pf.add_argument("--mode", choices=[m.value for m in TickMode], default="tickless")
    pf.add_argument("--target-mcycles", type=int, default=300)
    pf.add_argument("--sample-us", type=_positive_int, default=10,
                    help="busy-time sampling period in microseconds")
    pf.add_argument("--top", type=int, default=15,
                    help="collapsed stacks to print (most samples first)")
    pf.add_argument("--overcommit", action="store_true",
                    help="squeeze vCPUs onto fewer pCPUs (exercises steal)")
    pf.add_argument("--json", action="store_true",
                    help="emit metrics + profile + histograms as JSON on stdout")
    pf.add_argument("--trace-out", default=None, metavar="FILE",
                    help="export the run as a Perfetto-loadable Chrome trace")
    pf.add_argument("--collapsed-out", default=None, metavar="FILE",
                    help="write the collapsed-stack profile (flamegraph.pl input)")
    pf.set_defaults(fn=_cmd_perf)

    rp = sub.add_parser("report", help="run one PARSEC model and report RunMetrics")
    rp.add_argument("benchmark", choices=list(parsec.BENCHMARK_NAMES))
    rp.add_argument("--threads", type=int, default=1)
    rp.add_argument("--mode", choices=[m.value for m in TickMode], default="paratick")
    rp.add_argument("--target-mcycles", type=int, default=300)
    rp.add_argument("--json", action="store_true",
                    help="RunMetrics as JSON on stdout (machine-readable)")
    rp.set_defaults(fn=_cmd_report, profile=False, trace_out=None)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its return value is the exit status.

    Bad input surfaces as a :class:`~repro.errors.ReproError` and is
    printed as one ``error: <message>`` line on stderr with exit status
    2 (argparse's status for a bad command line). Any other exception
    is a programming error and propagates with its traceback.
    """
    args = build_parser().parse_args(argv)
    tel = None
    if getattr(args, "telemetry_out", None):
        from repro.obs.harness import HarnessTelemetry

        tel = HarnessTelemetry()
    args.telemetry = tel
    try:
        rc = args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tel is not None:
        paths = tel.write_outputs(args.telemetry_out)
        for kind in sorted(paths):
            print(f"telemetry: wrote {kind}: {paths[kind]}", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
