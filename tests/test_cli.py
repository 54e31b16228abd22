"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.export import validate_chrome_trace
from repro.obs.harness import read_jsonl


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_exist(self):
        p = build_parser()
        for cmd in (["table1"], ["table2"], ["table3"], ["table4"], ["ablations"], ["run", "dedup"]):
            args = p.parse_args(cmd)
            assert callable(args.fn)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_run_is_the_one_single_cell_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 16
        assert not {"report", "perf", "check"} & set(sub.choices)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "40,000" in out and "240,000" in out
        assert "NO" not in out  # every row matches the paper

    def test_run_single_benchmark(self, capsys):
        assert main(["run", "swaptions", "--mode", "paratick", "--target-mcycles", "30"]) == 0
        out = capsys.readouterr().out
        assert "exits=" in out and "exec=" in out

    def test_run_tickless_mode(self, capsys):
        assert main(["run", "swaptions", "--mode", "tickless", "--target-mcycles", "30"]) == 0
        assert "timer" in capsys.readouterr().out

    def test_seed_flag(self, capsys):
        assert main(["--seed", "9", "run", "swaptions", "--target-mcycles", "30"]) == 0

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fluidanimate" in out and "netserve" in out

    def test_report_json_round_trips(self, capsys):
        from repro.metrics.perf import RunMetrics

        assert main(["run", "dedup", "--json", "--target-mcycles", "20"]) == 0
        data = json.loads(capsys.readouterr().out)
        m = RunMetrics.from_json_dict(data)
        assert m.label == "parsec.dedup/paratick"
        # The same run `run dedup --mode paratick` pins below.
        assert m.total_exits == 13 and m.timer_exits == 2
        assert m.to_json_dict() == data

    def test_report_table(self, capsys):
        assert main(["run", "dedup", "--perf", "--target-mcycles", "20"]) == 0
        out = capsys.readouterr().out
        assert "parsec.dedup/paratick" in out and "overhead%" in out

    def test_perf_writes_a_valid_trace_and_profile(self, capsys, tmp_path):
        from repro.obs.export import validate_chrome_trace

        trace, collapsed = tmp_path / "run.trace.json", tmp_path / "run.collapsed"
        assert main(["run", "swaptions", "--perf", "--threads", "2", "--mode", "tickless",
                     "--target-mcycles", "20",
                     "--trace-out", str(trace), "--collapsed-out", str(collapsed)]) == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        assert collapsed.read_text().strip()
        assert "Perfetto-loadable trace" in capsys.readouterr().err

    def test_export_fig6(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["export", "fig6", "--out", "figs"]) == 0
        out = capsys.readouterr().out
        assert "fig6_fio.csv" in out
        assert (tmp_path / "figs" / "fig6_fio.csv").exists()

    def test_export_honours_engine_flags(self, capsys, tmp_path):
        """``export`` runs its grid with the global engine flags: the
        harness telemetry records the grid, and a pooled run writes the
        same CSV as a serial one."""
        tele = tmp_path / "tele"
        assert main(["--quiet-progress", "--no-cache", "--telemetry-out", str(tele),
                     "export", "fig6", "--out", str(tmp_path / "serial")]) == 0
        spans = [json.loads(line) for line in (tele / "spans.jsonl").read_text().splitlines()]
        assert any(s.get("name") == "grid.run" for s in spans)
        assert main(["--quiet-progress", "--no-cache", "--jobs", "2",
                     "export", "fig6", "--out", str(tmp_path / "pooled")]) == 0
        serial = (tmp_path / "serial" / "fig6_fio.csv").read_bytes()
        assert (tmp_path / "pooled" / "fig6_fio.csv").read_bytes() == serial
        capsys.readouterr()

    def test_table3_chart_header(self, capsys):
        assert main(["--quiet-progress", "--no-cache", "table3", "--quick", "--size", "small",
                     "--bench", "swaptions", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "\nFig. 5 [small] —\n(a) VM exits\n" in out
        assert "(b) system throughput" in out


class TestBadInput:
    """Bad input exits 2 with one message line, never a traceback."""

    def test_missing_matrix_file_is_a_typed_error(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent.toml"
        assert main(["matrix", "run", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {missing}: cannot read matrix file: No such file or directory\n"

    def test_unreadable_matrix_file_is_a_typed_error(self, capsys, tmp_path):
        (tmp_path / "dir.toml").mkdir()
        assert main(["matrix", "check", str(tmp_path / "dir.toml")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_fuzz_runs_below_one_rejected(self, capsys, runs):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--runs", runs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --runs: must be at least 1" in captured.err
        assert "seeds clean" not in captured.out

    def test_zero_sample_period_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "swaptions", "--perf", "--sample-us", "0"])
        assert exc.value.code == 2
        assert "argument --sample-us: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_rejected(self, capsys, top):
        with pytest.raises(SystemExit) as exc:
            main(["run", "swaptions", "--perf", "--top", top])
        assert exc.value.code == 2
        assert f"argument --top: must be at least 1, got {top}" in capsys.readouterr().err

    def test_check_takes_no_output_flags(self, capsys):
        assert main(["run", "dedup", "--check", "--json"]) == 2
        assert capsys.readouterr().err.startswith("error: --check prints only")

    def test_perf_and_check_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "dedup", "--perf", "--check"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_zero_threads_is_a_typed_error(self, capsys):
        assert main(["run", "dedup", "--threads", "0"]) == 2
        assert capsys.readouterr().err == "error: threads must be positive\n"

    @pytest.mark.parametrize("flag", ["--trace-out", "--collapsed-out"])
    def test_unwritable_output_path_refused_before_the_run(self, capsys, monkeypatch,
                                                           tmp_path, flag):
        from repro.experiments import parallel

        def no_run(*args, **kwargs):
            raise AssertionError("the cell ran")

        monkeypatch.setattr(parallel, "execute_spec_full", no_run)
        out = tmp_path / "missing" / "x.out"
        assert main(["run", "dedup", "--target-mcycles", "20", flag, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} {out}: {out.parent} is not a writable directory\n"
        assert captured.out == ""

    def test_ring_overflow_is_a_typed_error(self, capsys, monkeypatch, tmp_path):
        import repro.obs

        monkeypatch.setattr(repro.obs, "RING_CAPACITY", 5)
        out = tmp_path / "t.json"
        assert main(["run", "dedup", "--target-mcycles", "20", "--trace-out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --trace-out {out}: ring dropped ")
        assert not out.exists()

    def test_programming_errors_still_propagate(self, monkeypatch):
        from repro import cli

        def boom(args):
            raise TypeError("a bug, not bad input")

        monkeypatch.setattr(cli, "_cmd_list", boom)
        with pytest.raises(TypeError):
            main(["list"])


MATRIX_TOML = """\
[matrix]
name = "cli-smoke"
seeds = [0]
horizon_ms = 50

[axes]
workload = ["ping"]
mode = ["paratick"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 5, work_cycles = 20000, same_vcpu = false }
"""


#: Exact ``repro run`` stdout. These cells have tied per-tag exit counts,
#: which print in first-occurrence order, so any reordering shows here.
PINNED_RUN_STDOUT = {
    ("dedup", "periodic"): (
        "parsec.dedup/periodic: exec=11.45 ms, exits=14 (timer 4), cycles=24 M, overhead=4.1%\n"
        "  io                 4\n"
        "  idle               4\n"
        "  other              2\n"
        "  timer_guest_tick   2\n"
        "  timer_program      1\n"
        "  timer_host_tick    1\n"
    ),
    ("dedup", "tickless"): (
        "parsec.dedup/tickless: exec=11.55 ms, exits=22 (timer 12), cycles=24 M, overhead=6.0%\n"
        "  timer_program      10\n"
        "  io                 4\n"
        "  idle               4\n"
        "  other              2\n"
        "  timer_host_tick    1\n"
        "  timer_guest_tick   1\n"
    ),
    ("dedup", "paratick"): (
        "parsec.dedup/paratick: exec=11.39 ms, exits=13 (timer 2), cycles=24 M, overhead=3.8%\n"
        "  io                 4\n"
        "  idle               4\n"
        "  other              2\n"
        "  hypercall          1\n"
        "  timer_program      1\n"
        "  timer_host_tick    1\n"
    ),
    ("swaptions", "periodic"): (
        "parsec.swaptions/periodic: exec=10.97 ms, exits=6 (timer 5), cycles=24 M, overhead=1.8%\n"
        "  timer_host_tick    2\n"
        "  timer_guest_tick   2\n"
        "  timer_program      1\n"
        "  other              1\n"
    ),
}


@pytest.mark.parametrize("bench,mode", sorted(PINNED_RUN_STDOUT))
def test_run_stdout_pinned(capsys, bench, mode):
    assert main(["run", bench, "--mode", mode, "--target-mcycles", "20"]) == 0
    assert capsys.readouterr().out == PINNED_RUN_STDOUT[bench, mode]


#: Exact stdout of ``run``'s other views (long ones as sha256 digests),
#: each the same bytes its cell printed as a separate subcommand
#: (``report --json``, ``perf``, ``perf --json``, ``check``).
PINNED_VIEW_STDOUT = {
    ("dedup", "--json"): "ea734e675ddf827d8cff660d07600a60d70ede7b6813737c464a23bb55d07f25",
    ("swaptions", "--perf", "--threads", "2", "--mode", "tickless", "--top", "15"):
        "6145b71ad407370d7254a916d3e73e0fd920ab4dca39c1dbea8615b13febc0fb",
    ("swaptions", "--perf", "--json", "--threads", "2", "--mode", "tickless"):
        "2cb7092bdea224716a2c16eb9f6cf436987193569c22116c148b21a50075188b",
    ("dedup", "--check", "--mode", "tickless"): (
        "parsec.dedup/tickless: 167 events | schema: 167 seen, 0 bad; "
        "vcpu-state: 54 seen, 0 bad; preemption-timer: 41 seen, 0 bad; "
        "lapic: 0 seen, 0 bad; guest-deadline: 19 seen, 0 bad; cntv: 0 seen, 0 bad; "
        "tick-sched: 16 seen, 0 bad; inject: 5 seen, 0 bad; "
        "suspend-span: 0 seen, 0 bad; restore-rearm: 0 seen, 0 bad; "
        "hotplug: 0 seen, 0 bad\n"
        "sanitizer: clean\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(PINNED_VIEW_STDOUT), ids=" ".join)
def test_run_view_stdout_pinned(capsys, argv):
    assert main(["run", *argv, "--target-mcycles", "20"]) == 0
    out = capsys.readouterr().out
    pinned = PINNED_VIEW_STDOUT[argv]
    if "\n" not in pinned:
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == pinned


REPO = Path(__file__).resolve().parents[1]
DOCUMENTED = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
              REPO / ".claude" / "skills" / "verify" / "SKILL.md"]


def documented_commands():
    """Every ``python -m repro …`` line inside a fenced code block of the
    user docs, as ``(where, argv)``; shell comments, redirections and
    pipes are cut, backslash continuations joined."""
    for path in DOCUMENTED:
        fenced, held = False, ""
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if not fenced:
                continue
            if line.endswith("\\"):
                held += line[:-1]
                continue
            line, held = held + line, ""
            _, sep, tail = line.partition("python -m repro ")
            if not sep:
                continue
            argv = []
            for token in shlex.split(tail, comments=True):
                if token[:1] in ("|", ">", "&", ";") or token.startswith("2>"):
                    break
                argv.append(token)
            yield f"{path.relative_to(REPO)}:{lineno}", argv


@pytest.mark.parametrize("argv", [pytest.param(argv, id=where)
                                  for where, argv in documented_commands()])
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`python -m repro {shlex.join(argv)}` does not parse "
                    f"(exit {exc.code})")


class TestTelemetryCommands:
    def test_telemetry_report_on_empty_dir(self, capsys, tmp_path):
        assert main(["telemetry", "report", str(tmp_path)]) == 0
        assert "no telemetry artifacts" in capsys.readouterr().out

    def test_matrix_run_series_with_telemetry(self, capsys, tmp_path):
        matrix = tmp_path / "m.toml"
        matrix.write_text(MATRIX_TOML)
        tele = tmp_path / "tele"
        rc = main([
            "--quiet-progress", "--cache-dir", str(tmp_path / "cache"),
            "--telemetry-out", str(tele),
            "matrix", "run", str(matrix), "--series",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "1 cell(s), 0 cached, 1 executed" in captured.out
        assert "reconcile exactly" in captured.out
        for artifact in ("spans.jsonl", "metrics.json", "harness_trace.json"):
            assert (tele / artifact).exists()
        series_files = list(tele.glob("*.series.json"))
        assert len(series_files) == 1
        # What the CI telemetry job checks of the written artifacts.
        with open(tele / "harness_trace.json") as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        header, records = read_jsonl(str(tele / "spans.jsonl"))
        assert header["records"] == len(records) > 0

        # The written artifact directory renders through the report.
        assert main(["telemetry", "report", str(tele)]) == 0
        report = capsys.readouterr().out
        assert "grid.run" in report and "cells" in report

    def test_matrix_run_prints_failure_detail(self, capsys, tmp_path):
        from repro.experiments.parallel import register_workload
        from repro.workloads.micro import PingPongWorkload

        class _CliBoomWorkload(PingPongWorkload):
            # Survives matrix expansion (default_vcpus etc.), then fails
            # inside the engine where the CLI must report it per cell.
            def build(self, kernel):
                raise RuntimeError("cli-boom")

        register_workload("test.cliboom",
                          lambda **kw: _CliBoomWorkload(rounds=2,
                                                        work_cycles=1000))
        matrix = tmp_path / "m.toml"
        matrix.write_text(MATRIX_TOML.replace(
            'kind = "micro.pingpong"\nparams = '
            '{ rounds = 5, work_cycles = 20000, same_vcpu = false }',
            'kind = "test.cliboom"\nparams = {}',
        ))
        rc = main(["--quiet-progress", "--no-cache",
                   "matrix", "run", str(matrix)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out and "cli-boom" in out and "attempt" in out
        assert "1 FAILED" in out


class TestSanitizerCommands:
    def test_check_clean_run(self, capsys):
        assert main(["run", "dedup", "--check", "--mode", "tickless",
                     "--target-mcycles", "30"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer: clean" in out
        assert "events" in out

    def test_check_mode_flag(self, capsys):
        assert main(["run", "dedup", "--check", "--mode", "paratick",
                     "--target-mcycles", "30"]) == 0
        assert "sanitizer: clean" in capsys.readouterr().out

    def test_fuzz_single_seed(self, capsys):
        assert main(["fuzz", "--runs", "1", "--solo-only"]) == 0
        out = capsys.readouterr().out
        assert "[ok ]" in out
        assert "seeds clean" in out

    def test_fuzz_seed_list(self, capsys):
        assert main(["fuzz", "--seed-list", "2", "--solo-only"]) == 0
        assert "seed 2" in capsys.readouterr().out

    def test_fuzz_reports_failures(self, capsys, monkeypatch):
        from repro.analysis import fuzz as fuzz_mod
        from repro.analysis.fuzz import FuzzReport, scenario_for_seed

        def fake_fuzz_many(seeds, *, placements, perturb=False, progress=None):
            reports = []
            for seed in seeds:
                r = FuzzReport(seed=seed, scenario=scenario_for_seed(seed),
                               problems=["[periodic/solo] boom"], runs=3, events=1)
                reports.append(r)
                if progress:
                    progress(r)
            return reports

        monkeypatch.setattr(fuzz_mod, "fuzz_many", fake_fuzz_many)
        assert main(["fuzz", "--runs", "2", "--solo-only"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "replay one with: python -m repro fuzz --seed-list 0 1" in out
