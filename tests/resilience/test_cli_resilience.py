"""CLI + report surface of the resilience layer.

``matrix run`` reruns on a warm cache, ``cache verify|gc``, the chaos
fleet smoke, and the ``telemetry report`` per-grid run reports — the same
machinery the CI chaos job drives, exercised through ``main()``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.parallel import run_grid
from repro.resilience.chaos import corrupt_cache_entry
from repro.resilience.integrity import QUARANTINE_DIR
from repro.resilience.policy import RunReport
from repro.obs.harness import HarnessTelemetry, report_lines

from .conftest import make_spec

MATRIX_TOML = """\
[matrix]
name = "resilience-smoke"
seeds = [0, 1]
horizon_ms = 50

[axes]
workload = ["ping"]
mode = ["paratick"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 5, work_cycles = 20000, same_vcpu = false }
"""

FLEET_TOML = """\
[matrix]
name = "chaos-smoke"
seeds = [0]
horizon_ms = 300

[axes]
workload = ["ping"]
mode = ["paratick"]
fleet = ["rack"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 10, work_cycles = 20000, same_vcpu = false }

[fleets.rack]
hosts = 3
guests = 2
consolidation = 2
burst = "poisson"
burst_window_ms = 2
"""


class TestMatrixRerun:
    def test_rerun_on_the_same_cache_runs_nothing(self, capsys, tmp_path):
        matrix = tmp_path / "m.toml"
        matrix.write_text(MATRIX_TOML)
        argv = ["--quiet-progress", "--cache-dir", str(tmp_path / "cache"),
                "matrix", "run", str(matrix)]

        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 cell(s), 0 cached, 2 executed" in cold
        assert "outcome=completed" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 cell(s), 2 cached, 0 executed" in warm
        assert "outcome=completed cells=2 cached=2 executed=0" in warm


class TestCacheCommands:
    def _warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = [make_spec(seed=s) for s in range(3)]
        run_grid(specs, jobs=None, cache_dir=cache_dir).raise_if_failed()
        return cache_dir

    def test_verify_clean_cache_exits_zero(self, capsys, tmp_path):
        cache_dir = self._warm_cache(tmp_path)
        assert main(["--cache-dir", str(cache_dir), "cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "3 ok" in out and "0 corrupt" in out

    def test_verify_corrupt_cache_quarantines_and_exits_one(self, capsys, tmp_path):
        cache_dir = self._warm_cache(tmp_path)
        corrupt_cache_entry(cache_dir, seed=1, mode="garble")
        assert main(["--cache-dir", str(cache_dir), "cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "quarantine" in out
        assert any((cache_dir / QUARANTINE_DIR).iterdir())
        # A second verify walks a clean tree again.
        assert main(["--cache-dir", str(cache_dir), "cache", "verify"]) == 0

    def test_gc_purges_quarantine_on_request(self, capsys, tmp_path):
        cache_dir = self._warm_cache(tmp_path)
        corrupt_cache_entry(cache_dir, seed=1, mode="truncate")
        assert main(["--cache-dir", str(cache_dir), "cache", "verify"]) == 1
        capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "cache", "gc",
                     "--purge-quarantine"]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined file(s) removed" in out
        assert not (cache_dir / QUARANTINE_DIR).exists()

    def test_gc_purges_a_quarantined_directory(self, capsys, tmp_path):
        """A directory at an entry path is quarantined whole by verify;
        the purge removes it too, and with it the quarantine folder."""
        cache_dir = tmp_path / "cache"
        corpse = cache_dir / "aa" / "aa11.json"
        corpse.mkdir(parents=True)
        (corpse / "inner.txt").write_text("debris")
        assert main(["--cache-dir", str(cache_dir), "cache", "verify"]) == 1
        assert (cache_dir / QUARANTINE_DIR / "aa11.json").is_dir()
        capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "cache", "gc",
                     "--purge-quarantine"]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined file(s) removed (6 bytes freed)" in out
        assert not (cache_dir / QUARANTINE_DIR).exists()


class TestChaosFleetSmoke:
    def test_fleet_smoke_survives_kill_crash_and_corruption(self, capsys, tmp_path):
        matrix = tmp_path / "fleet.toml"
        matrix.write_text(FLEET_TOML)
        rc = main(["--quiet-progress", "--jobs", "2", "chaos", "fleet-smoke",
                   str(matrix), "--kills", "1", "--abort-after", "2",
                   "--chaos-seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos smoke ok" in out
        assert "byte-identical" in out
        [line] = [ln for ln in out.splitlines() if ln.startswith("chaos smoke ok")]
        assert "+ rerun (cached=" in line and "quarantined=1)" in line
        assert "cached=0," not in line


class TestTelemetryRecoverySection:
    def test_report_surfaces_resume_and_quarantine(self, tmp_path, specs):
        cache_dir = tmp_path / "cache"
        run_grid(specs, jobs=None, cache_dir=cache_dir).raise_if_failed()
        corrupt_cache_entry(cache_dir, seed=0, mode="garble")

        tel = HarnessTelemetry()
        run_grid(specs, jobs=None, cache_dir=cache_dir,
                 telemetry=tel).raise_if_failed()
        out_dir = tmp_path / "tele"
        tel.write_outputs(str(out_dir))

        report = "\n".join(report_lines(str(out_dir)))
        [line] = [ln for ln in report.splitlines() if ln.startswith("grid 1:")]
        assert "outcome=degraded" in line
        assert "cached=3" in line and "quarantined=1" in line

    def test_clean_run_has_no_recovery_section(self, tmp_path, specs):
        tel = HarnessTelemetry()
        run_grid(specs, jobs=None, use_cache=False,
                 telemetry=tel).raise_if_failed()
        out_dir = tmp_path / "tele"
        tel.write_outputs(str(out_dir))
        report = "\n".join(report_lines(str(out_dir)))
        [line] = [ln for ln in report.splitlines() if ln.startswith("grid 1:")]
        assert line.startswith("grid 1: outcome=completed")
        assert "quarantined=" not in line

    @pytest.mark.parametrize("metrics", [
        # A report key this version does not know (an older run's
        # "resumed" count, say).
        json.dumps({"grids": [{**RunReport(cells=1, cache_hits=1).to_json_dict(),
                               "resumed": 1}]}),
        # A grid without its retries.
        json.dumps({"grids": [{"cells": 1, "failures": {}}]}),
        # Not JSON at all.
        "not json {",
    ], ids=["unknown-key", "missing-retries", "not-json"])
    def test_malformed_metrics_is_a_usage_error(self, capsys, tmp_path, metrics):
        (tmp_path / "metrics.json").write_text(metrics)
        assert main(["telemetry", "report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "metrics.json" in line
        assert captured.out == ""

    def test_unreadable_spans_is_a_usage_error(self, capsys, tmp_path):
        (tmp_path / "spans.jsonl").mkdir()
        assert main(["telemetry", "report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "spans.jsonl" in line
        assert captured.out == ""
