"""CLI + report surface of the resilience layer.

``matrix run --journal/--resume``, ``cache verify|gc``, the chaos
fleet smoke, and the ``telemetry report`` recovery section — the same
machinery the CI chaos job drives, exercised through ``main()``.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.parallel import run_grid
from repro.resilience.chaos import corrupt_cache_entry
from repro.resilience.integrity import QUARANTINE_DIR
from repro.telemetry import HarnessTelemetry
from repro.telemetry.report import report_lines, resilience_summary_rows

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


class TestMatrixJournalResume:
    def test_journal_then_resume_round_trip(self, capsys, tmp_path):
        matrix = tmp_path / "m.toml"
        matrix.write_text(MATRIX_TOML)
        journal = tmp_path / "run.journal"
        cache = tmp_path / "cache"

        rc = main(["--quiet-progress", "--cache-dir", str(cache),
                   "matrix", "run", str(matrix), "--journal", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert journal.exists()
        assert "outcome=completed" in out

        rc = main(["--quiet-progress", "--cache-dir", str(cache),
                   "matrix", "run", str(matrix), "--resume", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed=2" in out and "reverified=2" in out

    def test_resume_with_changed_matrix_fails_cleanly(self, capsys, tmp_path):
        matrix = tmp_path / "m.toml"
        matrix.write_text(MATRIX_TOML)
        journal = tmp_path / "run.journal"
        cache = tmp_path / "cache"
        assert main(["--quiet-progress", "--cache-dir", str(cache),
                     "matrix", "run", str(matrix),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()

        matrix.write_text(MATRIX_TOML.replace("seeds = [0, 1]", "seeds = [0, 2]"))
        rc = main(["--quiet-progress", "--cache-dir", str(cache),
                   "matrix", "run", str(matrix), "--resume", str(journal)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "resume failed" in captured.err
        assert "matrix changed" in captured.err


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


class TestTelemetryRecoverySection:
    def test_report_surfaces_resume_and_quarantine(self, tmp_path, specs):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "run.journal"
        run_grid(specs, jobs=None, cache_dir=cache_dir,
                 journal=journal).raise_if_failed()
        corrupt_cache_entry(cache_dir, seed=0, mode="garble")

        tel = HarnessTelemetry()
        run_grid(specs, jobs=None, cache_dir=cache_dir, journal=journal,
                 resume=journal, telemetry=tel).raise_if_failed()
        out_dir = tmp_path / "tele"
        tel.write_outputs(str(out_dir))

        report = "\n".join(report_lines(str(out_dir)))
        assert "recovery / resilience" in report
        assert "cells_resumed" in report
        assert "cache_quarantined" in report

    def test_clean_run_has_no_recovery_section(self, tmp_path, specs):
        tel = HarnessTelemetry()
        run_grid(specs, jobs=None, use_cache=False,
                 telemetry=tel).raise_if_failed()
        out_dir = tmp_path / "tele"
        tel.write_outputs(str(out_dir))
        report = "\n".join(report_lines(str(out_dir)))
        assert "recovery / resilience" not in report

    def test_summary_rows_merge_counters_and_instants(self):
        metrics = {
            "cells_resumed": {"type": "counter",
                              "series": [{"labels": {}, "value": 4}]},
            "unrelated": {"type": "counter",
                          "series": [{"labels": {}, "value": 9}]},
        }
        records = [
            {"type": "instant", "name": "chaos.abort"},
            {"type": "instant", "name": "resume.hit"},
            {"type": "instant", "name": "cache.probe"},  # not resilience
        ]
        rows = resilience_summary_rows(metrics, records)
        as_dict = {name: count for name, count, _ in rows}
        assert as_dict["cells_resumed"] == "4"
        assert as_dict["chaos.abort"] == "1"
        assert as_dict["resume.hit"] == "1"
        assert "unrelated" not in as_dict and "cache.probe" not in as_dict
