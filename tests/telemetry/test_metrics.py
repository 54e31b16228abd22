"""``metrics.json``: one :class:`RunReport` per grid, in run order."""

from __future__ import annotations

import json
from collections import Counter

from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec, run_grid
from repro.obs.harness import HarnessTelemetry
from repro.resilience.policy import RunReport


def _read_metrics(tel: HarnessTelemetry, out_dir) -> dict:
    paths = tel.write_outputs(str(out_dir))
    with open(paths["metrics_json"]) as fh:
        return json.load(fh)


class TestJsonSnapshot:
    def test_json_snapshot_shape(self, tmp_path):
        tel = HarnessTelemetry()
        degraded = RunReport(cells=3, executed=3, retries=Counter(crash=1),
                             pool_rebuilds=1, degradation=["pool shrunk to 1"])
        tel.grid_finished(RunReport(cells=1, cache_hits=1))
        tel.grid_finished(degraded)
        snap = _read_metrics(tel, tmp_path)
        assert list(snap) == ["grids"]
        assert [g["outcome"] for g in snap["grids"]] == ["completed", "degraded"]
        assert snap["grids"][1]["retries"] == {"crash": 1}
        # Each entry is a full RunReport, rebuilt field for field.
        assert RunReport.from_json_dict(snap["grids"][1]) == degraded

    def test_metrics_json_is_the_grid_reports_cold_then_warm(self, tmp_path):
        specs = [RunSpec(WorkloadSpec.make("micro.pingpong", rounds=40,
                                           work_cycles=10_000),
                         tick_mode=TickMode.PARATICK, seed=s, noise=False)
                 for s in (0, 1)]
        tel = HarnessTelemetry()
        cold = run_grid(specs, jobs=1, cache_dir=tmp_path / "cache", telemetry=tel)
        warm = run_grid(specs, jobs=1, cache_dir=tmp_path / "cache", telemetry=tel)
        snap = _read_metrics(tel, tmp_path / "tele")
        assert snap == {"grids": [cold.report.to_json_dict(),
                                  warm.report.to_json_dict()]}
        assert [(g["executed"], g["cache_hits"]) for g in snap["grids"]] == [(2, 0), (0, 2)]
