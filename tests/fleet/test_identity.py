"""Fleet byte-identity across execution strategies, plus the pinned
golden fleet battery.

These are the acceptance tests of the fleet layer: real simulations,
run serial / pooled / warm-cache / cached-only, must agree to the byte
at both the per-host and the fleet-aggregate level; and the committed
``tests/fixtures/golden_fleet.json`` (3 tick modes x 2 consolidation
ratios) must replay exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis.golden import BATTERIES, compare
from repro.config import TickMode
from repro.experiments.parallel import WorkloadSpec
from repro.fleet import (
    FleetSpec,
    aggregate_hosts,
    fleet_bytes,
    identity_problems_for_groups,
    run_fleet,
    run_fleets,
)
from repro.sim.timebase import MSEC

PING = WorkloadSpec.make("micro.pingpong", rounds=8, work_cycles=15_000,
                         same_vcpu=False)


def small_fleet(mode=TickMode.PARATICK, **kw) -> FleetSpec:
    base = dict(
        name="idfleet",
        workload=PING,
        tick_mode=mode,
        hosts=2,
        guests_per_host=3,
        consolidation=3,
        burst="poisson",
        burst_window_ns=2 * MSEC,
        seed=4,
        horizon_ns=400 * MSEC,
    )
    base.update(kw)
    return FleetSpec(**base)


class TestIdentityGate:
    def test_serial_pooled_warm_cached_byte_identical(self, tmp_path):
        fleet = small_fleet()
        problems = identity_problems_for_groups(
            {fleet.display_label(): fleet.host_specs()},
            jobs=2, cache_dir=str(tmp_path))
        assert problems == []

    def test_jobs_do_not_change_the_aggregate(self, tmp_path):
        fleet = small_fleet(mode=TickMode.TICKLESS)
        agg1, grid1 = run_fleet(fleet, jobs=None, use_cache=False)
        agg2, grid2 = run_fleet(fleet, jobs=2, use_cache=False)
        assert fleet_bytes(agg1) == fleet_bytes(agg2)
        assert grid1.executed == grid2.executed == fleet.hosts

    def test_cached_replay_serves_every_host(self, tmp_path):
        fleet = small_fleet(mode=TickMode.PERIODIC)
        agg1, grid1 = run_fleet(fleet, cache_dir=str(tmp_path))
        assert grid1.executed == fleet.hosts
        agg2, grid2 = run_fleet(fleet, cache_dir=str(tmp_path))
        assert grid2.cache_hits == fleet.hosts and grid2.executed == 0
        assert fleet_bytes(agg1) == fleet_bytes(agg2)

    def test_aggregate_order_invariant_on_real_hosts(self):
        fleet = small_fleet()
        _, grid = run_fleet(fleet, use_cache=False)
        metrics = [grid[s] for s in fleet.host_specs()]
        assert fleet_bytes(aggregate_hosts(metrics)) == \
            fleet_bytes(aggregate_hosts(list(reversed(metrics))))


class TestRunFleets:
    """The one fleet path: run a {fleet: [host spec]} mapping, aggregate."""

    def test_groups_aggregate_like_their_fleets(self):
        a, b = small_fleet(), small_fleet(mode=TickMode.TICKLESS, name="other")
        aggregates, grid = run_fleets(
            {"a": a.host_specs(), "b": b.host_specs()}, use_cache=False)
        assert grid.executed == a.hosts + b.hosts
        for key, fleet in (("a", a), ("b", b)):
            assert fleet_bytes(aggregates[key]) == \
                fleet_bytes(run_fleet(fleet, use_cache=False)[0])

    def test_profiled_hosts_fold_their_latency_histograms(self):
        agg, grid = run_fleet(small_fleet(profile=True), use_cache=False)
        assert len(grid.artifacts) == 2
        assert dict(agg.latency_hists)

    def test_a_failed_host_leaves_no_aggregate(self):
        from repro.experiments.parallel import GridError, register_workload

        register_workload("test.fleet_boom", _fleet_boom)
        fleet = small_fleet()
        boom = fleet.host_spec(1).with_(workload=WorkloadSpec.make("test.fleet_boom"))
        aggregates, grid = run_fleets({"f": [fleet.host_spec(0), boom]},
                                      use_cache=False, retries=0)
        assert aggregates is None and len(grid.failed_specs) == 1
        with pytest.raises(GridError):
            grid.raise_if_failed()

    def test_aggregation_span_and_host_counter(self):
        from repro.obs.harness import HarnessTelemetry

        tel = HarnessTelemetry()
        fleet = small_fleet()
        run_fleet(fleet, use_cache=False, telemetry=tel)
        # The span's ``hosts`` is the count of host shards aggregated.
        [span] = [s for s in tel.spans() if s.name == "fleet.aggregate"]
        assert span.lane == "fleet"
        assert span.attrs == {"fleets": 1, "hosts": fleet.hosts}


def _fleet_boom(**kw):
    raise RuntimeError("fleet-boom")


class TestGoldenFleetBattery:
    def test_fixture_is_committed(self):
        assert BATTERIES["fleet"].fixture.exists(), (
            "golden fleet fixture missing; capture it with "
            "PYTHONPATH=src python -m repro.analysis.golden fleet --write"
        )

    def test_battery_replays_bit_identically(self):
        problems = compare("fleet")
        assert problems == [], "\n".join(problems)


class TestMatrixFleetIntegration:
    MATRIX = """
[matrix]
name = "mfleet"
seeds = [0]
horizon_ms = 400

[axes]
workload = ["ping"]
mode = ["paratick"]
fleet = ["rack"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 6, work_cycles = 10000, same_vcpu = false }

[fleets.rack]
hosts = 2
guests = 2
consolidation = 2
burst = "waves"
burst_window_ms = 2
"""

    def expand(self):
        from repro.scenarios.matrix import parse_matrix

        return parse_matrix(self.MATRIX).expand()

    def test_matrix_cells_pass_the_sanitizer_battery(self):
        from repro.scenarios.runcheck import check_cells

        checks = check_cells(self.expand())
        assert all(c.ok for c in checks), [p for c in checks for p in c.problems]
        assert all(c.events > 0 for c in checks)

    def test_cli_fleet_json_is_the_run_fleets_aggregate(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.fleet.run import group_host_cells

        path = tmp_path / "mfleet.toml"
        path.write_text(self.MATRIX)
        assert main(["--quiet-progress", "--no-cache", "fleet", "run", str(path),
                     "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        aggregates, _ = run_fleets(group_host_cells(self.expand()), use_cache=False)
        assert got == {k: a.to_json_dict() for k, a in aggregates.items()}

    def test_matrix_cells_aggregate_like_a_fleet(self, tmp_path):
        from repro.fleet.run import group_host_cells, identity_problems_for_groups

        cells = self.expand()
        groups = group_host_cells(cells)
        assert list(groups) == ["ping/paratick"]
        assert len(groups["ping/paratick"]) == 2
        problems = identity_problems_for_groups(
            groups, jobs=2, cache_dir=str(tmp_path))
        assert problems == []
