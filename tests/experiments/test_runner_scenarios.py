"""Tests for the experiment runner, scenarios and experiment modules."""

from __future__ import annotations

import pytest

from repro.config import MachineSpec, TickMode
from repro.errors import ConfigError, WorkloadError
from repro.experiments.runner import run_comparison, run_workload
from repro.experiments.scenarios import LARGE, MEDIUM, SMALL, pin_spread, pins_for_size
from repro.experiments.table1 import analytical_rows
from repro.sim.timebase import MSEC, SEC
from repro.workloads.micro import PingPongWorkload
from repro.workloads.parsec import benchmark


class TestPinSpread:
    def test_small_on_one_socket(self):
        pins = pins_for_size(SMALL)
        spec = MachineSpec()
        assert len(pins) == 4
        assert {spec.socket_of(c) for c in pins} == {0}

    def test_medium_two_sockets(self):
        pins = pins_for_size(MEDIUM)
        spec = MachineSpec()
        assert len(pins) == 16
        assert {spec.socket_of(c) for c in pins} == {0, 1}

    def test_large_four_sockets(self):
        pins = pins_for_size(LARGE)
        spec = MachineSpec()
        assert len(pins) == 64
        assert {spec.socket_of(c) for c in pins} == {0, 1, 2, 3}
        assert len(set(pins)) == 64  # no double placement

    def test_uneven_spread_rejected(self):
        with pytest.raises(ConfigError):
            pin_spread(MachineSpec(), 5, 2)

    def test_socket_overflow_rejected(self):
        with pytest.raises(ConfigError):
            pin_spread(MachineSpec(sockets=1, cpus_per_socket=4), 8, 1)


class TestRunner:
    def test_returns_complete_metrics(self):
        m = run_workload(PingPongWorkload(rounds=50), seed=1)
        assert m.exec_time_ns > 0
        assert m.total_cycles > 0
        assert m.total_exits > 0
        assert m.extra["vcpus"] == 2

    def test_incomplete_workload_raises(self):
        wl = benchmark("blackscholes", target_cycles=2_200_000_000)  # ~1s of work
        with pytest.raises(WorkloadError):
            run_workload(wl, horizon_ns=10 * MSEC)

    def test_device_attached_on_demand(self):
        from repro.workloads import fio

        m = run_workload(fio.job("seqr", 4096, total_bytes=32 * 4096), seed=2)
        assert m.exits.by_tag(__import__("repro.host.exitreasons", fromlist=["ExitTag"]).ExitTag.IO) > 0

    def test_noise_flag(self):
        base = run_workload(PingPongWorkload(rounds=800), seed=3, noise=False)
        noisy = run_workload(PingPongWorkload(rounds=800), seed=3, noise=True)
        # Daemons add application (GUEST_USER) work on top of the main
        # tasks over the same span.
        assert noisy.useful_cycles > base.useful_cycles

    def test_comparison_shares_seed_and_workload(self):
        comp, base, cand = run_comparison(PingPongWorkload(rounds=100), seed=4)
        assert base.extra["seed"] == cand.extra["seed"] == 4
        assert comp.label == "micro.pingpong"

    def test_paratick_default_candidate_wins_on_sync(self):
        comp, base, cand = run_comparison(PingPongWorkload(rounds=300), seed=5)
        assert comp.vm_exits < 0
        assert comp.throughput > 0

    def test_replicated_comparison_reports_mean_and_sd(self):
        """§6's methodology: several iterations, mean with ~5% spread."""
        from repro.experiments.parallel import WorkloadSpec
        from repro.experiments.runner import run_replicated_comparison

        mean, sds = run_replicated_comparison(
            WorkloadSpec.make("micro.pingpong", rounds=200), seeds=(0, 1, 2)
        )
        assert mean.vm_exits < 0
        assert set(sds) == {"vm_exits", "throughput", "exec_time"}
        # Across-seed spread stays modest (the paper's "deviation of 5%").
        assert sds["vm_exits"] < 0.08

    def test_replicated_needs_seeds(self):
        from repro.experiments.parallel import WorkloadSpec
        from repro.experiments.runner import run_replicated_comparison

        with pytest.raises(ValueError):
            run_replicated_comparison(WorkloadSpec.make("micro.pingpong", rounds=10),
                                      seeds=())


class TestExperimentModules:
    def test_table1_rows_match_paper(self):
        assert all(r.matches_paper for r in analytical_rows())

    def test_table2_runs_on_subset(self):
        """Smoke-run the Fig. 4 driver at tiny scale."""
        from repro.experiments import table2_fig4

        res = table2_fig4.run(target_cycles=30_000_000)
        assert len(res.rows) == 13
        assert res.aggregate.vm_exits < 0
        assert "Table 2" in res.render()

    def test_table3_small_subset(self):
        from repro.experiments import table3_fig5

        res = table3_fig5.run_size(
            SMALL, benches=("streamcluster", "swaptions"), target_cycles=30_000_000
        )
        assert len(res.rows) == 2
        assert res.aggregate.vm_exits < 0

    def test_table4_tiny(self):
        from repro.experiments import table4_fig6

        res = table4_fig6.run(total_bytes=1 << 20, block_sizes=(4096,))
        assert len(res.rows) == 4
        assert res.aggregate.vm_exits < 0
        assert res.aggregate.throughput > 0


class TestFigureGrids:
    """The grid each figure driver submits: spec labels, their order and
    the A/B knobs. Labels are part of every cell's cache key and of the
    benchmark digests, so a refactor of the drivers must not move them."""

    class Submitted(Exception):
        pass

    @pytest.fixture
    def submitted(self, monkeypatch):
        from repro.experiments import figure

        grids = []

        def run_grid(specs, **engine):
            grids.append(list(specs))
            raise self.Submitted

        monkeypatch.setattr(figure, "run_grid", run_grid)
        return grids

    @staticmethod
    def ab_labels(stems):
        return [f"{s}/{mode}" for s in stems for mode in ("tickless", "paratick")]

    def test_table2_grid(self, submitted):
        from repro.experiments import table2_fig4
        from repro.workloads.parsec import BENCHMARK_NAMES

        with pytest.raises(self.Submitted):
            table2_fig4.run(target_cycles=1)
        (specs,) = submitted
        assert [s.label for s in specs] == self.ab_labels(BENCHMARK_NAMES)
        assert [s.tick_mode for s in specs[:2]] == [TickMode.TICKLESS, TickMode.PARATICK]
        assert specs[0].with_(tick_mode=TickMode.PARATICK, label="x") == specs[1].with_(label="x")

    def test_table3_grid(self, submitted):
        from repro.experiments import table3_fig5

        with pytest.raises(self.Submitted):
            table3_fig5.run_size(SMALL, benches=("swaptions", "dedup"), seed=3)
        (specs,) = submitted
        assert [s.label for s in specs] == self.ab_labels(["small.swaptions", "small.dedup"])
        assert {s.pinned_cpus for s in specs} == {pins_for_size(SMALL)}
        assert {s.seed for s in specs} == {3}
        assert {s.workload.kwargs()["threads"] for s in specs} == {SMALL.vcpus}

    def test_table4_grid(self, submitted):
        from repro.experiments import table4_fig6

        with pytest.raises(self.Submitted):
            table4_fig6.run(block_sizes=(4096, 65536))
        (specs,) = submitted
        assert [s.label for s in specs] == self.ab_labels(
            f"{cat}.{k}k" for cat in ("seqr", "seqwr", "rndr", "rndwr") for k in (4, 64)
        )
