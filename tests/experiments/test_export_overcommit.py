"""Tests for CSV export and the overcommit scenarios."""

from __future__ import annotations

import csv
import hashlib

import pytest

from repro.config import TickMode
from repro.errors import ConfigError
from repro.experiments.figure import Figure
from repro.experiments.overcommit import compare_modes, run_idle_overcommit
from repro.metrics.report import Comparison
from repro.sim.timebase import SEC


def figure(*comps: Comparison, io_throughput: bool = False) -> Figure:
    return Figure(title="t", rows=list(comps), aggregate=Comparison("avg", 0, 0, 0),
                  io_throughput=io_throughput)


class TestCsvExport:
    def test_csv_roundtrip(self):
        fig = figure(Comparison("a", -0.5, 0.1, -0.02), Comparison("b", -0.3, 0.2, -0.01))
        rows = list(csv.reader(fig.csv().splitlines()))
        assert rows[0] == ["label", "vm_exits", "throughput", "exec_time"]
        assert rows[1][0] == "a"
        assert float(rows[1][1]) == pytest.approx(-0.5)
        assert [r[0] for r in rows[1:]] == ["a", "b", "avg"]

    def test_write_csv_creates_dirs(self, tmp_path):
        p = figure(Comparison("x", 0, 0, 0)).write_csv(tmp_path / "nested" / "out.csv")
        assert p.exists()
        assert p.read_bytes() == figure(Comparison("x", 0, 0, 0)).csv().encode()

    def test_export_fig4_headers(self):
        from repro.experiments import table2_fig4

        text = table2_fig4.run(target_cycles=20_000_000).csv()
        rows = list(csv.reader(text.splitlines()))
        assert len(rows) == 15  # 13 benchmarks + aggregate + header
        assert rows[0] == ["label", "vm_exits", "throughput", "exec_time"]

    def test_export_fig5_small_only(self):
        from repro.experiments import table3_fig5
        from repro.experiments.scenarios import SMALL

        text = table3_fig5.run_size(SMALL, target_cycles=20_000_000).csv()
        assert len(text.splitlines()) == 15
        assert text.splitlines()[-1].startswith("average (small),")

    def test_export_fig6_writes_five_rows(self, tmp_path):
        from repro.experiments import table4_fig6

        p = table4_fig6.run(total_bytes=1 << 20).write_csv(tmp_path / "fig6_fio.csv")
        rows = list(csv.reader(p.read_text().splitlines()))
        # 4 categories + 1 aggregate + header
        assert len(rows) == 6
        assert rows[0][1] == "vm_exits" and rows[0][2] == "io_throughput"
        labels = [r[0] for r in rows[1:]]
        assert set(labels[:4]) == {"seqr", "seqwr", "rndr", "rndwr"}


class TestOvercommit:
    def test_periodic_idle_overcommit_is_expensive(self):
        """W2 regime: periodic ticks cost exits and busy time even for
        fully idle guests; tickless/paratick stay quiet (§3.1)."""
        out = compare_modes(vms=2, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2)
        periodic = out[TickMode.PERIODIC]
        tickless = out[TickMode.TICKLESS]
        paratick = out[TickMode.PARATICK]
        # 8 idle vCPUs at 250 Hz -> thousands of exits/s under periodic.
        assert periodic.exits_per_second > 1_500
        assert tickless.exits_per_second < 200
        assert paratick.exits_per_second <= tickless.exits_per_second + 10
        assert periodic.busy_fraction > 5 * tickless.busy_fraction

    def test_scaling_with_vm_count(self):
        """W1 -> W2: four times the VMs, about four times the exits."""
        one = run_idle_overcommit(TickMode.PERIODIC, vms=1, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2)
        four = run_idle_overcommit(TickMode.PERIODIC, vms=4, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2)
        assert four.total_exits == pytest.approx(4 * one.total_exits, rel=0.15)

    def test_time_sharing_actually_happens(self):
        out = run_idle_overcommit(TickMode.PERIODIC, vms=2, vcpus_per_vm=2, pcpus=1, duration_ns=SEC // 2)
        assert out.host_switches > 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_idle_overcommit(TickMode.PERIODIC, vms=0)


#: sha256 of ``canonical_result_bytes`` for a 100 ms default W2 cell
#: (4 idle VMs x 4 vCPUs on 2 pCPUs), pinned per (arch, tick mode).
#: No golden battery covers ``overcommit.idle``; these do.
OVERCOMMIT_DIGESTS = {
    ("x86", "periodic"): "b26b06313e4aef6f318d544754943bc18c80692e964c47cc7261e3f2839f75c0",
    ("x86", "tickless"): "b2a9121b4e7c099b8f65a22bd77b5a750e0ac261cd700db32b15ad3feb50235a",
    ("x86", "paratick"): "3d33f2284dc389c698d0c21f0813adb29c00ad317775bcd2a522bbcac794bd6f",
    ("arm", "periodic"): "e0090bc7988599c444ab5eff5b81b82d67eef27a8e43b7428f7dfbfda884cb0c",
    ("arm", "tickless"): "b7f2f179c96ef0486c32ab31e4ec3d74e115a9af9f1796169360515dcc7d809e",
    ("arm", "paratick"): "3d33f2284dc389c698d0c21f0813adb29c00ad317775bcd2a522bbcac794bd6f",
}


@pytest.mark.parametrize("arch,mode", sorted(OVERCOMMIT_DIGESTS))
def test_overcommit_result_bytes_pinned(arch, mode):
    from repro.experiments.parallel import OVERCOMMIT_IDLE, RunSpec, WorkloadSpec, execute_spec
    from repro.scenarios.runcheck import canonical_result_bytes
    from repro.sim.timebase import MSEC

    spec = RunSpec(
        WorkloadSpec.make(OVERCOMMIT_IDLE, duration_ns=100 * MSEC),
        tick_mode=TickMode(mode), arch=arch,
    )
    digest = hashlib.sha256(canonical_result_bytes(execute_spec(spec))).hexdigest()
    assert digest == OVERCOMMIT_DIGESTS[(arch, mode)]


class TestNetWorkload:
    def test_net_service_runs_and_blocks(self):
        from repro.experiments.runner import run_workload
        from repro.host.exitreasons import ExitReason
        from repro.workloads.netserve import NetServiceWorkload

        wl = NetServiceWorkload(workers=2, requests=50)
        m = run_workload(wl, tick_mode=TickMode.TICKLESS, seed=1, noise=False)
        # Every RPC kicks the NIC once and blocks.
        assert m.exits.by_reason(ExitReason.IO_INSTRUCTION) == 100
        assert m.exits.by_reason(ExitReason.HLT) >= 80

    def test_faster_nic_faster_service(self):
        from repro.experiments.runner import run_workload
        from repro.hw.nic import DATACENTER_10G, DATACENTER_100G
        from repro.workloads.netserve import NetServiceWorkload

        def t(profile):
            wl = NetServiceWorkload(workers=1, requests=100, profile=profile)
            return run_workload(wl, seed=2, noise=False).exec_time_ns

        assert t(DATACENTER_100G) < t(DATACENTER_10G)


class TestOvercommitSpecFields:
    """An ``overcommit.idle`` cell honours every RunSpec field the stack
    builder takes, and rejects the ones its own parameters replace."""

    @staticmethod
    def spec(**changes):
        from repro.experiments.parallel import OVERCOMMIT_IDLE, RunSpec, WorkloadSpec
        from repro.sim.timebase import MSEC

        return RunSpec(
            WorkloadSpec.make(OVERCOMMIT_IDLE, duration_ns=200 * MSEC),
            tick_mode=TickMode.PERIODIC,
        ).with_(**changes)

    def test_tick_hz_scales_periodic_exits(self):
        from repro.experiments.parallel import execute_spec

        slow = execute_spec(self.spec())
        fast = execute_spec(self.spec(tick_hz=1000))
        assert fast.total_exits == pytest.approx(4 * slow.total_exits, rel=0.15)

    def test_cost_overrides_change_busy_time_not_exits(self):
        from repro.experiments.parallel import execute_spec

        base = execute_spec(self.spec())
        dear = execute_spec(self.spec(cost_overrides=(("vmexit_hw", 5_000),)))
        assert dear.total_exits == base.total_exits
        assert dear.total_busy_ns > base.total_busy_ns

    def test_series_artifact(self):
        from repro.experiments.parallel import encode_result, execute_spec, execute_spec_full

        result, series = execute_spec_full(self.spec(series=True))
        assert series is not None and series["windows"]
        assert encode_result(result) == encode_result(execute_spec(self.spec()))

    @pytest.mark.parametrize("field,value", [
        ("horizon_ns", 50_000_000),
        ("vcpus", 2),
        ("pinned_cpus", (0, 1)),
        ("noise", False),
    ])
    def test_conflicting_fields_rejected(self, field, value):
        from repro.experiments.parallel import GridError, execute_spec

        with pytest.raises(GridError, match=field):
            execute_spec(self.spec(**{field: value}))
