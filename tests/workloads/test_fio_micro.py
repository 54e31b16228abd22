"""Tests for the fio and microbenchmark workload models."""

from __future__ import annotations

import pytest

from repro.config import IoDeviceKind, TickMode
from repro.errors import WorkloadError
from repro.experiments.runner import run_workload
from repro.host.exitreasons import ExitReason
from repro.sim.timebase import MSEC, SEC, USEC
from repro.workloads import fio
from repro.workloads.micro import (
    IdlePeriodWorkload,
    IdleWorkload,
    PingPongWorkload,
    SyncStormWorkload,
)


class TestFioJobSpec:
    def test_category_classification(self):
        assert fio.FioJob("seqr", 4096).is_read and not fio.FioJob("seqr", 4096).is_random
        assert fio.FioJob("rndr", 4096).is_read and fio.FioJob("rndr", 4096).is_random
        assert not fio.FioJob("seqwr", 4096).is_read
        assert fio.FioJob("rndwr", 4096).is_random

    def test_invalid_category(self):
        with pytest.raises(WorkloadError):
            fio.FioJob("bogus", 4096)

    def test_op_count(self):
        wl = fio.job("seqr", 4096, total_bytes=1 << 20)
        assert wl.ops == 256

    def test_too_small_total_rejected(self):
        with pytest.raises(WorkloadError):
            fio.job("seqr", 65536, total_bytes=1024)


class TestFioExecution:
    def test_read_job_blocks_per_op(self):
        """Sync reads: one HLT (idle) and one kick exit per operation."""
        wl = fio.job("seqr", 4096, total_bytes=64 * 4096)
        m = run_workload(wl, tick_mode=TickMode.TICKLESS, seed=1, noise=False)
        kicks = m.exits.by_reason(ExitReason.IO_INSTRUCTION)
        assert kicks == 64
        assert m.exits.by_reason(ExitReason.HLT) >= 60

    def test_write_batching_reduces_device_ops(self):
        """Writeback: WRITE_BATCH writes per flush."""
        wl = fio.job("seqwr", 4096, total_bytes=64 * 4096)
        m = run_workload(wl, tick_mode=TickMode.TICKLESS, seed=1, noise=False)
        kicks = m.exits.by_reason(ExitReason.IO_INSTRUCTION)
        assert kicks == 64 // fio.WRITE_BATCH

    def test_larger_blocks_higher_bandwidth(self):
        def mbps(bs):
            wl = fio.job("seqr", bs, total_bytes=2 << 20)
            m = run_workload(wl, seed=2, noise=False)
            return wl.total_bytes / (m.exec_time_ns / 1e9)

        assert mbps(65536) > mbps(4096)

    def test_random_reads_slower_than_sequential(self):
        def t(cat):
            m = run_workload(fio.job(cat, 4096, total_bytes=2 << 20), seed=3, noise=False)
            return m.exec_time_ns

        assert t("rndr") > t("seqr")

    def test_hdd_much_slower_than_ssd(self):
        def t(kind):
            m = run_workload(
                fio.job("rndr", 4096, total_bytes=256 * 4096),
                device_kind=kind,
                seed=4,
                noise=False,
            )
            return m.exec_time_ns

        assert t(IoDeviceKind.HDD) > 5 * t(IoDeviceKind.SATA_SSD)


class TestMicroWorkloads:
    def test_idle_workload_runs_to_horizon(self):
        m = run_workload(IdleWorkload(vcpus=2), horizon_ns=SEC // 4, noise=False)
        assert m.exec_time_ns == SEC // 4

    def test_sync_storm_rate(self):
        """The configured VM-wide blocking rate is roughly achieved."""
        wl = SyncStormWorkload(threads=4, events_per_second=2000.0, duration_cycles=200_000_000)
        m = run_workload(wl, tick_mode=TickMode.TICKLESS, seed=5)
        secs = m.exec_time_ns / 1e9
        hlts = m.exits.by_reason(ExitReason.HLT) / secs
        # Each barrier episode blocks 3 of 4 threads.
        assert 800 <= hlts <= 3_000

    def test_sync_storm_validation(self):
        with pytest.raises(WorkloadError):
            SyncStormWorkload(threads=1)
        with pytest.raises(WorkloadError):
            SyncStormWorkload(events_per_second=0)

    def test_pingpong_completes_both_sides(self):
        m = run_workload(PingPongWorkload(rounds=100), seed=6)
        assert m.exec_time_ns > 0

    def test_pingpong_same_vcpu_no_deadlock(self):
        """The permit-banking CondVar prevents the lost-signal hang."""
        m = run_workload(PingPongWorkload(rounds=50, same_vcpu=True), seed=6, horizon_ns=5 * SEC)
        assert m.exec_time_ns < 5 * SEC

    def test_pingpong_cross_vcpu_sends_ipis(self):
        m = run_workload(PingPongWorkload(rounds=200), seed=7)
        from repro.host.exitreasons import ExitTag

        assert m.exits.by_tag(ExitTag.IPI) >= 200

    def test_idle_period_workload_duration_scales(self):
        short = run_workload(IdlePeriodWorkload(1 * MSEC, iterations=50), seed=8, noise=False)
        long_ = run_workload(IdlePeriodWorkload(10 * MSEC, iterations=50), seed=8, noise=False)
        assert long_.exec_time_ns > short.exec_time_ns * 5

    def test_idle_period_validation(self):
        with pytest.raises(WorkloadError):
            IdlePeriodWorkload(0)
