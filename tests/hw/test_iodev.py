"""Tests for the I/O device models."""

from __future__ import annotations

import pytest

from repro.config import IoDeviceKind
from repro.errors import HardwareError
from repro.hw.block import BLOCK_PROFILES, BlockDevice, make_block_device
from repro.hw.iodev import IoDevice, IoRequest
from repro.hw.nic import DATACENTER_10G, DATACENTER_100G, Nic
from repro.sim.engine import Simulator
from repro.sim.timebase import MSEC, USEC


class FixedDevice(IoDevice):
    """Test double: constant 100ns service time."""

    def service_time_ns(self, req: IoRequest) -> int:
        return 100


class TestIoDeviceQueueing:
    def test_single_request_completes(self):
        sim = Simulator()
        done = []
        dev = FixedDevice(sim, "d", done.append)
        dev.submit(IoRequest("read", 0, 4096))
        sim.run()
        assert len(done) == 1
        assert done[0].complete_ns == 100
        assert dev.completed == 1

    def test_fifo_service_order(self):
        sim = Simulator()
        done = []
        dev = FixedDevice(sim, "d", lambda r: done.append(r.offset))
        for off in (0, 1, 2):
            dev.submit(IoRequest("read", off, 512))
        assert dev.queue_depth == 3
        sim.run()
        assert done == [0, 1, 2]
        assert sim.now == 300  # queue depth 1: serialized

    def test_invalid_requests_rejected(self):
        dev = FixedDevice(Simulator(), "d", lambda r: None)
        with pytest.raises(HardwareError):
            dev.submit(IoRequest("read", 0, 0))
        with pytest.raises(HardwareError):
            dev.submit(IoRequest("erase", 0, 512))

    def test_service_times_recorded(self):
        sim = Simulator()
        dev = FixedDevice(sim, "d", lambda r: None)
        reqs = [IoRequest("read", i, 512) for i in range(5)]
        for req in reqs:
            dev.submit(req)
        sim.run()
        assert dev.completed == 5
        latencies = [r.complete_ns - r.submit_ns for r in reqs]
        # Later submissions wait in queue, so latency grows.
        assert latencies == sorted(latencies)
        assert max(latencies) > min(latencies)


class TestBlockDevice:
    def make(self, kind=IoDeviceKind.SATA_SSD):
        sim = Simulator(seed=3)
        done = []
        dev = make_block_device(sim, kind, done.append)
        return sim, dev, done

    def test_sequential_cheaper_than_random(self):
        """Random access pays the seek/penalty term."""
        sim, dev, done = self.make(IoDeviceKind.HDD)
        dev.submit(IoRequest("read", 0, 4096))
        dev.submit(IoRequest("read", 4096, 4096))  # sequential
        dev.submit(IoRequest("read", 10_000_000, 4096))  # random
        sim.run()
        seq = done[1].complete_ns - done[1].submit_ns
        rnd = done[2].complete_ns - done[2].submit_ns
        assert rnd > seq + BLOCK_PROFILES[IoDeviceKind.HDD].random_penalty_ns / 2

    def test_device_class_latency_ordering(self):
        """HDD >> SATA SSD > NVMe for the same random read."""
        lat = {}
        for kind in IoDeviceKind:
            sim, dev, done = self.make(kind)
            dev.submit(IoRequest("read", 999_999_999, 4096))
            sim.run()
            lat[kind] = done[0].complete_ns
        assert lat[IoDeviceKind.HDD] > 10 * lat[IoDeviceKind.SATA_SSD]
        assert lat[IoDeviceKind.SATA_SSD] > lat[IoDeviceKind.NVME_SSD]

    def test_larger_transfers_take_longer(self):
        sim, dev, done = self.make()
        dev.submit(IoRequest("read", 0, 4096))
        dev.submit(IoRequest("read", 4096, 262144))
        sim.run()
        small = done[0].complete_ns - done[0].submit_ns
        large = done[1].complete_ns - done[1].submit_ns
        assert large > small + 200 * USEC  # ~258KB extra at ~520MB/s

    def test_writes_slower_than_reads_on_ssd(self):
        sim, dev, done = self.make()
        dev.submit(IoRequest("read", 0, 4096))
        dev.submit(IoRequest("write", 0, 4096))
        sim.run()
        r = done[0].complete_ns - done[0].submit_ns
        w = done[1].complete_ns - done[1].submit_ns
        assert w > r

    def test_deterministic_given_seed(self):
        def run_once():
            sim = Simulator(seed=11)
            out = []
            dev = make_block_device(sim, IoDeviceKind.SATA_SSD, lambda r: out.append(r.complete_ns))
            for i in range(10):
                dev.submit(IoRequest("read", i * 1_000_000, 4096))
            sim.run()
            return out

        assert run_once() == run_once()


class TestNic:
    def test_roundtrip_latency(self):
        sim = Simulator(seed=1)
        done = []
        nic = Nic(sim, DATACENTER_10G, done.append)
        nic.submit(IoRequest("read", 0, 1024))
        sim.run()
        rtt = done[0].complete_ns
        # 2x25us wire + 30us service +- jitter.
        assert 40 * USEC < rtt < 160 * USEC

    def test_faster_link_is_faster(self):
        def rtt(profile):
            sim = Simulator(seed=2)
            done = []
            nic = Nic(sim, profile, done.append)
            nic.submit(IoRequest("read", 0, 4096))
            sim.run()
            return done[0].complete_ns

        assert rtt(DATACENTER_100G) < rtt(DATACENTER_10G)
