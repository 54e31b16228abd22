"""Tests for physical CPUs, the machine and cycle accounting."""

from __future__ import annotations

import pytest

from repro.config import MachineSpec
from repro.errors import ConfigError, HardwareError
from repro.hw.cpu import OVERHEAD_DOMAINS, CycleDomain, Machine
from repro.sim.engine import Simulator


def make_machine(**kw) -> Machine:
    return Machine(Simulator(), MachineSpec(**kw))


class TestMachineSpec:
    def test_default_matches_paper_testbed(self):
        spec = MachineSpec()
        assert spec.sockets == 4
        assert spec.cpus_per_socket == 20
        assert spec.total_cpus == 80

    def test_socket_of(self):
        spec = MachineSpec(sockets=2, cpus_per_socket=4)
        assert [spec.socket_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_socket_of_out_of_range(self):
        with pytest.raises(ConfigError):
            MachineSpec(sockets=1, cpus_per_socket=2).socket_of(2)

    def test_host_tick_period(self):
        assert MachineSpec(host_tick_hz=250).host_tick_period_ns == 4_000_000

    @pytest.mark.parametrize(
        "kw",
        [
            {"sockets": 0},
            {"cpus_per_socket": 0},
            {"freq_hz": 0},
            {"host_tick_hz": 0},
            {"cross_socket_penalty": 0.5},
        ],
    )
    def test_invalid_specs(self, kw):
        with pytest.raises(ConfigError):
            MachineSpec(**kw)


class TestAccounting:
    def test_account_and_read_back(self):
        m = make_machine(sockets=1, cpus_per_socket=2)
        cpu = m.cpu(0)
        cpu.account(CycleDomain.GUEST_USER, 1000)
        cpu.account(CycleDomain.GUEST_USER, 500)
        cpu.account(CycleDomain.HOST_HANDLER, 200)
        assert cpu.busy_ns(CycleDomain.GUEST_USER) == 1500
        assert cpu.busy_ns(CycleDomain.HOST_HANDLER) == 200
        assert cpu.busy_ns() == 1700

    def test_negative_rejected(self):
        m = make_machine(sockets=1, cpus_per_socket=1)
        with pytest.raises(HardwareError):
            m.cpu(0).account(CycleDomain.GUEST_USER, -1)
        assert m.cpu(0).busy_ns() == 0

    def test_busy_cycles_roundtrip(self):
        m = make_machine(sockets=1, cpus_per_socket=1, freq_hz=2_000_000_000)
        m.cpu(0).account(CycleDomain.GUEST_USER, 1000)
        assert m.cpu(0).busy_cycles(CycleDomain.GUEST_USER) == 2000

    def test_machine_totals_and_ledger(self):
        m = make_machine(sockets=1, cpus_per_socket=2)
        m.cpu(0).account(CycleDomain.GUEST_USER, 100)
        m.cpu(1).account(CycleDomain.GUEST_USER, 200)
        m.cpu(1).account(CycleDomain.HOST_TICK, 50)
        assert m.total_busy_ns() == 350
        assert m.total_busy_ns(CycleDomain.GUEST_USER) == 300
        assert m.ledger()[CycleDomain.HOST_TICK] == 50

    def test_ledger_keys_in_domain_order(self):
        m = make_machine(sockets=1, cpus_per_socket=2)
        m.cpu(0).account(CycleDomain.HALT_POLL, 7)
        m.cpu(0).account(CycleDomain.GUEST_USER, 3)
        assert list(m.cpu(0).ledger()) == list(CycleDomain)
        assert list(m.ledger()) == list(CycleDomain)
        assert m.cpu(0).ledger()[CycleDomain.HALT_POLL] == 7
        assert m.cpu(1).ledger() == dict.fromkeys(CycleDomain, 0)

    def test_domain_index_is_definition_order(self):
        assert [d.index for d in CycleDomain] == list(range(len(CycleDomain)))

    def test_ledger_is_a_copy(self):
        m = make_machine(sockets=1, cpus_per_socket=1)
        led = m.cpu(0).ledger()
        led[CycleDomain.GUEST_USER] = 999
        assert m.cpu(0).busy_ns(CycleDomain.GUEST_USER) == 0


class TestMachine:
    def test_cpu_lookup_bounds(self):
        m = make_machine(sockets=1, cpus_per_socket=2)
        with pytest.raises(HardwareError):
            m.cpu(2)

    def test_same_socket(self):
        m = make_machine(sockets=2, cpus_per_socket=2)
        assert m.same_socket(0, 1)
        assert not m.same_socket(1, 2)

    def test_overhead_domains_exclude_guest_work(self):
        assert CycleDomain.GUEST_USER not in OVERHEAD_DOMAINS
        assert CycleDomain.VMX_TRANSITION in OVERHEAD_DOMAINS
        assert CycleDomain.HOST_HANDLER in OVERHEAD_DOMAINS
