"""Unit tests for the cost model, exit taxonomy and host scheduler."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError, HostError
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.exitreasons import TIMER_TAGS, ExitTag
from repro.host.sched import HostScheduler
from repro.host.vcpu import VCpu, VcpuState
from repro.hw.cpu import Machine
from repro.config import MachineSpec
from repro.sim.engine import Simulator


class TestCostModel:
    def test_every_cost_is_nonnegative_int(self):
        for f in dataclasses.fields(CostModel):
            v = getattr(DEFAULT_COSTS, f.name)
            assert isinstance(v, int) and v >= 0, f.name

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(vmexit_hw=-1)

    def test_no_effect_pause_cost_rejected(self):
        """No guest model spins, so no cost for pause-loop exits exists."""
        with pytest.raises(TypeError):
            DEFAULT_COSTS.with_overrides(handler_pause=1)

    def test_icr_write_costlier_than_deadline_write(self):
        assert DEFAULT_COSTS.handler_msr_icr > DEFAULT_COSTS.handler_msr_tsc_deadline

    def test_preemption_timer_cheaper_than_external_interrupt(self):
        """§3: KVM's preemption-timer path is the 'less costly' exit."""
        assert DEFAULT_COSTS.handler_preemption_timer < DEFAULT_COSTS.handler_external_interrupt

    def test_with_overrides(self):
        c = DEFAULT_COSTS.with_overrides(pollution=0)
        assert c.pollution == 0
        assert c.vmexit_hw == DEFAULT_COSTS.vmexit_hw
        assert DEFAULT_COSTS.pollution > 0  # original untouched


class TestExitTaxonomy:
    def test_timer_tags(self):
        assert ExitTag.TIMER_PROGRAM in TIMER_TAGS
        assert ExitTag.TIMER_GUEST_TICK in TIMER_TAGS
        assert ExitTag.TIMER_HOST_TICK in TIMER_TAGS
        assert ExitTag.IPI not in TIMER_TAGS
        assert ExitTag.IO not in TIMER_TAGS


def make_vcpus(n_vcpus, n_cpus=1):
    machine = Machine(Simulator(), MachineSpec(sockets=1, cpus_per_socket=n_cpus))
    return [VCpu(i, "vm0", machine.cpu(i % n_cpus)) for i in range(n_vcpus)]


class TestHostScheduler:
    def test_acquire_free_cpu(self):
        (v,) = make_vcpus(1)
        s = HostScheduler(1)
        assert s.acquire(v) is True
        assert s.running_on(0) is v

    def test_acquire_busy_cpu_queues(self):
        a, b = make_vcpus(2)
        s = HostScheduler(1)
        assert s.acquire(a)
        assert s.acquire(b) is False
        assert b.state is VcpuState.READY
        assert s.wants_preemption(0)

    def test_release_dispatches_next(self):
        a, b = make_vcpus(2)
        s = HostScheduler(1)
        s.acquire(a)
        s.acquire(b)
        nxt = s.release(a)
        assert nxt is b
        assert s.running_on(0) is b

    def test_release_empty_queue(self):
        (a,) = make_vcpus(1)
        s = HostScheduler(1)
        s.acquire(a)
        assert s.release(a) is None
        assert s.running_on(0) is None

    def test_release_not_holder_raises(self):
        a, b = make_vcpus(2)
        s = HostScheduler(1)
        s.acquire(a)
        with pytest.raises(HostError):
            s.release(b)

    def test_round_robin_requeue(self):
        a, b, c = make_vcpus(3)
        s = HostScheduler(1)
        for v in (a, b, c):
            s.acquire(v)
        nxt = s.release(a)
        s.requeue(a)
        assert nxt is b
        assert s.release(b) is c
        s.requeue(b)
        assert s.release(c) is a

    def test_double_queue_rejected(self):
        a, b = make_vcpus(2)
        s = HostScheduler(1)
        s.acquire(a)
        s.acquire(b)
        with pytest.raises(HostError):
            s.acquire(b)

    def test_acquire_is_idempotent_for_holder(self):
        (a,) = make_vcpus(1)
        s = HostScheduler(1)
        s.acquire(a)
        assert s.acquire(a) is True

    def test_forget(self):
        a, b = make_vcpus(2)
        s = HostScheduler(1)
        s.acquire(a)
        s.acquire(b)
        s.forget(b)
        assert not s.wants_preemption(0)
        s.forget(a)
        assert s.running_on(0) is None

    def test_switch_counter(self):
        a, b = make_vcpus(2)
        s = HostScheduler(1)
        s.acquire(a)
        s.acquire(b)
        s.release(a)
        assert s.switches == 2  # a dispatched, then b


class TestVCpu:
    def test_irq_coalescing(self):
        from repro.hw.interrupts import Vector

        (v,) = make_vcpus(1)
        assert v.post_irq(Vector.LOCAL_TIMER) is True
        assert v.post_irq(Vector.LOCAL_TIMER) is False  # coalesced
        assert v.post_irq(Vector.RESCHEDULE) is True
        assert v.drain_irqs() == (Vector.LOCAL_TIMER, Vector.RESCHEDULE)
        assert v.pending_irqs == []

    def test_has_pending_timer_irq(self):
        from repro.hw.interrupts import Vector

        (v,) = make_vcpus(1)
        assert not v.has_pending_timer_irq
        v.post_irq(Vector.LOCAL_TIMER)
        assert v.has_pending_timer_irq
