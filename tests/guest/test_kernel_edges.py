"""Edge-case tests of the guest kernel and op layer."""

from __future__ import annotations

import pytest

from repro.config import TickMode
from repro.errors import GuestError
from repro.guest import ops as gops
from repro.guest.noise import install_noise
from repro.guest.task import BlockRead, NetRequest, Run, Task
from repro.hw.cpu import CycleDomain
from repro.sim.timebase import MSEC, SEC
from tests.integration.helpers import build_stack


class TestOpsValidation:
    def test_compute_rejects_negative(self):
        with pytest.raises(GuestError):
            gops.Compute(-1)

    def test_compute_rejects_host_domain(self):
        with pytest.raises(GuestError):
            gops.Compute(10, CycleDomain.HOST_HANDLER)

    def test_reprs_are_informative(self):
        assert "Compute" in repr(gops.Compute(5))
        assert "Wrmsr" in repr(gops.Wrmsr(0x6E0, 1))
        assert "Hlt" in repr(gops.Hlt())
        assert "Fault" in repr(gops.Fault())


class TestKernelWiring:
    def test_io_without_device_raises(self):
        sim, machine, hv, vm, kernel = build_stack()

        def body():
            yield BlockRead(4096)

        kernel.add_task(Task("t", body(), affinity=0))
        hv.start()
        with pytest.raises(GuestError):
            sim.run(until=SEC)

    def test_net_without_nic_raises(self):
        sim, machine, hv, vm, kernel = build_stack()

        def body():
            yield NetRequest(1024)

        kernel.add_task(Task("t", body(), affinity=0))
        hv.start()
        with pytest.raises(GuestError):
            sim.run(until=SEC)

    def test_double_device_attach_rejected(self):
        sim, machine, hv, vm, kernel = build_stack()
        kernel.attach_block_device(object())
        with pytest.raises(GuestError):
            kernel.attach_block_device(object())

    def test_double_kernel_attach_rejected(self):
        from repro.errors import HostError
        from repro.guest.kernel import GuestKernel

        sim, machine, hv, vm, kernel = build_stack()
        with pytest.raises(HostError):
            GuestKernel(vm)

    def test_unknown_task_op_rejected(self):
        sim, machine, hv, vm, kernel = build_stack()

        def body():
            yield "not an op"

        kernel.add_task(Task("t", body(), affinity=0))
        hv.start()
        with pytest.raises(GuestError):
            sim.run(until=SEC)


class TestPreemptionAccounting:
    def test_interrupted_compute_accounts_exactly_once(self):
        """A compute op split by interrupts books exactly its duration
        in GUEST_USER regardless of how many times it was preempted."""
        sim, machine, hv, vm, kernel = build_stack(tick_mode=TickMode.TICKLESS, seed=3)
        work = 110_000_000  # 50ms: split by many host ticks and guest ticks
        done = []

        def body():
            yield Run(work)

        kernel.add_task(Task("t", body(), affinity=0))
        kernel.task_done_callbacks.append(lambda t: done.append(sim.now))
        hv.start()
        sim.run(until=SEC)
        assert done
        user_ns = machine.cpu(0).busy_ns(CycleDomain.GUEST_USER)
        expected_ns = machine.clock.cycles_to_ns(work)
        # Noise daemons add a little GUEST_USER of their own.
        assert expected_ns <= user_ns <= expected_ns * 1.02 + 2 * MSEC

    def test_on_done_fires_exactly_once_despite_preemption(self):
        sim, machine, hv, vm, kernel = build_stack(seed=4)
        fired = []
        # Long kernel compute with an on_done, delivered via the op API.
        kernel.push(0, gops.Compute(44_000_000, CycleDomain.GUEST_KERNEL,
                                    on_done=lambda: fired.append(sim.now)))
        hv.start()
        sim.run(until=SEC)
        assert len(fired) == 1


class TestNoise:
    def test_install_noise_adds_daemons_per_vcpu(self):
        sim, machine, hv, vm, kernel = build_stack(vcpus=2)
        tasks = install_noise(kernel, daemons_per_vcpu=3)
        assert len(tasks) == 6
        assert {t.affinity for t in tasks} == {0, 1}

    def test_noise_generates_idle_transitions(self):
        from repro.host.exitreasons import ExitReason

        sim, machine, hv, vm, kernel = build_stack(tick_mode=TickMode.TICKLESS)
        install_noise(kernel)
        hv.start()
        sim.run(until=SEC)
        # ~20 wakeups/s -> HLT exits in that order of magnitude.
        assert 5 <= vm.counters.by_reason(ExitReason.HLT) <= 120

    def test_noise_parameters_validated(self):
        from repro.errors import ConfigError
        from repro.guest.noise import daemon_body

        sim, machine, hv, vm, kernel = build_stack()
        with pytest.raises(ConfigError):
            next(daemon_body(kernel, "s", mean_sleep_ns=0))
