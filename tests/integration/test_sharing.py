"""Resource-sharing behaviour: host-scheduler fairness and shared devices."""

from __future__ import annotations

import pytest

from repro.config import IoDeviceKind, MachineSpec, TickMode, VmSpec
from repro.guest.kernel import GuestKernel
from repro.guest.task import BlockRead, Run, Task
from repro.host.kvm import Hypervisor
from repro.hw.block import make_block_device
from repro.hw.cpu import CycleDomain, Machine
from repro.sim.engine import Simulator
from repro.sim.timebase import MSEC, SEC


class TestHostFairness:
    def test_two_vcpus_share_one_cpu_roughly_evenly(self):
        """Round-robin at host-tick boundaries gives both compute-bound
        vCPUs close to half the CPU."""
        sim = Simulator(seed=0)
        machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=1))
        hv = Hypervisor(sim, machine)
        vm = hv.create_vm(
            VmSpec(vcpus=2, tick_mode=TickMode.TICKLESS, pinned_cpus=(0, 0), noise=False)
        )
        kernel = GuestKernel(vm)
        finish = {}

        def body(i):
            yield Run(330_000_000)  # 150ms at 2.2GHz

        for i in range(2):
            kernel.add_task(Task(f"t{i}", body(i), affinity=i))
        kernel.task_done_callbacks.append(lambda t: finish.setdefault(t.name, sim.now))
        hv.start()
        sim.run(until=2 * SEC)
        assert len(finish) == 2
        times = sorted(finish.values())
        # Interleaved fairly: both finish near the end (~300ms), not one
        # at 150ms and the other at 300ms (which FIFO-to-completion
        # would give).
        assert times[0] > 250 * MSEC
        assert times[1] < 450 * MSEC
        assert (times[1] - times[0]) < 60 * MSEC

    def test_three_vms_progress_concurrently(self):
        sim = Simulator(seed=1)
        machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=1))
        hv = Hypervisor(sim, machine)
        kernels = []
        finish = []
        for v in range(3):
            vm = hv.create_vm(
                VmSpec(name=f"vm{v}", vcpus=1, tick_mode=TickMode.TICKLESS,
                       pinned_cpus=(0,), noise=False)
            )
            k = GuestKernel(vm)

            def body():
                yield Run(110_000_000)

            k.add_task(Task(f"vm{v}.t", body(), affinity=0))
            k.task_done_callbacks.append(lambda t: finish.append(sim.now))
            kernels.append(k)
        hv.start()
        sim.run(until=2 * SEC)
        assert len(finish) == 3
        # Three 50ms jobs on one CPU: total >= 150ms, all within ~200ms.
        assert finish[-1] >= 150 * MSEC
        assert finish[-1] < 300 * MSEC


class TestMixedModeColocation:
    def test_paratick_and_tickless_vms_coexist(self):
        """One paratick VM and one tickless VM share a host: each keeps
        its own tick semantics; paratick injection state never leaks."""
        sim = Simulator(seed=4)
        machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=2))
        hv = Hypervisor(sim, machine)
        vms, kernels, finish = [], [], []
        for v, mode in enumerate((TickMode.PARATICK, TickMode.TICKLESS)):
            vm = hv.create_vm(
                VmSpec(name=f"vm{v}", vcpus=1, tick_mode=mode,
                       pinned_cpus=(v,), noise=False)
            )
            k = GuestKernel(vm)

            def body():
                yield Run(110_000_000)

            k.add_task(Task(f"vm{v}.t", body(), affinity=0))
            k.task_done_callbacks.append(lambda t: finish.append(sim.now))
            vms.append(vm)
            kernels.append(k)
        hv.start()
        sim.run(until=SEC)
        assert len(finish) == 2
        para, nohz = vms
        assert para.paratick_enabled and not nohz.paratick_enabled
        assert para.virtual_ticks_injected > 5
        assert nohz.virtual_ticks_injected == 0
        # The tickless VM still pays its per-tick exits; paratick's VM
        # pays none.
        from repro.host.exitreasons import ExitTag

        assert nohz.counters.by_tag(ExitTag.TIMER_PROGRAM) > 5
        assert para.counters.by_tag(ExitTag.TIMER_PROGRAM) == 0


class TestSharedDevice:
    def test_two_vcpus_share_one_block_device(self):
        """Queue-depth-1 device serializes requests from two vCPUs; both
        tasks complete and total time reflects the serialization."""
        sim = Simulator(seed=2)
        machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=2))
        hv = Hypervisor(sim, machine)
        vm = hv.create_vm(
            VmSpec(vcpus=2, tick_mode=TickMode.TICKLESS, pinned_cpus=(0, 1), noise=False)
        )
        kernel = GuestKernel(vm)
        device = make_block_device(
            sim, IoDeviceKind.SATA_SSD,
            lambda req: hv.complete_io_request(vm, req.cookie[0], req),
        )
        kernel.attach_block_device(device)
        finish = []

        def body(i):
            for _ in range(20):
                yield BlockRead(4096)
                yield Run(50_000)

        for i in range(2):
            kernel.add_task(Task(f"t{i}", body(i), affinity=i))
        kernel.task_done_callbacks.append(lambda t: finish.append(sim.now))
        hv.start()
        sim.run(until=SEC)
        assert len(finish) == 2
        assert device.completed == 40
        # 40 serialized ~75us reads: at least 3ms of device time.
        assert finish[-1] >= 3 * MSEC

    def test_device_stats_track_queueing(self):
        """With two submitters, queueing pushes max service above min."""
        sim = Simulator(seed=3)
        machine = Machine(sim, MachineSpec(sockets=1, cpus_per_socket=2))
        hv = Hypervisor(sim, machine)
        vm = hv.create_vm(VmSpec(vcpus=2, pinned_cpus=(0, 1), noise=False))
        kernel = GuestKernel(vm)
        latencies = []

        def complete(req):
            latencies.append(req.complete_ns - req.submit_ns)
            hv.complete_io_request(vm, req.cookie[0], req)

        device = make_block_device(sim, IoDeviceKind.SATA_SSD, complete)
        kernel.attach_block_device(device)

        def body(i):
            for _ in range(10):
                yield BlockRead(4096)

        for i in range(2):
            kernel.add_task(Task(f"t{i}", body(i), affinity=i))
        hv.start()
        sim.run(until=SEC)
        assert device.completed == len(latencies) == 20
        assert max(latencies) > min(latencies)
