"""What the vCPU executor's fast paths must preserve.

The executor converts every fixed cost once per host, the kernel hands
out a queued op without running its scheduler loop, and an op's
``on_done`` runs through :meth:`GuestKernel.complete`. These tests pin
the behaviour those shortcuts must keep: the sti;hlt guard, which vCPU
a wake inside ``on_done`` is attributed to, and that each converted
cost equals :meth:`CpuClock.cycles_to_ns` of it.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.experiments.scenarios import MEDIUM, pins_for_size
from repro.guest import ops as gops
from repro.guest.task import Run, Task
from repro.host.costs import DEFAULT_COSTS
from repro.host.exitreasons import ExitTag
from repro.hw.cpu import CycleDomain
from repro.hw.interrupts import Vector
from repro.sim.timebase import MSEC, hz_to_period_ns
from repro.workloads import parsec
from repro.workloads.micro import SyncStormWorkload
from tests.integration.helpers import build_stack

K = CycleDomain.GUEST_KERNEL


def _task(name: str, affinity: int) -> Task:
    def body():
        yield Run(1_000)

    return Task(name, body(), affinity=affinity)


class TestStiHltGuard:
    def test_queued_hlt_is_returned_when_idle(self):
        sim, machine, hv, vm, kernel = build_stack()
        ops = kernel.ctx(0).ops
        ops.clear()
        ops.append(gops.Hlt())
        assert isinstance(kernel.next_op(0), gops.Hlt)

    @pytest.mark.parametrize("ahead", [0, 2])
    def test_hlt_never_returned_with_a_runnable_task(self, ahead):
        """A wakeup between the idle-entry decision and the HLT drops
        the HLT, whether it heads the queue or sits behind ops the
        fast path hands out first."""
        sim, machine, hv, vm, kernel = build_stack()
        ops = kernel.ctx(0).ops
        ops.clear()
        queued = [gops.Compute(100, K) for _ in range(ahead)]
        ops.extend(queued)
        ops.append(gops.Hlt())
        kernel.add_task(_task("runnable", 0))
        got = [kernel.next_op(0) for _ in range(ahead + 3)]
        assert got[:ahead] == queued
        assert not any(isinstance(op, gops.Hlt) for op in got)
        assert not any(isinstance(op, gops.Hlt) for op in ops)


class TestWakeAttribution:
    """An ``on_done`` that wakes a task on another vCPU makes the
    *completing* vCPU send the reschedule IPI."""

    def _stack(self, **kw):
        sim, machine, hv, vm, kernel = build_stack(vcpus=2, **kw)
        sleeper = _task("sleeper", 1)
        kernel.add_task(sleeper)
        kernel.sched.pick_next(1)
        kernel.sched.block_current(1, "test")
        execu = vm.vcpus[0].exec
        seen = {}

        def on_done():
            # In _cancel_cur's exact-completion branch the op is still
            # the executor's current one; in _compute_done it is not.
            seen["in_flight"] = execu._cur_op is not None
            kernel.sched.wake(sleeper)
            seen["ops0"] = list(kernel.ctx(0).ops)
            seen["ops1"] = list(kernel.ctx(1).ops)

        return sim, hv, kernel, execu, on_done, seen

    def _assert_ipi_from_vcpu0(self, hv, seen):
        def key(op):
            return type(op), getattr(op, "index", None), getattr(op, "value", None)

        want = key(hv.timerhw.guest_ipi_op(1, Vector.RESCHEDULE))
        assert key(seen["ops0"][-1]) == want
        assert want not in [key(op) for op in seen["ops1"]]

    def test_compute_done(self):
        sim, hv, kernel, execu, on_done, seen = self._stack()
        kernel.requeue_front(0, gops.Compute(1_000, K, on_done=on_done))
        hv.start()
        sim.run(until=MSEC)
        assert seen["in_flight"] is False
        self._assert_ipi_from_vcpu0(hv, seen)

    def test_cancel_cur_exact_completion(self):
        # Below 1 GHz one nanosecond holds no whole cycle, so an
        # interrupt 1 ns before the end leaves nothing to re-queue.
        spec = MachineSpec(sockets=1, cpus_per_socket=2, freq_hz=500_000_000)
        sim, hv, kernel, execu, on_done, seen = self._stack(machine_spec=spec)
        op = gops.Compute(1_000_000, K, on_done=on_done)  # 2 ms
        kernel.requeue_front(0, op)
        hv.start()
        sim.run(until=MSEC)
        assert execu._cur_op is op
        end = execu._cur_start + execu._cur_dur
        sim.at(end - 1, execu.deliver, Vector.RESCHEDULE, ExitTag.IPI)
        sim.run(until=3 * MSEC)
        assert seen["in_flight"] is True
        self._assert_ipi_from_vcpu0(hv, seen)


def _host_fixed_costs(costs, spec: MachineSpec) -> set[int]:
    """Every cycle count the hypervisor may charge as a fixed cost."""
    fixed = {v for k, v in asdict(costs).items() if not k.startswith("guest_")}
    fixed |= {costs.vmentry_hw + n * costs.inject_irq for n in range(len(Vector) + 1)}
    fixed.add(costs.handler_external_interrupt + costs.host_tick_handler)
    fixed.add(int(costs.wake_vcpu * spec.cross_socket_penalty))
    return fixed


OVERRIDES = DEFAULT_COSTS.with_overrides(
    vmexit_hw=1_777, vmentry_hw=1_003, inject_irq=701, pollution=12_345,
    handler_hlt=2_222, wake_vcpu=7_777, block_vcpu=5_001,
)


class TestFixedCostConversions:
    @pytest.mark.parametrize("arch", ["x86", "arm"])
    @pytest.mark.parametrize("freq_hz", [MachineSpec().freq_hz, 3_333_333_333])
    @pytest.mark.parametrize("costs", [DEFAULT_COSTS, OVERRIDES], ids=["default", "overrides"])
    def test_each_converted_cost_equals_cycles_to_ns(self, arch, freq_hz, costs):
        spec = MachineSpec(sockets=1, cpus_per_socket=2, freq_hz=freq_hz)
        seen = {}
        run_workload(
            SyncStormWorkload(threads=2, events_per_second=800.0, duration_cycles=5_000_000),
            tick_mode=TickMode.TICKLESS, machine_spec=spec, costs=costs, arch=arch,
            inspect=lambda sim, machine, hv, vms: seen.update(hv=hv, clock=machine.clock),
        )
        hv, clock = seen["hv"], seen["clock"]
        table = hv.fixed_ns
        assert {costs.vmexit_hw, costs.pollution, costs.vmentry_hw} <= table.keys()
        for cycles, ns in table.items():
            assert ns == clock.cycles_to_ns(cycles), cycles
        assert table.keys() <= _host_fixed_costs(costs, spec)
        execu = hv.vms[0].vcpus[0].exec
        assert execu._exit_hw_ns == clock.cycles_to_ns(costs.vmexit_hw)
        assert execu._pollution_ns == clock.cycles_to_ns(costs.pollution)
        assert hv.host_tick_period_ns == hz_to_period_ns(spec.host_tick_hz)

    @pytest.mark.parametrize("mode", [TickMode.TICKLESS, TickMode.PARATICK])
    def test_parsec_mt_cell_converts_only_fixed_costs(self, mode):
        """Guest compute durations vary and are converted inline; the
        table never holds one of their cycle counts."""
        spec = MachineSpec()
        seen = {}
        run_workload(
            parsec.benchmark("streamcluster", threads=MEDIUM.vcpus, target_cycles=2_000_000),
            tick_mode=mode, pinned_cpus=pins_for_size(MEDIUM),
            inspect=lambda sim, machine, hv, vms: seen.update(hv=hv, clock=machine.clock),
        )
        table = seen["hv"].fixed_ns
        assert table.keys() <= _host_fixed_costs(DEFAULT_COSTS, spec)
        for cycles, ns in table.items():
            assert ns == seen["clock"].cycles_to_ns(cycles)
