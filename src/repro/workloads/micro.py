"""Microbenchmark workloads, including §3.3's W1–W4.

* :class:`IdleWorkload` — an idle VM (W1/W2): nothing but the kernel's
  own behaviour. Runs for a fixed duration instead of to completion.
* :class:`SyncStormWorkload` — N threads synchronizing through blocking
  primitives at a configurable VM-wide rate (W3/W4).
* :class:`PingPongWorkload` — two tasks alternating through condition
  variables; the minimal blocking-sync stressor used by tests.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.guest.sync import Barrier, CondVar
from repro.guest.task import BarrierWait, CondSignal, CondWait, Run, Sleep, Task
from repro.workloads.base import Workload
from repro.workloads.parsec import NOMINAL_HZ


class IdleWorkload(Workload):
    """A VM with no application tasks (W1; four of these make W2)."""

    name = "micro.idle"

    def __init__(self, vcpus: int = 16):
        if vcpus <= 0:
            raise WorkloadError("vcpus must be positive")
        self.vcpus = vcpus
        self.name = f"micro.idle.{vcpus}"

    def default_vcpus(self) -> int:
        return self.vcpus

    def build(self, kernel: GuestKernel) -> list[Task]:
        return []


class SyncStormWorkload(Workload):
    """W3: threads synchronizing at a fixed VM-wide rate.

    §3.3: "a workload using 16 threads, synchronizing 1000 times per
    second through blocking synchronization". Each barrier episode
    blocks every thread but the last arriver, so the VM-wide blocking
    rate is ``barrier_hz * threads`` block events/s; we pick barrier_hz
    so the *transition* rate matches the requested events/s.
    """

    def __init__(self, *, threads: int = 16, events_per_second: float = 1000.0, duration_cycles: int = 700_000_000):
        if threads < 2:
            raise WorkloadError("sync storm needs at least two threads")
        if events_per_second <= 0:
            raise WorkloadError("event rate must be positive")
        self.threads = threads
        self.events_per_second = events_per_second
        self.duration_cycles = duration_cycles
        self.name = f"micro.syncstorm.{threads}t"

    def default_vcpus(self) -> int:
        return self.threads

    def build(self, kernel: GuestKernel) -> list[Task]:
        barrier_hz = self.events_per_second / self.threads
        step_cycles = int(NOMINAL_HZ / barrier_hz)
        steps = max(1, self.duration_cycles // step_cycles)
        barrier = Barrier(self.threads, name=f"{self.name}.bar")
        rng = kernel.sim.rng

        def body(i: int) -> Generator:
            for step in range(steps):
                work = max(1000, int(rng.stream(f"{self.name}.w{i}").normal(step_cycles, 0.15 * step_cycles)))
                yield Run(work)
                yield BarrierWait(barrier)

        tasks = [Task(f"{self.name}.t{i}", body(i), affinity=i) for i in range(self.threads)]
        for t in tasks:
            kernel.add_task(t)
        return tasks


class IdlePeriodWorkload(Workload):
    """Alternates fixed compute with idle periods of a chosen length.

    The knob behind §3.3's T_idle analysis: sweeping ``idle_ns`` maps
    out where the periodic/tickless crossover falls. Sleeps are precise
    (nanosleep/hrtimer) so the idle-period length is exact in hrtimer
    modes; classic periodic kernels degrade to jiffy resolution, which
    is itself part of the phenomenon under study.
    """

    def __init__(self, idle_ns: int, *, iterations: int = 400, work_cycles: int = 100_000):
        if idle_ns <= 0 or iterations <= 0 or work_cycles < 0:
            raise WorkloadError("idle period and iterations must be positive")
        self.idle_ns = idle_ns
        self.iterations = iterations
        self.work_cycles = work_cycles
        self.name = f"micro.idleperiod.{idle_ns}"

    def default_vcpus(self) -> int:
        return 1

    def build(self, kernel: GuestKernel) -> list[Task]:
        def body() -> Generator:
            for _ in range(self.iterations):
                yield Run(self.work_cycles)
                yield Sleep(self.idle_ns, precise=True)

        t = Task(self.name, body(), affinity=0)
        kernel.add_task(t)
        return [t]


class PingPongWorkload(Workload):
    """Two tasks alternating via condition variables (tests/examples)."""

    def __init__(self, *, rounds: int = 1000, work_cycles: int = 50_000, same_vcpu: bool = False):
        if rounds <= 0:
            raise WorkloadError("rounds must be positive")
        self.rounds = rounds
        self.work_cycles = work_cycles
        self.same_vcpu = same_vcpu
        self.name = "micro.pingpong"

    def default_vcpus(self) -> int:
        return 1 if self.same_vcpu else 2

    def build(self, kernel: GuestKernel) -> list[Task]:
        ping, pong = CondVar("ping"), CondVar("pong")

        def side_a() -> Generator:
            for _ in range(self.rounds):
                yield Run(self.work_cycles)
                yield CondSignal(pong, 1)
                yield CondWait(ping)
            yield CondSignal(pong, 1)  # release B from its final wait

        def side_b() -> Generator:
            for _ in range(self.rounds):
                yield CondWait(pong)
                yield Run(self.work_cycles)
                yield CondSignal(ping, 1)
            # Final handshake consumed by A's last CondWait? No: A waits
            # self.rounds times and B signals self.rounds times; balanced.

        a = Task(f"{self.name}.a", side_a(), affinity=0)
        b = Task(f"{self.name}.b", side_b(), affinity=0 if self.same_vcpu else 1)
        kernel.add_task(a)
        kernel.add_task(b)
        return [a, b]
