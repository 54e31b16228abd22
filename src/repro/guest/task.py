"""Guest tasks (threads) and the high-level operations their bodies yield.

A task body is a Python generator yielding :class:`TaskOp` objects; the
guest kernel translates each into primitive CPU ops and kernel state
changes. This is the level workload models are written at — a PARSEC-like
thread is ``yield Run(...); yield BarrierWait(...)`` in a loop; an fio
job is ``yield BlockRead(...)`` in a loop.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.errors import GuestError


class TaskState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class Task:
    """One guest thread."""

    __slots__ = ("name", "body", "affinity", "state", "wait_reason", "started_ns", "finished_ns", "pending_value")

    def __init__(self, name: str, body: Generator, affinity: int):
        if affinity < 0:
            raise GuestError(f"negative vCPU affinity for task {name}")
        self.name = name
        self.body = body
        #: vCPU this task runs on (workloads pin one thread per vCPU,
        #: like PARSEC with parallelism == CPU count).
        self.affinity = affinity
        self.state = TaskState.RUNNABLE
        #: Human-readable blocking site (tests and traces).
        self.wait_reason: Optional[str] = None
        self.started_ns: Optional[int] = None
        self.finished_ns: Optional[int] = None
        #: Value delivered to the generator on next resume (QueueGet etc.).
        self.pending_value: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} {self.state.value} vcpu={self.affinity}>"


# --------------------------------------------------------------------------
# Task operations
# --------------------------------------------------------------------------


class TaskOp:
    """Base class for operations a task body may yield."""

    __slots__ = ()


class Run(TaskOp):
    """Execute ``cycles`` of user-mode computation."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise GuestError(f"negative run cycles {cycles}")
        self.cycles = cycles


class Sleep(TaskOp):
    """Block for at least ``ns``.

    ``precise=False`` (default) models poll/epoll-style timeouts backed
    by the timer wheel: jiffy granularity, serviced by ticks.
    ``precise=True`` models ``nanosleep``: an hrtimer with its own
    hardware deadline — which paratick deliberately does *not* remove
    (only the scheduler tick is paravirtualized; application timers
    still program the TSC_DEADLINE MSR in every mode).
    """

    __slots__ = ("ns", "precise")

    def __init__(self, ns: int, *, precise: bool = False):
        if ns <= 0:
            raise GuestError(f"sleep must be positive, got {ns}")
        self.ns = ns
        self.precise = precise


class BlockRead(TaskOp):
    """Synchronous read from the VM's block device; blocks until done."""

    __slots__ = ("size", "offset")

    def __init__(self, size: int, offset: Optional[int] = None):
        if size <= 0:
            raise GuestError("read size must be positive")
        self.size = size
        #: None means sequential (next offset after the previous request).
        self.offset = offset


class BlockWrite(TaskOp):
    """Synchronous write to the VM's block device; blocks until done."""

    __slots__ = ("size", "offset")

    def __init__(self, size: int, offset: Optional[int] = None):
        if size <= 0:
            raise GuestError("write size must be positive")
        self.size = size
        self.offset = offset


class NetRequest(TaskOp):
    """Synchronous request/response over the VM's NIC; blocks for the
    round trip (RPC / key-value-store style network service)."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size <= 0:
            raise GuestError("request size must be positive")
        self.size = size


class MutexLock(TaskOp):
    """Acquire a blocking mutex (futex path on contention)."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: object):
        self.mutex = mutex


class MutexUnlock(TaskOp):
    """Release a mutex, waking one waiter if present."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: object):
        self.mutex = mutex


class BarrierWait(TaskOp):
    """Wait on a barrier; the last arriver wakes everyone."""

    __slots__ = ("barrier",)

    def __init__(self, barrier: object):
        self.barrier = barrier


class CondWait(TaskOp):
    """Block on a condition variable until signalled."""

    __slots__ = ("cond",)

    def __init__(self, cond: object):
        self.cond = cond


class CondSignal(TaskOp):
    """Wake ``n`` waiters of a condition variable (-1 = broadcast)."""

    __slots__ = ("cond", "n")

    def __init__(self, cond: object, n: int = 1):
        if n == 0 or n < -1:
            raise GuestError(f"invalid signal count {n}")
        self.cond = cond
        self.n = n


class QueuePut(TaskOp):
    """Put an item into a bounded pipeline queue (blocks when full)."""

    __slots__ = ("queue", "item")

    def __init__(self, queue: object, item: Any = None):
        self.queue = queue
        self.item = item


class QueueGet(TaskOp):
    """Take an item from a pipeline queue (blocks when empty).

    The item becomes the value of the ``yield`` expression.
    """

    __slots__ = ("queue",)

    def __init__(self, queue: object):
        self.queue = queue


class PageFault(TaskOp):
    """Take ``count`` EPT-violation-class exits (background noise)."""

    __slots__ = ("count",)

    def __init__(self, count: int = 1):
        if count <= 0:
            raise GuestError("fault count must be positive")
        self.count = count
