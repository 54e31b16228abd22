"""Guest CPU scheduler: per-vCPU run queues, block/wake, reschedule IPIs.

Round-robin within a run queue with preemption decided at tick
boundaries (the tick handler sets ``need_resched`` when other tasks
wait — one reason the scheduler tick exists at all, §2).

Waking a task whose vCPU is different from the waker's sends a
reschedule IPI, which under virtualization costs an ICR-write VM exit on
the waker and an interrupt delivery on the target — the dominant
*non-timer* exits of multithreaded workloads (§6.2): paratick does not
remove them, which is exactly why its exit reduction saturates around
40–50 % there.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import GuestError
from repro.guest.task import Task, TaskState


class RunQueue:
    """FIFO run queue of one vCPU."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, task: Task) -> None:
        if task in self._queue:
            raise GuestError(f"{task!r} enqueued twice")
        self._queue.append(task)

    def pop(self) -> Optional[Task]:
        return self._queue.popleft() if self._queue else None


class GuestScheduler:
    """Task placement and state transitions for one VM.

    The kernel provides two callbacks:

    * ``notify_resched(vcpu_index)`` — a runnable task appeared for a
      vCPU; the kernel decides whether an IPI is needed;
    * ``on_task_done(task)`` — a task body finished.
    """

    def __init__(
        self,
        nvcpus: int,
        notify_resched: Callable[[int], None],
        on_task_done: Callable[[Task], None],
    ):
        self.nvcpus = nvcpus
        self._queues = [RunQueue() for _ in range(nvcpus)]
        self._current: list[Optional[Task]] = [None] * nvcpus
        self._notify_resched = notify_resched
        self._on_task_done = on_task_done
        #: Context switches performed per vCPU.
        self.switches = [0] * nvcpus
        self.tasks: list[Task] = []

    # ------------------------------------------------------------ placement

    def grow(self) -> None:
        """Extend per-vCPU structures for a hotplugged vCPU."""
        self.nvcpus += 1
        self._queues.append(RunQueue())
        self._current.append(None)
        self.switches.append(0)

    def add_task(self, task: Task) -> None:
        """Register a new runnable task on its affinity vCPU."""
        if not 0 <= task.affinity < self.nvcpus:
            raise GuestError(f"{task!r}: affinity outside VM ({self.nvcpus} vCPUs)")
        self.tasks.append(task)
        task.state = TaskState.RUNNABLE
        self._queues[task.affinity].push(task)

    # -------------------------------------------------------------- queries

    def current(self, vcpu_index: int) -> Optional[Task]:
        return self._current[vcpu_index]

    def runnable_waiting(self, vcpu_index: int) -> int:
        """Tasks queued (not counting the one currently running)."""
        return len(self._queues[vcpu_index])

    def has_work(self, vcpu_index: int) -> bool:
        return self._current[vcpu_index] is not None or len(self._queues[vcpu_index]) > 0

    def alive_tasks(self) -> int:
        return sum(1 for t in self.tasks if t.state is not TaskState.DONE)

    # ---------------------------------------------------------- transitions

    def pick_next(self, vcpu_index: int) -> Optional[Task]:
        """Dispatch the next runnable task on ``vcpu_index``."""
        if self._current[vcpu_index] is not None:
            raise GuestError(f"vCPU{vcpu_index}: pick_next with a task still current")
        task = self._queues[vcpu_index].pop()
        if task is not None:
            task.state = TaskState.RUNNING
            self._current[vcpu_index] = task
            self.switches[vcpu_index] += 1
        return task

    def preempt_current(self, vcpu_index: int) -> None:
        """Round-robin: current task returns to the queue tail."""
        task = self._current[vcpu_index]
        if task is None:
            return
        self._current[vcpu_index] = None
        task.state = TaskState.RUNNABLE
        self._queues[vcpu_index].push(task)

    def block_current(self, vcpu_index: int, reason: str) -> Task:
        """The running task blocks (futex, I/O, sleep)."""
        task = self._current[vcpu_index]
        if task is None:
            raise GuestError(f"vCPU{vcpu_index}: block with no running task")
        self._current[vcpu_index] = None
        task.state = TaskState.BLOCKED
        task.wait_reason = reason
        return task

    def wake(self, task: Task) -> None:
        """Make a blocked task runnable and poke its vCPU."""
        if task.state is TaskState.DONE:
            return
        if task.state is not TaskState.BLOCKED:
            raise GuestError(f"waking {task!r} which is not blocked")
        task.state = TaskState.RUNNABLE
        task.wait_reason = None
        self._queues[task.affinity].push(task)
        self._notify_resched(task.affinity)

    def finish_current(self, vcpu_index: int) -> Task:
        """The running task's body returned."""
        task = self._current[vcpu_index]
        if task is None:
            raise GuestError(f"vCPU{vcpu_index}: finish with no running task")
        self._current[vcpu_index] = None
        task.state = TaskState.DONE
        self._on_task_done(task)
        return task
