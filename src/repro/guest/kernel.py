"""The guest kernel: op-stream generation, IRQ handling, task translation.

One :class:`GuestKernel` drives all vCPUs of one VM. The hypervisor's
per-vCPU executors pull primitive ops via :meth:`next_op`; interrupts
arrive via :meth:`on_interrupts`. Internally the kernel keeps a per-vCPU
op deque: task bodies, IRQ handlers, the idle loop and the tick policy
all append to it.

Convention (shared with the executor): *state changes are immediate,
cycle costs are replayed as ops*. When an IRQ handler wakes a task, the
runqueue is updated at delivery time, and the handler's cycle cost is
pushed as a ``Compute`` op that the executor accounts right after. Exit
counts are exact; intra-microsecond orderings are approximate.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.config import TickMode
from repro.errors import GuestError
from repro.guest import ops as gops
from repro.guest import task as tsk
from repro.guest.hrtimer import HrtimerQueue
from repro.guest.rcu import Rcu
from repro.guest.sched import GuestScheduler
from repro.guest.task import Task
from repro.guest.timerwheel import TimerWheel
from repro.hw.cpu import CycleDomain
from repro.hw.interrupts import Vector
from repro.hw.iodev import IoRequest

K = CycleDomain.GUEST_KERNEL
U = CycleDomain.GUEST_USER

PAGE = 4096


class VcpuCtx:
    """Per-vCPU guest state."""

    __slots__ = (
        "index",
        "ops",
        "idle",
        "tick_stopped",
        "tick_hrtimer",
        "hrtimers",
        "wheel",
        "armed_deadline_ns",
        "need_resched",
        "io_done",
        "hw_state",
    )

    def __init__(self, index: int):
        self.index = index
        self.ops: deque[gops.GuestOp] = deque()
        self.idle = False
        self.tick_stopped = False
        self.tick_hrtimer = None
        self.hrtimers = HrtimerQueue()
        self.wheel = TimerWheel()
        #: The guest's view of the deadline armed in hardware (abs ns).
        self.armed_deadline_ns: Optional[int] = None
        self.need_resched = False
        self.io_done: deque[IoRequest] = deque()
        #: Backend-owned guest-side timer register state (lazily created
        #: by the arch's TimerHardware; None on x86).
        self.hw_state = None


class GuestKernel:
    """A Linux-like kernel model for one VM."""

    def __init__(self, vm) -> None:
        from repro.guest.ticksched import make_policy

        self.vm = vm
        self.hv = vm.hv
        self.sim = vm.hv.sim
        self.costs = vm.hv.costs
        self.tick_mode: TickMode = vm.spec.tick_mode
        self.period_ns: int = vm.spec.tick_period_ns
        self.nvcpus = vm.spec.vcpus
        self._ctx = [VcpuCtx(i) for i in range(self.nvcpus)]
        self.rcu = Rcu(self.nvcpus)
        self.sched = GuestScheduler(self.nvcpus, self._notify_resched, self._task_done)
        self.block_device = None
        self.nic = None
        self._active_vidx: Optional[int] = None
        self._push_sink: Optional[list] = None
        self._io_seq: dict[tuple[int, str], int] = {}
        #: Called with each finishing task (workloads hook this).
        self.task_done_callbacks: list[Callable[[Task], None]] = []
        if vm.spec.cpuidle:
            from repro.guest.cpuidle import MenuGovernor

            self.cpuidle_governor = MenuGovernor()
        else:
            self.cpuidle_governor = None
        self.policy = make_policy(self)
        vm.attach_kernel(self)
        for vidx in range(self.nvcpus):
            # §5.2.1: high-resolution timers, and with them the final
            # tick mode, only come up partway through boot. The boot
            # work also de-phases each vCPU's timers from the host tick
            # grid (staggered per vCPU, like real kernel SMP bring-up).
            boot = self.costs.guest_boot_init + vidx * 40_000
            self.push(vidx, gops.Compute(boot, K))
            self.complete(vidx, lambda v=vidx: self.policy.on_boot(v))

    # ----------------------------------------------------------- wiring

    def attach_block_device(self, device) -> None:
        """Install the VM's block device (virtio-blk front end)."""
        if self.block_device is not None:
            raise GuestError("block device already attached")
        self.block_device = device

    def attach_nic(self, nic) -> None:
        """Install the VM's network interface (virtio-net front end)."""
        if self.nic is not None:
            raise GuestError("NIC already attached")
        self.nic = nic

    def add_task(self, task: Task) -> None:
        """Register a task (normally before the VM starts)."""
        self.sched.add_task(task)

    # ----------------------------------------------------- perturbations

    def on_clock_jump(self, jump_ns: int) -> None:
        """The guest clock jumped forward ``jump_ns`` (restore from save).

        Mirrors Linux's ``timekeeping_resume()``: every online vCPU's
        tick machinery re-bases on the new clock before the vCPUs thaw.
        Hardware writes queued here go through :meth:`program_hw`, which
        clamps stale expiries forward — re-armed deadlines always land
        at or after the restore instant.
        """
        for vidx in range(min(self.nvcpus, len(self.vm.vcpus))):
            self.complete(vidx, lambda v=vidx: self.policy.on_clock_jump(v, jump_ns))

    def on_vcpu_hotplug(self, vidx: int) -> None:
        """A vCPU came online at index ``vidx`` (host-side hotplug).

        Grows the per-vCPU kernel structures — or resets them when a
        previously offlined index comes back — then replays the same
        staggered boot sequence the boot-time vCPUs ran.
        """
        if vidx == self.nvcpus:
            self.nvcpus += 1
            self._ctx.append(VcpuCtx(vidx))
            self.rcu.grow()
            self.sched.grow()
        elif 0 <= vidx < self.nvcpus:
            # Re-plug of an offlined index: fresh per-vCPU state.
            self._ctx[vidx] = VcpuCtx(vidx)
        else:
            raise GuestError(f"hotplug at index {vidx} skips slot {self.nvcpus}")
        boot = self.costs.guest_boot_init + vidx * 40_000
        self.push(vidx, gops.Compute(boot, K))
        self.complete(vidx, lambda v=vidx: self.policy.on_boot(v))

    def on_vcpu_unplug(self, vidx: int) -> None:
        """A vCPU went offline; drop its queued kernel work.

        The context object is replaced wholesale on a re-plug, so
        clearing the op queue suffices — hrtimers and wheel state die
        with the context.
        """
        ctx = self._ctx[vidx]
        ctx.ops.clear()
        ctx.idle = False

    # ------------------------------------------------------- small helpers

    def now(self) -> int:
        """The guest's clock: host time plus any drift perturbation.

        Everything the kernel model does with time — tick-boundary
        arithmetic, hrtimer expiry checks, deadline programming — reads
        this clock, so a drifted guest stays self-consistent: it
        programs deadlines on its own timeline and the hypervisor's
        ``TSC_DEADLINE`` handler translates them back to host time.
        Reading ``sim.now`` here instead desynchronizes the two views
        and a drift of a full tick period turns every timer IRQ into a
        spurious one (the guest's clock says "not yet" forever).
        """
        return self.sim.now + self.vm.guest_clock_offset_ns

    def ctx(self, vidx: int) -> VcpuCtx:
        return self._ctx[vidx]

    def trace_mark(self, vidx: int, kind: str, detail=None) -> None:
        """Emit a structured guest-side trace event for one vCPU.

        Callers that would *build* a detail object should pre-check
        ``kernel.sim.trace.enabled`` so NullTracer runs do zero work.
        """
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, f"{self.vm.name}/vcpu{vidx}", kind, detail)

    def push(self, vidx: int, op: gops.GuestOp) -> None:
        """Append an op for ``vidx`` (redirected during IRQ processing)."""
        if self._push_sink is not None and vidx == self._active_vidx:
            self._push_sink.append(op)
        else:
            self._ctx[vidx].ops.append(op)

    # =================================================================
    # Executor-facing interface
    # =================================================================

    def next_op(self, vidx: int):
        """Produce the next primitive op for a vCPU (see module docstring).

        A queued op other than ``Hlt`` is returned as is; only an empty
        queue or a ``Hlt`` (the sti;hlt guard below) runs the scheduler.
        """
        ctx = self._ctx[vidx]
        ops = ctx.ops
        if ops and not isinstance(ops[0], gops.Hlt):
            return ops.popleft()
        prev = self._active_vidx
        self._active_vidx = vidx
        try:
            for _ in range(100_000):
                if ops:
                    op = ops.popleft()
                    if isinstance(op, gops.Hlt) and self.sched.has_work(vidx):
                        # Linux's sti;hlt race guard: a wakeup arrived
                        # between the idle-entry decision and the HLT —
                        # re-run the idle loop instead of halting with
                        # runnable work (would be a lost wakeup).
                        continue
                    return op
                cur = self.sched.current(vidx)
                if cur is not None:
                    if ctx.need_resched and self.sched.runnable_waiting(vidx) > 0:
                        ctx.need_resched = False
                        self.sched.preempt_current(vidx)
                        self._push_switch(vidx)
                        continue
                    ctx.need_resched = False
                    self._advance_task(vidx, cur)
                    continue
                if self.sched.runnable_waiting(vidx) > 0:
                    ctx.need_resched = False
                    if ctx.idle:
                        ctx.idle = False
                        self._push_idle_exit(vidx)
                    self._push_switch(vidx)
                    continue
                # Nothing runnable: idle loop pass (Fig. 1b / 3c).
                ctx.idle = True
                self._push_idle_enter(vidx)
            raise GuestError(f"vCPU{vidx}: kernel op loop made no progress")
        finally:
            self._active_vidx = prev

    def complete(self, vidx: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` as kernel work of vCPU ``vidx``.

        The executor calls this with the ``on_done`` of every op that
        ran its full cycle count; ``vidx`` is the vCPU whose queue held
        the op. Ops ``fn`` pushes for ``vidx``, and the reschedule IPI
        of a task it wakes on another vCPU, are attributed to ``vidx``.
        Boot, hotplug and clock-jump work runs through it too.
        """
        prev = self._active_vidx
        self._active_vidx = vidx
        try:
            fn()
        finally:
            self._active_vidx = prev

    def requeue_front(self, vidx: int, op: gops.GuestOp) -> None:
        """Executor returns the unexecuted remainder of a preempted op."""
        self._ctx[vidx].ops.appendleft(op)

    def on_interrupts(self, vidx: int, vectors: tuple) -> None:
        """Injected interrupts: build handler op sequences (front of queue)."""
        ctx = self._ctx[vidx]
        prev_active, prev_sink = self._active_vidx, self._push_sink
        self._active_vidx = vidx
        seq: list[gops.GuestOp] = []
        self._push_sink = seq
        try:
            eoi_trapped = not self.hv.features.virtual_eoi
            for vector in vectors:
                seq.append(gops.Compute(self.costs.guest_irq_glue, K))
                if eoi_trapped:
                    # Pre-APICv host: the handler's EOI write traps.
                    seq.append(self.hv.timerhw.guest_eoi_op(vector))
                if vector is Vector.LOCAL_TIMER:
                    ctx.armed_deadline_ns = None  # the hardware deadline fired
                    self.policy.on_timer_irq(vidx)
                elif vector is Vector.PARATICK_VIRTUAL_TICK:
                    self.policy.on_virtual_tick(vidx)
                elif vector is Vector.RESCHEDULE:
                    ctx.need_resched = True
                elif vector is Vector.BLOCK_IO:
                    self._handle_block_io_irq(vidx, seq)
                elif vector is Vector.NET_IO:
                    self._handle_block_io_irq(vidx, seq)
                # Unknown vectors: spurious; glue cost only.
        finally:
            self._push_sink = prev_sink
            self._active_vidx = prev_active
        ctx.ops.extendleft(reversed(seq))

    def io_complete(self, vidx: int, req: IoRequest) -> None:
        """Hypervisor posted a completed request (before injecting the IRQ)."""
        self._ctx[vidx].io_done.append(req)

    # =================================================================
    # Tick-policy services
    # =================================================================

    def push_tick_work(self, vidx: int) -> None:
        """Standard tick-handler body: accounting, sched check, softirqs."""
        self.push(vidx, gops.Compute(self.costs.guest_tick_work, K,
                                     on_done=lambda: self._tick_effects(vidx)))

    def _tick_effects(self, vidx: int) -> None:
        ctx = self._ctx[vidx]
        self.rcu.note_quiescent_state(vidx)
        ready = self.rcu.take_ready(vidx)
        if ready:
            self.push(vidx, gops.Compute(ready * self.costs.guest_softirq_cb, K))
        if self.sched.runnable_waiting(vidx) > 0:
            ctx.need_resched = True
        self.service_wheel(vidx)

    def service_wheel(self, vidx: int) -> None:
        """Advance the timer wheel to the current jiffy; run expiries."""
        ctx = self._ctx[vidx]
        fired = ctx.wheel.advance_to(self.now() // self.period_ns)
        for timer in fired:
            self.push(vidx, gops.Compute(self.costs.guest_softirq_cb, K))
            timer.callback()

    def next_soft_event_ns(self, vidx: int) -> Optional[int]:
        """Earliest pending soft-timer expiry, in absolute ns."""
        j = self._ctx[vidx].wheel.next_expiry()
        return None if j is None else j * self.period_ns

    def reprogram_hw(self, vidx: int) -> None:
        """Tickless clockevents reprogramming: earliest hrtimer (plus the
        wheel when the tick is stopped); writes only on change."""
        ctx = self._ctx[vidx]
        desired = ctx.hrtimers.next_expiry()
        if ctx.tick_stopped:
            w = self.next_soft_event_ns(vidx)
            if w is not None and (desired is None or w < desired):
                desired = w
        self.program_hw(vidx, desired)

    def program_hw(self, vidx: int, desired: Optional[int]) -> None:
        """Arm (or disarm, with None) the deadline hardware if it changed."""
        ctx = self._ctx[vidx]
        if desired == ctx.armed_deadline_ns:
            return
        ctx.armed_deadline_ns = desired
        self.trace_mark(vidx, "timer_program_req", desired)
        self.push(vidx, gops.Compute(self.costs.guest_timer_program, K))
        for op in self.hv.timerhw.guest_deadline_ops(self, vidx, desired):
            self.push(vidx, op)

    # =================================================================
    # Idle loop
    # =================================================================

    def _push_idle_enter(self, vidx: int) -> None:
        def after_entry_code() -> None:
            self.trace_mark(vidx, "idle_enter")
            self.policy.on_idle_enter(vidx)
            if self.cpuidle_governor is not None:
                # cpuidle: pick an idle state from the time to the next
                # armed timer — the quantity tick management controls.
                armed = self._ctx[vidx].armed_deadline_ns
                predicted = None if armed is None else max(armed - self.now(), 0)
                self.vm.vcpus[vidx].requested_cstate = self.cpuidle_governor.select(predicted)
            self.push(vidx, gops.Hlt())

        self.push(vidx, gops.Compute(self.costs.guest_idle_entry, K, on_done=after_entry_code))

    def _push_idle_exit(self, vidx: int) -> None:
        def after_exit_code() -> None:
            self.trace_mark(vidx, "idle_exit")
            self.policy.on_idle_exit(vidx)

        self.push(vidx, gops.Compute(self.costs.guest_idle_exit, K, on_done=after_exit_code))

    def _push_switch(self, vidx: int) -> None:
        def do_switch() -> None:
            self.rcu.note_quiescent_state(vidx)
            if self.sched.current(vidx) is None:
                self.sched.pick_next(vidx)

        self.push(vidx, gops.Compute(self.costs.guest_sched_switch, K, on_done=do_switch))

    # =================================================================
    # Task-op translation
    # =================================================================

    def _advance_task(self, vidx: int, task: Task) -> None:
        if task.started_ns is None:
            task.started_ns = self.now()
        value, task.pending_value = task.pending_value, None
        try:
            top = task.body.send(value)
        except StopIteration:
            task.finished_ns = self.now()
            self.sched.finish_current(vidx)
            self.push(vidx, gops.Compute(self.costs.guest_sched_switch, K))
            return
        self._translate(vidx, task, top)

    def _translate(self, vidx: int, task: Task, top: tsk.TaskOp) -> None:
        c = self.costs
        if isinstance(top, tsk.Run):
            self.push(vidx, gops.Compute(top.cycles, U))
        elif isinstance(top, tsk.Sleep):
            self.push(vidx, gops.Compute(c.guest_syscall + c.guest_hrtimer_soft, K,
                                         on_done=lambda: self._do_sleep(vidx, task, top.ns, top.precise)))
        elif isinstance(top, (tsk.BlockRead, tsk.BlockWrite)):
            op = "read" if isinstance(top, tsk.BlockRead) else "write"
            pages = max(1, -(-top.size // PAGE))
            cycles = c.guest_syscall + c.guest_io_submit + pages * c.guest_io_per_page
            self.push(vidx, gops.Compute(cycles, K,
                                         on_done=lambda: self._do_block_io(vidx, task, op, top.size, top.offset)))
        elif isinstance(top, tsk.NetRequest):
            pages = max(1, -(-top.size // PAGE))
            cycles = c.guest_syscall + c.guest_io_submit // 2 + pages * c.guest_io_per_page
            self.push(vidx, gops.Compute(cycles, K,
                                         on_done=lambda: self._do_net_request(vidx, task, top.size)))
        elif isinstance(top, tsk.MutexLock):
            self.push(vidx, gops.Compute(c.guest_futex_wait, K,
                                         on_done=lambda: self._do_lock(vidx, task, top.mutex)))
        elif isinstance(top, tsk.MutexUnlock):
            self.push(vidx, gops.Compute(c.guest_futex_wake, K,
                                         on_done=lambda: self._do_unlock(vidx, task, top.mutex)))
        elif isinstance(top, tsk.BarrierWait):
            self.push(vidx, gops.Compute(c.guest_futex_wait, K,
                                         on_done=lambda: self._do_barrier(vidx, task, top.barrier)))
        elif isinstance(top, tsk.CondWait):
            self.push(vidx, gops.Compute(c.guest_futex_wait, K,
                                         on_done=lambda: self._do_cond_wait(vidx, task, top.cond)))
        elif isinstance(top, tsk.CondSignal):
            self.push(vidx, gops.Compute(c.guest_futex_wake, K,
                                         on_done=lambda: self._do_cond_signal(vidx, top.cond, top.n)))
        elif isinstance(top, tsk.QueuePut):
            self.push(vidx, gops.Compute(c.guest_futex_wake, K,
                                         on_done=lambda: self._do_queue_put(vidx, task, top.queue, top.item)))
        elif isinstance(top, tsk.QueueGet):
            self.push(vidx, gops.Compute(c.guest_futex_wait, K,
                                         on_done=lambda: self._do_queue_get(vidx, task, top.queue)))
        elif isinstance(top, tsk.PageFault):
            for _ in range(top.count):
                self.push(vidx, gops.Fault())
        else:
            raise GuestError(f"task {task.name} yielded unknown op {top!r}")

    # ------------------------------------------------------ blocking actions

    def _block(self, vidx: int, reason: str) -> Task:
        """Block the running task; the schedule() this implies is an RCU
        quiescent state for the vCPU."""
        self.rcu.note_quiescent_state(vidx)
        return self.sched.block_current(vidx, reason)

    def _do_sleep(self, vidx: int, task: Task, ns: int, precise: bool) -> None:
        self.rcu.note_update_op(vidx)
        self._block(vidx, "sleep")
        if precise and self.tick_mode is not TickMode.PERIODIC:
            # nanosleep: an hrtimer with a hardware deadline. (Classic
            # periodic kernels run low-resolution timers: nanosleep
            # degrades to jiffy granularity, hence the wheel fallback.)
            expiry = self.now() + ns
            ctx = self._ctx[task.affinity]
            ctx.hrtimers.add(expiry, lambda: self.sched.wake(task), name=f"nanosleep:{task.name}")
            self.hrtimer_started(vidx)
        else:
            expiry_j = -(-(self.now() + ns) // self.period_ns)  # ceil: never early
            self._ctx[task.affinity].wheel.add(expiry_j, lambda: self.sched.wake(task), name=f"sleep:{task.name}")

    def hrtimer_started(self, vidx: int) -> None:
        """An hrtimer was enqueued: reprogram hardware if it is now the
        earliest event (hrtimer subsystem behaviour, below tick-sched)."""
        ctx = self._ctx[vidx]
        if self.tick_mode is TickMode.PARATICK:
            nxt = ctx.hrtimers.next_expiry()
            if nxt is not None and (ctx.armed_deadline_ns is None or nxt < ctx.armed_deadline_ns):
                self.program_hw(vidx, nxt)
        else:
            self.reprogram_hw(vidx)

    def _do_block_io(self, vidx: int, task: Task, op: str, size: int, offset: Optional[int]) -> None:
        if self.block_device is None:
            raise GuestError(f"VM {self.vm.name}: block I/O without a device")
        self.rcu.note_update_op(vidx)
        if offset is None:
            key = (task.affinity, op)
            offset = self._io_seq.get(key, 0)
            self._io_seq[key] = offset + size
        req = IoRequest(op, offset, size, cookie=task)
        self._block(vidx, "block-io")
        self.push(vidx, gops.IoKick(self.block_device, req))

    def _do_net_request(self, vidx: int, task: Task, size: int) -> None:
        if self.nic is None:
            raise GuestError(f"VM {self.vm.name}: network I/O without a NIC")
        self.rcu.note_update_op(vidx)
        req = IoRequest("read", 0, size, cookie=task)
        self._block(vidx, "net-rpc")
        self.push(vidx, gops.IoKick(self.nic, req))

    def _do_lock(self, vidx: int, task: Task, mutex) -> None:
        self.rcu.note_update_op(vidx)
        if not mutex.try_lock(task):
            self._block(vidx, f"mutex:{mutex.name}")

    def _do_unlock(self, vidx: int, task: Task, mutex) -> None:
        self.rcu.note_update_op(vidx)
        woken = mutex.unlock(task)
        if woken is not None:
            self.sched.wake(woken)

    def _do_barrier(self, vidx: int, task: Task, barrier) -> None:
        self.rcu.note_update_op(vidx)
        woken = barrier.arrive(task)
        if woken:
            for t in woken:
                self.sched.wake(t)
        else:
            self._block(vidx, f"barrier:{barrier.name}")

    def _do_cond_wait(self, vidx: int, task: Task, cond) -> None:
        self.rcu.note_update_op(vidx)
        if cond.wait(task):
            self._block(vidx, f"cond:{cond.name}")

    def _do_cond_signal(self, vidx: int, cond, n: int) -> None:
        self.rcu.note_update_op(vidx)
        for t in cond.take(n):
            self.sched.wake(t)

    def _do_queue_put(self, vidx: int, task: Task, queue, item) -> None:
        self.rcu.note_update_op(vidx)
        blocked, consumer = queue.put(task, item)
        if consumer is not None:
            self.sched.wake(consumer)
        if blocked:
            self._block(vidx, f"queue-full:{queue.name}")

    def _do_queue_get(self, vidx: int, task: Task, queue) -> None:
        self.rcu.note_update_op(vidx)
        blocked, item, producer = queue.get(task)
        if producer is not None:
            self.sched.wake(producer)
        if blocked:
            self._block(vidx, f"queue-empty:{queue.name}")
        else:
            task.pending_value = item

    # ------------------------------------------------------------ IRQ bodies

    def _handle_block_io_irq(self, vidx: int, seq: list) -> None:
        c = self.costs

        def drain() -> None:
            ctx = self._ctx[vidx]
            while ctx.io_done:
                req = ctx.io_done.popleft()
                pages = max(1, -(-req.size // PAGE))
                self.push(vidx, gops.Compute(pages * c.guest_io_per_page, K))
                task = req.cookie
                if isinstance(task, tuple):  # executor wrapped (vcpu_idx, task)
                    task = task[1]
                if task is not None:
                    self.sched.wake(task)

        seq.append(gops.Compute(c.guest_io_complete, K, on_done=drain))

    # --------------------------------------------------------------- wakeups

    def _notify_resched(self, target_vidx: int) -> None:
        """A task became runnable on ``target_vidx``; poke that vCPU."""
        src = self._active_vidx
        if src is None or src == target_vidx:
            self._ctx[target_vidx].need_resched = True
            return
        # Cross-vCPU wake: the waker sends a reschedule IPI (a trapped
        # ICR/SGI write -> a VM exit on the waker; delivery cost lands on
        # the target).
        self.push(src, self.hv.timerhw.guest_ipi_op(target_vidx, Vector.RESCHEDULE))

    def _task_done(self, task: Task) -> None:
        task.finished_ns = self.now()
        for cb in list(self.task_done_callbacks):
            cb(task)
