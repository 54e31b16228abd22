"""The hypervisor: vCPU executors, VM exits, injection, host ticks.

This module is the simulator's KVM. Each vCPU is driven by a
:class:`_VcpuExec` state machine that consumes the guest's primitive-op
stream (:mod:`repro.guest.ops`) and models the hardware-assisted
virtualization behaviour the paper analyses:

* synchronous exits for intercepted instructions — ``WRMSR
  TSC_DEADLINE`` (tag TIMER_PROGRAM), ``WRMSR ICR`` (IPIs), ``HLT``,
  I/O kicks, hypercalls;
* asynchronous exits — host scheduler ticks (EXTERNAL_INTERRUPT, tag
  TIMER_HOST_TICK), device completions and IPIs arriving while the vCPU
  runs;
* the KVM **preemption-timer optimization** (§3): guest deadline writes
  arm the VMX preemption timer, whose expiry is a cheaper
  PREEMPTION_TIMER exit; while the vCPU is blocked, a host-side timer
  stands in;
* **interrupt injection on VM entry**, which is also where the paratick
  host hook lives (§5.1 / Fig. 2): update ``last_tick`` when a local
  timer interrupt is about to be injected, else inject virtual tick 235
  when a tick period has elapsed.

Timing/accounting convention: every segment of host or guest execution
is accounted *in arrears*, when the segment's completion event fires.
A preempted guest compute segment accounts only its elapsed portion and
its remainder is re-queued at the front of the guest op stream.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HostFeatures, VmSpec
from repro.errors import HostError
from repro.guest import ops as gops
from repro.hw.cpu import CycleDomain, Machine
from repro.hw.interrupts import Vector
from repro.hw.iodev import IoRequest
from repro.hw.lapic import LapicTimer
from repro.hw.preemption import PreemptionTimer
from repro.hw.timerhw import make_timer_hardware
from repro.hw.tsc import Tsc
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.exitreasons import ExitReason, ExitTag
from repro.host.sched import HostScheduler
from repro.host.vcpu import VCpu, VcpuState
from repro.metrics.counters import ExitCounters
from repro.sim.engine import Simulator
from repro.sim.timebase import SEC, CpuClock

#: Hypercall numbers.
HC_PARATICK_SET_PERIOD = 1

#: Safety bound on zero-duration guest ops handled back-to-back.
_MAX_OP_CHAIN = 100_000

_Compute = gops.Compute
_VMX_TRANSITION = CycleDomain.VMX_TRANSITION
_POLLUTION = CycleDomain.POLLUTION
_HOST_HANDLER = CycleDomain.HOST_HANDLER
_HOST_SCHED = CycleDomain.HOST_SCHED


class FixedCostNs(dict):
    """Nanoseconds of the host's fixed costs, keyed by cycle count.

    Every cost the hypervisor charges except guest compute is a
    constant of the frozen :class:`CostModel` or a sum of them: the
    exit and entry hardware (entry with *n* injected vectors), the
    pollution term, each exit handler, block/wake/context switch, the
    host tick handler and the I/O backend. Each distinct count is
    converted with :meth:`CpuClock.cycles_to_ns` once, on first use,
    and looked up afterwards — so the values are identical to
    converting on every event by construction.
    """

    __slots__ = ("clock",)

    def __init__(self, clock: CpuClock):
        super().__init__()
        self.clock = clock

    def __missing__(self, cycles: int) -> int:
        ns = self[cycles] = self.clock.cycles_to_ns(cycles)
        return ns


class VirtualMachine:
    """One guest VM: spec, vCPUs, exit counters and paratick host state."""

    def __init__(self, hv: "Hypervisor", spec: VmSpec, vcpus: list[VCpu]):
        self.hv = hv
        self.spec = spec
        self.vcpus = vcpus
        self.counters = ExitCounters()
        self.kernel = None  # attached by the guest side
        #: Paratick host state (set by the boot hypercall, §4.1).
        self.paratick_enabled = False
        self.paratick_period_ns = 0
        #: Virtual ticks (vector 235) injected across all vCPUs.
        self.virtual_ticks_injected = 0
        #: vCPU count at boot; hotplug grows ``vcpus`` beyond this and
        #: only indices at or past it may be unplugged again.
        self.boot_vcpus = len(vcpus)
        # ---- perturbation state (repro.host.perturb) ----
        #: True while the VM is frozen between suspend_vm and resume_vm.
        self.suspended = False
        #: When the current suspended span began (host time).
        self.suspend_epoch_ns = 0
        self.suspend_count = 0
        #: Host time spent suspended across all closed spans.
        self.total_suspended_ns = 0
        #: Guest-visible clock jump accumulated by save/restore cycles.
        self.clock_jump_ns = 0
        #: Signed guest-vs-host clock offset (clock-drift perturbation);
        #: applied when guest deadline writes are converted to host time.
        self.guest_clock_offset_ns = 0
        self.hotplug_count = 0
        self.unplug_count = 0
        #: Steal counters of unplugged vCPUs, keyed by trace source —
        #: kept so trace-derived steal still reconciles after teardown.
        self.retired_steal: dict[str, tuple[int, int]] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def attach_kernel(self, kernel) -> None:
        """Wire the guest kernel driving this VM's vCPUs."""
        if self.kernel is not None:
            raise HostError(f"VM {self.name}: kernel already attached")
        self.kernel = kernel

    def handle_hypercall(self, vcpu: VCpu, nr: int, arg: int) -> None:
        """Service a VMCALL from the guest."""
        if nr == HC_PARATICK_SET_PERIOD:
            if arg <= 0:
                raise HostError(f"VM {self.name}: invalid paratick period {arg}")
            self.paratick_period_ns = arg
            self.paratick_enabled = True
            now = self.hv.sim.now
            for v in self.vcpus:
                v.last_virtual_tick_ns = now
        else:
            raise HostError(f"VM {self.name}: unknown hypercall {nr}")


class Hypervisor:
    """Machine-wide hypervisor state: VMs, host scheduler, host ticks."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        *,
        costs: CostModel = DEFAULT_COSTS,
        features: HostFeatures = HostFeatures(),
        arch: str = "x86",
    ):
        self.sim = sim
        self.machine = machine
        self.costs = costs
        self.features = features
        self.tsc = Tsc(sim, machine.clock)
        self.arch = arch
        self.timerhw = make_timer_hardware(arch, self)
        self.sched = HostScheduler(machine.spec.total_cpus)
        self.vms: list[VirtualMachine] = []
        self._host_tick_events: dict[int, object] = {}
        self._next_auto_cpu = 0
        #: ns of every fixed cost this host charges, converted once.
        self.fixed_ns = FixedCostNs(machine.clock)
        #: The host tick period (the machine spec is frozen).
        self.host_tick_period_ns = machine.spec.host_tick_period_ns

    # ----------------------------------------------------------- VM set-up

    def create_vm(self, spec: VmSpec) -> VirtualMachine:
        """Create a VM, placing its vCPUs on physical CPUs."""
        if spec.arch != self.arch:
            raise HostError(
                f"VM {spec.name}: arch {spec.arch!r} does not match "
                f"hypervisor arch {self.arch!r}"
            )
        cpus = spec.pinned_cpus
        if cpus is None:
            total = self.machine.spec.total_cpus
            cpus = tuple((self._next_auto_cpu + i) % total for i in range(spec.vcpus))
            self._next_auto_cpu = (self._next_auto_cpu + spec.vcpus) % total
        vcpus = [VCpu(i, spec.name, self.machine.cpu(c)) for i, c in enumerate(cpus)]
        vm = VirtualMachine(self, spec, vcpus)
        for v in vcpus:
            v.exec = _VcpuExec(self, vm, v)
        self.vms.append(vm)
        return vm

    def start(self) -> None:
        """Boot every VM: all vCPUs become runnable at t=now."""
        for vm in self.vms:
            if vm.kernel is None:
                raise HostError(f"VM {vm.name} has no kernel attached")
            for v in vm.vcpus:
                v.exec.start()

    # ---------------------------------------------------------- interrupts

    def send_ipi(self, vm: VirtualMachine, src: VCpu, dest_index: int, vector: Vector) -> None:
        """Deliver an inter-processor interrupt between two vCPUs of a VM."""
        if not 0 <= dest_index < len(vm.vcpus):
            raise HostError(f"VM {vm.name}: IPI to unknown vCPU {dest_index}")
        dest = vm.vcpus[dest_index]
        cross = not self.machine.same_socket(src.pcpu.index, dest.pcpu.index)
        dest.exec.deliver(vector, ExitTag.IPI, cross_socket=cross)

    def deliver_device_irq(self, vm: VirtualMachine, vcpu_index: int, vector: Vector) -> None:
        """Inject a device completion interrupt into a vCPU."""
        vm.vcpus[vcpu_index].exec.deliver(vector, ExitTag.IO)

    def complete_io_request(
        self,
        vm: VirtualMachine,
        vcpu_index: int,
        req: IoRequest,
        *,
        vector: Vector = Vector.BLOCK_IO,
    ) -> None:
        """Device completion path: vhost backend work, then injection.

        The backend work runs on a host service thread concurrently with
        whatever the vCPU is doing, so its cycles are accounted without
        occupying the vCPU's timeline; the interrupt reaches the guest
        after the backend latency.
        """
        vcpu = vm.vcpus[vcpu_index]
        backend_ns = self.fixed_ns[self.costs.host_io_backend]
        vcpu.pcpu.account(CycleDomain.HOST_IO, backend_ns)
        self.sim.schedule(backend_ns, self._deliver_io_completion, vm, vcpu_index, req, vector)

    def _deliver_io_completion(
        self, vm: VirtualMachine, vcpu_index: int, req: IoRequest, vector: Vector
    ) -> None:
        vm.kernel.io_complete(vcpu_index, req)
        self.deliver_device_irq(vm, vcpu_index, vector)

    # ----------------------------------------------------------- host tick

    def ensure_host_tick(self, pcpu_index: int) -> None:
        """Keep the host tick running on a CPU that is executing guests.

        The host itself runs dynticks: its tick is live only while the
        CPU is busy (which is when it matters to paratick — §4.1 relies
        on host ticks interrupting *running* vCPUs).
        """
        if self._host_tick_events.get(pcpu_index) is not None:
            return
        period = self.host_tick_period_ns
        next_fire = (self.sim.now // period + 1) * period
        self._host_tick_events[pcpu_index] = self.sim.at(next_fire, self._host_tick, pcpu_index)

    def _host_tick(self, pcpu_index: int) -> None:
        self._host_tick_events[pcpu_index] = None
        vcpu = self.sched.running_on(pcpu_index)
        if vcpu is None or vcpu.state in (VcpuState.HALTED, VcpuState.OFF):
            return  # CPU idle: host is tickless, chain stops until next dispatch
        period = self.host_tick_period_ns
        self._host_tick_events[pcpu_index] = self.sim.schedule(period, self._host_tick, pcpu_index)
        vcpu.exec.host_tick_interrupt(preempt=self.sched.wants_preemption(pcpu_index))

    # -------------------------------------------------------- perturbations

    def suspend_vm(self, vm: VirtualMachine) -> None:
        """Freeze a VM: every vCPU stops, all its timers pause.

        Models ``virsh suspend`` / SIGSTOP on the VM process: host time
        keeps flowing (and is accounted in ``total_suspended_ns``) while
        the guest observes nothing until :meth:`resume_vm`.
        """
        if vm.suspended:
            raise HostError(f"VM {vm.name}: suspend while already suspended")
        now = self.sim.now
        vm.suspended = True
        vm.suspend_epoch_ns = now
        vm.suspend_count += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit(now, vm.name, "vm_suspend", None)
        for v in vm.vcpus:
            v.exec.freeze()
        # Freezing forgets (not releases) the held pCPUs; hand any CPU
        # left idle to the next waiter of another VM so overcommitted
        # neighbours keep running through the span.
        for pcpu_index in sorted({v.pcpu.index for v in vm.vcpus}):
            if self.sched.running_on(pcpu_index) is None:
                nxt = self.sched.grant_next(pcpu_index)
                if nxt is not None:
                    nxt.exec.dispatch()

    def resume_vm(self, vm: VirtualMachine, *, clock_jump: bool = False) -> None:
        """Thaw a suspended VM.

        With ``clock_jump=False`` this is plain suspend/resume: the
        guest's clock never jumps, timers continue with the phase they
        had. With ``clock_jump=True`` it models save/restore: the guest
        clock jumps forward by the suspended span at the restore edge
        (``vm_restore``), paratick's last-tick state resynchronizes so
        the span is not replayed as a backlog of ticks, and the guest
        kernel re-aligns its tick machinery — every deadline re-armed
        afterwards must be at or after the restore instant.
        """
        if not vm.suspended:
            raise HostError(f"VM {vm.name}: resume but not suspended")
        now = self.sim.now
        span = now - vm.suspend_epoch_ns
        vm.suspended = False
        vm.total_suspended_ns += span
        if self.sim.trace.enabled:
            self.sim.trace.emit(now, vm.name, "vm_resume", span)
        if clock_jump:
            vm.clock_jump_ns += span
            if self.sim.trace.enabled:
                self.sim.trace.emit(now, vm.name, "vm_restore", span)
            for v in vm.vcpus:
                # kvmclock resync: the span is not a tick backlog.
                v.last_virtual_tick_ns = now
            if vm.kernel is not None:
                vm.kernel.on_clock_jump(span)
        for v in vm.vcpus:
            v.exec.unfreeze()

    def drift_guest_clock(self, vm: VirtualMachine, delta_ns: int) -> None:
        """Step the guest's clock offset by ``delta_ns`` (signed).

        Models paravirtual-clock drift between host and guest: the
        guest's clock (``GuestKernel.now``) runs ``offset`` ahead of the
        host's, so deadline values it computes land ``offset`` earlier
        on the host timeline (translated in ``_apply_deadline``, clamped
        so a deadline never lands in the host's past). Deadlines already
        armed in hardware keep their old translation — like a real TSC
        write racing an offset update, the step applies from the next
        programming on.
        """
        vm.guest_clock_offset_ns += delta_ns
        if self.sim.trace.enabled:
            self.sim.trace.emit(self.sim.now, vm.name, "clock_drift", vm.guest_clock_offset_ns)

    def hotplug_vcpu(self, vm: VirtualMachine, *, pcpu: Optional[int] = None) -> VCpu:
        """Bring one additional vCPU online while the VM runs.

        The new vCPU takes the next index, is placed round-robin unless
        ``pcpu`` pins it, boots through the guest kernel's hotplug path
        and enters the run-state machine exactly like a boot-time vCPU
        (init -> exited).
        """
        if vm.suspended:
            raise HostError(f"VM {vm.name}: hotplug while suspended")
        index = len(vm.vcpus)
        if pcpu is None:
            total = self.machine.spec.total_cpus
            pcpu = self._next_auto_cpu
            self._next_auto_cpu = (self._next_auto_cpu + 1) % total
        v = VCpu(index, vm.name, self.machine.cpu(pcpu))
        v.exec = _VcpuExec(self, vm, v)
        vm.vcpus.append(v)
        vm.hotplug_count += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit(self.sim.now, vm.name, "vcpu_hotplug", index)
        if vm.kernel is not None:
            vm.kernel.on_vcpu_hotplug(index)
        v.exec.start()
        return v

    def unplug_vcpu(self, vm: VirtualMachine, index: Optional[int] = None) -> None:
        """Tear down a previously hotplugged vCPU.

        Only the highest-index, beyond-boot vCPU may go (LIFO, so
        indices stay dense and boot vCPUs — which own workload tasks —
        are never removed).
        """
        if vm.suspended:
            raise HostError(f"VM {vm.name}: unplug while suspended")
        if index is None:
            index = len(vm.vcpus) - 1
        if index < vm.boot_vcpus or index != len(vm.vcpus) - 1:
            raise HostError(
                f"VM {vm.name}: cannot unplug vcpu{index} "
                f"(boot vCPUs 0..{vm.boot_vcpus - 1}, online {len(vm.vcpus)})"
            )
        if vm.kernel is not None and vm.kernel.sched.has_work(index):
            raise HostError(f"VM {vm.name}: vcpu{index} still has runnable tasks")
        v = vm.vcpus[index]
        vm.unplug_count += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit(self.sim.now, vm.name, "vcpu_unplug", index)
        if self.sched.running_on(v.pcpu.index) is v:
            # Hand the CPU over before shutdown so waiters are not orphaned.
            nxt = self.sched.release(v)
            if nxt is not None:
                nxt.exec.dispatch()
        v.exec.shutdown()
        src = f"{vm.name}/vcpu{index}"
        prev = vm.retired_steal.get(src, (0, 0))
        vm.retired_steal[src] = (prev[0] + v.total_steal_ns, prev[1] + v.steal_episodes)
        vm.vcpus.pop()
        if vm.kernel is not None:
            vm.kernel.on_vcpu_unplug(index)

    # ------------------------------------------------------------- readouts

    def find_vm(self, name: str) -> VirtualMachine:
        for vm in self.vms:
            if vm.name == name:
                return vm
        raise HostError(f"no VM named {name!r}")


class _VcpuExec:
    """Per-vCPU execution state machine (the KVM vcpu_run loop)."""

    __slots__ = (
        "hv",
        "sim",
        "vm",
        "vcpu",
        "pcpu",
        "costs",
        "clock",
        "preempt_timer",
        "_ns",
        "_freq_hz",
        "_exit_hw_ns",
        "_pollution_ns",
        "_rate_adapt",
        "_cur_op",
        "_cur_start",
        "_cur_dur",
        "_cur_event",
        "_host_deadline_event",
        "_polling",
        "_poll_event",
        "_poll_start",
        "_vlapic",
        "_pending_sched_ns",
        "_frozen_from",
        "_frozen_hostdl",
        "_frozen_vlapic_left",
        "timerhw_state",
    )

    def __init__(self, hv: Hypervisor, vm: VirtualMachine, vcpu: VCpu):
        self.hv = hv
        self.sim = hv.sim
        self.vm = vm
        self.vcpu = vcpu
        self.pcpu = vcpu.pcpu
        self.costs = costs = hv.costs
        self.clock = hv.machine.clock
        self.preempt_timer = PreemptionTimer(
            hv.sim, self._on_preempt_timer, name=f"{vm.name}/vcpu{vcpu.index}"
        )
        # Per-vCPU invariants of the hot paths: the host's fixed-cost
        # table, the clock rate guest compute is converted at, and the
        # feature flags read on every op or entry.
        self._ns = ns = hv.fixed_ns
        self._freq_hz = self.clock.freq_hz
        self._exit_hw_ns = ns[costs.vmexit_hw]
        self._pollution_ns = ns[costs.pollution]
        self._rate_adapt = hv.features.paratick_rate_adapt
        self._cur_op: Optional[gops.Compute] = None
        self._cur_start = 0
        self._cur_dur = 0
        self._cur_event = None
        self._host_deadline_event = None
        self._polling = False
        self._poll_event = None
        self._poll_start = 0
        #: KVM's periodic-mode vLAPIC emulation (created on first TMICT
        #: write); the hardware timer model supplies pause/resume for
        #: the VM-suspend path.
        self._vlapic: Optional[LapicTimer] = None
        #: Scheduler work (block swtch, wake of a contended vCPU) whose
        #: cost is deferred until it can occupy this vCPU's timeline.
        self._pending_sched_ns = 0
        #: State this vCPU was frozen from (VM suspend), None when live.
        self._frozen_from: Optional[VcpuState] = None
        #: Whether the host stand-in deadline timer was armed at freeze.
        self._frozen_hostdl = False
        #: Remaining ns of the paused vLAPIC period at freeze, if any.
        self._frozen_vlapic_left: Optional[int] = None
        #: Backend-owned host-side timer register state (lazily created
        #: by the arch's TimerHardware.decode; None on x86).
        self.timerhw_state = None

    def _trace(self, kind: str, detail=None, *, suffix: str = "") -> None:
        """Emit a structured event for this vCPU (callers building tuple
        details should pre-check ``sim.trace.enabled`` themselves)."""
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, f"{self.vm.name}/vcpu{self.vcpu.index}{suffix}", kind, detail
            )

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Make the vCPU runnable for the first time."""
        if self.vcpu.state is not VcpuState.INIT:
            raise HostError(f"{self.vcpu!r} started twice")
        self.vcpu.state = VcpuState.EXITED
        if self.hv.sched.acquire(self.vcpu):
            self._enter_guest()
        # else: queued READY; dispatched when the CPU frees up.

    def shutdown(self) -> None:
        """Stop driving this vCPU."""
        vcpu = self.vcpu
        now = self.sim.now
        # Close any open READY/HALTED interval: the trace observers
        # close theirs on the ready->off / halted->off transition below,
        # and the runtime counters must agree exactly (unplug teardown).
        if vcpu.state is VcpuState.READY:
            vcpu.total_steal_ns += now - vcpu.ready_since_ns
            vcpu.steal_episodes += 1
        elif vcpu.state is VcpuState.HALTED:
            vcpu.total_halted_ns += now - vcpu.halted_since_ns
            vcpu.halted_since_ns = now
        self._cancel_cur()
        self._cancel_host_deadline()
        if self._poll_event is not None:
            self.sim.cancel(self._poll_event)
            self._poll_event = None
            self._polling = False
        if self._vlapic is not None:
            self._vlapic.disarm()
        self.preempt_timer.stop()
        self.hv.sched.forget(self.vcpu)
        self.vcpu.state = VcpuState.OFF

    # ------------------------------------------------------ suspend support

    def freeze(self) -> None:
        """VM-wide suspend: quiesce this vCPU and park it (SUSPENDED).

        The vCPU's pCPU claim is *forgotten* (not released — the owning
        :meth:`Hypervisor.suspend_vm` re-grants idle CPUs afterwards),
        every timer standing in for the guest pauses, and in-flight
        exit/entry continuations are parked by the suspend guards when
        they land. READY waits and halt spans in progress are closed at
        the freeze edge: the suspended span is host time, never guest
        steal or idle time.
        """
        vcpu = self.vcpu
        st = vcpu.state
        if st in (VcpuState.OFF, VcpuState.INIT, VcpuState.SUSPENDED):
            return
        now = self.sim.now
        self._frozen_from = st
        if self._vlapic is not None:
            self._frozen_vlapic_left = self._vlapic.pause()
        self._frozen_hostdl = self._host_deadline_event is not None
        self._cancel_host_deadline()
        if self._polling:
            self._polling = False
            self.sim.cancel(self._poll_event)
            self._poll_event = None
            self.pcpu.account(CycleDomain.HALT_POLL, now - self._poll_start)
        if st is VcpuState.GUEST:
            self._cancel_cur()
            self.preempt_timer.stop()
        elif st is VcpuState.HALTED:
            # Close the halt accounting at the suspend edge; the episode
            # count stays with the eventual wake.
            vcpu.total_halted_ns += now - vcpu.halted_since_ns
            vcpu.halted_since_ns = now
        elif st is VcpuState.READY:
            # The state machine emits ready -> suspended, which closes
            # this READY interval in every trace-side observer — close
            # the runtime steal counters identically so they reconcile.
            vcpu.total_steal_ns += now - vcpu.ready_since_ns
            vcpu.steal_episodes += 1
        # EXITED: a continuation (entry, exit work, halt) is in flight;
        # the suspend guards park it when it fires inside the span.
        self.hv.sched.forget(vcpu)
        vcpu.state = VcpuState.SUSPENDED

    def unfreeze(self) -> None:
        """Resume-side thaw: restore the state the vCPU was frozen from.

        Timers re-arm monotonically — every expiry that passed during
        the span is clamped to the resume instant, so stale deadlines
        fire immediately *after* resume instead of in the guest's past.
        """
        vcpu = self.vcpu
        if vcpu.state is not VcpuState.SUSPENDED:
            return
        now = self.sim.now
        frozen_from = self._frozen_from
        self._frozen_from = None
        rearm_hostdl = self._frozen_hostdl
        self._frozen_hostdl = False
        if self._frozen_vlapic_left is not None:
            self._vlapic.resume(self._frozen_vlapic_left)
            self._frozen_vlapic_left = None
        if frozen_from is VcpuState.HALTED:
            vcpu.state = VcpuState.HALTED
            vcpu.halted_since_ns = now
            if vcpu.pending_irqs:
                self._wake()
                return
            if rearm_hostdl:
                self._arm_host_deadline()
            return
        # GUEST / EXITED / READY all thaw runnable.
        vcpu.state = VcpuState.EXITED
        if self.hv.sched.acquire(vcpu):
            self._enter_guest()
        elif rearm_hostdl:
            self._arm_host_deadline()

    # ------------------------------------------------------------- VM entry

    def _enter_guest(self, tail: bool = False) -> bool:
        """Begin the VM-entry sequence (we hold the physical CPU).

        ``tail`` says the caller does nothing after this call. Then the
        entry end runs inline when the engine can fast-forward to it,
        and True means the guest is running: the caller continues the
        op stream. False means the entry end was scheduled (or the vCPU
        is parked).
        """
        vcpu = self.vcpu
        if vcpu.state in (VcpuState.SUSPENDED, VcpuState.OFF):
            return False  # parked by a VM suspend (or torn down) mid-transition
        if self._host_deadline_event is not None:
            self._cancel_host_deadline()
        self.hv.ensure_host_tick(self.pcpu.index)
        # Paratick host hook (Fig. 2): runs on every VM entry.
        vm = self.vm
        if vm.paratick_enabled:
            now = self.sim.now
            if vcpu.has_pending_timer_irq and self.hv.features.paratick_last_tick_heuristic:
                # Heuristic of §5.1: the pending guest timer interrupt
                # will act as a tick.
                vcpu.last_virtual_tick_ns = now
            elif now - vcpu.last_virtual_tick_ns >= vm.paratick_period_ns:
                if vcpu.post_irq(Vector.PARATICK_VIRTUAL_TICK):
                    vm.virtual_ticks_injected += 1
                vcpu.last_virtual_tick_ns = now
        vectors = vcpu.drain_irqs() if vcpu.pending_irqs else ()
        if vectors and self.sim.trace.enabled:
            self.sim.trace.emit(
                self.sim.now, f"{vm.name}/vcpu{vcpu.index}", "inject",
                tuple(int(v) for v in vectors),
            )
        c = self.costs
        entry_ns = self._ns[c.vmentry_hw + c.inject_irq * len(vectors)]
        sim = self.sim
        delay = entry_ns + self._pollution_ns
        if tail and sim.advance_to(sim.now + delay):
            return self._entry_end(vectors, entry_ns)
        sim.schedule(delay, self._entered, vectors, entry_ns)
        return False

    def _reenter(self) -> None:
        """Event callback of a wake or dispatch: enter, then run the guest."""
        if self._enter_guest(True):
            self._next_op()

    def _entered(self, vectors: tuple, entry_ns: int) -> None:
        if self._entry_end(vectors, entry_ns):
            self._next_op()

    def _entry_end(self, vectors: tuple, entry_ns: int) -> bool:
        """Entry complete: True when the vCPU is in guest mode."""
        vcpu = self.vcpu
        pcpu = self.pcpu
        pcpu.account(_VMX_TRANSITION, entry_ns)
        pcpu.account(_POLLUTION, self._pollution_ns)
        if vcpu.state in (VcpuState.SUSPENDED, VcpuState.OFF):
            # Frozen mid-entry: the drained vectors go back to pending so
            # the post-resume entry injects them again.
            for v in vectors:
                vcpu.post_irq(v)
            return False
        vcpu.state = VcpuState.GUEST
        deadline = vcpu.guest_deadline_ns
        vm = self.vm
        if self._rate_adapt and vm.paratick_enabled and vm.paratick_period_ns > 0:
            # §4.1 rate adaptation: guarantee an injection opportunity
            # once per guest tick period even if the host tick is slower.
            backstop = vcpu.last_virtual_tick_ns + vm.paratick_period_ns
            if deadline is None or backstop < deadline:
                deadline = backstop
        self.preempt_timer.set_deadline(deadline)
        self.preempt_timer.start()
        if vectors:
            vm.kernel.on_interrupts(vcpu.index, vectors)
        return True

    # ----------------------------------------------------------- op stream

    def _next_op(self) -> None:
        """Run the guest op stream up to its next scheduled event.

        Always called as the last act of an event callback, so every
        continuation it reaches is in tail position: a compute's
        completion, and an exit's handler and entry ends, run inline
        whenever the engine can fast-forward to them, and the loop goes
        on with the next op. It returns once a continuation had to be
        scheduled. Zero-cycle computes retire inline; a positive one
        lasts ``cycles_to_ns``'s ceil formula (the durations vary, so
        they are not in the fixed-cost table).
        """
        kernel = self.vm.kernel
        vidx = self.vcpu.index
        sim = self.sim
        # Loop invariants: the inline path runs these once per guest op.
        next_op = kernel.next_op
        advance_to = sim.advance_to
        account = self.pcpu.account
        freq_hz = self._freq_hz
        chain = 0
        while True:
            op = next_op(vidx)
            if type(op) is not _Compute:
                if not self._sync_exit(op):
                    return
                chain = 0
                continue
            cycles = op.cycles
            if cycles:
                now = sim.now
                dur = -(-cycles * SEC // freq_hz)
                if advance_to(now + dur):
                    account(op.domain, dur)
                    if op.on_done is not None:
                        kernel.complete(vidx, op.on_done)
                    chain = 0
                    continue
                self._cur_op = op
                self._cur_start = now
                self._cur_dur = dur
                self._cur_event = sim.schedule(dur, self._compute_done)
                return
            if op.on_done is not None:
                kernel.complete(vidx, op.on_done)
            chain += 1
            if chain == _MAX_OP_CHAIN:
                raise HostError(f"{self.vcpu!r}: guest op stream made no progress")

    def _compute_done(self) -> None:
        op = self._cur_op
        self.pcpu.account(op.domain, self.sim.now - self._cur_start)
        self._cur_op = self._cur_event = None
        if op.on_done is not None:
            self.vm.kernel.complete(self.vcpu.index, op.on_done)
        self._next_op()

    def _cancel_cur(self) -> None:
        """Truncate an in-flight compute: account elapsed, re-queue rest."""
        if self._cur_op is None:
            return
        op = self._cur_op
        elapsed = self.sim.now - self._cur_start
        if elapsed > 0:
            self.pcpu.account(op.domain, elapsed)
        self.sim.cancel(self._cur_event)
        remaining = self.clock.ns_to_cycles(self._cur_dur - elapsed)
        if remaining > 0:
            self.vm.kernel.requeue_front(
                self.vcpu.index, _Compute(remaining, op.domain, op.on_done)
            )
        elif op.on_done is not None:
            # The interrupt landed exactly at completion; finish the op.
            self.vm.kernel.complete(self.vcpu.index, op.on_done)
        self._cur_op = self._cur_event = None

    # ------------------------------------------------------------- VM exits

    def _sync_exit(self, op: gops.GuestOp) -> bool:
        """Take a synchronous exit for an intercepted instruction.

        Timer/interrupt-controller register writes are decoded by the
        architecture's :class:`repro.hw.timerhw.TimerHardware`; the
        arch-neutral ops (HLT, IO, hypercall, ...) are handled here. The
        op stream calls this in tail position; True means the exit and
        re-entry ran inline and the guest is running again.
        """
        c = self.costs
        decoded = self.hv.timerhw.decode(self, op)
        if decoded is not None:
            return self._begin_exit(*decoded, tail=True)
        if isinstance(op, gops.Hlt):
            return self._begin_exit(
                ExitReason.HLT, ExitTag.IDLE, c.handler_hlt, None, then=self._halt, tail=True
            )
        if isinstance(op, gops.IoKick):
            return self._begin_exit(
                ExitReason.IO_INSTRUCTION,
                ExitTag.IO,
                c.handler_io_kick,
                lambda: self._submit_io(op),
                tail=True,
            )
        if isinstance(op, gops.Hypercall):
            return self._begin_exit(
                ExitReason.HYPERCALL,
                ExitTag.HYPERCALL,
                c.handler_hypercall,
                lambda: self.vm.handle_hypercall(self.vcpu, op.nr, op.arg),
                tail=True,
            )
        if isinstance(op, gops.Fault):
            return self._begin_exit(
                ExitReason.EPT_VIOLATION, ExitTag.OTHER, c.handler_ept, None, tail=True
            )
        raise HostError(f"unknown guest op {op!r}")

    def _begin_exit(self, reason, tag, handler_cycles, effect, then=None, tail=False) -> bool:
        """Common exit path: stop the clock sources, cost it, continue.

        ``effect`` runs when the handler completes (hypervisor-side state
        change); ``then`` overrides the default continuation of
        re-entering the guest. With ``tail`` (the caller does nothing
        after this call) the handler end runs inline when the engine can
        fast-forward to it; the return value is then
        :meth:`_handler_end`'s.
        """
        vcpu = self.vcpu
        vcpu.state = VcpuState.EXITED
        self.preempt_timer.stop()
        self.vm.counters.record(vcpu.index, reason, tag)
        if self.sim.trace.enabled:
            self.sim.trace.emit(
                self.sim.now, f"{self.vm.name}/vcpu{vcpu.index}", "vmexit",
                (reason.value, tag.value),
            )
        handler_ns = self._ns[handler_cycles]
        sim = self.sim
        delay = self._exit_hw_ns + handler_ns
        if tail and sim.advance_to(sim.now + delay):
            return self._handler_end(handler_ns, effect, then)
        sim.schedule(delay, self._exit_work_done, handler_ns, effect, then)
        return False

    def _exit_work_done(self, handler_ns, effect, then) -> None:
        if self._handler_end(handler_ns, effect, then):
            self._next_op()

    def _handler_end(self, handler_ns, effect, then) -> bool:
        """Exit handler complete: retire the effect, then re-enter (or
        run ``then``) in tail position. True when the guest is running
        again."""
        pcpu = self.pcpu
        pcpu.account(_VMX_TRANSITION, self._exit_hw_ns)
        pcpu.account(_HOST_HANDLER, handler_ns)
        if effect is not None:
            effect()
        if self.vcpu.state in (VcpuState.OFF, VcpuState.SUSPENDED):
            # Shut down by the effect, or frozen by a VM suspend while
            # the handler ran: the hypervisor-side effect still retired,
            # but the continuation parks until resume (or forever).
            return False
        if then is not None:
            return then()
        return self._enter_guest(True)

    # -------------------------------------------------------- exit effects

    def _apply_deadline(self, tsc_value: int) -> None:
        """KVM's TSC_DEADLINE write handler (preemption-timer optimization)."""
        if tsc_value == 0:
            self.vcpu.guest_deadline_ns = None
            self.preempt_timer.clear()
            self._trace("deadline_clear")
        else:
            deadline = self.hv.tsc.deadline_to_ns(tsc_value)
            offset = self.vm.guest_clock_offset_ns
            if offset:
                # Clock-drift perturbation: the guest computed this
                # deadline on its own (drifted) clock; on the host
                # timeline it lands ``offset`` earlier, clamped so it
                # never lands in the past.
                deadline = max(deadline - offset, self.sim.now)
            self.vcpu.guest_deadline_ns = deadline
            self._trace("deadline_set", deadline)

    def _start_virtual_periodic(self, period_ns: int) -> None:
        """Guest armed its virtual LAPIC in periodic mode.

        KVM emulates the repeating timer host-side through the LAPIC
        hardware model (one timer per vCPU, source ``.../vlapic``);
        expiry delivers a tick, waking the vCPU if halted.
        """
        if period_ns <= 0:
            raise HostError(f"{self.vcpu!r}: invalid periodic LAPIC period {period_ns}")
        if self._vlapic is None:
            self._vlapic = LapicTimer(
                self.sim,
                self._vlapic_deliver,
                name=f"{self.vm.name}/vcpu{self.vcpu.index}/vlapic",
            )
        self._vlapic.arm_periodic_ns(period_ns)
        if self.vm.suspended:
            # The TMICT write retired inside a suspended span: the vLAPIC
            # clock is gated, so park the fresh period until resume.
            self._frozen_vlapic_left = self._vlapic.pause()

    def _vlapic_deliver(self, vector: Vector) -> None:
        self.deliver(vector, ExitTag.TIMER_GUEST_TICK)

    def _submit_io(self, op: gops.IoKick) -> None:
        op.request.cookie = (self.vcpu.index, op.request.cookie)
        op.device.submit(op.request)

    # ------------------------------------------------------------- halting

    def _halt(self) -> bool:
        """HLT continuation: poll (optionally), then block. True when an
        interrupt that arrived meanwhile re-entered the guest inline."""
        if self.vcpu.state in (VcpuState.SUSPENDED, VcpuState.OFF):
            return False  # frozen/torn down while the HLT exit was processing
        if self.vcpu.pending_irqs:
            # An interrupt arrived during exit processing: do not block.
            return self._enter_guest(True)
        if self.hv.features.halt_poll_ns > 0:
            self._polling = True
            self._poll_start = self.sim.now
            self._poll_event = self.sim.schedule(self.hv.features.halt_poll_ns, self._poll_timeout)
            return False
        self._block()
        return False

    def _poll_timeout(self) -> None:
        self._polling = False
        self._poll_event = None
        self.pcpu.account(CycleDomain.HALT_POLL, self.sim.now - self._poll_start)
        self._block()

    def _block(self) -> None:
        vcpu = self.vcpu
        block_ns = self._ns[self.costs.block_vcpu]
        vcpu.state = VcpuState.HALTED
        vcpu.halted_since_ns = self.sim.now
        self._arm_host_deadline()
        nxt = self.hv.sched.release(vcpu)
        if nxt is not None:
            # The block-side swtch work delays whoever takes the CPU;
            # booking it here in zero sim-time would overbook the shared
            # timeline (the successor starts its own costs at this same
            # instant).
            nxt.exec.dispatch(extra_ns=block_ns)
        else:
            # CPU going idle: pay the swtch cost when this vCPU next
            # occupies the timeline (its wake).
            self._pending_sched_ns += block_ns

    def _arm_host_deadline(self) -> None:
        """While not in guest mode, a host timer stands in for the
        preemption timer so guest-programmed deadlines still fire."""
        deadline = self.vcpu.guest_deadline_ns
        if deadline is None:
            return
        when = max(deadline, self.sim.now)
        self._host_deadline_event = self.sim.at(when, self._host_deadline_fired)
        self._trace("hostdl_arm", when)

    def _cancel_host_deadline(self) -> None:
        if self._host_deadline_event is not None:
            self.sim.cancel(self._host_deadline_event)
            self._host_deadline_event = None
            self._trace("hostdl_cancel")

    def _host_deadline_fired(self) -> None:
        self._host_deadline_event = None
        deadline = self.vcpu.guest_deadline_ns
        self.vcpu.guest_deadline_ns = None
        self.preempt_timer.clear()
        if self.sim.trace.enabled:
            self._trace("hostdl_fire")
            self._trace("deadline_fire", (deadline, "host"))
        self.deliver(Vector.LOCAL_TIMER, ExitTag.TIMER_GUEST_TICK)

    def dispatch(self, *, extra_ns: int = 0) -> None:
        """The host scheduler gave us the CPU (overcommit path).

        ``extra_ns`` carries the outgoing vCPU's block-side swtch cost;
        any deferred wake cost of this vCPU is also paid here — both
        now occupy the timeline, serialized before guest entry.

        The READY wait that ends here is this vCPU's *steal time*
        (runnable but not running); it is accounted on the vCPU the way
        KVM feeds the guest's steal-time MSR.
        """
        vcpu = self.vcpu
        if vcpu.state is not VcpuState.READY:
            raise HostError(f"dispatch of {vcpu!r} in state {vcpu.state}")
        stolen_ns = self.sim.now - vcpu.ready_since_ns
        vcpu.total_steal_ns += stolen_ns
        vcpu.steal_episodes += 1
        if self.sim.trace.enabled:
            self._trace("sched_dispatch", (self.pcpu.index, stolen_ns))
        vcpu.state = VcpuState.EXITED
        ctx_ns = self._ns[self.costs.ctx_switch] + extra_ns + self._pending_sched_ns
        self._pending_sched_ns = 0
        self.pcpu.account(_HOST_SCHED, ctx_ns)
        self.sim.schedule(ctx_ns, self._reenter)

    # ----------------------------------------------------- async interrupts

    def deliver(self, vector: Vector, tag: ExitTag, *, cross_socket: bool = False) -> None:
        """An interrupt for this vCPU arrived (device, IPI or stand-in timer)."""
        vcpu = self.vcpu
        state = vcpu.state
        if state is VcpuState.OFF:
            return
        vcpu.post_irq(vector)
        if state is VcpuState.GUEST:
            # Forces an external-interrupt exit; injected on re-entry.
            self._cancel_cur()
            self._begin_exit(
                ExitReason.EXTERNAL_INTERRUPT, tag, self.costs.handler_external_interrupt, None
            )
        elif state is VcpuState.HALTED:
            self._wake(cross_socket=cross_socket)
        elif state is VcpuState.EXITED and self._polling:
            self._finish_poll_hit()
        # EXITED (not polling) / READY / INIT / SUSPENDED: stays pending,
        # injected at the next VM entry (for a suspended vCPU that is the
        # post-resume entry) — no additional exit, like a posted IRR bit.

    def _finish_poll_hit(self) -> None:
        """Halt polling succeeded: skip the block/wake round trip."""
        self._polling = False
        self.sim.cancel(self._poll_event)
        self._poll_event = None
        self.pcpu.account(CycleDomain.HALT_POLL, self.sim.now - self._poll_start)
        self._enter_guest()

    def _wake(self, *, cross_socket: bool = False) -> None:
        vcpu = self.vcpu
        self._cancel_host_deadline()
        halted = self.sim.now - vcpu.halted_since_ns
        vcpu.total_halted_ns += halted
        vcpu.halt_episodes += 1
        vcpu.state = VcpuState.EXITED
        wake_cycles = self.costs.wake_vcpu
        if cross_socket:
            wake_cycles = int(wake_cycles * self.hv.machine.spec.cross_socket_penalty)
        wake_ns = self._ns[wake_cycles]
        cstate = vcpu.requested_cstate
        if cstate is not None:
            # cpuidle model: the deeper the state, the longer the exit.
            name = cstate.name
            vcpu.cstate_residency_ns[name] = vcpu.cstate_residency_ns.get(name, 0) + halted
            wake_ns += cstate.exit_latency_ns
            vcpu.requested_cstate = None
        wake_ns += self._pending_sched_ns
        self._pending_sched_ns = 0
        if self.hv.sched.acquire(vcpu):
            self.pcpu.account(_HOST_SCHED, wake_ns)
            self.sim.schedule(wake_ns, self._reenter)
        else:
            # READY behind another vCPU: the pCPU is busy right now, so
            # the wake/C-state-exit work is paid at dispatch, when it
            # actually occupies the timeline.
            self._pending_sched_ns = wake_ns

    # ------------------------------------------------- timer & host tick

    def _on_preempt_timer(self) -> None:
        """VMX preemption timer expired in guest mode.

        Either the guest's own deadline passed (§3 — the 'less costly'
        exit, inject LOCAL_TIMER) or the §4.1 rate-adaptation backstop
        fired before any guest deadline — then the exit exists purely so
        the re-entry hook can inject a virtual tick.
        """
        vcpu = self.vcpu
        if vcpu.state is not VcpuState.GUEST:
            raise HostError("preemption timer fired outside guest mode")
        self._cancel_cur()
        reason, cost = self.hv.timerhw.deadline_fire_exit(self.costs)
        gd = vcpu.guest_deadline_ns
        if gd is not None and self.sim.now >= gd:
            # The guest's own deadline passed: consume it, inject its
            # timer interrupt on re-entry.
            vcpu.guest_deadline_ns = None
            if self.sim.trace.enabled:
                self._trace("deadline_fire", (gd, "ptimer"))
            vcpu.post_irq(Vector.LOCAL_TIMER)
            self._begin_exit(reason, ExitTag.TIMER_GUEST_TICK, cost, None)
            return
        # Rate-adaptation backstop: no guest deadline was due; the exit
        # exists purely so the entry hook can inject a virtual tick.
        self._begin_exit(reason, ExitTag.TIMER_HOST_TICK, cost, None)

    def host_tick_interrupt(self, *, preempt: bool) -> None:
        """The host scheduler tick fired on our physical CPU."""
        vcpu = self.vcpu
        if vcpu.state is VcpuState.GUEST:
            self._cancel_cur()
            extra = self.costs.host_tick_handler
            then = self._preempt_requeue if preempt else None
            self._begin_exit(
                ExitReason.EXTERNAL_INTERRUPT,
                ExitTag.TIMER_HOST_TICK,
                self.costs.handler_external_interrupt + extra,
                None,
                then=then,
            )
        else:
            # Tick arrived while already in root mode: host-side work only,
            # no VM exit. Runs concurrently with the in-flight exit
            # processing (approximation: does not stretch the sequence).
            self.pcpu.account(CycleDomain.HOST_TICK, self._ns[self.costs.host_tick_handler])

    def _preempt_requeue(self) -> bool:
        """Host tick boundary with waiters: rotate this CPU (overcommit).
        Never re-enters the guest (False)."""
        vcpu = self.vcpu
        nxt = self.hv.sched.release(vcpu)
        self.hv.sched.requeue(vcpu)
        self._trace("sched_preempt", self.pcpu.index)
        self._arm_host_deadline()
        if nxt is not None:
            nxt.exec.dispatch()
        return False
