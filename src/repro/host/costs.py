"""The calibrated cost model.

Every cost is in CPU **cycles** at the machine's nominal clock. Two rules
keep the reproduction honest (DESIGN.md §5):

* exit *counts* are never tuned — they follow mechanically from the
  tick-sched state machines and the workload;
* costs are calibrated once, against the paper's aggregate percentages
  (Tables 2–4), and then shared by every experiment.

Sources for the defaults: published VMX world-switch latencies for
Skylake-class parts (~1–2k cycles each way), KVM handler path lengths
(fast-path MSR write ~1.5–3k cycles, interrupt acknowledgement ~2–4k),
scheduling block/wake (~5–10k), and the well-documented *indirect* cost
of an exit — cache/TLB/branch-predictor pollution the guest repays after
resuming, commonly estimated at one to a few tens of thousands of cycles.
The indirect term (``pollution``) dominates, exactly as the literature
(and the paper's own throughput numbers) implies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """All simulator cost constants, in cycles."""

    # --- VMX world switch -------------------------------------------------
    #: Hardware cost of a VM exit (guest -> root mode).
    vmexit_hw: int = 1_300
    #: Hardware cost of a VM entry (root -> guest mode).
    vmentry_hw: int = 1_000
    #: Indirect cost repaid by the guest after each exit/entry round trip
    #: (cache, TLB and branch-predictor refill). The paper's companion
    #: study [32] measures ~15% of CPU time going to tick-management
    #: exits at a few thousand idle transitions per second per vCPU,
    #: which implies an effective all-in cost of ~20us per exit;
    #: 55k cycles (~25us at 2.2 GHz) reproduces that regime and sits at
    #: the upper end of published direct+indirect exit-cost estimates.
    pollution: int = 55_000

    # --- KVM exit handlers (per reason) -----------------------------------
    handler_msr_tsc_deadline: int = 1_800
    handler_msr_icr: int = 2_800
    handler_msr_eoi: int = 1_100
    handler_external_interrupt: int = 2_400
    handler_preemption_timer: int = 1_500
    handler_hlt: int = 2_000
    handler_io_kick: int = 5_000
    handler_hypercall: int = 1_200
    handler_ept: int = 7_000

    # --- KVM/arm64 exit handlers --------------------------------------------
    #: Trapped CNTV_CTL/CNTV_CVAL sysreg write (kvm_handle_sys_reg ->
    #: the vtimer emulation). Trap decode on arm64 is cheaper than the
    #: full x86 MSR path (arXiv 2206.00258's per-instruction timings).
    handler_sysreg_cntv: int = 950
    #: Trapped ICC_EOIR1 write on a pre-GICv4 host (no HW EOI bypass).
    handler_sysreg_eoi: int = 800
    #: Trapped ICC_SGI1R write (software-generated interrupt = IPI).
    handler_sysreg_sgi: int = 2_200
    #: Host-side handler for the guest's virtual generic timer firing in
    #: guest mode (vtimer IRQ taken at EL2, kvm_arch_timer_handler).
    handler_vtimer_irq: int = 1_500

    # --- Host scheduling / virtual APIC ------------------------------------
    #: Inject one interrupt into the guest at VM entry.
    inject_irq: int = 700
    #: Block a halted vCPU (schedule out, switch to idle/other).
    block_vcpu: int = 5_000
    #: Wake a blocked vCPU (schedule in).
    wake_vcpu: int = 7_000
    #: Host context switch between two runnable vCPUs (overcommit).
    ctx_switch: int = 4_000
    #: Host scheduler-tick handler.
    host_tick_handler: int = 3_000
    #: Host-side I/O backend work per request (virtio/vhost service).
    host_io_backend: int = 9_000

    # --- Guest kernel paths -------------------------------------------------
    #: Late-boot initialization work before the tick mechanism is
    #: installed (also de-phases guest timers from the host tick grid,
    #: as any real boot does).
    guest_boot_init: int = 1_700_000
    #: Scheduler-tick handler body (accounting, sched, wheel check).
    guest_tick_work: int = 4_000
    #: IRQ entry/exit glue around any handler.
    guest_irq_glue: int = 1_200
    #: Guest scheduler task switch.
    guest_sched_switch: int = 2_500
    #: Idle-entry bookkeeping (tick-mode decision logic).
    guest_idle_entry: int = 800
    #: Idle-exit bookkeeping.
    guest_idle_exit: int = 600
    #: Syscall entry/exit overhead.
    guest_syscall: int = 900
    #: Futex wait path (queue + block).
    guest_futex_wait: int = 1_800
    #: Futex wake path (dequeue + wake + maybe IPI setup).
    guest_futex_wake: int = 2_000
    #: Guest block-I/O submission path (bio + virtio queue).
    guest_io_submit: int = 12_000
    #: Guest block-I/O completion path (softirq + copy bookkeeping).
    guest_io_complete: int = 8_000
    #: Per-4KiB-page cost of moving I/O data through the guest.
    guest_io_per_page: int = 1_400
    #: Programming/cancelling a timer inside the guest (hrtimer + clockevents
    #: code around the actual MSR write).
    guest_timer_program: int = 500
    #: Enqueue/dequeue an hrtimer without touching hardware.
    guest_hrtimer_soft: int = 300
    #: Run one expired soft timer / RCU callback.
    guest_softirq_cb: int = 900

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if isinstance(value, tuple):  # guard against the `1,` typo class
                raise ConfigError(f"cost {name} is a tuple; did you add a stray comma?")
            if value < 0:
                raise ConfigError(f"cost {name} must be >= 0, got {value}")

    def with_overrides(self, **kw: int) -> "CostModel":
        """A copy with some costs replaced (used by the ablation benches)."""
        return replace(self, **kw)


#: The calibrated default used by all experiments.
DEFAULT_COSTS = CostModel()
