"""VM-exit taxonomy.

Exit reasons mirror the VMX basic exit reasons KVM sees; each recorded
exit additionally carries an :class:`ExitTag` identifying the *semantic*
cause, because the paper's headline metric is specifically *timer-related*
exits (§6: arming the guest tick timer, delivering host ticks, delivering
guest ticks) as distinct from IPI/I/O/other exits.
"""

from __future__ import annotations

import enum


class ExitReason(enum.Enum):
    """Architectural VM-exit reason (subset relevant to the timer path)."""

    #: Guest executed WRMSR on an intercepted register.
    MSR_WRITE = "msr_write"
    #: A host-owned external interrupt arrived while in guest mode.
    EXTERNAL_INTERRUPT = "external_interrupt"
    #: The VMX preemption timer expired (KVM's guest-timer optimization).
    PREEMPTION_TIMER = "preemption_timer"
    #: Guest executed HLT.
    HLT = "hlt"
    #: Guest signalled an I/O doorbell (virtio kick).
    IO_INSTRUCTION = "io_instruction"
    #: Guest executed VMCALL.
    HYPERCALL = "hypercall"
    #: EPT violation / page-fault class exits (background noise).
    EPT_VIOLATION = "ept_violation"
    #: ARM: guest accessed a trapped system register (CNTV_*, GIC ICC_*).
    SYSREG_TRAP = "sysreg_trap"
    #: ARM: the virtual generic timer (vtimer) fired while in guest mode.
    VTIMER_IRQ = "vtimer_irq"

    def __init__(self, value: str) -> None:
        #: Definition-order position (the exit counters' dense row index).
        self.index = len(type(self).__members__)


class ExitTag(enum.Enum):
    """Semantic cause of an exit, for the paper's metric split."""

    #: Arming/cancelling the guest tick or wake timer (TSC_DEADLINE write).
    TIMER_PROGRAM = "timer_program"
    #: Delivery of the guest's own (virtual LAPIC / preemption) timer.
    TIMER_GUEST_TICK = "timer_guest_tick"
    #: Host scheduler tick interrupting the running guest.
    TIMER_HOST_TICK = "timer_host_tick"
    #: Reschedule / function-call IPIs between vCPUs.
    IPI = "ipi"
    #: I/O submission and completion interrupts.
    IO = "io"
    #: Idle transitions (HLT).
    IDLE = "idle"
    #: End-of-interrupt writes (only when virtual EOI is off).
    EOI = "eoi"
    #: Paravirt calls.
    HYPERCALL = "hypercall"
    #: Everything else (EPT violations, PLE, instruction emulation...).
    OTHER = "other"

    def __init__(self, value: str) -> None:
        #: Definition-order position (the exit counters' dense column index).
        self.index = len(type(self).__members__)


#: Tags the paper counts as scheduler-tick-management overhead.
TIMER_TAGS = frozenset(
    {ExitTag.TIMER_PROGRAM, ExitTag.TIMER_GUEST_TICK, ExitTag.TIMER_HOST_TICK}
)
