"""Model-specific registers relevant to the timer path.

Only the registers the mechanism touches are modelled. What matters for
the reproduction is *which writes are intercepted*: in a virtualized
environment every guest write to ``IA32_TSC_DEADLINE`` (and to the x2APIC
ICR, for IPIs) traps to the hypervisor — that trap is the VM exit the
paper sets out to eliminate.
"""

from __future__ import annotations

import enum


class Msr(enum.IntEnum):
    """MSR indices (values match the x86 architectural numbers)."""

    #: IA32_TSC_DEADLINE — arms the LAPIC timer in TSC-deadline mode.
    TSC_DEADLINE = 0x6E0
    #: x2APIC Interrupt Command Register — sending an IPI writes here.
    X2APIC_ICR = 0x830
    #: x2APIC End-Of-Interrupt register — written after every handled
    #: interrupt; trapped unless the host virtualizes EOI (APICv).
    X2APIC_EOI = 0x80B
    #: x2APIC LVT timer register (mode configuration).
    X2APIC_LVT_TIMER = 0x832
    #: x2APIC initial-count register (oneshot/periodic mode arming).
    X2APIC_TMICT = 0x838
