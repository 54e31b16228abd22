"""Simulated hardware: CPUs, timers, interrupt plumbing and I/O devices.

This layer models the x86 timer hardware the paper's mechanism touches —
the TSC, the MSR indices a guest writes (``TSC_DEADLINE``, the x2APIC
registers), the periodic-mode vLAPIC timer and the VMX preemption timer —
plus physical CPUs with per-domain cycle accounting and storage/network
devices with latency models.
"""

from repro.hw.cpu import CycleDomain, Machine, PhysicalCPU
from repro.hw.interrupts import Vector
from repro.hw.lapic import LapicTimer
from repro.hw.msr import Msr
from repro.hw.preemption import PreemptionTimer
from repro.hw.tsc import Tsc

__all__ = [
    "CycleDomain",
    "Machine",
    "PhysicalCPU",
    "Vector",
    "LapicTimer",
    "Msr",
    "PreemptionTimer",
    "Tsc",
]
