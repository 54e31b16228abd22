"""Primitive guest-CPU operations.

The guest kernel expresses everything a vCPU does as a stream of these
primitive ops; the hypervisor's per-vCPU executor (:mod:`repro.host.kvm`)
consumes the stream, advancing simulated time and taking VM exits where
the real hardware would.

Ops that trap (``Wrmsr``, ``Hlt``, ``IoKick``, ``Hypercall``) are exactly
the instructions that trap under hardware-assisted virtualization; the
executor charges their exit costs. ``Compute`` is preemptible: an
asynchronous interrupt may cut it short, in which case the executor
accounts the elapsed portion and re-queues the remainder — the guest
code never observes the split.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import GuestError
from repro.hw.cpu import CycleDomain
from repro.hw.iodev import IoRequest

_USER = CycleDomain.GUEST_USER
_KERNEL = CycleDomain.GUEST_KERNEL


class GuestOp:
    """Base class for primitive guest operations."""

    __slots__ = ()


class Compute(GuestOp):
    """Burn ``cycles`` of CPU in ``domain``; preemptible.

    ``on_done`` (if given) runs in guest context when the full amount has
    been executed — interrupt-induced splits do not re-trigger it.
    """

    __slots__ = ("cycles", "domain", "on_done")

    def __init__(
        self,
        cycles: int,
        domain: CycleDomain = _USER,
        on_done: Optional[Callable[[], None]] = None,
    ):
        if cycles < 0:
            raise GuestError(f"negative compute: {cycles}")
        if domain is not _USER and domain is not _KERNEL:
            raise GuestError(f"guest compute must be guest-domain, got {domain}")
        self.cycles = cycles
        self.domain = domain
        self.on_done = on_done

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.cycles}, {self.domain.value})"


class Wrmsr(GuestOp):
    """Write a model-specific register — intercepted, causes a VM exit."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Wrmsr({self.index:#x}, {self.value})"


class SysregWrite(GuestOp):
    """Write a trapped system register (ARM MSR-to-sysreg instruction).

    The ARM analogue of :class:`Wrmsr`: generic-timer (CNTV_*) and
    GIC system-register accesses trap to EL2 when the hypervisor
    intercepts them, causing a VM exit.
    """

    __slots__ = ("reg", "value")

    def __init__(self, reg: int, value: int):
        self.reg = reg
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"SysregWrite({self.reg:#x}, {self.value})"


class Hlt(GuestOp):
    """Halt until the next interrupt — causes a VM exit and blocks the vCPU."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Hlt()"


class IoKick(GuestOp):
    """Notify the host I/O backend of a new request (virtio doorbell).

    Causes an I/O-instruction VM exit; the host submits ``request`` to
    ``device`` and execution continues (completion arrives later as a
    device interrupt).
    """

    __slots__ = ("device", "request")

    def __init__(self, device: object, request: IoRequest):
        self.device = device
        self.request = request

    def __repr__(self) -> str:  # pragma: no cover
        return f"IoKick({self.request.op}, {self.request.size})"


class Hypercall(GuestOp):
    """Explicit guest->host call (paratick uses one at boot, §4.1)."""

    __slots__ = ("nr", "arg")

    def __init__(self, nr: int, arg: int = 0):
        self.nr = nr
        self.arg = arg

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hypercall({self.nr}, {self.arg})"


class Fault(GuestOp):
    """An EPT-violation-class exit (page fault, instruction emulation).

    Workload models use this to represent the background of *non-timer*
    exits every real application produces; the paper's per-benchmark
    variance in Fig. 4a/5a/6a comes from how this background dilutes the
    timer-exit reduction.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Fault()"
