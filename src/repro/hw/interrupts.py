"""Interrupt vector space.

Vector numbers follow Linux's x86 layout where it matters to the paper:
the local APIC timer uses vector 236 (``LOCAL_TIMER_VECTOR``) and
paratick reserves **vector 235** for virtual scheduler ticks (§5.1:
"We reserve vector 235 for this purpose").
"""

from __future__ import annotations

import enum


class Vector(enum.IntEnum):
    """Interrupt vectors used by the simulation."""

    #: Guest-visible local APIC timer interrupt (Linux LOCAL_TIMER_VECTOR).
    LOCAL_TIMER = 236
    #: Paratick virtual scheduler tick (paper §5.1 reserves vector 235).
    PARATICK_VIRTUAL_TICK = 235
    #: Reschedule IPI (Linux RESCHEDULE_VECTOR).
    RESCHEDULE = 253
    #: Generic function-call IPI.
    CALL_FUNCTION = 251
    #: Block-device completion interrupt (virtio-blk queue).
    BLOCK_IO = 81
    #: Network-device interrupt (virtio-net queue).
    NET_IO = 82
    #: Host-side scheduler tick on the physical LAPIC.
    HOST_TIMER = 239


#: Vectors a guest may receive (injected by the hypervisor).
GUEST_VECTORS = frozenset(
    {
        Vector.LOCAL_TIMER,
        Vector.PARATICK_VIRTUAL_TICK,
        Vector.RESCHEDULE,
        Vector.CALL_FUNCTION,
        Vector.BLOCK_IO,
        Vector.NET_IO,
    }
)
