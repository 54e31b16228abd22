"""Workload abstraction.

A :class:`Workload` knows how to populate a guest kernel with tasks and
declares what it needs from the scenario (vCPU count, a block device).
The experiment runner builds the stack, calls :meth:`Workload.build`,
runs until the main tasks finish (or a horizon), and collects metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.config import IoDeviceKind
from repro.guest.kernel import GuestKernel
from repro.guest.task import Task


class Workload:
    """Base class for workload models."""

    #: Workload identifier used in labels.
    name: str = "workload"
    #: Block device class the workload needs, or None.
    io_device: Optional[IoDeviceKind] = None
    #: NIC profile the workload needs, or None (set by network workloads).
    nic_profile = None

    def default_vcpus(self) -> int:
        return 1

    def build(self, kernel: GuestKernel) -> list[Task]:
        """Create tasks on ``kernel``; return the *main* tasks whose
        completion defines execution time."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name
