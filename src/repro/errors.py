"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError` so
callers can catch simulator-domain failures without masking programming
errors (``TypeError`` etc. propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly.

    Examples: scheduling or re-arming an event in the past, running the
    event loop re-entrantly from inside a callback.
    """


class ConfigError(ReproError):
    """A scenario/machine/cost-model configuration is invalid."""


class HardwareError(ReproError):
    """A simulated hardware device was programmed incorrectly.

    Mirrors the class of bugs that on real hardware would be #GP faults
    or undefined behaviour (e.g. writing a malformed MSR value).
    """


class GuestError(ReproError):
    """The simulated guest kernel reached an inconsistent state."""


class HostError(ReproError):
    """The simulated hypervisor reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload definition is invalid or failed to run to completion."""
