"""Paratick reproduction library.

A discrete-event simulator of the x86 hardware-assisted virtualization
timer path, reproducing *"Paratick: Reducing Timer Overhead in Virtual
Machines"* (Schildermans, Aerts, Shan, Ding — ICPP '21): a KVM-like
hypervisor, a Linux-like guest kernel, and three scheduler-tick
management modes — classic periodic, tickless (dynticks-idle) and
**paratick** (virtual scheduler ticks, the paper's contribution).

Quick start::

    from repro import TickMode, simulate_workload
    from repro.workloads import parsec

    result = simulate_workload(parsec.benchmark("streamcluster"),
                               tick_mode=TickMode.PARATICK, vcpus=4)
    print(result.total_exits, result.exec_time_ns)

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
code regenerating every table and figure of the paper.
"""

from repro.config import (
    HostFeatures,
    IoDeviceKind,
    MachineSpec,
    TickMode,
    VmSpec,
)
from repro.errors import (
    ConfigError,
    GuestError,
    HardwareError,
    HostError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison, compare_runs

__version__ = "1.0.0"

__all__ = [
    "TickMode",
    "MachineSpec",
    "VmSpec",
    "HostFeatures",
    "IoDeviceKind",
    "RunMetrics",
    "Comparison",
    "compare_runs",
    "simulate_workload",
    "ReproError",
    "SimulationError",
    "ConfigError",
    "HardwareError",
    "GuestError",
    "HostError",
    "WorkloadError",
    "__version__",
]


def simulate_workload(workload, **kwargs):
    """Convenience wrapper around :func:`repro.experiments.runner.run_workload`.

    Imported lazily so that ``import repro`` stays light.
    """
    from repro.experiments.runner import run_workload

    return run_workload(workload, **kwargs)
