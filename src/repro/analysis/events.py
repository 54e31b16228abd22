"""The structured trace-event schema the sanitizer checks against.

Every component on the timer path emits events through the simulator's
:class:`~repro.sim.trace.Tracer` as ``(time, source, kind, detail)``.
This module is the single registry of the *kinds* and their detail
shapes; :class:`repro.analysis.checkers.SchemaChecker` enforces it
online, so a component that starts emitting malformed or unregistered
events fails the sanitizer rather than silently degrading the analysis.

Sources follow a small naming convention:

* ``<vm>/vcpu<N>`` — the vCPU executor, the guest kernel and the
  per-vCPU timers (preemption timer, host deadline stand-in);
* ``<vm>/vcpu<N>/vlapic`` — KVM's emulation of the virtual LAPIC in
  periodic mode.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.trace import TraceRecord

#: kind -> human-readable description of the detail payload.
EVENT_SCHEMA: dict[str, str] = {
    # Hypervisor / vCPU executor (repro.host.kvm, repro.host.vcpu)
    "vmexit": "(reason_value, tag_value) — one VM exit, as counted by ExitCounters",
    "inject": "tuple of int vectors injected at VM entry (never empty)",
    "vcpu_state": "(old_state_value, new_state_value) — _VcpuExec run-state transition",
    "deadline_set": "abs ns — guest TSC_DEADLINE armed (KVM handler)",
    "deadline_clear": "None — guest wrote 0 to TSC_DEADLINE",
    "deadline_fire": "(deadline_ns, 'ptimer'|'host') — armed deadline consumed",
    "hostdl_arm": "abs ns — host stand-in timer armed while vCPU blocked",
    "hostdl_cancel": "None — host stand-in timer cancelled (VM entry)",
    "hostdl_fire": "None — host stand-in timer fired",
    # VMX preemption timer (repro.hw.preemption)
    "ptimer_start": "abs ns — countdown started at VM entry",
    "ptimer_stop": "None — countdown paused at VM exit",
    "ptimer_fire": "None — preemption timer expired in guest mode",
    # KVM's periodic vLAPIC emulation (repro.hw.lapic)
    "lapic_arm": "(mode_value, expiry_abs_ns) — timer programmed",
    "lapic_disarm": "None — pending expiry cancelled",
    "lapic_fire": "(mode_value, vector_int) — timer expired",
    # Host scheduler (repro.host.kvm dispatch/preempt, overcommit only)
    "sched_dispatch": "(pcpu_index, stolen_ns) — READY wait ended; vCPU got its pCPU",
    "sched_preempt": "pcpu_index — host-tick boundary requeued this vCPU",
    # ARM generic timer (repro.hw.arm: KVM's vtimer emulation)
    "cntv_cval": "abs ns — CNTV_CVAL latched (host-time translated expiry)",
    "cntv_ctl": "0|1 — CNTV_CTL ENABLE bit written",
    # Guest kernel / tick-sched policies (repro.guest)
    "idle_enter": "None — idle loop about to halt",
    "idle_exit": "None — idle loop exiting to run a task",
    "tick_stop": "None — NohzPolicy stopped the tick (Fig. 1b)",
    "tick_restart": "None — NohzPolicy restarted the tick (Fig. 1c)",
    "tick_kept": "None — idle entry kept the tick (RCU/softirq held it)",
    "timer_program_req": "abs ns or None — kernel decided to (dis)arm deadline hw",
    # Perturbation events (repro.host.perturb via repro.host.kvm);
    # sources are the bare VM name (``vm0``), not a vCPU.
    "vm_suspend": "None — VM paused; every vCPU frozen until vm_resume",
    "vm_resume": "suspended_span_ns — VM thawed after a plain suspend/resume",
    "vm_restore": "clock_jump_ns — resume came from save/restore; guest clock jumped",
    "vcpu_hotplug": "vcpu_index — a new vCPU came online while the VM runs",
    "vcpu_unplug": "vcpu_index — a hotplugged vCPU was torn down",
    "clock_drift": "offset_ns (signed) — new total guest clock offset vs host",
}

#: Timer modes a ``lapic_arm``/``lapic_fire`` detail may carry.
LAPIC_MODES = frozenset({"oneshot", "periodic", "tsc-deadline"})

#: Valid vCPU run states (mirrors repro.host.vcpu.VcpuState values).
VCPU_STATES = frozenset({"init", "guest", "exited", "halted", "ready", "suspended", "off"})


def _is_ns(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _pair(detail: Any) -> Optional[tuple]:
    return detail if isinstance(detail, tuple) and len(detail) == 2 else None


def _validate_vmexit(d: Any) -> Optional[str]:
    p = _pair(d)
    if p is None or not all(isinstance(x, str) for x in p):
        return f"expected (reason, tag) strings, got {d!r}"
    return None


def _validate_inject(d: Any) -> Optional[str]:
    if not isinstance(d, tuple) or not d:
        return f"expected non-empty vector tuple, got {d!r}"
    if not all(isinstance(v, int) for v in d):
        return f"vectors must be ints, got {d!r}"
    return None


def _validate_vcpu_state(d: Any) -> Optional[str]:
    p = _pair(d)
    if p is None or not all(s in VCPU_STATES for s in p):
        return f"expected (old, new) state values, got {d!r}"
    return None


def _validate_abs_ns(d: Any) -> Optional[str]:
    return None if _is_ns(d) else f"expected absolute ns >= 0, got {d!r}"


def _validate_opt_ns(d: Any) -> Optional[str]:
    return None if d is None or _is_ns(d) else f"expected ns or None, got {d!r}"


def _validate_none(d: Any) -> Optional[str]:
    return None if d is None else f"expected no detail, got {d!r}"


def _validate_deadline_fire(d: Any) -> Optional[str]:
    p = _pair(d)
    if p is None or not _is_ns(p[0]) or p[1] not in ("ptimer", "host"):
        return f"expected (deadline_ns, 'ptimer'|'host'), got {d!r}"
    return None


def _validate_lapic_arm(d: Any) -> Optional[str]:
    p = _pair(d)
    if p is None or p[0] not in LAPIC_MODES or not _is_ns(p[1]):
        return f"expected (mode, expiry_ns), got {d!r}"
    return None


def _validate_lapic_fire(d: Any) -> Optional[str]:
    p = _pair(d)
    if p is None or p[0] not in LAPIC_MODES or not isinstance(p[1], int):
        return f"expected (mode, vector), got {d!r}"
    return None


def _validate_sched_dispatch(d: Any) -> Optional[str]:
    p = _pair(d)
    if p is None or not _is_ns(p[0]) or not _is_ns(p[1]):
        return f"expected (pcpu_index, stolen_ns) non-negative ints, got {d!r}"
    return None


def _validate_index(d: Any) -> Optional[str]:
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        return f"expected non-negative index, got {d!r}"
    return None


def _validate_signed_ns(d: Any) -> Optional[str]:
    if not isinstance(d, int) or isinstance(d, bool):
        return f"expected signed ns int, got {d!r}"
    return None


def _validate_ctl_bit(d: Any) -> Optional[str]:
    if not isinstance(d, int) or isinstance(d, bool) or d not in (0, 1):
        return f"expected ENABLE bit 0|1, got {d!r}"
    return None


_VALIDATORS: dict[str, Callable[[Any], Optional[str]]] = {
    "vmexit": _validate_vmexit,
    "inject": _validate_inject,
    "vcpu_state": _validate_vcpu_state,
    "deadline_set": _validate_abs_ns,
    "deadline_clear": _validate_none,
    "deadline_fire": _validate_deadline_fire,
    "hostdl_arm": _validate_abs_ns,
    "hostdl_cancel": _validate_none,
    "hostdl_fire": _validate_none,
    "ptimer_start": _validate_abs_ns,
    "ptimer_stop": _validate_none,
    "ptimer_fire": _validate_none,
    "lapic_arm": _validate_lapic_arm,
    "lapic_disarm": _validate_none,
    "lapic_fire": _validate_lapic_fire,
    "sched_dispatch": _validate_sched_dispatch,
    "sched_preempt": _validate_abs_ns,
    "cntv_cval": _validate_abs_ns,
    "cntv_ctl": _validate_ctl_bit,
    "idle_enter": _validate_none,
    "idle_exit": _validate_none,
    "tick_stop": _validate_none,
    "tick_restart": _validate_none,
    "tick_kept": _validate_none,
    "timer_program_req": _validate_opt_ns,
    "vm_suspend": _validate_none,
    "vm_resume": _validate_abs_ns,
    "vm_restore": _validate_abs_ns,
    "vcpu_hotplug": _validate_index,
    "vcpu_unplug": _validate_index,
    "clock_drift": _validate_signed_ns,
}


def validate_record(record: TraceRecord) -> Optional[str]:
    """Return an error string when ``record`` violates the schema."""
    validator = _VALIDATORS.get(record.kind)
    if validator is None:
        return f"unregistered event kind {record.kind!r}"
    err = validator(record.detail)
    return None if err is None else f"{record.kind}: {err}"


def vcpu_of(source: str) -> str:
    """Collapse sub-component sources to their owning vCPU source.

    >>> vcpu_of("vm0/vcpu1/vlapic")
    'vm0/vcpu1'
    """
    head, sep, _ = source.partition("/vlapic")
    return head if sep else source
