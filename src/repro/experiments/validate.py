"""Quick self-validation battery (`python -m repro validate`).

Runs a fast subset of the reproduction's load-bearing invariants so a
user can confirm an installation behaves before launching the full
benchmark suite (~1 minute instead of ~20).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import TickMode
from repro.core.model import TABLE1_PAPER, table1_row
from repro.experiments.runner import run_comparison, run_workload
from repro.sim.timebase import SEC
from repro.workloads.micro import IdleWorkload, PingPongWorkload, SyncStormWorkload


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        return CheckResult(name, True, fn())
    except AssertionError as e:
        return CheckResult(name, False, str(e))


def check_table1() -> str:
    for w, paper in TABLE1_PAPER.items():
        got = table1_row(w)
        assert got == paper, f"{w}: {got} != paper {paper}"
    return "all four rows exact"


def check_determinism() -> str:
    def fp():
        m = run_workload(PingPongWorkload(rounds=100), seed=13)
        return (m.exec_time_ns, m.total_exits, m.total_cycles)

    a, b = fp(), fp()
    assert a == b, f"{a} != {b}"
    return f"bit-identical runs (exits={a[1]})"


def check_idle_quiet() -> str:
    m = run_workload(IdleWorkload(vcpus=4), tick_mode=TickMode.TICKLESS,
                     noise=False, horizon_ns=SEC // 2)
    assert m.total_exits < 60, f"{m.total_exits} exits on an idle tickless VM"
    p = run_workload(IdleWorkload(vcpus=4), tick_mode=TickMode.PERIODIC,
                     noise=False, horizon_ns=SEC // 2)
    assert p.total_exits > 400, f"periodic idle VM too quiet ({p.total_exits})"
    return f"tickless idle {m.total_exits} exits vs periodic {p.total_exits}"


def check_paratick_wins_sync() -> str:
    wl = SyncStormWorkload(threads=4, events_per_second=3000.0, duration_cycles=120_000_000)
    comp, base, cand = run_comparison(wl, seed=5)
    assert comp.vm_exits < -0.15, f"exits only {comp.vm_exits:+.1%}"
    assert comp.throughput > 0.0, f"throughput {comp.throughput:+.1%}"
    assert cand.timer_exits <= base.timer_exits, "§4.2 guarantee violated"
    return f"exits {comp.vm_exits:+.1%}, throughput {comp.throughput:+.1%}"


def check_sanitizer() -> str:
    """All three tick modes run sanitizer-clean on a blocking workload,
    and the trace reconciles against counters, the cycle ledger and the
    runtime steal accounting."""
    from repro.config import MachineSpec
    from repro.experiments.parallel import RunSpec, WorkloadSpec
    from repro.scenarios.runcheck import sanitized_run

    events = 0
    for mode in TickMode:
        _, sanitizer, bad = sanitized_run(RunSpec(
            WorkloadSpec.make("micro.pingpong", rounds=150), tick_mode=mode, seed=7,
            machine=MachineSpec(sockets=1, cpus_per_socket=4), pinned_cpus=(0, 1),
        ))
        assert not bad, f"{mode.value}: {bad[:3]}"
        assert sanitizer.events > 0, f"{mode.value}: no trace events seen"
        events += sanitizer.events
    return f"3 modes clean ({events} events checked)"


def check_fuzz_seed() -> str:
    """One full differential fuzz cell (seed 0) stays clean."""
    from repro.analysis.fuzz import fuzz_seed

    report = fuzz_seed(0)
    assert report.ok, report.problems[:3]
    return f"seed 0: {report.runs} runs, {report.events} events, 0 violations"


def check_observability(artifacts_dir=None) -> str:
    """The virtual-perf stack, end to end on an overcommitted run:
    sample counts reconcile exactly with the cycle ledger, steal
    reconciles against the runtime counters and the busy timeline, and
    the exported Chrome trace passes schema validation.

    With ``artifacts_dir``, the exported trace and collapsed-stack
    profile are written there (CI uploads them as workflow artifacts).
    """
    from repro.config import MachineSpec
    from repro.obs import ObsConfig, Observability
    from repro.obs.export import validate_chrome_trace, write_chrome_trace

    mspec = MachineSpec(sockets=1, cpus_per_socket=1)
    obs = Observability(ObsConfig(trace_export=True))
    internals: dict = {}

    def inspect(sim, machine, hv, vm) -> None:
        internals["machine"], internals["now"] = machine, sim.now
        internals["hv"] = hv

    m = run_workload(
        PingPongWorkload(rounds=150), tick_mode=TickMode.TICKLESS, seed=7,
        machine_spec=mspec, pinned_cpus=(0, 0), obs=obs, inspect=inspect,
    )
    machine, hv, now = internals["machine"], internals["hv"], internals["now"]
    for cpu in machine.cpus:
        want = cpu.busy_ns() // obs.profiler.period_ns
        got = obs.profiler.samples_on(cpu.index)
        assert got == want, f"pCPU{cpu.index}: {got} samples, ledger says {want}"
    assert m.steal_ns > 0, "overcommitted ping-pong produced no steal"
    bad = obs.steal.reconcile_runtime(hv)
    bad += obs.steal.reconcile_timeline(machine, now)
    assert not bad, bad[:3]
    doc = obs.chrome_trace()
    errors = validate_chrome_trace(doc)
    assert not errors, errors[:3]
    if artifacts_dir is not None:
        import os

        os.makedirs(artifacts_dir, exist_ok=True)
        write_chrome_trace(doc, os.path.join(artifacts_dir, "pingpong.trace.json"))
        with open(os.path.join(artifacts_dir, "pingpong.collapsed"), "w") as fh:
            fh.write("\n".join(obs.profiler.collapsed()) + "\n")
    return (
        f"{obs.profiler.total_samples} samples ledger-exact, "
        f"steal {m.steal_ns / 1e6:.2f} ms reconciled, "
        f"{len(doc['traceEvents'])} trace events valid"
    )


ALL_CHECKS = (
    ("Table 1 closed forms", check_table1),
    ("determinism", check_determinism),
    ("idle VM behaviour", check_idle_quiet),
    ("paratick vs tickless on blocking sync", check_paratick_wins_sync),
    ("tick sanitizer battery", check_sanitizer),
    ("differential fuzz (seed 0)", check_fuzz_seed),
    ("virtual-perf observability", check_observability),
)


def run_all(artifacts_dir=None) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        if fn is check_observability:
            results.append(_check(name, lambda: check_observability(artifacts_dir)))
        else:
            results.append(_check(name, fn))
    return results
