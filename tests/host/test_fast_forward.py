"""The executor's fast-forward path is invisible to behaviour.

Continuations the vCPU executor reaches in tail position (a compute's
completion, an exit's handler end, a VM entry's end) run inline when
:meth:`Simulator.advance_to` proves no other event could run first.
Every cell here runs twice, as is and with ``advance_to`` patched to
refuse, and must give the same result bytes, the same trace record
stream and the same number of modelled events
(``dispatched + fast_forwarded``).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import HostFeatures, TickMode
from repro.experiments.parallel import (
    OVERCOMMIT_IDLE,
    RunSpec,
    WorkloadSpec,
    execute_spec_full,
)
from repro.experiments.scenarios import MEDIUM, pins_for_size
from repro.fleet.spec import FleetSpec
from repro.guest import ops as gops
from repro.guest.task import PageFault, Run, Task
from repro.host.costs import DEFAULT_COSTS
from repro.host.perturb import Perturbation
from repro.hw.cpu import CycleDomain
from repro.scenarios.runcheck import canonical_result_bytes
from repro.sim.engine import Simulator
from repro.sim.timebase import MSEC, SEC, USEC
from repro.sim.trace import RingTracer
from tests.integration.helpers import build_stack

REPO_ROOT = Path(__file__).resolve().parents[2]

_IDLEPERIOD = WorkloadSpec.make(
    "micro.idleperiod", idle_ns=500 * USEC, iterations=30, work_cycles=100_000
)
_PINGPONG = WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=30_000,
                              same_vcpu=False)

CELLS = {
    "fio-read": RunSpec(
        WorkloadSpec.make("fio", category="seqr", block_size=4096, total_bytes=256 << 10),
        tick_mode=TickMode.PARATICK, seed=1),
    "fio-write": RunSpec(
        WorkloadSpec.make("fio", category="rndwr", block_size=16384, total_bytes=256 << 10),
        tick_mode=TickMode.TICKLESS, seed=2),
    "streamcluster-16": RunSpec(
        WorkloadSpec.make("parsec", name="streamcluster", threads=MEDIUM.vcpus,
                          target_cycles=2_000_000),
        tick_mode=TickMode.PARATICK, pinned_cpus=pins_for_size(MEDIUM), seed=3),
    **{
        f"idle-{mode.value}": RunSpec(
            WorkloadSpec.make("micro.idle", vcpus=2), tick_mode=mode, noise=False,
            horizon_ns=40 * MSEC, seed=4)
        for mode in TickMode
    },
    "w2-overcommit": RunSpec(
        WorkloadSpec.make(OVERCOMMIT_IDLE, vms=2, vcpus_per_vm=2, pcpus=1,
                          duration_ns=40 * MSEC),
        tick_mode=TickMode.PERIODIC, seed=5),
    "halt-poll": RunSpec(
        _PINGPONG, tick_mode=TickMode.TICKLESS, seed=6,
        features=HostFeatures(halt_poll_ns=20_000)),
    "arm": RunSpec(
        WorkloadSpec.make("micro.syncstorm", threads=2, events_per_second=800.0,
                          duration_cycles=10_000_000),
        tick_mode=TickMode.PARATICK, arch="arm", seed=7),
    "suspend-restore": RunSpec(
        _IDLEPERIOD, tick_mode=TickMode.PARATICK, seed=8, cpuidle=True,
        perturbations=(
            Perturbation("suspend", at_ns=2 * MSEC, duration_ns=2 * MSEC),
            Perturbation("restore", at_ns=7 * MSEC, duration_ns=3 * MSEC),
        )),
    "fleet-host": FleetSpec(
        name="ff-fleet", workload=_PINGPONG, tick_mode=TickMode.PARATICK, hosts=2,
        guests_per_host=4, consolidation=4, burst="poisson",
        burst_window_ns=2 * MSEC, seed=9, horizon_ns=400 * MSEC,
    ).host_spec(1),
}


def _refuse(self, time):
    return False


def _run_cell(spec: RunSpec) -> tuple[bytes, list, dict]:
    tracer = RingTracer(capacity=1_000_000)
    seen = {}

    def inspect(sim, *_):
        seen["dispatched"] = sim.dispatched
        seen["fast_forwarded"] = sim.fast_forwarded

    result = execute_spec_full(spec, tracer=tracer, inspect=inspect)[0]
    assert tracer.dropped == 0
    return canonical_result_bytes(result), list(tracer.records), seen


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fast_forward_is_invisible(name, monkeypatch):
    spec = CELLS[name]
    fast_bytes, fast_trace, fast = _run_cell(spec)
    monkeypatch.setattr(Simulator, "advance_to", _refuse)
    slow_bytes, slow_trace, slow = _run_cell(spec)
    assert slow["fast_forwarded"] == 0
    assert fast["fast_forwarded"] > 0
    assert fast_bytes == slow_bytes
    assert fast_trace == slow_trace
    assert fast["dispatched"] + fast["fast_forwarded"] == slow["dispatched"]


def _compute(cycles, on_done=None):
    return gops.Compute(cycles, CycleDomain.GUEST_KERNEL, on_done=on_done)


@pytest.mark.parametrize("fast_forward", [True, False])
class TestChainLimits:
    def _stack(self, fast_forward, monkeypatch):
        if not fast_forward:
            monkeypatch.setattr(Simulator, "advance_to", _refuse)
        return build_stack()

    def test_run_until_is_never_passed(self, fast_forward, monkeypatch):
        sim, machine, hv, vm, kernel = self._stack(fast_forward, monkeypatch)
        op = _compute(4_000_000)  # ~2 ms at the default clock
        kernel.requeue_front(0, op)
        hv.start()
        assert sim.run(until=MSEC) == MSEC
        assert sim.now == MSEC
        execu = vm.vcpus[0].exec
        assert execu._cur_op is op
        assert execu._cur_start + execu._cur_dur > MSEC

    def test_stop_in_on_done_ends_the_chain(self, fast_forward, monkeypatch):
        sim, machine, hv, vm, kernel = self._stack(fast_forward, monkeypatch)
        done = []

        def first():
            done.append(("first", sim.now))
            sim.stop()

        kernel.requeue_front(0, _compute(1_000, lambda: done.append(("second", sim.now))))
        kernel.requeue_front(0, _compute(1_000, first))
        hv.start()
        stopped_at = sim.run(until=10 * MSEC)
        assert done == [("first", stopped_at)]
        sim.run(until=10 * MSEC)
        assert [name for name, _ in done] == ["first", "second"]
        assert done[1][1] > stopped_at


def _fault_storm() -> tuple[list, dict, int, int]:
    """A 1-vCPU VM whose task takes 10k back-to-back EPT exits.

    Paratick arms no guest deadline while the task runs, and with cheap
    exits thousands fit between two host ticks: their handler and entry
    ends run inline, one after another, from one op loop. A recursive
    inline path would nest a few frames per exit and overflow the stack.
    """
    cheap = DEFAULT_COSTS.with_overrides(pollution=1_000, handler_ept=1_000)
    sim, machine, hv, vm, kernel = build_stack(tick_mode=TickMode.PARATICK, costs=cheap)
    tracer = RingTracer(capacity=1_000_000)
    sim.trace = tracer

    def body():
        yield Run(10_000)
        yield PageFault(count=10_000)
        yield Run(10_000)

    task = Task("faulter", body(), affinity=0)
    kernel.add_task(task)
    hv.start()
    sim.run(until=SEC)
    assert task.finished_ns is not None
    return (list(tracer.records), vm.counters.to_dict(),
            sim.dispatched + sim.fast_forwarded, sim.fast_forwarded)


def test_back_to_back_exits_do_not_recurse(monkeypatch):
    fast_trace, fast_exits, fast_events, forwarded = _fault_storm()
    assert forwarded >= 2 * 10_000
    monkeypatch.setattr(Simulator, "advance_to", _refuse)
    slow_trace, slow_exits, slow_events, _ = _fault_storm()
    assert fast_exits == slow_exits
    assert fast_trace == slow_trace
    assert fast_events == slow_events


def _load_bench_suite():
    path = REPO_ROOT / "benchmarks" / "bench_suite.py"
    spec = importlib.util.spec_from_file_location("bench_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bench", ["syncstorm_smoke", "fleet_host_smoke"])
def test_bench_ops_count_modelled_events(bench):
    """The end-to-end benches' ``ops`` (dispatched + fast-forwarded) is
    the committed baseline's count, so ``model_overhead`` keeps its unit."""
    suite = _load_bench_suite()
    seen = {}
    getattr(suite, f"run_{bench}")(lambda sim, *_: seen.update(sim=sim))
    sim = seen["sim"]
    baseline = json.loads((REPO_ROOT / "BENCH_simcore.json").read_text())
    assert sim.fast_forwarded > 0
    assert sim.dispatched + sim.fast_forwarded == baseline["benches"][bench]["ops"]
