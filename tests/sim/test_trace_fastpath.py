"""NullTracer fast-path audit: with tracing disabled, no component may
call ``emit`` or build a detail object on the hot path.

The proof is an exploding tracer: ``enabled`` is False like NullTracer,
but ``emit`` raises. Full workload runs — including the overcommitted
and cpuidle paths, which trace the most — must complete untouched,
demonstrating every call site checks ``tracer.enabled`` first.

Also covers TeeTracer, the fan-out used to attach the sanitizer
alongside a user tracer without losing that fast path.
"""

from __future__ import annotations

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.sim.trace import NullTracer, RingTracer, TeeTracer, Tracer
from repro.sim.timebase import USEC
from repro.workloads.micro import IdlePeriodWorkload, PingPongWorkload


class ExplodingTracer(Tracer):
    """Disabled like NullTracer, but any emit call is a test failure."""

    enabled = False

    def emit(self, time, source, kind, detail=None):
        raise AssertionError(
            f"emit called with tracing disabled: {kind} from {source} "
            f"(detail={detail!r}) — an emit call site is missing its "
            f"'tracer.enabled' guard"
        )


class TestDisabledTracerDoesZeroWork:
    def test_idle_run_never_emits(self):
        run_workload(
            IdlePeriodWorkload(300 * USEC, iterations=5, work_cycles=100_000),
            tick_mode=TickMode.TICKLESS, seed=3, cpuidle=True,
            tracer=ExplodingTracer(),
        )

    @pytest.mark.parametrize("mode", list(TickMode))
    def test_all_tick_modes_never_emit(self, mode):
        run_workload(
            PingPongWorkload(rounds=40), tick_mode=mode, seed=3,
            tracer=ExplodingTracer(),
        )

    def test_overcommitted_run_never_emits(self):
        run_workload(
            PingPongWorkload(rounds=40), tick_mode=TickMode.PARATICK, seed=3,
            machine_spec=MachineSpec(sockets=1, cpus_per_socket=1),
            pinned_cpus=(0, 0), tracer=ExplodingTracer(),
        )

    def test_null_tracer_default_matches(self):
        """The default (no tracer argument) takes the same fast path."""
        a = run_workload(PingPongWorkload(rounds=40), seed=3)
        b = run_workload(PingPongWorkload(rounds=40), seed=3,
                         tracer=ExplodingTracer())
        assert a.total_cycles == b.total_cycles
        assert a.exec_time_ns == b.exec_time_ns


class TestTeeTracer:
    def test_fans_out_to_all_sinks(self):
        a, b = RingTracer(), RingTracer()
        tee = TeeTracer(a, b)
        tee.emit(1, "s", "k", (2,))
        assert len(a.records) == len(b.records) == 1
        assert a.records[0] == b.records[0]

    def test_skips_disabled_sinks(self):
        ring = RingTracer()
        tee = TeeTracer(ExplodingTracer(), ring)  # must not explode
        tee.emit(1, "s", "k")
        assert len(ring.records) == 1

    def test_enabled_iff_any_sink_enabled(self):
        assert TeeTracer(NullTracer(), RingTracer()).enabled is True
        assert TeeTracer(NullTracer()).enabled is False
        assert TeeTracer(NullTracer(), NullTracer()).enabled is False

    def test_all_disabled_tee_preserves_fast_path(self):
        """A tee of disabled sinks is itself disabled, so call sites
        skip it entirely — verified through a full run."""
        run_workload(PingPongWorkload(rounds=40), seed=3,
                     tracer=TeeTracer(ExplodingTracer(), NullTracer()))

    def test_empty_tee_rejected(self):
        with pytest.raises(ValueError):
            TeeTracer()


class TestTeeWithObsSinks:
    """The observability layer composes through TeeTracer: its sinks are
    always-on tracers, so the tee must report enabled, and the builder
    must never wrap a disabled user tracer in an enabled tee for free."""

    def test_obs_sinks_enable_the_tee(self):
        from repro.obs.steal import StealTracker

        assert TeeTracer(NullTracer(), StealTracker()).enabled is True

    def test_obs_builder_propagates_enabled(self):
        from repro.obs import ObsConfig, Observability

        on = Observability(ObsConfig(trace_export=True))
        assert on.tracer(None).enabled is True
        assert on.tracer(ExplodingTracer()).enabled is True
        off = Observability(ObsConfig(profile=False, trace_export=False))
        # No sinks: the user's disabled tracer passes through untouched,
        # keeping the zero-work fast path.
        exploding = ExplodingTracer()
        assert off.tracer(exploding) is exploding
        run_workload(PingPongWorkload(rounds=40), seed=3,
                     tracer=off.tracer(ExplodingTracer()))


class TestRingTracerUnderExporter:
    def test_ring_stream_exports_to_valid_chrome_trace(self):
        """A RingTracer's retained stream feeds the Chrome exporter and
        yields a valid trace with complete (``X``) slices."""
        from repro.sim.trace import RingTracer
        from repro.obs.export import to_chrome_trace, validate_chrome_trace

        ring = RingTracer()
        run_workload(PingPongWorkload(rounds=40), seed=3, tracer=ring)
        assert ring.records, "ring tracer saw no records"
        assert not ring.truncated
        doc = to_chrome_trace(list(ring.records))
        assert validate_chrome_trace(doc) == []
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])
