"""Virtual-``perf``: the simulator's observability subsystem.

The paper's evaluation (§6) leans on three host-side tools — ``perf``
for cycle attribution, scheduler stats for steal, and ftrace for event
timelines. This package rebuilds those tools *inside* the simulator,
consuming the two signal sources every run already produces:

* the **cycle ledger** (:meth:`repro.hw.cpu.PhysicalCPU.account`),
  observed by the :class:`~repro.obs.profiler.SamplingProfiler`;
* the **structured trace stream** (:class:`repro.sim.trace.Tracer`),
  fanned out to the :class:`~repro.obs.steal.StealTracker`, the
  :class:`~repro.obs.histograms.LatencyRecorder` and a
  :class:`~repro.sim.trace.RingTracer` feeding Chrome-trace export
  (:mod:`repro.obs.export`).

Nothing here schedules simulator events or mutates model state, so a
run's simulated results are bit-identical with observability on or
off; and everything rides behind the existing ``tracer.enabled`` /
``observer is None`` fast paths, so a NullTracer run with no
:class:`Observability` attached does zero profiling work (asserted by
the exploding-tracer tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.export import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.histograms import HistogramRegistry, LatencyRecorder, Log2Histogram
from repro.obs.profiler import DEFAULT_SAMPLE_PERIOD_NS, SamplingProfiler
from repro.obs.series import DEFAULT_WINDOW_NS, SeriesRecorder, reconcile_series
from repro.obs.steal import StealTracker, runtime_steal_summary
from repro.sim.trace import RingTracer, TeeTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.kvm import Hypervisor
    from repro.hw.cpu import Machine
    from repro.sim.engine import Simulator

__all__ = [
    "ObsConfig",
    "Observability",
    "SamplingProfiler",
    "StealTracker",
    "SeriesRecorder",
    "reconcile_series",
    "DEFAULT_WINDOW_NS",
    "LatencyRecorder",
    "HistogramRegistry",
    "Log2Histogram",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "runtime_steal_summary",
    "DEFAULT_SAMPLE_PERIOD_NS",
]


#: Records the trace-export ring retains; an export from a ring that
#: overflowed is refused rather than silently partial.
RING_CAPACITY = 1_000_000


@dataclass(frozen=True)
class ObsConfig:
    """What to collect. The profile defaults on; trace retention, whose
    memory cost scales with run length, and the series default off."""

    #: The virtual-perf profile: the sampling profiler, the latency
    #: histograms and steal accounting, collected together.
    profile: bool = True
    sample_period_ns: int = DEFAULT_SAMPLE_PERIOD_NS
    #: Retain the raw event stream (up to :data:`RING_CAPACITY` records)
    #: for Chrome-trace export.
    trace_export: bool = False
    #: Windowed in-sim time series (exits / steal / halt / tick tail
    #: latency per :data:`~repro.obs.series.DEFAULT_WINDOW_NS` of
    #: simulated time; see :mod:`repro.obs.series`). A distinct
    #: artifact (the ``"series"`` key of a cache entry), not part of
    #: :meth:`Observability.to_json_dict`.
    series: bool = False


class Observability:
    """One run's worth of virtual-perf collectors, wired as a unit.

    Usage (what ``run_workload(obs=...)`` does internally)::

        obs = Observability(ObsConfig(trace_export=True))
        sim = Simulator(tracer=obs.tracer())
        ...build machine/hv...
        obs.install(machine, hv)
        sim.run(...)
        obs.finalize(sim, machine, hv)
        doc = obs.chrome_trace()
    """

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        profile = self.config.profile
        self.profiler = SamplingProfiler(self.config.sample_period_ns) if profile else None
        self.latency = LatencyRecorder() if profile else None
        self.steal = StealTracker() if profile else None
        self.ring = RingTracer(RING_CAPACITY) if self.config.trace_export else None
        self.series = SeriesRecorder() if self.config.series else None
        self.elapsed_ns = 0
        self._pcpu_of: dict[str, int] = {}
        self._finalized = False

    # -------------------------------------------------------------- wiring

    def tracer(self, user_tracer: Optional[Tracer] = None) -> Optional[Tracer]:
        """The tracer to hand the simulator: obs sinks + the user's.

        Returns ``user_tracer`` unchanged (possibly None) when no obs
        sink needs the event stream — the NullTracer fast path must not
        be defeated by an enabled-but-empty tee.
        """
        sinks: list[Tracer] = [
            s for s in (self.latency, self.steal, self.ring, self.series) if s is not None
        ]
        if not sinks:
            return user_tracer
        if user_tracer is not None:
            sinks.append(user_tracer)
        return sinks[0] if len(sinks) == 1 else TeeTracer(*sinks)

    def install(self, machine: "Machine", hv: "Hypervisor") -> None:
        """Attach the ledger observer (call once hv exists, before run)."""
        if self.profiler is not None:
            self.profiler.install(machine, hv)

    def finalize(self, sim: "Simulator", machine: "Machine", hv: "Hypervisor") -> None:
        """Capture end-of-run context the collectors cannot see alone."""
        self.elapsed_ns = sim.now
        self._pcpu_of = {
            f"{vcpu.vm_name}/vcpu{vcpu.index}": vcpu.pcpu.index
            for vm in hv.vms
            for vcpu in vm.vcpus
        }
        if self.profiler is not None:
            self.profiler.uninstall()
        if self.series is not None:
            self.series.finalize(sim.now)
        self._finalized = True

    # ------------------------------------------------------------- readouts

    def chrome_trace(self) -> dict:
        """Chrome trace_event document from the retained event stream."""
        if self.ring is None:
            raise ValueError("trace export not enabled in ObsConfig")
        if self.ring.truncated:
            raise ValueError(
                f"ring dropped {self.ring.dropped} records past its "
                f"{RING_CAPACITY:,}-record capacity "
                "(an exported trace must cover the whole run, not a suffix)"
            )
        return to_chrome_trace(
            self.ring.records, pcpu_of=self._pcpu_of, end_ns=self.elapsed_ns or None
        )

    def series_json(self) -> dict:
        """The windowed time-series document (a cache entry's ``"series"``).

        Deliberately *not* merged into :meth:`to_json_dict`: the
        virtual-perf document (``perf --json``) keeps its own schema.
        """
        if self.series is None:
            raise ValueError("series not enabled in ObsConfig")
        return self.series.to_json_dict()

    def to_json_dict(self) -> dict:
        out: dict = {"elapsed_ns": self.elapsed_ns}
        if self.profiler is not None:
            out["profile"] = self.profiler.to_json_dict()
        if self.latency is not None:
            out["latency"] = self.latency.to_json_dict()
        if self.steal is not None:
            out["steal"] = self.steal.to_json_dict()
        if self.ring is not None:
            out["trace_records"] = len(self.ring.records)
            out["trace_dropped"] = self.ring.dropped
        return out
