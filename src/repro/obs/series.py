"""Deterministic in-sim time series: windowed metrics over sim time.

A run's final :class:`~repro.metrics.perf.RunMetrics` says *how much*
steal or halt residency accrued; it cannot say *when*. This module
derives, purely from the structured trace stream, a windowed series
over **simulated** time — per-interval VM exits, steal ns, halt
residency ns, and the tick-delivery latency distribution — so a burst
profile's shape is visible, not just its integral.

Determinism and exactness are the contract:

* the recorder consumes only trace events, never wall-clock, so the
  same run always yields the byte-identical series (it is cached as
  the ``"series"`` key of the run's cache entry);
* interval quantities (steal, halt) are split across window boundaries
  with exact integer arithmetic — the sum over windows equals the
  un-windowed total *to the nanosecond*;
* the per-episode semantics mirror the runtime counters exactly:
  steal counts dispatch-**closed** READY waits (the
  :class:`~repro.obs.steal.StealTracker` contract) and halt residency
  counts **closed** halted-state spans (the
  ``VCpu.total_halted_ns`` accounting edge), so
  :func:`reconcile_series` can demand equality with the run's final
  RunMetrics, not approximation.

Tick-delivery latency follows the
:class:`~repro.obs.histograms.LatencyRecorder` pairing rules
(``deadline_fire``/``lapic_fire`` opens, a tick-vector ``inject``
closes) and lands in the window of the closing inject.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.hw.interrupts import Vector
from repro.obs.histograms import Log2Histogram
from repro.sim.timebase import MSEC
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.perf import RunMetrics

#: Default window width: 10 simulated ms (a 60 s default-horizon run
#: yields 6000 windows; sparse storage keeps quiet runs small).
DEFAULT_WINDOW_NS = 10 * MSEC

#: Vectors that carry a guest tick (matches the LatencyRecorder).
_TICK_VECTORS = frozenset({int(Vector.LOCAL_TIMER), int(Vector.PARATICK_VIRTUAL_TICK)})

#: Interval fields accumulated with window splitting.
_INTERVAL_FIELDS = ("steal_ns", "halted_ns")


class _Window:
    """Accumulators for one window (created on first touch)."""

    __slots__ = ("exits", "steal_ns", "halted_ns", "tick")

    def __init__(self) -> None:
        self.exits = 0
        self.steal_ns = 0
        self.halted_ns = 0
        self.tick: Optional[Log2Histogram] = None

    def tick_hist(self) -> Log2Histogram:
        if self.tick is None:
            self.tick = Log2Histogram()
        return self.tick


class SeriesRecorder(Tracer):
    """Streams trace events into sparse per-window accumulators."""

    enabled = True

    def __init__(self, window_ns: int = DEFAULT_WINDOW_NS) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = window_ns
        self.end_ns = 0
        self._windows: dict[int, _Window] = {}
        #: source -> ns when it entered READY (open steal interval).
        self._ready_since: dict[str, int] = {}
        #: source -> ns when it entered HALTED (open halt interval).
        self._halted_since: dict[str, int] = {}
        #: source -> fire time of a not-yet-injected guest tick.
        self._open_tick: dict[str, int] = {}

    # ------------------------------------------------------------ recording

    def _window(self, index: int) -> _Window:
        w = self._windows.get(index)
        if w is None:
            w = self._windows[index] = _Window()
        return w

    def _spread(self, t0: int, t1: int, field: str) -> None:
        """Add the interval ``[t0, t1)`` to ``field``, split exactly at
        window boundaries (integer arithmetic; parts sum to t1-t0)."""
        if t1 <= t0:
            return
        wn = self.window_ns
        i = t0 // wn
        last = (t1 - 1) // wn
        while i <= last:
            lo = max(t0, i * wn)
            hi = min(t1, (i + 1) * wn)
            w = self._window(i)
            setattr(w, field, getattr(w, field) + (hi - lo))
            i += 1

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        if kind == "vmexit":
            self._window(time // self.window_ns).exits += 1
        elif kind == "vcpu_state":
            if not (isinstance(detail, tuple) and len(detail) == 2):
                return
            old, new = detail
            if new == "ready":
                self._ready_since[source] = time
            elif old == "ready":
                t0 = self._ready_since.pop(source, None)
                if t0 is not None:
                    self._spread(t0, time, "steal_ns")
            if new == "halted":
                self._halted_since[source] = time
            elif old == "halted":
                t0 = self._halted_since.pop(source, None)
                if t0 is not None:
                    self._spread(t0, time, "halted_ns")
        elif kind == "deadline_fire":
            if isinstance(detail, tuple) and len(detail) == 2 and isinstance(detail[0], int):
                self._open_tick[source] = time
        elif kind == "lapic_fire":
            from repro.analysis.events import vcpu_of

            self._open_tick[vcpu_of(source)] = time
        elif kind == "inject":
            if isinstance(detail, tuple) and not _TICK_VECTORS.isdisjoint(detail):
                t0 = self._open_tick.pop(source, None)
                if t0 is not None:
                    self._window(time // self.window_ns).tick_hist().record(time - t0)

    def finalize(self, end_ns: int) -> None:
        """Record the run horizon. Open steal/halt intervals are left
        unclosed on purpose: the runtime counters exclude them too, and
        the reconciliation demands exact agreement."""
        self.end_ns = end_ns

    # ------------------------------------------------------------- readouts

    def totals(self) -> dict[str, int]:
        """Sums over all windows (what reconciliation compares)."""
        out = {"exits": 0, "steal_ns": 0, "halted_ns": 0,
               "tick_count": 0, "tick_total_ns": 0}
        for w in self._windows.values():
            out["exits"] += w.exits
            out["steal_ns"] += w.steal_ns
            out["halted_ns"] += w.halted_ns
            if w.tick is not None:
                out["tick_count"] += w.tick.count
                out["tick_total_ns"] += w.tick.total
        return out

    def to_json_dict(self) -> dict:
        """The series artifact schema (version 1)."""
        windows = []
        for i in sorted(self._windows):
            w = self._windows[i]
            entry: dict[str, Any] = {
                "index": i,
                "start_ns": i * self.window_ns,
                "exits": w.exits,
                "steal_ns": w.steal_ns,
                "halted_ns": w.halted_ns,
            }
            if w.tick is not None and w.tick.count:
                entry["tick_deliver"] = {
                    "count": w.tick.count,
                    "total_ns": w.tick.total,
                    "max_ns": w.tick.max,
                    "p95_ns": w.tick.percentile(95),
                    "p99_ns": w.tick.percentile(99),
                }
            windows.append(entry)
        return {
            "version": 1,
            "window_ns": self.window_ns,
            "end_ns": self.end_ns,
            "windows": windows,
            "totals": self.totals(),
        }


def series_totals(series: dict) -> dict[str, int]:
    """Recompute totals from a serialized series' window list."""
    out = {"exits": 0, "steal_ns": 0, "halted_ns": 0,
           "tick_count": 0, "tick_total_ns": 0}
    for w in series.get("windows", []):
        out["exits"] += int(w.get("exits", 0))
        out["steal_ns"] += int(w.get("steal_ns", 0))
        out["halted_ns"] += int(w.get("halted_ns", 0))
        tick = w.get("tick_deliver")
        if tick:
            out["tick_count"] += int(tick.get("count", 0))
            out["tick_total_ns"] += int(tick.get("total_ns", 0))
    return out


def reconcile_series(series: dict, metrics: "RunMetrics") -> list[str]:
    """Demand exact agreement between a series and the run's RunMetrics.

    Three equalities, all to-the-nanosecond (no tolerance):

    * window exits sum == ``metrics.total_exits`` (the
      :func:`repro.analysis.reconcile.reconcile_exits` guarantee lifts
      trace-counted exits to counter-counted exits);
    * window steal sum == ``metrics.extra["steal_ns"]`` (both count
      dispatch-closed READY waits);
    * window halt sum == ``metrics.extra["halted_ns"]`` (both count
      closed halted spans; open halts at the horizon excluded by both).

    Plus internal consistency: the stored ``totals`` object matches the
    windows it summarizes, and no window starts past ``end_ns``.

    Note: runs that *unplug* vCPUs retire counters in ways the trace
    stream mirrors 1:1 today, but the equalities are only asserted for
    the unperturbed runs the golden/CI batteries use.
    """
    errors: list[str] = []
    recomputed = series_totals(series)
    stored = series.get("totals", {})
    for k, v in recomputed.items():
        if int(stored.get(k, 0)) != v:
            errors.append(f"totals[{k!r}] = {stored.get(k)} != window sum {v}")
    end_ns = int(series.get("end_ns", 0))
    for w in series.get("windows", []):
        if end_ns and int(w.get("start_ns", 0)) >= end_ns:
            errors.append(f"window {w.get('index')} starts at "
                          f"{w.get('start_ns')} ns, past end {end_ns} ns")
    if recomputed["exits"] != metrics.total_exits:
        errors.append(f"series exits {recomputed['exits']} != "
                      f"RunMetrics total_exits {metrics.total_exits}")
    run_steal = int(metrics.extra.get("steal_ns", 0))
    if recomputed["steal_ns"] != run_steal:
        errors.append(f"series steal {recomputed['steal_ns']} ns != "
                      f"RunMetrics steal_ns {run_steal} ns")
    run_halt = int(metrics.extra.get("halted_ns", 0))
    if recomputed["halted_ns"] != run_halt:
        errors.append(f"series halt {recomputed['halted_ns']} ns != "
                      f"RunMetrics halted_ns {run_halt} ns")
    return errors
