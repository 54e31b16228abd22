"""Chrome ``trace_event`` export of the simulator's event stream.

Produces the JSON Object Format of the Trace Event spec (the format
``chrome://tracing`` defined and Perfetto still loads natively): a
``traceEvents`` array of phase-tagged records with microsecond
timestamps. Loading the output in https://ui.perfetto.dev gives a
zoomable timeline of the run — one *process* track per physical CPU,
one *thread* track per vCPU, duration slices for guest residence and
exit handling, and instant markers for timer arms/fires/injections.

Mapping choices:

* ``pid`` = pCPU index, ``tid`` = a small id per source on that pCPU
  (tid 0 is the CPU-level track). ``M``-phase metadata events name
  them so Perfetto shows ``pCPU0`` / ``vm0/vcpu1`` instead of numbers.
* vCPU run-state transitions become complete (``X``) slices: a slice
  opens when a state is entered and closes on the next transition, so
  the track alternates ``guest`` / ``exited`` / ``halted`` / ``ready``
  exactly like a real scheduler track in Perfetto.
* every other event becomes an instant (``i``) event at its timestamp,
  ``args`` carrying the raw detail — nothing in the stream is dropped.
* simulated ns map to trace µs by ``ts = ns / 1000`` (float, so
  sub-µs spacing survives; the spec explicitly allows fractional ts).

:func:`validate_chrome_trace` checks the invariants Perfetto's loader
cares about, and the golden test exports Fig. 1's idle cycle and pins
the slice sequence.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.sim.trace import TraceRecord

#: trace_event phases used by the exporter.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_METADATA = "M"

#: vCPU run states rendered as duration slices (OFF ends the track).
_SLICE_STATES = frozenset({"init", "guest", "exited", "halted", "ready"})


def _ts(ns: int) -> float:
    """Simulated ns -> trace_event µs (fractional, spec-sanctioned)."""
    return ns / 1000.0


class TraceBuilder:
    """The rows of one trace_event document, in emission order.

    The one builder behind both exporters — the simulated timeline here
    and the harness timeline (:mod:`repro.telemetry.export`) — so the
    two documents share row shapes and :func:`validate_chrome_trace`.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []

    def track(self, pid: int, tid: int, name: str) -> None:
        """Name a track: tid 0 names the process, any other a thread."""
        self.events.append({
            "ph": _PH_METADATA, "name": "thread_name" if tid else "process_name",
            "pid": pid, "tid": tid, "args": {"name": name},
        })

    def slice(self, name: str, cat: str, pid: int, tid: int, ts_ns: int,
              dur_ns: int, args: Optional[dict] = None) -> None:
        """A complete (``X``) slice ``[ts_ns, ts_ns + dur_ns)``."""
        ev = {"ph": _PH_COMPLETE, "name": name, "cat": cat, "pid": pid,
              "tid": tid, "ts": _ts(ts_ns), "dur": _ts(dur_ns)}
        if args is not None:
            ev["args"] = args
        self.events.append(ev)

    def instant(self, name: str, cat: str, pid: int, tid: int, ts_ns: int,
                args: dict) -> None:
        """A thread-scoped instant (``i``) event."""
        self.events.append({
            "ph": _PH_INSTANT, "name": name, "cat": cat, "s": "t",
            "pid": pid, "tid": tid, "ts": _ts(ts_ns), "args": args,
        })

    def document(self, **other_data) -> dict:
        return {"traceEvents": self.events, "displayTimeUnit": "ns",
                "otherData": other_data}


class _Track:
    """One (pid, tid) lane plus its open state slice, if any."""

    __slots__ = ("pid", "tid", "open_since_ns", "open_state")

    def __init__(self, pid: int, tid: int) -> None:
        self.pid = pid
        self.tid = tid
        self.open_since_ns: Optional[int] = None
        self.open_state: Optional[str] = None


def to_chrome_trace(
    records: Iterable[TraceRecord],
    *,
    pcpu_of: Optional[dict[str, int]] = None,
    end_ns: Optional[int] = None,
) -> dict:
    """Convert a trace-record stream to a Chrome trace_event document.

    ``pcpu_of`` maps a vCPU source (``vm0/vcpu1``) to its physical CPU
    index; unmapped sources land on pid 0. ``end_ns`` closes any still
    open state slice at the run horizon (otherwise it is dropped, as
    the spec has no "unfinished" phase for the object format).
    """
    pcpu_of = pcpu_of or {}
    trace = TraceBuilder()
    tracks: dict[str, _Track] = {}
    next_tid: dict[int, int] = {}
    last_ts_ns = 0

    def track_for(source: str) -> _Track:
        track = tracks.get(source)
        if track is not None:
            return track
        pid = pcpu_of.get(source.split("/vlapic")[0], 0)
        if pid not in next_tid:
            trace.track(pid, 0, f"pCPU{pid}")
            next_tid[pid] = 1
        tid = next_tid[pid]
        next_tid[pid] = tid + 1
        track = tracks[source] = _Track(pid, tid)
        trace.track(pid, tid, source)
        return track

    def close_slice(track: _Track, at_ns: int) -> None:
        if track.open_since_ns is None:
            return
        trace.slice(track.open_state, "vcpu_state", track.pid, track.tid,
                    track.open_since_ns, at_ns - track.open_since_ns)
        track.open_since_ns = None
        track.open_state = None

    for rec in records:
        last_ts_ns = max(last_ts_ns, rec.time)
        track = track_for(rec.source)
        if rec.kind == "vcpu_state" and isinstance(rec.detail, tuple):
            _, new = rec.detail
            close_slice(track, rec.time)
            if new in _SLICE_STATES:
                track.open_since_ns = rec.time
                track.open_state = new
            continue
        args = {}
        if rec.detail is not None:
            args["detail"] = rec.detail if isinstance(rec.detail, (int, str)) else list(rec.detail)
        cat = ("timer" if "timer" in rec.kind or "deadline" in rec.kind
               or "lapic" in rec.kind or "ptimer" in rec.kind else "event")
        trace.instant(rec.kind, cat, track.pid, track.tid, rec.time, args)

    horizon = end_ns if end_ns is not None else last_ts_ns
    for track in tracks.values():
        close_slice(track, max(horizon, track.open_since_ns or 0))

    return trace.document(generator="repro.obs.export", clock="simulated")


def write_chrome_trace(doc: dict, path: str) -> None:
    """Validate ``doc`` (:func:`validate_chrome_trace`), then write it;
    a document that fails raises ValueError and writes nothing."""
    errors = validate_chrome_trace(doc)
    if errors:
        raise ValueError(f"exported trace failed validation: {errors[:3]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))


def slice_names(doc: dict, source: str) -> list[str]:
    """Ordered slice names on ``source``'s track (golden-test helper)."""
    tid_of: dict[tuple[int, int], str] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == _PH_METADATA and ev.get("name") == "thread_name":
            tid_of[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    out = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") == _PH_COMPLETE and tid_of.get((ev["pid"], ev["tid"])) == source:
            out.append((ev["ts"], ev["name"]))
    return [name for _, name in sorted(out, key=lambda p: p[0])]


def validate_chrome_trace(doc: dict) -> list[str]:
    """Schema checks mirroring what Perfetto's JSON importer requires.

    Returns a list of violations (empty == loadable). Checked: the
    top-level shape, per-phase required keys, non-negative fractional
    timestamps, and that every (pid, tid) with events carries both
    ``process_name`` and ``thread_name`` metadata (tid 0 process rows
    excepted — they exist only to name the pid).
    """
    errors: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    named_pids: set[int] = set()
    named_tids: set[tuple[int, int]] = set()
    used_tids: set[tuple[int, int]] = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in (_PH_COMPLETE, _PH_INSTANT, _PH_METADATA):
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            errors.append(f"event {i}: pid/tid must be ints")
            continue
        if ph == _PH_METADATA:
            if ev.get("name") == "process_name":
                named_pids.add(ev["pid"])
            elif ev.get("name") == "thread_name":
                named_tids.add((ev["pid"], ev["tid"]))
            else:
                errors.append(f"event {i}: unknown metadata {ev.get('name')!r}")
            if not isinstance(ev.get("args", {}).get("name"), str):
                errors.append(f"event {i}: metadata needs args.name")
            continue
        used_tids.add((ev["pid"], ev["tid"]))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {i}: bad ts {ts!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"event {i}: missing name")
        if ph == _PH_COMPLETE:
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: complete event needs dur >= 0, got {dur!r}")
        if ph == _PH_INSTANT and ev.get("s") not in ("t", "p", "g"):
            errors.append(f"event {i}: instant scope must be t/p/g")
    for pid, tid in sorted(used_tids):
        if pid not in named_pids:
            errors.append(f"pid {pid}: events but no process_name metadata")
        if (pid, tid) not in named_tids:
            errors.append(f"pid {pid} tid {tid}: events but no thread_name metadata")
    return errors
