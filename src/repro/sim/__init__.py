"""Discrete-event simulation substrate.

Integer-nanosecond event engine with deterministic RNG streams, tracing
and online statistics. This layer is
domain-agnostic: the virtualization model (:mod:`repro.hw`,
:mod:`repro.host`, :mod:`repro.guest`) is built entirely on top of it.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RngStreams
from repro.sim.stats import OnlineStats
from repro.sim.timebase import (
    NSEC,
    USEC,
    MSEC,
    SEC,
    CpuClock,
    fmt_time,
    hz_to_period_ns,
)
from repro.sim.trace import NullTracer, RingTracer, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Event",
    "RngStreams",
    "OnlineStats",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "CpuClock",
    "fmt_time",
    "hz_to_period_ns",
    "Tracer",
    "NullTracer",
    "RingTracer",
    "TraceRecord",
]
