"""Per-layer attribution of a traced grid run, from the benchmark's side.

:class:`Probe` wraps the grid's cell executor
(``repro.experiments.parallel.execute_spec_full``) and, when tracing,
``Simulator.run``, so nothing under ``src/`` changes. The executor
wrapper is installed before any pool forks: each worker inherits it,
profiles its own cells with :mod:`cProfile` and writes its profile when
it exits, and the parent merges those files with its own profile.

:func:`attribute` charges self time to the ``src/repro/<layer>/``
package that owns each function. Self time of code outside the layers
(C builtins, the standard library, ``repro.config`` and the like) is
charged through pstats caller edges to the layer that called it; what
no layer called is ``other``. Blocking waits (lock acquires, sleeps,
polls) are not work and are left out.
"""

from __future__ import annotations

import json
import linecache
import multiprocessing.util
import os
import time
from pathlib import Path

#: The packages of ``src/repro`` that the benchmark treats as layers.
LAYERS = ("sim", "hw", "host", "guest", "core", "workloads", "metrics", "obs",
          "experiments", "fleet", "scenarios", "resilience")
OTHER = "other"
#: Modules whose own self time is reported on its own.
MODULES = ("sim.engine", "sim.timebase", "host.kvm", "guest.kernel",
           "guest.timerwheel", "hw.cpu", "metrics.counters")
#: Builtins whose self time is time spent blocked, not working.
BLOCKING = frozenset({
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method time.sleep>",
    "<built-in method posix.waitpid>",
    "<built-in method select.select>",
    "<method 'poll' of 'select.poll' objects>",
})


class Probe:
    """Instrumentation of one benchmark pass.

    Always records when the first grid cell starts, in any process
    (``first_cell``, a ``time.monotonic`` reading; a worker leaves its
    reading in ``out_dir``). With ``trace`` it also profiles every
    process that executes cells and counts the dispatched events and
    simulated nanoseconds of every simulation.
    """

    def __init__(self, *, trace: bool, out_dir: Path):
        from repro.experiments import parallel

        self.trace = trace
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._first: float | None = None
        self.events = 0
        self.sim_ns = 0
        self.profile = None
        self._worker_profile = None
        real_execute = parallel.execute_spec_full

        def execute_spec_full(spec):
            if self._first is None:
                self._first = time.monotonic()
                if os.getpid() != self.pid:
                    (self.out_dir / f"first-{os.getpid()}").write_text(repr(self._first))
            if self.trace and os.getpid() != self.pid:
                return self._in_worker(real_execute, spec)
            return real_execute(spec)

        parallel.execute_spec_full = execute_spec_full
        if trace:
            import cProfile

            from repro.sim.engine import Simulator

            real_run = Simulator.run

            def run(sim, until=None):
                start, dispatched = sim.now, sim.dispatched
                try:
                    return real_run(sim, until)
                finally:
                    self.events += sim.dispatched - dispatched
                    self.sim_ns += sim.now - start

            Simulator.run = run
            self.profile = cProfile.Profile()

    @property
    def first_cell(self) -> float | None:
        """When the first cell started, in this process or a worker."""
        times = [float(p.read_text()) for p in self.out_dir.glob("first-*")]
        if self._first is not None:
            times.append(self._first)
        return min(times, default=None)

    def _in_worker(self, real_execute, spec):
        if self._worker_profile is None:
            import cProfile

            # The fork copied the parent's profiler, still enabled on
            # this thread; the worker keeps a profile of its own cells.
            self.profile.disable()
            self.events = self.sim_ns = 0
            self._worker_profile = cProfile.Profile()
            multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)
        self._worker_profile.enable()
        try:
            return real_execute(spec)
        finally:
            self._worker_profile.disable()

    def _dump_worker(self) -> None:
        stem = self.out_dir / f"worker-{os.getpid()}"
        self._worker_profile.dump_stats(f"{stem}.prof")
        Path(f"{stem}.json").write_text(
            json.dumps({"events": self.events, "sim_ns": self.sim_ns}))

    def start(self) -> None:
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()

    def collect(self):
        """``(pstats.Stats, events, sim_ns)`` merged over parent and workers.

        Call after every worker has exited (their files are written on
        exit).
        """
        import pstats

        stats = pstats.Stats(self.profile)
        events, sim_ns = self.events, self.sim_ns
        for prof in sorted(self.out_dir.glob("worker-*.prof")):
            stats.add(str(prof))
            counts = json.loads(prof.with_suffix(".json").read_text())
            events += counts["events"]
            sim_ns += counts["sim_ns"]
        return stats, events, sim_ns


def module_of(filename: str, repro_dir: str) -> str | None:
    """``"<layer>.<module>"`` for a file under a layer package, else None."""
    if not filename.startswith(repro_dir):
        return None
    parts = filename[len(repro_dir):].split(os.sep)
    if len(parts) != 2 or parts[0] not in LAYERS:
        return None
    return f"{parts[0]}.{parts[1].removesuffix('.py')}"


def _is_property(func) -> bool:
    """A property getter: a decorated function's first line is the decorator.

    Property reads are attribute accesses, and a pooled grid's wait loop
    reads some once per wake-up, a number that depends on scheduling.
    """
    return linecache.getline(func[0], func[1]).strip().startswith(
        ("@property", "@functools.cached_property", "@cached_property"))


def attribute(stats, repro_dir: str) -> dict:
    """Self time per module and layer, plus cross-layer calls per layer.

    Returns ``{"modules": {mod: s}, "layers": {layer: s}, "calls":
    {layer: n}}``. ``layers`` includes :data:`OTHER` and sums to the
    traced self time that was not blocked. ``calls`` counts direct
    calls into a layer's public (non-underscore) functions from a
    function of another layer; property reads are not calls.
    """
    repro_dir = repro_dir.rstrip(os.sep) + os.sep
    raw = stats.stats
    owner = {f: module_of(f[0], repro_dir) for f in raw}
    shares: dict = {}

    def split(func, column: int, visiting: frozenset) -> dict[str, float]:
        """How unowned ``func``'s time divides over modules.

        Each caller edge weighs by ``column`` of its pstats entry (2:
        self time, 3: cumulative time); an unowned caller passes its
        part on by its own cumulative-time split.
        """
        edges = [(c, e[column]) for c, e in raw[func][4].items()
                 if c in raw and c not in visiting]
        total = sum(w for _, w in edges)
        out: dict[str, float] = {}
        for caller, w in edges:
            frac = w / total if total else 1 / len(edges)
            if owner[caller]:
                out[owner[caller]] = out.get(owner[caller], 0.0) + frac
                continue
            if caller not in shares:
                shares[caller] = split(caller, 3, visiting | {func})
            for mod, part in shares[caller].items():
                out[mod] = out.get(mod, 0.0) + frac * part
        return out or {OTHER: 1.0}

    modules: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        if owner[func]:
            modules[owner[func]] = modules.get(owner[func], 0.0) + tt
        elif func[2] not in BLOCKING:
            for mod, frac in split(func, 2, frozenset()).items():
                modules[mod] = modules.get(mod, 0.0) + tt * frac

    layers = dict.fromkeys((*LAYERS, OTHER), 0.0)
    for mod, seconds in modules.items():
        layers[mod.split(".")[0]] += seconds
    calls = dict.fromkeys(LAYERS, 0)
    for func, (*_, callers) in raw.items():
        mod = owner[func]
        if mod is None or func[2].startswith(("_", "<")) or _is_property(func):
            continue
        layer = mod.split(".")[0]
        calls[layer] += sum(
            edge[1] for caller, edge in callers.items()
            if owner.get(caller) and owner[caller].split(".")[0] != layer)
    return {"modules": {m: modules.get(m, 0.0) for m in MODULES},
            "layers": layers, "calls": calls}
