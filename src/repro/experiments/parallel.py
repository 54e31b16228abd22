"""Parallel experiment engine with content-addressed result caching.

Every figure in the paper (Tables 1-4, Figs. 4-6) is a grid of
independent ``run_workload`` calls over (scenario x tick-mode x seed).
This module turns that grid into data — a list of :class:`RunSpec` — and
executes it in four stages (:func:`run_grid`): **probe** the cache,
**verify resume** against a previous journal, **schedule** what is
left, and **settle** every attempt. One loop executes, always through
an executor: N worker processes for ``jobs=N`` (the simulator is
deterministic per seed, so no result depends on the process), an
in-process one otherwise. One recorder feeds every consumer of a
cell's lifecycle:

* **result cache** — each spec hashes to a stable content address
  (:func:`spec_key`); finished runs are stored as JSON under that key
  and re-running a benchmark only executes changed cells;
* **fault tolerance** — a per-run timeout (enforced *inside* the worker
  via ``SIGALRM``, so a stuck run cannot wedge the pool) and
  ``retries`` for raising/timing-out/crashing workers; what still
  fails lands in :attr:`GridResult.failed_specs` — classified as
  ``timeout`` / ``crash`` / ``error`` — instead of sinking the rest of
  the grid. Pool rebuilds after worker crashes are capped, and a
  failure-rate circuit breaker shrinks the pool and falls back to
  serial before giving up (:mod:`repro.resilience.policy`);
* **crash safety** — an optional append-only run *journal*
  (:mod:`repro.resilience.journal`) records every cell's lifecycle;
  ``resume=`` replays it, skipping completed cells after re-verifying
  their cached bytes against the journaled result hash. Cache files
  carry checksum footers; corrupt entries are quarantined (demoted to
  miss, never fatal) by :mod:`repro.resilience.integrity`;
* **chaos** — a :class:`~repro.resilience.chaos.ChaosPolicy` injects
  deterministic faults (worker SIGKILL, delays, simulated harness
  crash, filesystem failures via the injectable ``cache_fs`` shim) so
  every recovery path above is exercised in tests;
* **progress** — an optional callback receives a
  :class:`ProgressEvent` per finished cell (the CLI prints these), and
  every grid returns a structured
  :class:`~repro.resilience.policy.RunReport`
  (completed / degraded / failed) in :attr:`GridResult.report`.

A :class:`RunSpec` is declarative: the workload is named by a
:class:`WorkloadSpec` (factory kind + keyword parameters) rather than a
live object, so specs are hashable, picklable and JSON-serializable.
Results round-trip through :meth:`RunMetrics.to_json_dict`; every
executor returns cache-decoded objects, so a cached grid is
bit-identical to a fresh one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import warnings
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.config import HostFeatures, MachineSpec, TickMode
from repro.errors import ReproError
from repro.host.perturb import perturbation_from_dict, perturbation_to_dict
from repro.metrics.perf import RunMetrics
from repro.resilience.chaos import ChaosAbort
from repro.resilience.integrity import CacheFS, attach_footer, quarantine_file, read_verified
from repro.resilience.journal import JournalState, RunJournal, replay_journal, result_hash
from repro.resilience.policy import CircuitBreaker, RunReport, classify_failure

#: Bump when the spec encoding or result encoding changes shape —
#: invalidates every previously cached result.
CACHE_VERSION = 5

#: Default per-run wall-clock timeout (seconds of *real* time).
DEFAULT_TIMEOUT_S = 600.0

#: Default cache location; override with ``REPRO_CACHE_DIR`` or the
#: ``cache_dir`` argument. Kept repo-local (and git-ignored).
DEFAULT_CACHE_DIR = ".repro-cache"

#: A worker crash costs the whole pool; rebuilding forever against a
#: deterministic crasher is an outage, not resilience. After this many
#: rebuilds the remaining cells fail with a clear error instead.
DEFAULT_MAX_POOL_REBUILDS = 3


class GridError(ReproError):
    """A grid could not produce the results a driver requires."""


class RunTimeout(ReproError):
    """A single run exceeded its per-run timeout."""


# --------------------------------------------------------------------------
# Workload registry
# --------------------------------------------------------------------------

#: kind -> factory(**params) -> Workload. Extend with
#: :func:`register_workload` (test fixtures and future workloads).
WORKLOAD_FACTORIES: dict[str, Callable[..., Any]] = {}


def register_workload(kind: str, factory: Callable[..., Any]) -> None:
    """Register (or replace) a workload factory under ``kind``."""
    WORKLOAD_FACTORIES[kind] = factory


def _register_defaults() -> None:
    from repro.workloads import fio, parsec
    from repro.workloads.micro import (
        IdlePeriodWorkload,
        IdleWorkload,
        PingPongWorkload,
        SyncStormWorkload,
    )
    from repro.workloads.netserve import NetServiceWorkload

    register_workload("parsec", parsec.benchmark)
    register_workload("fio", lambda category, block_size, total_bytes=32 << 20: fio.job(
        category, block_size, total_bytes=total_bytes))
    register_workload("micro.idle", IdleWorkload)
    register_workload("micro.syncstorm", SyncStormWorkload)
    register_workload("micro.idleperiod", lambda idle_ns, **kw: IdlePeriodWorkload(idle_ns, **kw))
    register_workload("micro.pingpong", PingPongWorkload)
    register_workload("netserve", NetServiceWorkload)


_register_defaults()

#: Special kind executed by :func:`repro.experiments.overcommit.run_idle_overcommit`
#: (a multi-VM scenario, not a single-VM Workload).
OVERCOMMIT_IDLE = "overcommit.idle"

#: Special kind executed by :func:`repro.fleet.hostsim.run_host` — one
#: host of a fleet (multi-VM, burst arrivals), sharded per host so a
#: rack fans out across the pool like any other grid.
FLEET_HOST = "fleet.host"


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload named by factory kind + sorted keyword parameters."""

    kind: str
    #: Sorted (name, value) pairs; values must be JSON-scalar.
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "WorkloadSpec":
        return cls(kind, tuple(sorted(params.items())))

    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def build(self) -> Any:
        try:
            factory = WORKLOAD_FACTORIES[self.kind]
        except KeyError:
            raise GridError(
                f"unknown workload kind {self.kind!r}; know {sorted(WORKLOAD_FACTORIES)}"
            ) from None
        return factory(**self.kwargs())


# --------------------------------------------------------------------------
# RunSpec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid: workload + tick mode + seed + knobs.

    Mirrors :func:`repro.experiments.runner.run_workload`'s signature,
    but as pure data. ``cost_overrides`` are applied on top of
    :data:`~repro.host.costs.DEFAULT_COSTS`;
    ``keep_timer_on_idle_exit`` drives the §5.2.5 class-level policy
    knob (applied and restored around the run, worker-safe).
    """

    workload: WorkloadSpec
    tick_mode: TickMode = TickMode.TICKLESS
    seed: int = 0
    vcpus: Optional[int] = None
    pinned_cpus: Optional[tuple[int, ...]] = None
    machine: Optional[MachineSpec] = None
    features: HostFeatures = field(default_factory=HostFeatures)
    cost_overrides: tuple[tuple[str, int], ...] = ()
    tick_hz: int = 250
    noise: bool = True
    cpuidle: bool = False
    horizon_ns: Optional[int] = None
    label: Optional[str] = None
    keep_timer_on_idle_exit: bool = True
    #: Timed disturbances (:class:`repro.host.perturb.Perturbation`)
    #: installed against the VM before boot. Part of the cache key:
    #: the same run with a different schedule is a different cell.
    perturbations: tuple = ()
    #: Collect the windowed in-sim time series (:mod:`repro.obs.series`)
    #: alongside the run; returned in :attr:`GridResult.series` and
    #: cached inside the spec's entry (its ``"series"`` key). Recording
    #: never perturbs simulated time, so results are identical either way.
    #: Serialized into the cache key only when set, so every
    #: pre-existing spec keeps its exact content address.
    series: bool = False
    #: Timer architecture to simulate (see :mod:`repro.hw.timerhw`).
    #: Rides the cache key, but — like ``series`` — is emitted only
    #: when non-default so pre-existing x86 content addresses survive.
    arch: str = "x86"

    def with_(self, **changes: Any) -> "RunSpec":
        from dataclasses import replace

        return replace(self, **changes)

    def display_label(self) -> str:
        return self.label or f"{self.workload.kind}/{self.tick_mode.value}/s{self.seed}"


def spec_to_dict(spec: RunSpec) -> dict:
    """Canonical JSON-safe encoding of a spec (the cache-key input).

    ``series`` is emitted only when True: a False default must encode
    byte-identically to a pre-``series`` spec so existing cache keys —
    and the golden batteries pinned to them — stay valid.
    """
    out = {
        "workload": {"kind": spec.workload.kind, "params": spec.workload.kwargs()},
        "tick_mode": spec.tick_mode.value,
        "seed": spec.seed,
        "vcpus": spec.vcpus,
        "pinned_cpus": list(spec.pinned_cpus) if spec.pinned_cpus is not None else None,
        "machine": asdict(spec.machine) if spec.machine is not None else None,
        "features": asdict(spec.features),
        "cost_overrides": dict(spec.cost_overrides),
        "tick_hz": spec.tick_hz,
        "noise": spec.noise,
        "cpuidle": spec.cpuidle,
        "horizon_ns": spec.horizon_ns,
        "label": spec.label,
        "keep_timer_on_idle_exit": spec.keep_timer_on_idle_exit,
        "perturbations": [perturbation_to_dict(p) for p in spec.perturbations],
    }
    if spec.series:
        out["series"] = True
    if spec.arch != "x86":
        out["arch"] = spec.arch
    return out


def spec_from_dict(data: dict) -> RunSpec:
    """Inverse of :func:`spec_to_dict` (cache-file rehydration)."""
    return RunSpec(
        workload=WorkloadSpec.make(data["workload"]["kind"], **data["workload"]["params"]),
        tick_mode=TickMode(data["tick_mode"]),
        seed=int(data["seed"]),
        vcpus=data["vcpus"],
        pinned_cpus=tuple(data["pinned_cpus"]) if data["pinned_cpus"] is not None else None,
        machine=MachineSpec(**data["machine"]) if data["machine"] is not None else None,
        features=HostFeatures(**data["features"]),
        cost_overrides=tuple(sorted(data["cost_overrides"].items())),
        tick_hz=int(data["tick_hz"]),
        noise=bool(data["noise"]),
        cpuidle=bool(data["cpuidle"]),
        horizon_ns=data["horizon_ns"],
        label=data["label"],
        keep_timer_on_idle_exit=bool(data["keep_timer_on_idle_exit"]),
        series=bool(data.get("series", False)),
        arch=data.get("arch", "x86"),
        perturbations=tuple(
            perturbation_from_dict(p) for p in data.get("perturbations", [])
        ),
    )


def spec_key(spec: RunSpec) -> str:
    """Stable content address of a spec (sha256 over canonical JSON).

    Any knob change — workload parameter, tick mode, seed, machine,
    features, costs — changes the key and therefore invalidates the
    cached cell; bumping :data:`CACHE_VERSION` invalidates everything.
    """
    payload = json.dumps({"v": CACHE_VERSION, "spec": spec_to_dict(spec)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------
# Execution of one spec
# --------------------------------------------------------------------------

@contextlib.contextmanager
def _keep_timer(enabled: bool):
    from repro.core.paratick_guest import ParatickPolicy

    prev = ParatickPolicy.keep_timer_on_idle_exit
    ParatickPolicy.keep_timer_on_idle_exit = enabled
    try:
        yield
    finally:
        ParatickPolicy.keep_timer_on_idle_exit = prev


def execute_spec(spec: RunSpec):
    """Run one spec in-process and return its result object.

    Returns :class:`RunMetrics` for workload specs and
    :class:`~repro.experiments.overcommit.OvercommitResult` for
    ``overcommit.idle`` specs.
    """
    return execute_spec_full(spec)[0]


def _obs_for(spec: RunSpec):
    """The series-only :class:`~repro.obs.Observability` bundle (just
    the :class:`~repro.obs.series.SeriesRecorder`) when the spec asks
    for its time series, else None."""
    if not spec.series:
        return None
    from repro.obs import ObsConfig, Observability

    return Observability(ObsConfig(profile=False, series=True))


def execute_spec_full(
    spec: RunSpec, *, tracer=None, inspect=None
) -> tuple[Any, Optional[dict]]:
    """Run one spec, returning ``(result, series_json)``.

    The second element is the windowed in-sim time series
    (``spec.series``), None when not requested. An ``overcommit.idle``
    spec sizes its scenario through its workload parameters and raises
    :class:`GridError` when a RunSpec field that would conflict with
    them (``vcpus``, ``pinned_cpus``, ``machine``, ``horizon_ns``,
    ``noise=False``) is set.

    ``tracer`` and ``inspect`` are forwarded verbatim to the kind's
    runner, and from there to :func:`~repro.experiments.runner.simulate`.
    They are live objects, so only in-process callers (the sanitizer
    and the golden batteries) pass them; the worker pool never does.
    """
    from repro.host.costs import DEFAULT_COSTS

    obs = _obs_for(spec)
    costs = DEFAULT_COSTS
    if spec.cost_overrides:
        costs = costs.with_overrides(**dict(spec.cost_overrides))
    common = dict(
        costs=costs, obs=obs, features=spec.features, tick_hz=spec.tick_hz,
        cpuidle=spec.cpuidle, perturbations=spec.perturbations, arch=spec.arch,
        tracer=tracer, inspect=inspect,
    )
    with _keep_timer(spec.keep_timer_on_idle_exit):
        if spec.workload.kind == OVERCOMMIT_IDLE:
            from repro.experiments.overcommit import run_idle_overcommit

            # Its vms/vcpus_per_vm/pcpus/duration_ns/noise parameters size
            # the scenario; a RunSpec field that would too must stay default.
            for name, default in (
                ("vcpus", None), ("pinned_cpus", None), ("machine", None),
                ("horizon_ns", None), ("noise", True),
            ):
                if getattr(spec, name) != default:
                    raise GridError(
                        f"{OVERCOMMIT_IDLE} sizes its own scenario; RunSpec.{name} "
                        f"must stay {default!r}, got {getattr(spec, name)!r}"
                    )
            result = run_idle_overcommit(
                spec.tick_mode, seed=spec.seed, **spec.workload.kwargs(), **common
            )
        elif spec.workload.kind == FLEET_HOST:
            from repro.fleet.hostsim import run_host
            from repro.fleet.spec import fleet_params

            result = run_host(
                tick_mode=spec.tick_mode, seed=spec.seed, noise=spec.noise,
                horizon_ns=spec.horizon_ns, label=spec.label,
                **fleet_params(spec), **common,
            )
        else:
            from repro.experiments.runner import DEFAULT_HORIZON_NS, run_workload

            result = run_workload(
                spec.workload.build(),
                tick_mode=spec.tick_mode,
                vcpus=spec.vcpus,
                pinned_cpus=spec.pinned_cpus,
                machine_spec=spec.machine,
                seed=spec.seed,
                noise=spec.noise,
                horizon_ns=spec.horizon_ns if spec.horizon_ns is not None else DEFAULT_HORIZON_NS,
                label=spec.label,
                **common,
            )
    return result, obs.series_json() if obs is not None else None


def encode_result(obj: Any) -> dict:
    """Encode a run result for the cache / the worker return channel."""
    from repro.experiments.overcommit import OvercommitResult

    if isinstance(obj, RunMetrics):
        return {"type": "run_metrics", "data": obj.to_json_dict()}
    if isinstance(obj, OvercommitResult):
        data = asdict(obj)
        data["mode"] = obj.mode.value
        return {"type": "overcommit", "data": data}
    raise GridError(f"cannot encode result of type {type(obj).__name__}")


def decode_result(encoded: dict) -> Any:
    """Inverse of :func:`encode_result`; raises on malformed input."""
    from repro.experiments.overcommit import OvercommitResult

    kind = encoded["type"]
    data = encoded["data"]
    if kind == "run_metrics":
        return RunMetrics.from_json_dict(data)
    if kind == "overcommit":
        data = dict(data)
        data["mode"] = TickMode(data["mode"])
        return OvercommitResult(**data)
    raise GridError(f"unknown cached result type {kind!r}")


@contextlib.contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`RunTimeout` after ``seconds`` of real time.

    SIGALRM-based, so it interrupts a compute-bound simulation; only
    armed in a main thread (worker processes always qualify).
    """
    if not seconds or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded the per-run timeout of {seconds:g}s")

    prev = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)


def _worker_run(spec: RunSpec, chaos=None) -> dict:
    """Pool entry point: execute one spec under
    :data:`DEFAULT_TIMEOUT_S` (read per call), encoded.

    A time series (``spec.series``) rides back in the ``"series"`` key
    of the encoded dict; :func:`decode_result` ignores it and the grid
    driver strips it into :attr:`GridResult.series`. ``"wall_s"`` /
    ``"pid"`` carry the in-worker wall-clock and worker identity for
    harness telemetry (also stripped before the result is cached).

    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosPolicy`) is
    consulted before execution: it may delay this cell past its
    timeout or SIGKILL the worker — inside the alarm scope, so an
    injected delay fails exactly like a genuinely stuck run.
    """
    t0 = time.monotonic()
    with _alarm(DEFAULT_TIMEOUT_S):
        if chaos is not None:
            chaos.maybe_injure(spec_key(spec))
        result, series = execute_spec_full(spec)
        encoded = encode_result(result)
        if series is not None:
            encoded["series"] = series
        encoded["wall_s"] = time.monotonic() - t0
        encoded["pid"] = os.getpid()
        return encoded


# --------------------------------------------------------------------------
# Result cache
# --------------------------------------------------------------------------

class ResultCache:
    """Content-addressed on-disk store of encoded run results.

    Layout: ``<root>/<key[:2]>/<key>.json``, exactly one file per spec:
    the single-line JSON body ``{"version", "key", "spec", "result"}``
    — plus ``"series"`` when the spec asked for it — and a checksum
    footer
    (:func:`repro.resilience.integrity.attach_footer`). An entry is
    written to a sibling ``*.tmp*`` file and published with one rename,
    so a reader sees a whole entry or none. Every read goes through
    :func:`~repro.resilience.integrity.read_verified`: a corrupt file
    is moved to the cache's ``quarantine/`` directory and treated as a
    miss — never fatal, and never silently trusted. Structurally stale
    entries (old ``CACHE_VERSION``, wrong shape, or no series the spec
    asks for) are plain-discarded — staleness is not corruption.

    All filesystem traffic goes through an injectable
    :class:`~repro.resilience.integrity.CacheFS` shim so the chaos
    harness can fail chosen writes deterministically.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 fs: Optional[CacheFS] = None,
                 on_quarantine: Optional[Callable[[Path, Optional[Path]], None]] = None,
                 ) -> None:
        self.root = Path(root or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
        self.fs = fs or CacheFS()
        self.on_quarantine = on_quarantine

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, spec: RunSpec, key: Optional[str] = None,
             ) -> tuple[Any, Optional[dict]]:
        """``(result, series)`` cached for ``spec``; result None on a
        miss — including an entry without the series ``spec`` asks for."""
        path = self.path_for(key or spec_key(spec))
        payload, status = read_verified(path, self.fs)
        if status == "corrupt":
            self.quarantine(path)
        if payload is None:
            return None, None
        try:
            if payload["version"] != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            return (decode_result(payload["result"]),
                    payload["series"] if spec.series else None)
        except (KeyError, TypeError, ValueError, ReproError):
            self.fs.unlink(path)
            return None, None

    def store(self, spec: RunSpec, encoded: dict, *,
              series: Optional[dict] = None) -> Path:
        """Write one entry: a sibling tmp file, then one rename."""
        key = spec_key(spec)
        entry = {"version": CACHE_VERSION, "key": key, "spec": spec_to_dict(spec),
                 "result": encoded}
        if series is not None:
            entry["series"] = series
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        self.fs.mkdir(path.parent)
        try:
            self.fs.write_text(tmp, attach_footer(json.dumps(entry, sort_keys=True)))
            self.fs.replace(tmp, path)
        except OSError:
            self.fs.unlink(tmp)
            raise
        return path

    def quarantine(self, path: Path) -> None:
        """Move a corrupt or suspect entry file aside (a miss from now on)."""
        target = quarantine_file(self.root, path, self.fs)
        if self.on_quarantine is not None:
            with contextlib.suppress(Exception):
                self.on_quarantine(path, target)


# --------------------------------------------------------------------------
# Grid execution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgressEvent:
    """One cell of the grid settled (from cache, a run, or failure)."""

    spec: RunSpec
    #: "cached" | "resumed" | "ran" | "retry" | "failed"
    status: str
    done: int
    total: int
    attempt: int = 1
    error: Optional[str] = None
    #: Wall-clock of *this attempt* in seconds: in-worker execution
    #: time for "ran", submit-to-settle (queue included) for
    #: "retry"/"failed", None for "cached" and for drivers predating
    #: the field.
    duration_s: Optional[float] = None
    #: True when the cell was served from the result cache.
    cache_hit: bool = False
    #: For "retry"/"failed": "timeout" | "crash" | "error"; else None.
    failure_kind: Optional[str] = None


@dataclass(frozen=True)
class FailedSpec:
    """A cell that failed every attempt; the grid continued without it."""

    spec: RunSpec
    error: str
    attempts: int
    #: What killed the last attempt: "timeout" | "crash" | "error".
    kind: str = "error"


@dataclass
class GridResult:
    """Outcome of one grid execution (possibly partial)."""

    specs: list[RunSpec]
    results: dict[RunSpec, Any]
    failed_specs: list[FailedSpec] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    #: Windowed in-sim time series for specs run with ``series=True``
    #: (the :meth:`repro.obs.Observability.series_json` payload).
    series: dict[RunSpec, dict] = field(default_factory=dict)
    #: Structured resilience outcome (retries by kind, resume stats,
    #: degradation ladder steps); populated by every run_grid call.
    report: Optional[RunReport] = None

    @property
    def complete(self) -> bool:
        return not self.failed_specs

    def ordered(self) -> list[Any]:
        """Results aligned with the input spec order (None where failed)."""
        return [self.results.get(s) for s in self.specs]

    def failed_by_kind(self) -> Counter:
        """Failure counts keyed by kind ("timeout" / "crash" / "error")."""
        return Counter(f.kind for f in self.failed_specs)

    def __getitem__(self, spec: RunSpec) -> Any:
        try:
            return self.results[spec]
        except KeyError:
            raise GridError(f"no result for {spec.display_label()} "
                            f"(failed or not part of this grid)") from None

    def raise_if_failed(self) -> "GridResult":
        """For drivers that need the *full* grid (tables, aggregates)."""
        if self.failed_specs:
            names = ", ".join(f.spec.display_label() for f in self.failed_specs[:5])
            kinds = ", ".join(f"{k}: {v}" for k, v in
                              sorted(self.failed_by_kind().items()))
            raise GridError(
                f"{len(self.failed_specs)} grid cell(s) failed ({kinds}) "
                f"(first: {names}); "
                f"last error: {self.failed_specs[-1].error}"
            )
        return self


class _InlineExecutor(Executor):
    """Runs each call inside :meth:`submit` and returns a settled future:
    serial grids and the breaker's serial fallback, driven like a pool."""

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def _executor(workers: Optional[int]) -> Executor:
    """A pool of ``workers`` processes, or the in-process executor (None).
    Pools fork where they can: cheap, and workers inherit the workload
    kinds the calling process registered (tests rely on this)."""
    if workers is None:
        return _InlineExecutor()
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _shutdown(executor: Executor) -> None:
    with contextlib.suppress(Exception):
        executor.shutdown(wait=False, cancel_futures=True)


class _Detached:
    """Stands in for absent telemetry: every recording call is a no-op."""

    def span(self, name: str, **attrs: Any):
        return contextlib.nullcontext({})

    def now_ns(self) -> int:
        return 0

    def _ignore(self, *args: Any, **kwargs: Any) -> None:
        pass

    instant = add_span = grid_finished = _ignore


class _Recorder:
    """The one consumer of a grid's cell lifecycle.

    Each state transition of a cell calls one method here, which
    updates every consumer in turn: the :class:`GridResult` and its
    :class:`RunReport`, the result cache (for a cell that ran), the
    journal, harness telemetry, the ``progress`` callback and the chaos
    ``abort_after`` hook. Absent telemetry (None) is swapped for
    :class:`_Detached` once per grid. The :class:`RunReport` is the one
    count of each outcome; telemetry gets the timeline (spans and
    instants) and, at :meth:`finish`, the report.
    """

    def __init__(self, grid: GridResult, keys: dict[RunSpec, str],
                 journal: Optional[RunJournal], telemetry, progress, chaos) -> None:
        self.grid, self.report, self.keys = grid, grid.report, keys
        self.journal, self.progress = journal, progress
        self.tel = telemetry if telemetry is not None else _Detached()
        self.abort_after = getattr(chaos, "abort_after", None)
        self.done = 0

    def quarantined(self, path: Path, moved: Optional[Path]) -> None:
        """The cache moved a corrupt file aside."""
        self.report.quarantined += 1
        self.tel.instant("cache.quarantine", lane="cache", path=str(path))

    def served(self, spec: RunSpec, result: Any, series: Optional[dict],
               verified_hash: Optional[str]) -> None:
        """Settled from the cache: ``resumed`` when the journal's result
        hash re-verified it (``verified_hash``), else ``cached``."""
        label = spec.display_label()
        status = "cached" if verified_hash is None else "resumed"
        if verified_hash is not None:
            self.report.resumed += 1
            self.report.reverified += 1
            self.tel.instant("resume.hit", lane="cache", spec=label)
            self._journal("resumed", spec, result_hash=verified_hash)
        elif self.journal is not None:
            self._journal("cached", spec, result_hash=result_hash(encode_result(result)))
        self._settle(spec, result, series)
        self.grid.cache_hits += 1
        self.tel.instant("cache.hit", lane="cache", spec=label)
        self._emit(spec, status, cache_hit=True)

    def scheduled(self, spec: RunSpec, *, probed: bool, journaled_done: bool,
                  mismatch: bool) -> None:
        """Not served from the cache, so the cell will run — even when the
        journal says done (``journaled_done``): evicted, corrupt, or its
        entry failed re-verification (``mismatch``) and was quarantined."""
        label = spec.display_label()
        if mismatch:
            self.report.resume_mismatches += 1
            self.tel.instant("resume.mismatch", lane="cache", spec=label)
        if journaled_done:
            self.tel.instant("resume.miss", lane="cache", spec=label)
        if probed:
            self.tel.instant("cache.miss", lane="cache", spec=label)
        self._journal("scheduled", spec)

    def started(self, spec: RunSpec, attempt: int) -> None:
        self._journal("started", spec, attempt=attempt)

    def ran(self, spec: RunSpec, encoded: dict,
            cache: Optional[ResultCache]) -> Optional[ResultCache]:
        """An attempt succeeded: publish the cache entry, *then* journal
        the cell as done, so a ``done`` record always has its entry.
        Returns the cache to publish to from now on (None once a write
        failed)."""
        series = encoded.pop("series", None)
        wall_s, pid = encoded.pop("wall_s"), encoded.pop("pid")
        self._settle(spec, decode_result(encoded), series)
        self.grid.executed += 1
        # Reconstruct the worker's execution as a slice on its lane: it
        # ended (approximately) now and lasted wall_s.
        wall_ns = int(wall_s * 1e9)
        self.tel.add_span("shard.execute", self.tel.now_ns() - wall_ns, wall_ns,
                          lane=f"worker-{pid}", spec=spec.display_label())
        if cache is not None:
            try:
                cache.store(spec, encoded, series=series)
            except OSError as exc:
                # An unwritable store (bad cache_dir, full disk) must not
                # sink a grid whose results are already in memory.
                warnings.warn(f"result cache disabled: cannot write {cache.root}: {exc}",
                              RuntimeWarning, stacklevel=2)
                cache = None
            else:
                self.tel.instant("cache.write", lane="cache", spec=spec.display_label())
        if self.journal is not None:
            self._journal("done", spec, result_hash=result_hash(encoded))
        self._emit(spec, "ran", duration_s=wall_s)
        return cache

    def failed(self, spec: RunSpec, error: str, attempt: int, duration_s: float,
               kind: str, *, final: bool) -> None:
        """Attempt ``attempt`` failed: the cell is retried, or (``final``)
        given up and reported in :attr:`GridResult.failed_specs`. The
        attempt's submit-to-settle time becomes a span ending now."""
        dur_ns = int(duration_s * 1e9)
        start_ns = self.tel.now_ns() - dur_ns
        label = spec.display_label()
        if final:
            self.grid.failed_specs.append(FailedSpec(spec, error, attempt, kind))
            self.report.failures[kind] += 1
            self.done += 1
            self.tel.add_span("shard.failed", start_ns, dur_ns, spec=label, error=error,
                              attempts=attempt, kind=kind)
            self._journal("failed", spec, error=error, kind=kind, attempts=attempt)
        else:
            self.report.retries[kind] += 1
            self.tel.add_span("shard.retry", start_ns, dur_ns, spec=label, error=error,
                              attempt=attempt, kind=kind)
        self._emit(spec, "failed" if final else "retry", attempt, error, duration_s,
                   failure_kind=kind)

    def pool_rebuilt(self, exc: BaseException, casualties: int) -> None:
        """A worker crash broke the pool and it was rebuilt."""
        self.report.pool_rebuilds += 1
        self.tel.instant("pool.rebuild", error=repr(exc), casualties=casualties)

    def degraded(self, step: int, workers: Optional[int]) -> None:
        """A breaker trip: the pool shrank to ``workers``, or went serial (None)."""
        if workers is None:
            self.report.degradation.append("fell back to serial")
            self.tel.instant("pool.degrade", step=step, jobs=1, mode="serial")
        else:
            self.report.degradation.append(f"pool shrunk to {workers}")
            self.tel.instant("pool.degrade", step=step, jobs=workers)

    def check_abort(self) -> None:
        """Chaos: simulate a harness crash once ``abort_after`` cells ran or failed."""
        settled = self.grid.executed + len(self.grid.failed_specs)
        if self.abort_after is not None and settled >= self.abort_after:
            self.tel.instant("chaos.abort", after=settled)
            raise ChaosAbort(f"chaos: simulated harness crash after {settled} settled cell(s)")

    def finish(self, span_attrs: dict) -> GridResult:
        grid = self.grid
        self.report.cache_hits, self.report.executed = grid.cache_hits, grid.executed
        span_attrs.update(cache_hits=grid.cache_hits, executed=grid.executed,
                          failed=len(grid.failed_specs))
        self.tel.grid_finished(self.report)
        return grid

    def _settle(self, spec: RunSpec, result: Any, series: Optional[dict]) -> None:
        self.grid.results[spec] = result
        if series is not None:
            self.grid.series[spec] = series
        self.done += 1

    def _journal(self, event: str, spec: RunSpec, **extra: Any) -> None:
        if self.journal is not None:
            self.journal.record(event, self.keys[spec], **extra)

    def _emit(self, spec: RunSpec, status: str, attempt: int = 1,
              error: Optional[str] = None, duration_s: Optional[float] = None,
              cache_hit: bool = False, failure_kind: Optional[str] = None) -> None:
        """Report a settled attempt to ``progress``."""
        if self.progress is None:
            return
        try:
            self.progress(ProgressEvent(spec, status, self.done, len(self.keys), attempt,
                                        error, duration_s, cache_hit, failure_kind))
        except Exception as exc:
            warnings.warn(f"progress callback disabled after raising {exc!r}",
                          RuntimeWarning, stacklevel=2)
            self.progress = None


def _execute(pending: list[RunSpec], rec: _Recorder, cache: Optional[ResultCache], *,
             jobs: Optional[int], retries: int, chaos) -> None:
    """Schedule the ``pending`` cells and settle every attempt.

    One loop drives every execution mode. ``workers`` is the pool size,
    or None for the in-process executor, which takes one cell at a time
    so a serial grid settles in spec order; a pool takes every queued
    cell at once. A broken pool and a breaker trip only swap the
    executor. The rebuild cap (:data:`DEFAULT_MAX_POOL_REBUILDS`) and
    the :class:`CircuitBreaker` are read per grid.
    """
    workers = jobs if jobs and jobs > 1 else None
    brk = CircuitBreaker()
    attempts = dict.fromkeys(pending, 1)
    queue = deque(pending)
    in_flight: dict[Future, tuple[RunSpec, float]] = {}
    rebuilds = 0
    executor = _executor(workers)
    try:
        while queue or in_flight:
            while queue and (workers is not None or not in_flight):
                spec = queue.popleft()
                rec.started(spec, attempts[spec])
                submitted = time.monotonic()
                try:
                    fut = executor.submit(_worker_run, spec, chaos)
                except BrokenProcessPool as exc:
                    # The pool died while we were still submitting: a dead
                    # future sends it down the crash path below.
                    fut = Future()
                    fut.set_exception(exc)
                in_flight[fut] = (spec, submitted)

            finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for fut in finished:
                spec, submitted = in_flight.pop(fut)
                elapsed = time.monotonic() - submitted
                exc = fut.exception()
                if workers is not None:
                    brk.record(exc is None)
                if exc is None:
                    cache = rec.ran(spec, fut.result(), cache)
                    rec.check_abort()
                    continue
                lost, error, kind = [spec], repr(exc), classify_failure(exc)
                crashed = workers is not None and isinstance(exc, BrokenProcessPool)
                final = False
                if crashed:
                    # A worker died hard and took the pool with it, and
                    # every unsettled cell in it: rebuild the pool and
                    # retry them all, charging each one attempt. A pool
                    # that cannot stay alive is an outage, not a
                    # transient — past the rebuild cap, what is left
                    # fails with a clear error.
                    lost += [s for s, _ in in_flight.values()] + list(queue)
                    in_flight.clear()
                    queue.clear()
                    _shutdown(executor)
                    rebuilds += 1
                    final = rebuilds > DEFAULT_MAX_POOL_REBUILDS
                    if final:
                        error = (f"pool rebuild cap reached ({DEFAULT_MAX_POOL_REBUILDS}); "
                                 f"last crash: {error}")
                    else:
                        rec.pool_rebuilt(exc, len(lost))
                        executor = _executor(workers)
                for s in lost:
                    gave_up = final or attempts[s] > retries
                    rec.failed(s, error, attempts[s], elapsed, kind, final=gave_up)
                    if not gave_up:
                        attempts[s] += 1
                        queue.appendleft(s)  # retried next, before new cells
                rec.check_abort()
                if crashed:
                    break  # the rest of `finished` was lost with the pool

            if workers is not None and (queue or in_flight) and brk.tripped:
                # Degradation ladder: the windowed failure rate crossed
                # the threshold. The first trip halves the pool, the next
                # falls back to in-process execution.
                queue.extendleft(reversed([s for s, _ in in_flight.values()]))
                in_flight.clear()
                _shutdown(executor)
                step = brk.trip_and_reset()
                workers = max(1, workers // 2) if step == 1 and workers > 1 else None
                rec.degraded(step, workers)
                executor = _executor(workers)
    finally:
        _shutdown(executor)


def run_grid(
    specs: Iterable[RunSpec],
    *,
    jobs: Optional[int] = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
    retries: int = 1,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    telemetry=None,
    journal: "RunJournal | os.PathLike | str | None" = None,
    resume: "JournalState | os.PathLike | str | None" = None,
    chaos=None,
    cache_fs: Optional[CacheFS] = None,
) -> GridResult:
    """Execute a grid of specs, using the cache and ``jobs`` workers.

    The deduplicated specs pass four stages: **probe** the cache (a hit,
    a miss, or an entry without its series — a miss); **verify
    resume**; **schedule** the rest; **settle** each attempt (ran,
    retry, failed).

    ``jobs=None``/``0``/``1`` executes in-process; ``jobs=N`` fans out
    across N worker processes. A failing cell (exception, timeout after
    :data:`DEFAULT_TIMEOUT_S`, worker crash) is retried ``retries``
    times, then reported in :attr:`GridResult.failed_specs` as
    timeout / crash / error while the rest of the grid completes. Pool
    rebuilds after worker crashes are capped at
    :data:`DEFAULT_MAX_POOL_REBUILDS`; a
    :class:`~repro.resilience.policy.CircuitBreaker` halves the pool,
    then falls back to in-process, when failures trip it.

    ``journal`` (a path or an open
    :class:`~repro.resilience.journal.RunJournal`) records every cell's
    lifecycle durably. ``resume`` (a path or a replayed
    :class:`~repro.resilience.journal.JournalState`) serves the cells a
    previous journal witnessed as done after re-verifying their cached
    bytes against the journaled result hash — a mismatch quarantines
    the entry and re-runs the cell; a changed matrix raises
    :class:`~repro.resilience.journal.ResumeError`. Passing both (the
    usual ``--resume`` shape) appends to the same journal file.

    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosPolicy`) and
    ``cache_fs`` (a :class:`~repro.resilience.integrity.CacheFS`)
    inject deterministic faults; both default to "no faults".
    ``telemetry`` (a :class:`repro.obs.harness.HarnessTelemetry`, or
    None) records spans and instants for the transitions and receives
    the grid's :class:`RunReport` when it finishes; results and cache
    bytes are identical with it attached or not. A ``progress``
    callback that raises is disabled with a :class:`RuntimeWarning`
    instead of sinking the grid.
    """
    spec_list = list(specs)
    keys = {spec: spec_key(spec) for spec in dict.fromkeys(spec_list)}
    state: Optional[JournalState] = None
    if resume is not None:
        state = resume if isinstance(resume, JournalState) else replay_journal(resume)
        state.check_digest(keys.values())
    own_journal = journal is not None and not isinstance(journal, RunJournal)
    if own_journal:
        journal = (RunJournal.resume(journal) if state is not None
                   else RunJournal.create(journal, keys.values()))

    grid = GridResult(specs=spec_list, results={}, report=RunReport(cells=len(keys)))
    rec = _Recorder(grid, keys, journal, telemetry, progress, chaos)
    cache = (ResultCache(cache_dir, fs=cache_fs, on_quarantine=rec.quarantined)
             if use_cache else None)
    with contextlib.ExitStack() as stack:
        span_attrs = stack.enter_context(
            rec.tel.span("grid.run", cells=len(keys), jobs=jobs or 1))
        if own_journal:
            stack.callback(journal.close)
        pending: list[RunSpec] = []
        for spec, key in keys.items():
            hit, series = cache.load(spec, key) if cache is not None else (None, None)
            want = state.done.get(key) if state is not None else None
            verified = (result_hash(encode_result(hit))
                        if hit is not None and want is not None else None)
            if verified is not None and verified != want:
                # The cached bytes no longer match what the journal
                # witnessed: the entry is suspect.
                cache.quarantine(cache.path_for(key))
                hit = None
            if hit is not None:
                rec.served(spec, hit, series, verified)
            else:
                rec.scheduled(spec, probed=cache is not None,
                              journaled_done=want is not None, mismatch=verified is not None)
                pending.append(spec)
        if pending:
            _execute(pending, rec, cache, jobs=jobs, retries=retries, chaos=chaos)
        return rec.finish(span_attrs)


def progress_reporter(stream=None):
    """A progress callback for CLI-style grid drivers: one line per
    settled cell to ``stream`` (stderr by default)."""
    import sys

    def callback(event: ProgressEvent) -> None:
        detail = f" ({event.error})" if event.error else ""
        if event.duration_s is not None:
            detail += f" [{event.duration_s:.2f}s]"
        print(f"[{event.done}/{event.total}] {event.status:<6} "
              f"{event.spec.display_label()}{detail}",
              file=stream if stream is not None else sys.stderr)

    return callback
