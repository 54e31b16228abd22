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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.config import HostFeatures, IoDeviceKind, MachineSpec, TickMode
from repro.errors import ReproError
from repro.host.perturb import perturbation_from_dict, perturbation_to_dict
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison, compare_runs
from repro.resilience.chaos import ChaosAbort
from repro.resilience.integrity import CacheFS, attach_footer, quarantine_file, split_verified
from repro.resilience.journal import JournalState, RunJournal, replay_journal, result_hash
from repro.resilience.policy import CircuitBreaker, RunReport, classify_failure

#: Bump when the spec encoding or result encoding changes shape —
#: invalidates every previously cached result.
CACHE_VERSION = 3

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
    device_kind: Optional[IoDeviceKind] = None
    horizon_ns: Optional[int] = None
    label: Optional[str] = None
    keep_timer_on_idle_exit: bool = True
    #: Timed disturbances (:class:`repro.host.perturb.Perturbation`)
    #: installed against the VM before boot. Part of the cache key:
    #: the same run with a different schedule is a different cell.
    perturbations: tuple = ()
    #: Collect a virtual-perf profile (sampling profiler + latency
    #: histograms + steal) alongside the run. The profile is returned
    #: in :attr:`GridResult.artifacts` and cached content-addressed
    #: next to the result (``<key>.obs.json``). Ignored for the
    #: multi-VM ``overcommit.idle`` kind. Profiling never perturbs
    #: simulated time, so the RunMetrics are identical either way.
    profile: bool = False
    #: Collect the windowed in-sim time series (:mod:`repro.obs.series`)
    #: alongside the run; returned in :attr:`GridResult.series` and
    #: cached as ``<key>.series.json``. Like ``profile``, ignored for
    #: ``overcommit.idle`` and free of simulated-time side effects.
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
        "device_kind": spec.device_kind.value if spec.device_kind is not None else None,
        "horizon_ns": spec.horizon_ns,
        "label": spec.label,
        "keep_timer_on_idle_exit": spec.keep_timer_on_idle_exit,
        "profile": spec.profile,
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
        device_kind=IoDeviceKind(data["device_kind"]) if data["device_kind"] is not None else None,
        horizon_ns=data["horizon_ns"],
        label=data["label"],
        keep_timer_on_idle_exit=bool(data["keep_timer_on_idle_exit"]),
        profile=bool(data.get("profile", False)),
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
    """The :class:`~repro.obs.Observability` bundle a spec asks for.

    ``profile`` selects the full virtual-perf defaults; ``series``
    alone attaches only the :class:`~repro.obs.series.SeriesRecorder`
    (no profiler/latency/steal cost). None when the spec wants neither.
    """
    if not (spec.profile or spec.series):
        return None
    from repro.obs import ObsConfig, Observability

    if spec.profile:
        return Observability(ObsConfig(series=spec.series))
    return Observability(
        ObsConfig(profile=False, latency=False, steal=False, series=True)
    )


def execute_spec_full(
    spec: RunSpec, *, tracer=None, inspect=None
) -> tuple[Any, Optional[dict], Optional[dict]]:
    """Run one spec, returning ``(result, obs_json, series_json)``.

    The second element is the profile artifact (``spec.profile``), the
    third the windowed in-sim time series (``spec.series``); each is
    None when not requested or the kind does not support it.

    ``tracer`` and ``inspect`` are forwarded verbatim to
    :func:`~repro.experiments.runner.run_workload` /
    :func:`~repro.fleet.hostsim.run_host`. They are live objects, so
    only in-process callers (the sanitizer and the golden batteries)
    pass them; the worker pool never does.
    """
    if spec.workload.kind == OVERCOMMIT_IDLE:
        from repro.experiments.overcommit import run_idle_overcommit

        if tracer is not None or inspect is not None:
            raise GridError(f"{OVERCOMMIT_IDLE} runs take no tracer or inspect hook")

        result = run_idle_overcommit(
            spec.tick_mode, seed=spec.seed, arch=spec.arch, **spec.workload.kwargs()
        )
        return result, None, None

    if spec.workload.kind == FLEET_HOST:
        from repro.fleet.hostsim import execute_fleet_spec

        return execute_fleet_spec(spec, tracer=tracer, inspect=inspect)

    from repro.experiments.runner import DEFAULT_HORIZON_NS, run_workload
    from repro.host.costs import DEFAULT_COSTS

    obs = _obs_for(spec)
    costs = DEFAULT_COSTS
    if spec.cost_overrides:
        costs = costs.with_overrides(**dict(spec.cost_overrides))
    with _keep_timer(spec.keep_timer_on_idle_exit):
        result = run_workload(
            spec.workload.build(),
            tick_mode=spec.tick_mode,
            vcpus=spec.vcpus,
            pinned_cpus=spec.pinned_cpus,
            machine_spec=spec.machine,
            features=spec.features,
            costs=costs,
            tick_hz=spec.tick_hz,
            seed=spec.seed,
            noise=spec.noise,
            cpuidle=spec.cpuidle,
            device_kind=spec.device_kind,
            horizon_ns=spec.horizon_ns if spec.horizon_ns is not None else DEFAULT_HORIZON_NS,
            label=spec.label,
            perturbations=spec.perturbations,
            arch=spec.arch,
            tracer=tracer,
            inspect=inspect,
            obs=obs,
        )
    return (
        result,
        obs.to_json_dict() if spec.profile and obs is not None else None,
        obs.series_json() if spec.series and obs is not None else None,
    )


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


def _worker_run(spec: RunSpec, timeout_s: Optional[float], chaos=None) -> dict:
    """Pool entry point: execute one spec under its timeout, encoded.

    A profile artifact (``spec.profile``) rides back in the ``"obs"``
    key of the encoded dict and a time series (``spec.series``) in
    ``"series"``; :func:`decode_result` ignores both and the grid
    driver strips them into :attr:`GridResult.artifacts` /
    :attr:`GridResult.series`. ``"wall_s"`` / ``"pid"`` carry the
    in-worker wall-clock and worker identity for harness telemetry
    (also stripped before the result is cached).

    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosPolicy`) is
    consulted before execution: it may delay this cell past its
    timeout or SIGKILL the worker — inside the alarm scope, so an
    injected delay fails exactly like a genuinely stuck run.
    """
    t0 = time.monotonic()
    with _alarm(timeout_s):
        if chaos is not None:
            chaos.maybe_injure(spec_key(spec))
        result, obs, series = execute_spec_full(spec)
        encoded = encode_result(result)
        if obs is not None:
            encoded["obs"] = obs
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

    Layout: ``<root>/<key[:2]>/<key>.json``, one file per spec, written
    atomically (tmp + rename) with a checksum footer
    (:func:`repro.resilience.integrity.attach_footer`). On read the
    footer is verified: a corrupt file is moved to the cache's
    ``quarantine/`` directory and treated as a miss — never fatal, and
    never silently trusted. A footer-less ("legacy") file that still
    parses stays readable. Structurally stale entries (old
    ``CACHE_VERSION``, wrong shape) are plain-discarded as before —
    staleness is not corruption.

    Multi-file entries (result + profile/series artifacts) go through
    :meth:`store_entry`, which stages the whole set in a temp directory
    and publishes the result file *last* — an interruption leaves
    either a complete entry or a cold miss, never a result whose
    artifacts are missing.

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

    def artifact_path_for(self, key: str) -> Path:
        """Profile artifact sibling of :meth:`path_for` (same address)."""
        return self.root / key[:2] / f"{key}.obs.json"

    def series_path_for(self, key: str) -> Path:
        """Time-series artifact sibling (``<key>.series.json``)."""
        return self.root / key[:2] / f"{key}.series.json"

    def _read_json(self, path: Path) -> Any | None:
        """Footer-verified JSON payload of ``path``, or None.

        Missing file → miss. Corrupt bytes (failed checksum, or a
        legacy file that does not parse) → quarantine + miss. A legacy
        footer-less file that parses is served as-is.
        """
        try:
            text = self.fs.read_text(path)
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        body, status = split_verified(text)
        if status == "corrupt":
            self._quarantine(path)
            return None
        try:
            return json.loads(body if body is not None else text)
        except ValueError:
            self._quarantine(path)
            return None

    def load(self, spec: RunSpec) -> Any | None:
        """Decoded result for ``spec``, or None on miss/corruption."""
        return self._load_key(spec_key(spec))

    def _load_key(self, key: str) -> Any | None:
        path = self.path_for(key)
        payload = self._read_json(path)
        if payload is None:
            return None
        try:
            if payload["version"] != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            return decode_result(payload["result"])
        except (KeyError, TypeError, ValueError, ReproError):
            self.fs.unlink(path)
            return None

    def store_entry(self, spec: RunSpec, encoded: dict, *,
                    obs: Optional[dict] = None,
                    series: Optional[dict] = None) -> Path:
        """Store a result plus its artifacts as one atomic unit.

        Everything is staged in a throwaway directory first, then
        renamed into place with the result file **last** — the cache's
        hit predicate requires a profiled/series entry's artifacts to
        be present, so any interruption before the final rename reads
        as a cold miss, not a torn entry.
        """
        key = spec_key(spec)
        result_path = self.path_for(key)
        plan: list[tuple[Path, str]] = []
        if obs is not None:
            plan.append((self.artifact_path_for(key), json.dumps(obs, sort_keys=True)))
        if series is not None:
            plan.append((self.series_path_for(key), json.dumps(series, sort_keys=True)))
        plan.append((result_path, json.dumps(
            {"version": CACHE_VERSION, "key": key, "spec": spec_to_dict(spec),
             "result": encoded}, sort_keys=True)))
        stage = result_path.parent / f".stage-{os.getpid()}-{key[:8]}"
        self.fs.mkdir(stage)
        staged: list[tuple[Path, Path]] = []
        try:
            for path, body in plan:
                tmp = stage / path.name
                self.fs.write_text(tmp, attach_footer(body))
                staged.append((tmp, path))
            for tmp, path in staged:  # result file is last in `plan`
                self.fs.replace(tmp, path)
        finally:
            for tmp, _ in staged:
                self.fs.unlink(tmp)
            with contextlib.suppress(OSError):
                stage.rmdir()
        return result_path

    def _load_sidecar(self, path: Path) -> Optional[dict]:
        """A cached profile/series artifact, or None."""
        payload = self._read_json(path)
        if payload is not None and not isinstance(payload, dict):
            self.fs.unlink(path)
            return None
        return payload

    def quarantine_entry(self, key: str) -> int:
        """Quarantine every file of entry ``key`` (result + artifacts).

        Used when an entry's *content* is suspect as a unit — e.g. a
        resume re-verification hash mismatch — not just one file's
        bytes. Returns how many files were moved.
        """
        moved = 0
        for path in (self.path_for(key), self.artifact_path_for(key),
                     self.series_path_for(key)):
            if path.exists():
                self._quarantine(path)
                moved += 1
        return moved

    def _quarantine(self, path: Path) -> None:
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
    #: Profile artifacts for specs run with ``profile=True``
    #: (the :meth:`repro.obs.Observability.to_json_dict` payload).
    artifacts: dict[RunSpec, dict] = field(default_factory=dict)
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


def _executor(workers: Optional[int], rec: "_Recorder") -> Executor:
    """A pool of ``workers`` processes, or the in-process executor (None).
    Pools fork where they can: cheap, and workers inherit the workload
    kinds the calling process registered (tests rely on this)."""
    if workers is None:
        return _InlineExecutor()
    rec.pool_built(workers)
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _shutdown(executor: Executor) -> None:
    with contextlib.suppress(Exception):
        executor.shutdown(wait=False, cancel_futures=True)


class _Detached:
    """Stands in for disabled telemetry: every recording call is a no-op."""

    def span(self, name: str, **attrs: Any):
        return contextlib.nullcontext({})

    def now_ns(self) -> int:
        return 0

    def _ignore(self, *args: Any, **kwargs: Any) -> None:
        pass

    instant = counter = gauge = observe = add_span = _ignore


class _Recorder:
    """The one consumer of a grid's cell lifecycle.

    Each state transition of a cell calls one method here, which
    updates every consumer in turn: the :class:`GridResult` and its
    :class:`RunReport`, the result cache (for a cell that ran), the
    journal, harness telemetry, the ``progress`` callback and the chaos
    ``abort_after`` hook. Disabled telemetry is swapped for
    :class:`_Detached` once per grid and never touched again.
    """

    def __init__(self, grid: GridResult, keys: dict[RunSpec, str],
                 journal: Optional[RunJournal], telemetry, progress, chaos) -> None:
        self.grid, self.report, self.keys = grid, grid.report, keys
        self.journal, self.progress = journal, progress
        self.tel = telemetry if telemetry is not None and telemetry.enabled else _Detached()
        self.abort_after = getattr(chaos, "abort_after", None)
        self.done = 0

    def quarantined(self, path: Path, moved: Optional[Path]) -> None:
        """The cache moved a corrupt file aside."""
        self.report.quarantined += 1
        self.tel.instant("cache.quarantine", lane="cache", path=str(path))
        self.tel.counter("cache_quarantined", help="corrupt cache files quarantined")

    def served(self, spec: RunSpec, result: Any, obs: Optional[dict],
               series: Optional[dict], verified_hash: Optional[str]) -> None:
        """Settled from the cache: ``resumed`` when the journal's result
        hash re-verified it (``verified_hash``), else ``cached``."""
        label = spec.display_label()
        status = "cached" if verified_hash is None else "resumed"
        self.tel.instant("cache.probe", lane="cache", spec=label)
        if verified_hash is not None:
            self.report.resumed += 1
            self.report.reverified += 1
            self.tel.instant("resume.hit", lane="cache", spec=label)
            self.tel.counter("cells_resumed", help="cells skipped via journal resume")
            self.tel.counter("cells_reverified", help="resumed cells re-verified against "
                             "the journaled result hash")
            self._journal("resumed", spec, result_hash=verified_hash)
        elif self.journal is not None:
            self._journal("cached", spec, result_hash=result_hash(encode_result(result)))
        self._settle(spec, result, obs, series)
        self.grid.cache_hits += 1
        self.tel.instant("cache.hit", lane="cache", spec=label)
        self.tel.counter("cache_hits", help="grid cells served from cache")
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
            self.tel.counter("resume_mismatches", help="resume re-verification failures")
        if journaled_done:
            self.tel.instant("resume.miss", lane="cache", spec=label)
        if probed:
            self.tel.instant("cache.probe", lane="cache", spec=label)
            self.tel.instant("cache.miss", lane="cache", spec=label)
            self.tel.counter("cache_misses", help="grid cells not in cache")
        self._journal("scheduled", spec)

    def started(self, spec: RunSpec, attempt: int) -> None:
        self._journal("started", spec, attempt=attempt)

    def ran(self, spec: RunSpec, encoded: dict,
            cache: Optional[ResultCache]) -> Optional[ResultCache]:
        """An attempt succeeded: publish the cache entry, *then* journal
        the cell as done, so a ``done`` record always has its entry.
        Returns the cache to publish to from now on (None once a write
        failed)."""
        obs, series = encoded.pop("obs", None), encoded.pop("series", None)
        wall_s, pid = encoded.pop("wall_s"), encoded.pop("pid")
        self._settle(spec, decode_result(encoded), obs, series)
        self.grid.executed += 1
        # Reconstruct the worker's execution as a slice on its lane: it
        # ended (approximately) now and lasted wall_s.
        wall_ns = int(wall_s * 1e9)
        self.tel.add_span("shard.execute", self.tel.now_ns() - wall_ns, wall_ns,
                          lane=f"worker-{pid}", spec=spec.display_label())
        if cache is not None:
            try:
                cache.store_entry(spec, encoded, obs=obs, series=series)
            except OSError as exc:
                # An unwritable store (bad cache_dir, full disk) must not
                # sink a grid whose results are already in memory.
                warnings.warn(f"result cache disabled: cannot write {cache.root}: {exc}",
                              RuntimeWarning, stacklevel=2)
                cache = None
            else:
                self.tel.instant("cache.write", lane="cache", spec=spec.display_label())
                self.tel.counter("cache_writes", help="results written to cache")
        if self.journal is not None:
            self._journal("done", spec, result_hash=result_hash(encoded))
        self._emit(spec, "ran", duration_s=wall_s)
        return cache

    def failed(self, spec: RunSpec, error: str, attempt: int, duration_s: float,
               kind: str, *, final: bool) -> None:
        """Attempt ``attempt`` failed: the cell is retried, or (``final``)
        given up and reported in :attr:`GridResult.failed_specs`."""
        label = spec.display_label()
        if final:
            self.grid.failed_specs.append(FailedSpec(spec, error, attempt, kind))
            self.report.failures[kind] += 1
            self.done += 1
            self.tel.instant("shard.failed", spec=label, error=error,
                             attempts=attempt, kind=kind)
            self._journal("failed", spec, error=error, kind=kind, attempts=attempt)
        else:
            self.report.retries[kind] += 1
            self.tel.instant("shard.retry", spec=label, error=error,
                             attempt=attempt, kind=kind)
        self._emit(spec, "failed" if final else "retry", attempt, error, duration_s,
                   failure_kind=kind)

    def pool_built(self, workers: int) -> None:
        self.tel.gauge("pool_workers", workers, help="process pool size")

    def pool_crashed(self, exc: BaseException, casualties: int, rebuilt: bool) -> None:
        self.report.pool_rebuilds += 1
        if rebuilt:
            self.tel.instant("pool.rebuild", error=repr(exc), casualties=casualties)
            self.tel.counter("pool_rebuilds", help="process pool crash recoveries")

    def degraded(self, step: int, workers: Optional[int]) -> None:
        """A breaker trip: the pool shrank to ``workers``, or went serial (None)."""
        if workers is None:
            self.report.degradation.append("fell back to serial")
            self.tel.instant("pool.degrade", step=step, jobs=1, mode="serial")
        else:
            self.report.degradation.append(f"pool shrunk to {workers}")
            self.tel.instant("pool.degrade", step=step, jobs=workers)
        self.tel.counter("pool_degrades", help="degradation ladder steps")

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
        return grid

    def _settle(self, spec: RunSpec, result: Any, obs: Optional[dict],
                series: Optional[dict]) -> None:
        self.grid.results[spec] = result
        if obs is not None:
            self.grid.artifacts[spec] = obs
        if series is not None:
            self.grid.series[spec] = series
        self.done += 1

    def _journal(self, event: str, spec: RunSpec, **extra: Any) -> None:
        if self.journal is not None:
            self.journal.record(event, self.keys[spec], **extra)

    def _emit(self, spec: RunSpec, status: str, attempt: int = 1,
              error: Optional[str] = None, duration_s: Optional[float] = None,
              cache_hit: bool = False, failure_kind: Optional[str] = None) -> None:
        """Count a settled attempt in telemetry and report it to ``progress``."""
        self.tel.counter("cells", help="grid cells settled by status", status=status)
        if duration_s is not None:
            self.tel.observe("shard_wall_ns", int(duration_s * 1e9),
                             help="per-attempt shard wall-clock", status=status)
        if self.progress is None:
            return
        try:
            self.progress(ProgressEvent(spec, status, self.done, len(self.keys), attempt,
                                        error, duration_s, cache_hit, failure_kind))
        except Exception as exc:
            warnings.warn(f"progress callback disabled after raising {exc!r}",
                          RuntimeWarning, stacklevel=2)
            self.progress = None


def _probe(cache: Optional[ResultCache], spec: RunSpec, key: str,
           ) -> tuple[Any, Optional[dict], Optional[dict]]:
    """``(result, profile, series)`` cached for ``spec``; result None on a
    miss — including a profiled or series entry missing its artifact."""
    if cache is None:
        return None, None, None
    result = cache._load_key(key)
    obs = cache._load_sidecar(cache.artifact_path_for(key)) if spec.profile else None
    series = cache._load_sidecar(cache.series_path_for(key)) if spec.series else None
    if (spec.profile and obs is None) or (spec.series and series is None):
        result = None
    return result, obs, series


def _execute(pending: list[RunSpec], rec: _Recorder, cache: Optional[ResultCache], *,
             jobs: Optional[int], timeout_s: Optional[float], retries: int, chaos,
             max_pool_rebuilds: int, breaker: Optional[CircuitBreaker]) -> None:
    """Schedule the ``pending`` cells and settle every attempt.

    One loop drives every execution mode. ``workers`` is the pool size,
    or None for the in-process executor, which takes one cell at a time
    so a serial grid settles in spec order; a pool takes every queued
    cell at once. A broken pool and a breaker trip only swap the
    executor.
    """
    workers = jobs if jobs and jobs > 1 else None
    brk = breaker if breaker is not None else CircuitBreaker()
    attempts = dict.fromkeys(pending, 1)
    queue = deque(pending)
    in_flight: dict[Future, tuple[RunSpec, float]] = {}
    rebuilds = 0
    executor = _executor(workers, rec)
    try:
        while queue or in_flight:
            while queue and (workers is not None or not in_flight):
                spec = queue.popleft()
                rec.started(spec, attempts[spec])
                submitted = time.monotonic()
                try:
                    fut = executor.submit(_worker_run, spec, timeout_s, chaos)
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
                    final = rebuilds > max_pool_rebuilds
                    rec.pool_crashed(exc, len(lost), rebuilt=not final)
                    if final:
                        error = (f"pool rebuild cap reached ({max_pool_rebuilds}); "
                                 f"last crash: {error}")
                    else:
                        executor = _executor(workers, rec)
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
                executor = _executor(workers, rec)
    finally:
        _shutdown(executor)


def run_grid(
    specs: Iterable[RunSpec],
    *,
    jobs: Optional[int] = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = 1,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    telemetry=None,
    journal: "RunJournal | os.PathLike | str | None" = None,
    resume: "JournalState | os.PathLike | str | None" = None,
    chaos=None,
    max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
    breaker: Optional[CircuitBreaker] = None,
    cache_fs: Optional[CacheFS] = None,
) -> GridResult:
    """Execute a grid of specs, using the cache and ``jobs`` workers.

    The deduplicated specs pass four stages: **probe** the cache (a hit,
    a miss, or a result without its artifacts — a miss); **verify
    resume**; **schedule** the rest; **settle** each attempt (ran,
    retry, failed).

    ``jobs=None``/``0``/``1`` executes in-process; ``jobs=N`` fans out
    across N worker processes. A failing cell (exception, timeout,
    worker crash) is retried ``retries`` times, then reported in
    :attr:`GridResult.failed_specs` as timeout / crash / error while
    the rest of the grid completes. Pool rebuilds after worker crashes
    are capped at ``max_pool_rebuilds``; the ``breaker`` (a default
    :class:`~repro.resilience.policy.CircuitBreaker` when None) halves
    the pool, then falls back to in-process, when failures trip it.

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
    ``telemetry`` (a :class:`repro.telemetry.HarnessTelemetry`) records
    spans, instants and counters for every transition; its ``enabled``
    flag is read once per grid, and results and cache bytes are
    identical with it on or off. A ``progress`` callback that raises is
    disabled with a :class:`RuntimeWarning` instead of sinking the grid.
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
            hit, obs, series = _probe(cache, spec, key)
            want = state.done.get(key) if state is not None else None
            verified = (result_hash(encode_result(hit))
                        if hit is not None and want is not None else None)
            if verified is not None and verified != want:
                # The cached bytes no longer match what the journal
                # witnessed: the entry is suspect as a unit.
                cache.quarantine_entry(key)
                hit = None
            if hit is not None:
                rec.served(spec, hit, obs, series, verified)
            else:
                rec.scheduled(spec, probed=cache is not None,
                              journaled_done=want is not None, mismatch=verified is not None)
                pending.append(spec)
        if pending:
            _execute(pending, rec, cache, jobs=jobs, timeout_s=timeout_s, retries=retries,
                     chaos=chaos, max_pool_rebuilds=max_pool_rebuilds, breaker=breaker)
        return rec.finish(span_attrs)


def progress_reporter(stream=None):
    """A ``(stats, callback)`` pair for CLI-style grid drivers.

    ``callback`` prints one line per settled cell to ``stream`` (stderr
    by default) and tallies statuses in ``stats`` — drivers use the
    tally to report how much of a sweep was served from cache.
    """
    import collections
    import sys

    stats: collections.Counter[str] = collections.Counter()
    out = stream if stream is not None else sys.stderr

    def callback(event: ProgressEvent) -> None:
        stats[event.status] += 1
        detail = f" ({event.error})" if event.error else ""
        took = f" [{event.duration_s:.2f}s]" if event.duration_s is not None else ""
        print(f"[{event.done}/{event.total}] {event.status:<6} "
              f"{event.spec.display_label()}{took}{detail}", file=out)

    return stats, callback


# --------------------------------------------------------------------------
# A/B comparison helpers (the paper's measurement, grid-shaped)
# --------------------------------------------------------------------------

def ab_specs(
    workload: WorkloadSpec,
    *,
    baseline: TickMode = TickMode.TICKLESS,
    candidate: TickMode = TickMode.PARATICK,
    seed: int = 0,
    label: Optional[str] = None,
    **knobs: Any,
) -> tuple[RunSpec, RunSpec]:
    """The paper's A/B pair: same workload/seed/knobs, two tick modes."""
    stem = label or workload.kind
    base = RunSpec(workload=workload, tick_mode=baseline, seed=seed,
                   label=f"{stem}/{baseline.value}", **knobs)
    cand = base.with_(tick_mode=candidate, label=f"{stem}/{candidate.value}")
    return base, cand


def compare_from_grid(
    grid: GridResult, base: RunSpec, cand: RunSpec, label: str
) -> Comparison:
    """Build one paper-style comparison row out of a finished grid."""
    return compare_runs(grid[base], grid[cand], label)


def cost_overrides_from(costs: Any) -> tuple[tuple[str, int], ...]:
    """Diff a :class:`CostModel` against the defaults, as spec overrides."""
    from repro.host.costs import DEFAULT_COSTS

    out = []
    for f in fields(costs):
        value = getattr(costs, f.name)
        if value != getattr(DEFAULT_COSTS, f.name):
            out.append((f.name, value))
    return tuple(sorted(out))


def spec_for(
    workload: Any,
    *,
    tick_mode: TickMode,
    seed: int = 0,
    label: Optional[str] = None,
    **run_kwargs: Any,
) -> RunSpec:
    """Translate a ``run_workload``-style call into a :class:`RunSpec`.

    ``workload`` may be a :class:`WorkloadSpec` or a live workload
    object (reverse-mapped via :func:`describe_workload`); the remaining
    keywords mirror :func:`~repro.experiments.runner.run_workload`.
    Raises :class:`GridError` for anything the engine cannot express
    (an unknown workload type, a live ``tracer``).
    """
    ws = workload if isinstance(workload, WorkloadSpec) else describe_workload(workload)
    if run_kwargs.get("tracer") is not None:
        raise GridError("a live tracer cannot cross the worker boundary")
    run_kwargs.pop("tracer", None)
    machine = run_kwargs.pop("machine_spec", None)
    costs = run_kwargs.pop("costs", None)
    overrides = cost_overrides_from(costs) if costs is not None else ()
    return RunSpec(workload=ws, tick_mode=tick_mode, seed=seed, machine=machine,
                   cost_overrides=overrides, label=label, **run_kwargs)


def describe_workload(workload: Any) -> WorkloadSpec:
    """Reverse-map a live workload object to its declarative spec.

    Covers every in-tree workload class; raises :class:`GridError` for
    unknown types (callers fall back to serial in-process execution).
    """
    from repro.hw.nic import DATACENTER_10G
    from repro.workloads.fio import FioWorkload
    from repro.workloads.micro import (
        IdlePeriodWorkload,
        IdleWorkload,
        PingPongWorkload,
        SyncStormWorkload,
    )
    from repro.workloads.netserve import NetServiceWorkload
    from repro.workloads.parsec import ParsecWorkload

    if isinstance(workload, ParsecWorkload):
        return WorkloadSpec.make(
            "parsec", name=workload.profile.name, threads=workload.threads,
            target_cycles=workload.target_cycles,
        )
    if isinstance(workload, FioWorkload):
        return WorkloadSpec.make(
            "fio", category=workload.job.category, block_size=workload.job.block_size,
            total_bytes=workload.total_bytes,
        )
    if isinstance(workload, IdleWorkload):
        return WorkloadSpec.make("micro.idle", vcpus=workload.vcpus)
    if isinstance(workload, SyncStormWorkload):
        return WorkloadSpec.make(
            "micro.syncstorm", threads=workload.threads,
            events_per_second=workload.events_per_second,
            duration_cycles=workload.duration_cycles,
        )
    if isinstance(workload, IdlePeriodWorkload):
        return WorkloadSpec.make(
            "micro.idleperiod", idle_ns=workload.idle_ns,
            iterations=workload.iterations, work_cycles=workload.work_cycles,
        )
    if isinstance(workload, PingPongWorkload):
        return WorkloadSpec.make(
            "micro.pingpong", rounds=workload.rounds,
            work_cycles=workload.work_cycles, same_vcpu=workload.same_vcpu,
        )
    if isinstance(workload, NetServiceWorkload) and workload.profile is DATACENTER_10G:
        return WorkloadSpec.make(
            "netserve", workers=workload.workers, requests=workload.requests,
            request_bytes=workload.request_bytes, think_cycles=workload.think_cycles,
        )
    raise GridError(f"cannot describe workload {type(workload).__name__} as a spec")
