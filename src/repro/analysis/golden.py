"""Golden fixtures for the bit-identical engine guarantee, as one manifest.

The simulation core is rewritten for throughput from time to time (free
lists, re-arm fast paths, inlined dispatch loops). Every such rewrite
must be *behaviour preserving down to the bit*: same seed, same
workload, same tick mode ⇒ the same ``RunMetrics`` JSON and the same
structured event stream. This module pins that contract with one
table, :data:`BATTERIES`. Each battery names a fixture file, the timer
architecture it runs on, and its cases: ``(section, key, spec, kind)``
tuples where ``spec`` is a :class:`~repro.experiments.parallel.RunSpec`
(a :class:`~repro.fleet.spec.FleetSpec` for the fleet battery) and
``kind`` says what the fixture pins for it:

* :data:`TRACED` — the full metrics JSON plus a SHA-256 of the event
  stream, run with a :class:`HashTracer` riding along;
* :data:`DIGEST` — a SHA-256 of the metrics JSON from an untraced run
  (the production fast path);
* :data:`FLEET` — the fleet aggregate plus one metrics digest per host.

Every case runs through :func:`repro.experiments.parallel.execute_spec_full`,
the engine's own ``RunSpec`` translation. The batteries:

* ``simcore`` — 4 hand-picked workloads x 3 tick modes (traced) plus the
  first 20 fuzz seeds' :func:`~repro.scenarios.fuzzbridge.fuzz_cells`
  (3 modes x 2 placements, digests). Captured on the seed-era engine
  *before* the first fast-path rewrite;
* ``arm`` — the same cases on the ARM generic-timer backend;
* ``perturb`` — every perturbation kind x 3 tick modes (traced);
* ``fleet`` — 2 consolidation ratios x 3 tick modes of a small rack.

:func:`run_battery` executes one battery, :func:`capture` writes it,
:func:`load` reads a fixture, and the pure :func:`diff` reports every
divergence between two payloads; :func:`compare` is ``diff(load, run)``.
The tier-1 suite replays all four. Update a fixture only when behaviour
is *intended* to change::

    PYTHONPATH=src python -m repro.analysis.golden simcore perturb fleet arm
    PYTHONPATH=src python -m repro.analysis.golden perturb --write

and call out the behaviour change in the PR description.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.config import MachineSpec, TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec, execute_spec, execute_spec_full
from repro.host.perturb import Perturbation
from repro.metrics.perf import RunMetrics
from repro.sim.timebase import MSEC, USEC
from repro.sim.trace import Tracer

#: Seeds covered by the fuzz-equivalence section.
FUZZ_SEEDS = tuple(range(20))

#: Bump when the battery itself changes shape (invalidates old files).
SCHEMA = 1


def _canon(detail: Any) -> str:
    """Stable text form of a trace detail (tuples of ints/strs in practice)."""
    return json.dumps(detail, sort_keys=True, default=repr)


class HashTracer(Tracer):
    """Folds the full structured event stream into one SHA-256."""

    enabled = True

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.records = 0

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        self.records += 1
        self._h.update(f"{time}|{source}|{kind}|{_canon(detail)}\n".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def metrics_digest(metrics: RunMetrics) -> str:
    """Canonical SHA-256 of a run's full metrics JSON."""
    payload = json.dumps(metrics.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# ------------------------------------------------------------ entry kinds


def _fields_diff(want: dict, got: dict) -> str:
    return "; ".join(
        f"{field}: {want[field]!r} -> {got.get(field)!r}"
        for field in want if got.get(field) != want[field]
    )


def _run_traced(spec: RunSpec) -> dict:
    tracer = HashTracer()
    metrics = execute_spec_full(spec, tracer=tracer)[0]
    return {
        "metrics": metrics.to_json_dict(),
        "trace_sha256": tracer.hexdigest(),
        "trace_records": tracer.records,
    }


def _diff_traced(want: dict, got: dict) -> list[str]:
    out = []
    if got["metrics"] != want["metrics"]:
        out.append(f"RunMetrics diverged ({_fields_diff(want['metrics'], got['metrics'])})")
    if got["trace_sha256"] != want["trace_sha256"]:
        out.append(f"event stream diverged "
                   f"({want['trace_records']} -> {got['trace_records']} records)")
    return out


def _run_digest(spec: RunSpec) -> str:
    return metrics_digest(execute_spec(spec))


def _diff_digest(want: str, got: str) -> list[str]:
    return [] if got == want else ["metrics hash diverged"]


def _run_fleet(fleet) -> dict:
    """Per-host digests + the fleet aggregate, hosts run serially (no
    pool, no cache); the identity gate separately proves the engine
    paths match this serial reference byte-for-byte."""
    from repro.fleet.aggregate import aggregate_hosts, fleet_bytes

    metrics = [execute_spec(spec) for spec in fleet.host_specs()]
    agg = aggregate_hosts(metrics)
    return {
        "aggregate": agg.to_json_dict(),
        "aggregate_sha256": hashlib.sha256(fleet_bytes(agg)).hexdigest(),
        "hosts": {m.label: metrics_digest(m) for m in metrics},
    }


def _diff_fleet(want: dict, got: dict) -> list[str]:
    out = []
    if got["aggregate"] != want["aggregate"]:
        out.append(f"aggregate diverged ({_fields_diff(want['aggregate'], got['aggregate'])})")
    out += [f"host {host} metrics diverged"
            for host, digest in want["hosts"].items() if got["hosts"].get(host) != digest]
    return out


@dataclass(frozen=True)
class EntryKind:
    """What a fixture pins for one case: how to run it, how to diff it."""

    run: Callable[[Any], Any]
    diff: Callable[[Any, Any], list[str]]


TRACED = EntryKind(_run_traced, _diff_traced)
DIGEST = EntryKind(_run_digest, _diff_digest)
FLEET = EntryKind(_run_fleet, _diff_fleet)


class Case(NamedTuple):
    section: str
    key: str
    spec: Any
    kind: EntryKind


# -------------------------------------------------------------- manifest


#: The hand-picked traced workloads of the simcore/arm batteries.
WORKLOADS = {
    "syncstorm": RunSpec(WorkloadSpec.make(
        "micro.syncstorm", threads=2, events_per_second=800.0, duration_cycles=20_000_000,
    ), seed=3),
    "idleperiod": RunSpec(WorkloadSpec.make(
        "micro.idleperiod", idle_ns=500 * USEC, iterations=30, work_cycles=100_000,
    ), seed=5, cpuidle=True),
    "netserve": RunSpec(WorkloadSpec.make(
        "netserve", workers=2, requests=120, think_cycles=30_000,
    ), seed=7),
    "pingpong-overcommit": RunSpec(WorkloadSpec.make(
        "micro.pingpong", rounds=120, work_cycles=50_000, same_vcpu=False,
    ), seed=11, machine=MachineSpec(sockets=1, cpus_per_socket=1), pinned_cpus=(0, 0)),
}

#: One schedule per perturbation kind, each applied to the idleperiod
#: workload (long enough, at ~16 ms, to straddle every event): a suspend
#: span across halt/run boundaries, a save/restore with a guest-visible
#: clock jump, a hotplug + LIFO unplug window, and a multi-step drift.
PERTURB_SCHEDULES = {
    "suspend": (Perturbation("suspend", at_ns=4 * MSEC, duration_ns=3 * MSEC),),
    "restore": (Perturbation("restore", at_ns=4 * MSEC, duration_ns=3 * MSEC),),
    "hotplug": (Perturbation("hotplug", at_ns=2 * MSEC, duration_ns=6 * MSEC),),
    "drift": (Perturbation("drift", at_ns=2 * MSEC, count=3, period_ns=4 * MSEC,
                           step_ns=250 * USEC),),
}


def _engine_cases(arch: str) -> Iterator[Case]:
    """The simcore cases on ``arch``: traced workloads + fuzz-cell digests."""
    from repro.scenarios.fuzzbridge import fuzz_cells

    prefix = "golden" if arch == "x86" else f"golden-{arch}"
    suffix = "" if arch == "x86" else f"/{arch}"
    for name, spec in WORKLOADS.items():
        for mode in TickMode:
            key = f"{name}/{mode.value}"
            yield Case("workloads", key, spec.with_(
                tick_mode=mode, arch=arch, label=f"{prefix}/{key}"), TRACED)
    for seed in FUZZ_SEEDS:
        for cell in fuzz_cells(seed):
            key = f"seed{seed}/{cell.coord('mode')}/{cell.coord('placement')}"
            yield Case("fuzz", key, cell.spec.with_(
                arch=arch, label=cell.spec.label + suffix), DIGEST)


def _perturb_cases() -> Iterator[Case]:
    base = WORKLOADS["idleperiod"]
    for name, schedule in PERTURB_SCHEDULES.items():
        for mode in TickMode:
            key = f"{name}/{mode.value}"
            yield Case("cases", key, base.with_(
                tick_mode=mode, perturbations=schedule,
                label=f"golden-perturb/{key}"), TRACED)


def _fleet_cases() -> Iterator[Case]:
    """Small racks (2 hosts x 4 guests) with a poisson arrival burst — the
    profile that exercises the dedicated ``fleet.burst`` RNG stream, so
    the fixture pins the arrival sampling as well as the multi-VM
    scheduling. ``oc2`` is mild contention, ``oc8`` is the saturated
    regime (all guests time-slicing one pCPU)."""
    from repro.fleet.spec import FleetSpec

    guest = WorkloadSpec.make("micro.pingpong", rounds=15, work_cycles=30_000,
                              same_vcpu=False)
    for oc in (2, 8):
        for mode in TickMode:
            yield Case("cases", f"oc{oc}/{mode.value}", FleetSpec(
                name=f"golden-fleet-oc{oc}", workload=guest, tick_mode=mode,
                hosts=2, guests_per_host=4, consolidation=oc, burst="poisson",
                burst_window_ns=2 * MSEC, seed=9, horizon_ns=400 * MSEC,
                label_parts=(mode.value,),
            ), FLEET)


@dataclass(frozen=True)
class Battery:
    fixture: Path
    arch: str
    cases: Callable[[], Iterator[Case]]


#: Every golden battery; fixture paths are relative to the repo root.
BATTERIES = {
    "simcore": Battery(Path("tests/fixtures/golden_simcore.json"), "x86",
                       lambda: _engine_cases("x86")),
    "perturb": Battery(Path("tests/fixtures/golden_perturb.json"), "x86", _perturb_cases),
    "fleet": Battery(Path("tests/fixtures/golden_fleet.json"), "x86", _fleet_cases),
    "arm": Battery(Path("tests/fixtures/golden_arm.json"), "arm",
                   lambda: _engine_cases("arm")),
}


# ------------------------------------------------------- run/capture/diff


def run_battery(name: str, progress: Optional[Callable[[str], None]] = None) -> dict:
    """Execute one battery and return its fixture payload."""
    battery = BATTERIES[name]
    payload: dict = {"schema": SCHEMA}
    if battery.arch != "x86":
        payload["arch"] = battery.arch
    for case in battery.cases():
        payload.setdefault(case.section, {})[case.key] = case.kind.run(case.spec)
        if progress is not None:
            progress(f"{name} {case.key}")
    return payload


def capture(name: str, path: Optional[Path] = None, progress=None) -> dict:
    """Run one battery and write its fixture file."""
    path = Path(path or BATTERIES[name].fixture)
    payload = run_battery(name, progress)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def load(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"golden fixture schema {data.get('schema')} != expected {SCHEMA}; re-capture"
        )
    return data


def _arch_mismatch(name: str, golden: dict, arch: str) -> list[str]:
    pinned = golden.get("arch", "x86")
    if pinned == arch:
        return []
    return [f"{name}: fixture pins arch {pinned!r}, battery runs {arch!r}"]


def diff(name: str, golden: dict, fresh: dict) -> list[str]:
    """Every divergence of ``fresh`` from ``golden`` (empty = identical).

    Problems name the battery, the section and case key, and — for
    metrics and aggregates — each diverged field. Payloads pinned to
    different architectures fail fast with a single problem.
    """
    mismatch = _arch_mismatch(name, golden, fresh.get("arch", "x86"))
    if mismatch:
        return mismatch
    kinds = {case.section: case.kind for case in BATTERIES[name].cases()}
    problems: list[str] = []
    for section, kind in kinds.items():
        want, got = golden.get(section, {}), fresh.get(section, {})
        for key in want:
            where = f"{name} {section} {key}"
            if key not in got:
                problems.append(f"{where}: missing from battery")
            else:
                problems += [f"{where}: {p}" for p in kind.diff(want[key], got[key])]
        problems += [f"{name} {section} {key}: not pinned in fixture"
                     for key in got if key not in want]
    return problems


def compare(name: str, path: Optional[Path] = None, progress=None) -> list[str]:
    """Re-run one battery against its fixture; an arch mismatch fails
    before anything runs."""
    golden = load(path or BATTERIES[name].fixture)
    return (_arch_mismatch(name, golden, BATTERIES[name].arch)
            or diff(name, golden, run_battery(name, progress)))


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("batteries", nargs="*", metavar="BATTERY",
                    help=f"batteries to check or capture, of {', '.join(BATTERIES)} "
                         "(default: simcore)")
    ap.add_argument("--write", action="store_true",
                    help="re-capture the fixtures instead of checking them")
    ap.add_argument("--fixture", type=Path, default=None,
                    help="fixture file to use instead of the battery's own "
                         "(one battery only)")
    args = ap.parse_args(argv)
    names = args.batteries or ["simcore"]
    unknown = [n for n in names if n not in BATTERIES]
    if unknown:
        ap.error(f"unknown battery {', '.join(unknown)}; know {', '.join(BATTERIES)}")
    if args.fixture is not None and len(names) > 1:
        ap.error("--fixture takes exactly one battery")
    failed = 0
    for name in names:
        fixture = args.fixture or BATTERIES[name].fixture
        if args.write:
            capture(name, fixture, progress=print)
            print(f"wrote {fixture}")
            continue
        problems = compare(name, fixture)
        for p in problems:
            print(f"DIVERGED: {p}")
        print(f"{name} battery:", "clean" if not problems else f"{len(problems)} divergences")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
