"""Scenario-matrix DSL: declarative experiment grids with perturbations.

A *matrix file* (TOML or YAML) names options along eight axes —

    workload x mode x arch x placement x stress x host_timer x perturb x fleet

— plus a seed list, and expands their Cartesian product into
:class:`Cell` objects, each carrying a stable human-readable **cell ID**
(``netserve/paratick/oc4/suspend@5ms``) and a fully compiled
:class:`~repro.experiments.parallel.RunSpec`. The ID doubles as the
spec's ``label``, so it round-trips through the content-addressed result
cache: the same cell always lands on the same cache key, and two cells
never share one.

Minimal example::

    [matrix]
    name = "smoke"
    seeds = [0, 1]

    [axes]
    workload = ["ping"]
    mode = ["tickless", "paratick"]
    perturb = ["none", "suspend@5ms"]

    [workloads.ping]
    kind = "micro.pingpong"
    params = { rounds = 40, work_cycles = 30000, same_vcpu = false }

    [perturbs."suspend@5ms"]
    kind = "suspend"
    at_ms = 5
    duration_ms = 2

    [[exclude]]
    mode = "paratick"
    perturb = "suspend@5ms"

Axis options resolve through *named definition tables* (``[workloads.X]``,
``[placements.X]``, ``[stresses.X]``, ``[host_timers.X]``,
``[perturbs.X]``) or through built-ins:

* ``mode`` — ``periodic`` / ``tickless`` / ``paratick``;
* ``arch`` — ``x86`` (default) or ``arm``: the timer architecture both
  the guests and the hypervisor simulate (:mod:`repro.hw.timerhw`);
* ``placement`` — ``solo`` (1:1 pinned) or ``oc<K>`` (K vCPUs share
  each physical CPU); a ``[placements.X]`` table may give ``pcpus``
  explicitly;
* ``stress`` — ``none``, ``noise``, ``cpuidle``, ``noise+cpuidle``;
* ``host_timer`` — ``hz<N>`` (host tick rate);
* ``perturb`` — ``none``, or a ``[perturbs.X]`` table holding one
  perturbation's fields (or ``events = [...]`` for a schedule).
  Durations accept ``_ns`` / ``_us`` / ``_ms`` suffixes.
* ``fleet`` — ``none`` (single-VM cells, the default), or a
  ``[fleets.X]`` table (``hosts``, ``guests``, ``consolidation``,
  ``burst``, optional ``burst_window_ms``/``burst_waves``). A fleet
  option makes the cell a :class:`~repro.fleet.spec.FleetSpec` named
  after the cell ID and fans it into its ``hosts`` independent host
  shards — cell IDs gain a ``/h<NN>`` suffix and each shard is that
  fleet's ``fleet.host`` spec, riding the same cache keys, pool, and
  sanitizer battery as every other cell. Fleet cells require the ``solo``
  placement (the host's physical CPU count comes from the
  consolidation ratio); pair other placements with fleets via
  ``[[exclude]]``.

``[[exclude]]`` tables remove cells whose coordinates match *all* the
given ``axis = "option"`` pairs. Expansion order is deterministic:
axes in the fixed order above, options in file order, seeds last,
host shards innermost.

The differential fuzzer's seed expansion compiles into the very same
:class:`Cell` representation (:mod:`repro.scenarios.fuzzbridge`), so
hand-written matrices and random fuzz scenarios share one schema and
one execution/checking path (:mod:`repro.scenarios.runcheck`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.config import MachineSpec, TickMode
from repro.errors import ConfigError
from repro.experiments.parallel import RunSpec, WorkloadSpec
from repro.host.perturb import Perturbation
from repro.sim.timebase import MSEC, USEC

if TYPE_CHECKING:
    from repro.fleet.spec import FleetSpec

#: Fixed axis order (expansion order and cell-ID part order).
AXES = ("workload", "mode", "arch", "placement", "stress", "host_timer", "perturb", "fleet")

#: Recognised timer architectures (see :mod:`repro.hw.timerhw`).
ARCH_OPTIONS = ("x86", "arm")

#: Axes that always contribute a cell-ID part, even with one option.
ALWAYS_IN_ID = ("workload", "mode")

#: ``[fleets.X]`` table keys -> (FleetSpec field, type); the
#: ``burst_window_{ns,us,ms}`` unit fields are read separately.
_FLEET_FIELDS = {
    "hosts": ("hosts", int),
    "guests": ("guests_per_host", int),
    "consolidation": ("consolidation", int),
    "burst": ("burst", str),
    "burst_waves": ("burst_waves", int),
}

_OC_RE = re.compile(r"^oc(\d+)$")
_HZ_RE = re.compile(r"^hz(\d+)$")


@dataclass(frozen=True)
class Cell:
    """One expanded matrix cell: ID + coordinates + compiled spec."""

    id: str
    #: ``(axis, option)`` pairs in axis order, seed last.
    coords: tuple[tuple[str, str], ...]
    spec: RunSpec

    def coord(self, axis: str) -> str:
        return dict(self.coords)[axis]


def _ns_field(table: dict, base: str, *, default: Optional[int] = None) -> int:
    """Read ``<base>_ns`` / ``<base>_us`` / ``<base>_ms`` (exactly one)."""
    present = [u for u in ("ns", "us", "ms") if f"{base}_{u}" in table]
    if not present:
        if default is None:
            raise ConfigError(f"perturbation needs {base}_ns/{base}_us/{base}_ms")
        return default
    if len(present) > 1:
        raise ConfigError(f"give {base} in one unit, not {present}")
    unit = present[0]
    value = int(table[f"{base}_{unit}"])
    return value * {"ns": 1, "us": USEC, "ms": MSEC}[unit]


def _perturbation_from_table(table: dict) -> Perturbation:
    known = {
        "kind", "count",
        "at_ns", "at_us", "at_ms",
        "duration_ns", "duration_us", "duration_ms",
        "period_ns", "period_us", "period_ms",
        "step_ns", "step_us", "step_ms",
    }
    unknown = set(table) - known
    if unknown:
        raise ConfigError(f"unknown perturbation fields {sorted(unknown)}")
    return Perturbation(
        kind=table.get("kind", ""),
        at_ns=_ns_field(table, "at"),
        duration_ns=_ns_field(table, "duration", default=0),
        count=int(table.get("count", 1)),
        period_ns=_ns_field(table, "period", default=0),
        step_ns=_ns_field(table, "step", default=0),
    )


class Matrix:
    """A parsed scenario matrix; :meth:`expand` compiles the grid."""

    def __init__(self, doc: dict, *, origin: str = "<matrix>"):
        self.origin = origin
        if not isinstance(doc, dict):
            raise ConfigError(f"{origin}: top level must be a table/mapping")
        meta = doc.get("matrix", {})
        self.name: str = meta.get("name") or "matrix"
        seeds = meta.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"{origin}: matrix.seeds must be a non-empty list")
        self.seeds: tuple[int, ...] = tuple(int(s) for s in seeds)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"{origin}: duplicate seeds {seeds}")
        self.horizon_ns: Optional[int] = (
            _ns_field(meta, "horizon") if any(f"horizon_{u}" in meta for u in ("ns", "us", "ms"))
            else None
        )

        axes_doc = doc.get("axes")
        if not isinstance(axes_doc, dict):
            raise ConfigError(f"{origin}: an [axes] table is required")
        unknown = set(axes_doc) - set(AXES)
        if unknown:
            raise ConfigError(f"{origin}: unknown axes {sorted(unknown)} (know {AXES})")
        defaults = {"arch": ["x86"], "placement": ["solo"], "stress": ["none"],
                    "host_timer": ["hz250"], "perturb": ["none"],
                    "fleet": ["none"]}
        self.axes: dict[str, tuple[str, ...]] = {}
        for axis in AXES:
            options = axes_doc.get(axis, defaults.get(axis))
            if options is None:
                raise ConfigError(f"{origin}: axis {axis!r} is required")
            if not isinstance(options, list) or not options:
                raise ConfigError(f"{origin}: axis {axis!r} must be a non-empty list")
            options = [str(o) for o in options]
            if len(set(options)) != len(options):
                raise ConfigError(f"{origin}: axis {axis!r} repeats an option")
            self.axes[axis] = tuple(options)
        for a in self.axes["arch"]:
            if a not in ARCH_OPTIONS:
                raise ConfigError(
                    f"{origin}: unknown arch {a!r} (know {ARCH_OPTIONS})"
                )

        self._workloads: dict = doc.get("workloads", {})
        self._placements: dict = doc.get("placements", {})
        self._stresses: dict = doc.get("stresses", {})
        self._host_timers: dict = doc.get("host_timers", {})
        self._perturbs: dict = doc.get("perturbs", {})
        self._fleets: dict = doc.get("fleets", {})
        self.excludes: list[dict[str, str]] = []
        for ex in doc.get("exclude", []):
            if not isinstance(ex, dict) or not ex:
                raise ConfigError(f"{origin}: [[exclude]] entries must be non-empty tables")
            bad = set(ex) - set(AXES) - {"seed"}
            if bad:
                raise ConfigError(f"{origin}: exclude on unknown axes {sorted(bad)}")
            self.excludes.append({k: str(v) for k, v in ex.items()})

        # Resolve every referenced option eagerly so bad names fail at
        # load time, not mid-expansion.
        self._resolved_workloads = {n: self._workload_def(n) for n in self.axes["workload"]}
        self._resolved_stress = {n: self._stress_def(n) for n in self.axes["stress"]}
        self._resolved_hz = {n: self._host_timer_def(n) for n in self.axes["host_timer"]}
        self._resolved_perturbs = {n: self._perturb_def(n) for n in self.axes["perturb"]}
        self._resolved_fleets = {n: self._fleet_def(n) for n in self.axes["fleet"]}
        for name in self.axes["placement"]:
            self._placement_def(name)  # validates

    # ----------------------------------------------------- option resolvers

    def _workload_def(self, name: str) -> tuple[WorkloadSpec, int]:
        table = self._workloads.get(name)
        if not isinstance(table, dict) or "kind" not in table:
            raise ConfigError(
                f"{self.origin}: workload {name!r} needs a [workloads.{name}] "
                f"table with a 'kind'"
            )
        params = table.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{self.origin}: workloads.{name}.params must be a table")
        ws = WorkloadSpec.make(str(table["kind"]), **params)
        vcpus = table.get("vcpus")
        nv = int(vcpus) if vcpus is not None else ws.build().default_vcpus()
        if nv < 1:
            raise ConfigError(f"{self.origin}: workload {name!r} resolves to {nv} vCPUs")
        return ws, nv

    def _placement_def(self, name: str):
        table = self._placements.get(name)
        if isinstance(table, dict):
            pcpus = int(table.get("pcpus", 0))
            if pcpus < 1:
                raise ConfigError(f"{self.origin}: placements.{name} needs pcpus >= 1")
            return lambda nv: _squeeze(nv, pcpus)
        if name == "solo":
            return lambda nv: _squeeze(nv, nv)
        m = _OC_RE.match(name)
        if m:
            k = int(m.group(1))
            if k < 2:
                raise ConfigError(f"{self.origin}: {name!r} must overcommit (oc2+)")
            return lambda nv: _squeeze(nv, max(1, -(-nv // k)))
        raise ConfigError(
            f"{self.origin}: unknown placement {name!r} (builtin: solo, oc<K>; "
            f"or define [placements.{name}])"
        )

    def _stress_def(self, name: str) -> tuple[bool, bool]:
        table = self._stresses.get(name)
        if isinstance(table, dict):
            return bool(table.get("noise", False)), bool(table.get("cpuidle", False))
        builtin = {
            "none": (False, False), "noise": (True, False),
            "cpuidle": (False, True), "noise+cpuidle": (True, True),
        }
        if name in builtin:
            return builtin[name]
        raise ConfigError(
            f"{self.origin}: unknown stress {name!r} "
            f"(builtin: {sorted(builtin)}; or define [stresses.{name}])"
        )

    def _host_timer_def(self, name: str) -> int:
        table = self._host_timers.get(name)
        if isinstance(table, dict):
            hz = int(table.get("tick_hz", 0))
            if hz < 1:
                raise ConfigError(f"{self.origin}: host_timers.{name} needs tick_hz >= 1")
            return hz
        m = _HZ_RE.match(name)
        if m:
            return int(m.group(1))
        raise ConfigError(
            f"{self.origin}: unknown host_timer {name!r} (builtin: hz<N>; "
            f"or define [host_timers.{name}])"
        )

    def _fleet_def(self, name: str) -> Optional[dict]:
        """Parse one fleet option's table into :class:`FleetSpec` fields
        (only those it sets); None means a plain single-VM cell. The
        spec itself checks the values when each cell builds it."""
        if name == "none":
            return None
        table = self._fleets.get(name)
        if not isinstance(table, dict):
            raise ConfigError(
                f"{self.origin}: unknown fleet {name!r} "
                f"(builtin: none; or define [fleets.{name}])"
            )
        unknown = set(table) - set(_FLEET_FIELDS) - {
            "burst_window_ns", "burst_window_us", "burst_window_ms"}
        if unknown:
            raise ConfigError(
                f"{self.origin}: unknown fleet fields {sorted(unknown)} "
                f"in [fleets.{name}]"
            )
        fields = {attr: cast(table[key]) for key, (attr, cast) in _FLEET_FIELDS.items()
                  if key in table}
        if any(f"burst_window_{u}" in table for u in ("ns", "us", "ms")):
            try:
                fields["burst_window_ns"] = _ns_field(table, "burst_window")
            except ConfigError as exc:
                raise ConfigError(f"{self.origin}: fleets.{name}: {exc}") from None
        return fields

    def _perturb_def(self, name: str) -> tuple[Perturbation, ...]:
        table = self._perturbs.get(name)
        if isinstance(table, dict):
            if "events" in table:
                events = table["events"]
                if not isinstance(events, list) or not events:
                    raise ConfigError(
                        f"{self.origin}: perturbs.{name}.events must be a non-empty list"
                    )
                return tuple(_perturbation_from_table(e) for e in events)
            return (_perturbation_from_table(table),)
        if name == "none":
            return ()
        raise ConfigError(
            f"{self.origin}: unknown perturb {name!r} "
            f"(builtin: none; or define [perturbs.{name}])"
        )

    # ------------------------------------------------------------ expansion

    def _excluded(self, coords: dict[str, str]) -> bool:
        return any(
            all(coords.get(axis) == value for axis, value in ex.items())
            for ex in self.excludes
        )

    def cell_id(self, coords: dict[str, str]) -> str:
        parts = [
            coords[axis] for axis in AXES
            if axis in ALWAYS_IN_ID or len(self.axes[axis]) > 1
        ]
        if len(self.seeds) > 1:
            parts.append(f"s{coords['seed']}")
        return "/".join(parts)

    def expand(self) -> list[Cell]:
        """The full grid, exclusions applied, in deterministic order."""
        cells: list[Cell] = []
        seen: set[str] = set()
        option_lists = [self.axes[a] for a in AXES]
        for combo in itertools.product(*option_lists):
            axis_coords = dict(zip(AXES, combo))
            for seed in self.seeds:
                coords = {**axis_coords, "seed": str(seed)}
                if self._excluded(coords):
                    continue
                cid = self.cell_id(coords)
                if self._resolved_fleets[axis_coords["fleet"]] is None:
                    shards = [(cid, coords, self._compile(axis_coords, seed, cid))]
                else:
                    fleet = self._compile_fleet(axis_coords, seed, cid)
                    shards = [
                        (f"{cid}/h{h:02d}", {**coords, "host": str(h)}, fleet.host_spec(h))
                        for h in range(fleet.hosts)
                    ]
                for shard_id, shard_coords, spec in shards:
                    if shard_id in seen:
                        raise ConfigError(
                            f"{self.origin}: duplicate cell id {shard_id!r}"
                        )
                    seen.add(shard_id)
                    cells.append(Cell(
                        id=shard_id,
                        coords=tuple(shard_coords.items()),
                        spec=spec,
                    ))
        return cells

    def _knobs(self, coords: dict[str, str], seed: int) -> dict:
        """The fields a cell's RunSpec and a fleet cell's FleetSpec share."""
        noise, cpuidle = self._resolved_stress[coords["stress"]]
        return dict(
            workload=self._resolved_workloads[coords["workload"]][0],
            tick_mode=TickMode(coords["mode"]),
            seed=seed,
            tick_hz=self._resolved_hz[coords["host_timer"]],
            noise=noise,
            cpuidle=cpuidle,
            horizon_ns=self.horizon_ns,
            perturbations=self._resolved_perturbs[coords["perturb"]],
            arch=coords["arch"],
        )

    def _compile(self, coords: dict[str, str], seed: int, cid: str) -> RunSpec:
        nv = self._resolved_workloads[coords["workload"]][1]
        machine, pinned = self._placement_def(coords["placement"])(nv)
        return RunSpec(vcpus=nv, machine=machine, pinned_cpus=pinned, label=cid,
                       **self._knobs(coords, seed))

    def _compile_fleet(self, coords: dict[str, str], seed: int, cid: str) -> FleetSpec:
        """The fleet a fleet cell describes; its hosts are the shards."""
        from repro.fleet.spec import FleetSpec

        if coords["placement"] != "solo":
            raise ConfigError(
                f"{self.origin}: fleet cells require the 'solo' placement "
                f"(the host's pCPUs come from the consolidation ratio); "
                f"exclude the ({coords['placement']!r}, "
                f"{coords['fleet']!r}) combination with [[exclude]]"
            )
        try:
            return FleetSpec(name=cid, **self._knobs(coords, seed),
                             **self._resolved_fleets[coords["fleet"]])
        except ConfigError as exc:
            raise ConfigError(f"{self.origin}: fleets.{coords['fleet']}: {exc}") from None


def _squeeze(nvcpus: int, pcpus: int) -> tuple[MachineSpec, tuple[int, ...]]:
    """``nvcpus`` vCPUs round-robined onto ``pcpus`` physical CPUs."""
    return (
        MachineSpec(sockets=1, cpus_per_socket=pcpus),
        tuple(i % pcpus for i in range(nvcpus)),
    )


# ----------------------------------------------------------------- loading


def parse_matrix(text: str, fmt: str = "toml", *, origin: str = "<matrix>") -> Matrix:
    """Parse matrix source text (``fmt``: ``toml`` or ``yaml``)."""
    if fmt == "toml":
        import tomllib

        try:
            doc = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{origin}: invalid TOML: {exc}") from None
    elif fmt == "yaml":
        try:
            import yaml
        except ImportError:  # pragma: no cover - environment-dependent
            raise ConfigError(f"{origin}: YAML matrices need PyYAML installed") from None
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{origin}: invalid YAML: {exc}") from None
    else:
        raise ConfigError(f"{origin}: unknown matrix format {fmt!r} (toml|yaml)")
    return Matrix(doc, origin=origin)


def load_matrix(path: str | Path) -> Matrix:
    """Load a matrix file; the format follows the extension.

    A missing or unreadable file is a :class:`ConfigError`, like any
    other bad matrix.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    fmt = {".toml": "toml", ".yaml": "yaml", ".yml": "yaml"}.get(suffix)
    if fmt is None:
        raise ConfigError(f"{path}: unknown matrix extension {suffix!r} (.toml/.yaml/.yml)")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read matrix file: {reason}") from None
    return parse_matrix(text, fmt, origin=str(path))
