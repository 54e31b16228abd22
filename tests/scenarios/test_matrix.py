"""Property tests for the scenario-matrix expander.

The expander's contract: the cell count is the product of the axis
sizes (times seeds, minus exclusions), cell IDs are unique and stable,
exclusions are honored, expansion order is deterministic, and every
cell ID round-trips through the content-addressed cache key.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.config import TickMode
from repro.errors import ConfigError
from repro.experiments.parallel import spec_from_dict, spec_key, spec_to_dict
from repro.scenarios.matrix import AXES, Matrix, load_matrix, parse_matrix


def doc(**overrides) -> dict:
    """A small but fully-featured matrix document."""
    base = {
        "matrix": {"name": "t", "seeds": [0], "horizon_ms": 20},
        "axes": {
            "workload": ["ping"],
            "mode": ["tickless", "paratick"],
        },
        "workloads": {
            "ping": {"kind": "micro.pingpong",
                     "params": {"rounds": 10, "work_cycles": 10_000,
                                "same_vcpu": False}},
            "idle": {"kind": "micro.idle", "params": {"vcpus": 2}},
        },
        "perturbs": {
            "suspend@5ms": {"kind": "suspend", "at_ms": 5, "duration_ms": 2},
            "drifty": {"kind": "drift", "at_ms": 3, "step_us": 100},
        },
    }
    base.update(overrides)
    return base


def axes(**kw) -> dict:
    full = {"workload": ["ping"], "mode": ["tickless", "paratick"]}
    full.update(kw)
    return full


class TestExpansionProperties:
    def test_count_is_product_of_axis_sizes(self):
        mx = Matrix(doc(axes=axes(
            workload=["ping", "idle"],
            mode=["periodic", "tickless", "paratick"],
            placement=["solo", "oc2"],
            perturb=["none", "suspend@5ms"],
        )))
        mx.seeds = (0, 1)
        cells = mx.expand()
        sizes = [len(mx.axes[a]) for a in AXES] + [len(mx.seeds)]
        expected = 1
        for s in sizes:
            expected *= s
        assert len(cells) == expected == 2 * 3 * 2 * 1 * 1 * 2 * 2

    def test_no_duplicate_cell_ids_or_cache_keys(self):
        mx = Matrix(doc(axes=axes(
            workload=["ping", "idle"],
            mode=["periodic", "tickless", "paratick"],
            placement=["solo", "oc2", "oc3"],
            perturb=["none", "suspend@5ms", "drifty"],
        ), matrix={"name": "t", "seeds": [0, 1, 2]}))
        cells = mx.expand()
        assert len({c.id for c in cells}) == len(cells)
        assert len({spec_key(c.spec) for c in cells}) == len(cells)

    def test_deterministic_order(self):
        d = doc(axes=axes(placement=["solo", "oc2"], perturb=["none", "drifty"]))
        first = Matrix(d).expand()
        second = Matrix(d).expand()
        assert [c.id for c in first] == [c.id for c in second]
        assert [spec_key(c.spec) for c in first] == [spec_key(c.spec) for c in second]

    def test_order_follows_axis_nesting(self):
        mx = Matrix(doc(axes=axes(mode=["tickless", "paratick"],
                                  placement=["solo", "oc2"])))
        ids = [c.id for c in mx.expand()]
        # placement (inner) varies fastest, mode (outer) slowest.
        assert ids == [
            "ping/tickless/solo", "ping/tickless/oc2",
            "ping/paratick/solo", "ping/paratick/oc2",
        ]

    def test_exclusions_honored(self):
        d = doc(axes=axes(placement=["solo", "oc2"]))
        d["exclude"] = [{"mode": "paratick", "placement": "oc2"}]
        cells = Matrix(d).expand()
        assert len(cells) == 2 * 2 - 1
        assert all(
            not (c.coord("mode") == "paratick" and c.coord("placement") == "oc2")
            for c in cells
        )

    def test_exclusion_may_match_on_seed(self):
        d = doc(matrix={"name": "t", "seeds": [0, 1]})
        d["exclude"] = [{"seed": 1, "mode": "paratick"}]
        cells = Matrix(d).expand()
        assert len(cells) == 2 * 2 - 1
        assert "ping/paratick/s1" not in {c.id for c in cells}

    def test_expansion_covers_full_cartesian_product(self):
        mx = Matrix(doc(axes=axes(placement=["solo", "oc2"],
                                  perturb=["none", "suspend@5ms"])))
        got = {(c.coord("mode"), c.coord("placement"), c.coord("perturb"))
               for c in mx.expand()}
        want = set(itertools.product(
            ("tickless", "paratick"), ("solo", "oc2"), ("none", "suspend@5ms")))
        assert got == want


class TestCellIds:
    def test_single_option_axes_omitted(self):
        cells = Matrix(doc()).expand()
        assert [c.id for c in cells] == ["ping/tickless", "ping/paratick"]

    def test_workload_and_mode_always_present(self):
        mx = Matrix(doc(axes=axes(mode=["paratick"])))
        assert [c.id for c in mx.expand()] == ["ping/paratick"]

    def test_seed_suffix_only_for_multi_seed(self):
        multi = Matrix(doc(matrix={"name": "t", "seeds": [3, 4]})).expand()
        assert {c.id for c in multi} == {
            "ping/tickless/s3", "ping/tickless/s4",
            "ping/paratick/s3", "ping/paratick/s4",
        }

    def test_issue_style_id_shape(self):
        mx = Matrix(doc(axes=axes(
            workload=["ping", "idle"], mode=["paratick"],
            placement=["solo", "oc4"], perturb=["none", "suspend@5ms"],
        )))
        assert "ping/paratick/oc4/suspend@5ms" in {c.id for c in mx.expand()}

    def test_id_is_the_spec_label(self):
        for cell in Matrix(doc()).expand():
            assert cell.spec.label == cell.id


class TestCacheKeyRoundTrip:
    def test_id_rides_the_cache_key(self):
        # Two cells identical except for the label/ID must hash apart,
        # and the label survives the cache round-trip.
        cell = Matrix(doc()).expand()[0]
        relabeled = cell.spec.with_(label="elsewhere")
        assert spec_key(cell.spec) != spec_key(relabeled)
        back = spec_from_dict(spec_to_dict(cell.spec))
        assert back.label == cell.id
        assert spec_key(back) == spec_key(cell.spec)

    def test_perturbations_ride_the_cache_key(self):
        mx = Matrix(doc(axes=axes(perturb=["none", "suspend@5ms"])))
        by_perturb = {c.coord("perturb"): c for c in mx.expand()
                      if c.coord("mode") == "tickless"}
        plain = by_perturb["none"].spec
        shaken = by_perturb["suspend@5ms"].spec
        assert spec_key(plain.with_(label=None)) != spec_key(shaken.with_(label=None))
        back = spec_from_dict(spec_to_dict(shaken))
        assert back.perturbations == shaken.perturbations
        assert spec_key(back) == spec_key(shaken)


class TestCompilation:
    def test_modes_compile_to_tick_modes(self):
        modes = {c.spec.tick_mode for c in Matrix(doc()).expand()}
        assert modes == {TickMode.TICKLESS, TickMode.PARATICK}

    def test_overcommit_placement_squeezes_pcpus(self):
        mx = Matrix(doc(axes=axes(workload=["idle"], placement=["solo", "oc2"])))
        by_placement = {c.coord("placement"): c.spec for c in mx.expand()
                        if c.coord("mode") == "tickless"}
        assert by_placement["solo"].machine.cpus_per_socket == 2
        assert by_placement["solo"].pinned_cpus == (0, 1)
        assert by_placement["oc2"].machine.cpus_per_socket == 1
        assert by_placement["oc2"].pinned_cpus == (0, 0)

    def test_custom_placement_table(self):
        d = doc(axes=axes(workload=["idle"], placement=["pair"]))
        d["placements"] = {"pair": {"pcpus": 2}}
        spec = Matrix(d).expand()[0].spec
        assert spec.machine.cpus_per_socket == 2

    def test_stress_and_host_timer_builtins(self):
        mx = Matrix(doc(axes=axes(
            stress=["none", "noise+cpuidle"], host_timer=["hz100", "hz1000"])))
        specs = {(c.coord("stress"), c.coord("host_timer")): c.spec
                 for c in mx.expand() if c.coord("mode") == "tickless"}
        assert specs[("none", "hz100")].noise is False
        assert specs[("none", "hz100")].tick_hz == 100
        loud = specs[("noise+cpuidle", "hz1000")]
        assert loud.noise is True and loud.cpuidle is True and loud.tick_hz == 1000

    def test_perturb_schedule_compiles(self):
        mx = Matrix(doc(axes=axes(perturb=["suspend@5ms"])))
        p = mx.expand()[0].spec.perturbations
        assert len(p) == 1
        assert p[0].kind == "suspend"
        assert p[0].at_ns == 5_000_000 and p[0].duration_ns == 2_000_000

    def test_horizon_applies(self):
        assert Matrix(doc()).expand()[0].spec.horizon_ns == 20_000_000


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown axes"):
            Matrix(doc(axes=axes(flavor=["vanilla"])))

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement"):
            Matrix(doc(axes=axes(placement=["magic"])))

    def test_unknown_perturb_rejected(self):
        with pytest.raises(ConfigError, match="unknown perturb"):
            Matrix(doc(axes=axes(perturb=["asteroid"])))

    def test_missing_workload_table_rejected(self):
        with pytest.raises(ConfigError, match="workloads"):
            Matrix(doc(axes=axes(workload=["ghost"])))

    def test_duplicate_axis_option_rejected(self):
        with pytest.raises(ConfigError, match="repeats"):
            Matrix(doc(axes=axes(mode=["tickless", "tickless"])))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate seeds"):
            Matrix(doc(matrix={"name": "t", "seeds": [1, 1]}))

    def test_ambiguous_time_unit_rejected(self):
        d = doc(axes=axes(perturb=["suspend@5ms"]))
        d["perturbs"]["suspend@5ms"]["at_us"] = 5000
        with pytest.raises(ConfigError, match="one unit"):
            Matrix(d)

    def test_unknown_perturb_field_rejected(self):
        d = doc(axes=axes(perturb=["suspend@5ms"]))
        d["perturbs"]["suspend@5ms"]["warp"] = 9
        with pytest.raises(ConfigError, match="unknown perturbation fields"):
            Matrix(d)

    def test_exclude_on_unknown_axis_rejected(self):
        d = doc()
        d["exclude"] = [{"flavor": "vanilla"}]
        with pytest.raises(ConfigError, match="unknown axes"):
            Matrix(d)

    def test_oc1_rejected(self):
        with pytest.raises(ConfigError, match="overcommit"):
            Matrix(doc(axes=axes(placement=["oc1"])))


TOML_TEXT = """
[matrix]
name = "fmt"
seeds = [0]

[axes]
workload = ["ping"]
mode = ["tickless", "paratick"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 5, work_cycles = 1000, same_vcpu = false }
"""

YAML_TEXT = """
matrix:
  name: fmt
  seeds: [0]
axes:
  workload: [ping]
  mode: [tickless, paratick]
workloads:
  ping:
    kind: micro.pingpong
    params: {rounds: 5, work_cycles: 1000, same_vcpu: false}
"""


class TestFormats:
    def test_toml_and_yaml_expand_identically(self):
        toml_cells = parse_matrix(TOML_TEXT, "toml").expand()
        try:
            yaml_cells = parse_matrix(YAML_TEXT, "yaml").expand()
        except ConfigError as exc:
            pytest.skip(str(exc))  # PyYAML genuinely absent
        assert [c.id for c in toml_cells] == [c.id for c in yaml_cells]
        assert ([spec_key(c.spec) for c in toml_cells]
                == [spec_key(c.spec) for c in yaml_cells])

    def test_load_matrix_dispatches_on_extension(self, tmp_path):
        f = tmp_path / "m.toml"
        f.write_text(TOML_TEXT)
        assert len(load_matrix(f).expand()) == 2
        bad = tmp_path / "m.ini"
        bad.write_text(TOML_TEXT)
        with pytest.raises(ConfigError, match="extension"):
            load_matrix(bad)

    def test_invalid_toml_reports_origin(self, tmp_path):
        f = tmp_path / "broken.toml"
        f.write_text("[matrix\nname=")
        with pytest.raises(ConfigError, match="broken.toml"):
            load_matrix(f)


class TestRandomizedMatrices:
    @pytest.mark.parametrize("trial", range(5))
    def test_random_axis_subsets_hold_the_properties(self, trial):
        rng = random.Random(trial)
        d = doc()
        d["matrix"] = {"name": "r", "seeds": sorted(rng.sample(range(10), rng.randint(1, 3)))}
        d["axes"] = {
            "workload": rng.sample(["ping", "idle"], rng.randint(1, 2)),
            "mode": rng.sample([m.value for m in TickMode], rng.randint(1, 3)),
            "placement": rng.sample(["solo", "oc2", "oc3"], rng.randint(1, 3)),
            "perturb": rng.sample(["none", "suspend@5ms", "drifty"], rng.randint(1, 3)),
        }
        mx = Matrix(d)
        cells = mx.expand()
        expected = 1
        for a in AXES:
            expected *= len(mx.axes[a])
        expected *= len(mx.seeds)
        assert len(cells) == expected
        assert len({c.id for c in cells}) == expected
        assert len({spec_key(c.spec) for c in cells}) == expected


class TestFleetAxis:
    """The [fleet] axis: sharded expansion into fleet.host cells."""

    @staticmethod
    def fleet_doc(**fleet_fields):
        table = {"hosts": 2, "guests": 3, "consolidation": 3}
        table.update(fleet_fields)
        return doc(
            axes=axes(fleet=["none", "rack"]),
            fleets={"rack": table},
        )

    def test_fleet_cells_shard_per_host(self):
        cells = Matrix(self.fleet_doc()).expand()
        # 1 workload x 2 modes x (1 plain + 2 host shards) = 6 cells
        assert len(cells) == 2 * (1 + 2)
        fleet_ids = [c.id for c in cells if c.coord("fleet") == "rack"]
        assert fleet_ids == [
            "ping/tickless/rack/h00", "ping/tickless/rack/h01",
            "ping/paratick/rack/h00", "ping/paratick/rack/h01",
        ]

    def test_fleet_shards_carry_host_coordinate_and_kind(self):
        from repro.fleet.spec import FLEET_HOST, fleet_params

        cells = Matrix(self.fleet_doc(burst="waves")).expand()
        shards = [c for c in cells if c.coord("fleet") == "rack"]
        assert [c.coord("host") for c in shards] == ["0", "1", "0", "1"]
        for c in shards:
            assert c.spec.workload.kind == FLEET_HOST
            p = fleet_params(c.spec)
            assert p["guests"] == 3 and p["consolidation"] == 3
            assert p["burst"] == "waves"
            assert p["guest_kind"] == "micro.pingpong"
        plain = [c for c in cells if c.coord("fleet") == "none"]
        assert all(c.spec.workload.kind == "micro.pingpong" for c in plain)

    def test_fleet_shards_have_unique_cache_keys(self):
        cells = Matrix(self.fleet_doc()).expand()
        assert len({spec_key(c.spec) for c in cells}) == len(cells)

    def test_burst_window_unit_fields(self):
        from repro.fleet.spec import fleet_params

        cells = Matrix(self.fleet_doc(burst="ramp", burst_window_ms=3)).expand()
        shard = next(c for c in cells if c.coord("fleet") == "rack")
        assert fleet_params(shard.spec)["burst_window_ns"] == 3_000_000

    def test_fleet_requires_solo_placement(self):
        d = self.fleet_doc()
        d["axes"]["placement"] = ["solo", "oc2"]
        with pytest.raises(ConfigError, match="solo"):
            Matrix(d).expand()

    def test_fleet_placement_conflict_excludable(self):
        d = self.fleet_doc()
        d["axes"]["placement"] = ["solo", "oc2"]
        d["exclude"] = [{"placement": "oc2", "fleet": "rack"}]
        cells = Matrix(d).expand()
        assert all(
            not (c.coord("placement") == "oc2" and c.coord("fleet") == "rack")
            for c in cells
        )

    def test_unknown_fleet_rejected(self):
        with pytest.raises(ConfigError, match="unknown fleet"):
            Matrix(doc(axes=axes(fleet=["ghost"]))).expand()

    def test_unknown_fleet_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fleet fields"):
            Matrix(self.fleet_doc(racks=2)).expand()

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigError, match=r"^racks\.toml: fleets\.rack: .*>= 1"):
            Matrix(self.fleet_doc(hosts=0), origin="racks.toml").expand()

    def test_bad_burst_rejected(self):
        with pytest.raises(ConfigError, match=r"^racks\.toml: fleets\.rack: .*burst"):
            Matrix(self.fleet_doc(burst="stampede"), origin="racks.toml").expand()

    def test_burst_window_in_two_units_rejected(self):
        with pytest.raises(ConfigError, match=r"^racks\.toml: fleets\.rack: .*one unit"):
            Matrix(self.fleet_doc(burst_window_ms=1, burst_window_us=5),
                   origin="racks.toml").expand()

    def test_fleet_cells_are_the_fleetspec_hosts(self):
        """One path: a [fleets.*] cell expands to exactly the host specs
        (and cache keys) of the FleetSpec it describes."""
        from repro.experiments.parallel import WorkloadSpec
        from repro.fleet.spec import FleetSpec
        from repro.host.perturb import Perturbation

        d = self.fleet_doc(burst="poisson", burst_window_us=2500, burst_waves=3)
        d["axes"].update(perturb=["suspend@5ms"], stress=["noise"],
                         host_timer=["hz100"], arch=["arm"])
        d["matrix"]["seeds"] = [7]
        cells = [c for c in Matrix(d).expand() if c.coord("fleet") == "rack"]
        fleet = FleetSpec(
            name="ping/paratick/rack",
            workload=WorkloadSpec.make("micro.pingpong", rounds=10,
                                       work_cycles=10_000, same_vcpu=False),
            tick_mode=TickMode.PARATICK,
            hosts=2, guests_per_host=3, consolidation=3,
            burst="poisson", burst_window_ns=2_500_000, burst_waves=3,
            seed=7, tick_hz=100, noise=True, horizon_ns=20_000_000,
            perturbations=(Perturbation(kind="suspend", at_ns=5_000_000,
                                        duration_ns=2_000_000),),
            arch="arm",
        )
        shards = [c for c in cells if c.coord("mode") == "paratick"]
        assert [c.id for c in shards] == [s.label for s in fleet.host_specs()]
        assert [c.spec for c in shards] == fleet.host_specs()
        assert [spec_key(c.spec) for c in shards] == \
            [spec_key(s) for s in fleet.host_specs()]
