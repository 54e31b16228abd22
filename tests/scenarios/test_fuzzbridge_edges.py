"""Edge-case sweep for the fuzz-seed -> matrix-cell bridge.

``test_runcheck`` proves a couple of fuzz cells survive the sanitizer
battery; this file sweeps the bridge itself — kind mapping, cell-ID and
cache-key uniqueness (including perturbed variants), determinism of the
seed expansion, and the degenerate corners (single-vCPU overcommit,
horizon-clamped perturbation schedules, a perturbation schedule riding
a fleet cell).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import fuzz
from repro.analysis.fuzz import (
    FuzzScenario,
    perturbations_for_seed,
    placement_for,
    scenario_for_seed,
)
from repro.experiments.parallel import WORKLOAD_FACTORIES, spec_key
from repro.scenarios.fuzzbridge import (
    _KIND_MAP,
    fuzz_cells,
    workload_spec_for,
)


class TestKindMapping:
    @pytest.mark.parametrize("kind", sorted(_KIND_MAP))
    def test_every_fuzz_kind_maps_to_a_registered_factory(self, kind):
        # Find (by exhaustion) a seed expanding to this kind: the seed
        # space is uniform over 4 kinds, so a handful suffices.
        scenario = next(
            s for s in map(scenario_for_seed, range(64)) if s.kind == kind
        )
        ws = workload_spec_for(scenario)
        assert ws.kind == _KIND_MAP[kind]
        # The registry accepts the spelled params.
        assert WORKLOAD_FACTORIES[ws.kind](**ws.kwargs()).default_vcpus() >= 1

    def test_unknown_kind_rejected(self):
        bogus = FuzzScenario(
            seed=0, kind="forkbomb", params=(), tick_hz=250,
            noise=False, cpuidle=False, horizon_ns=1,
        )
        with pytest.raises(ValueError, match="forkbomb"):
            workload_spec_for(bogus)


class TestCellIdentity:
    def test_ids_and_cache_keys_unique_across_axes(self):
        cells = []
        for seed in (0, 1, 2):
            cells += fuzz_cells(seed)
            cells += fuzz_cells(seed, perturb=True)
        ids = [c.id for c in cells]
        assert len(set(ids)) == len(ids)
        keys = {spec_key(c.spec) for c in cells}
        assert len(keys) == len(cells)

    def test_perturbed_variant_distinct_even_without_a_schedule(self):
        """Were a schedule ever clamped to empty, the perturbed cell
        must still cache apart from its plain twin — the cell ID (hence
        label, hence key) carries the ``/perturbed`` suffix on its own."""
        plain = fuzz_cells(3)[0]
        shaken = fuzz_cells(3, perturb=True)[0]
        assert shaken.id == plain.id + "/perturbed"
        stripped = dataclasses.replace(shaken.spec, perturbations=())
        assert spec_key(stripped) != spec_key(plain.spec)

    def test_id_matches_label_and_coords(self):
        for cell in fuzz_cells(11, perturb=True):
            assert cell.spec.label == cell.id
            coords = dict(cell.coords)
            assert coords["seed"] == "11"
            assert coords["perturb"] == "fuzzed"
            assert cell.id.split("/")[1:3] == \
                [coords["workload"], coords["mode"]]


class TestDeterminism:
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_expansion_is_a_pure_function_of_the_seed(self, seed):
        assert scenario_for_seed(seed) == scenario_for_seed(seed)
        a, b = fuzz_cells(seed, perturb=True), fuzz_cells(seed, perturb=True)
        assert [c.id for c in a] == [c.id for c in b]
        assert [spec_key(c.spec) for c in a] == [spec_key(c.spec) for c in b]

    def test_perturb_flag_never_changes_the_scenario(self):
        """The schedule rides a dedicated RNG stream: the workload and
        knobs under it must be byte-for-byte those of the plain cell."""
        for seed in range(8):
            plain = {c.coord("mode"): c for c in fuzz_cells(seed)}
            shaken = {c.coord("mode"): c for c in fuzz_cells(seed, perturb=True)}
            for mode, cell in shaken.items():
                stripped = dataclasses.replace(
                    cell.spec, perturbations=(), label=plain[mode].spec.label)
                assert stripped == plain[mode].spec

    def test_matrix_flattening_preserves_seed_order(self):
        flat = [c for seed in (5, 3) for c in fuzz_cells(seed)]
        assert [c.coord("seed") for c in flat] == \
            ["5"] * (len(flat) // 2) + ["3"] * (len(flat) // 2)


class TestScheduleClamping:
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_every_occurrence_lands_inside_the_horizon(self, seed):
        horizon = scenario_for_seed(seed).horizon_ns
        for p in perturbations_for_seed(seed, horizon):
            last = p.at_ns + p.duration_ns + (p.count - 1) * p.period_ns
            assert last < horizon

    def test_tiny_horizon_clamps_to_empty(self):
        # Schedules are front-loaded at >= 200us; a 100us horizon
        # leaves no legal occurrence for any seed.
        assert perturbations_for_seed(3, 100_000) == ()


class TestPlacementEdges:
    def test_single_vcpu_overcommit_floors_at_one_pcpu(self):
        spec, pinned = placement_for(1, fuzz.OVERCOMMIT)
        assert spec.cpus_per_socket == 1
        assert pinned == (0,)

    def test_overcommit_squeezes_by_exactly_one(self):
        spec, pinned = placement_for(4, fuzz.OVERCOMMIT)
        assert spec.cpus_per_socket == 3
        assert pinned == (0, 1, 2, 0)


class TestPerturbedFleetCell:
    """A perturbation axis composed with a fleet axis: the schedule must
    reach every host shard's spec and the cells must stay sanitizer-clean."""

    MATRIX = """
[matrix]
name = "pfleet"
seeds = [0]
horizon_ms = 400

[axes]
workload = ["ping"]
mode = ["paratick"]
perturb = ["none", "wobble"]
fleet = ["rack"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 6, work_cycles = 10000, same_vcpu = false }

[perturbs.wobble]
kind = "suspend"
at_ms = 2
duration_ms = 1

[fleets.rack]
hosts = 2
guests = 2
consolidation = 2
"""

    def cells(self):
        from repro.scenarios.matrix import parse_matrix

        return parse_matrix(self.MATRIX).expand()

    def test_schedule_reaches_every_host_shard(self):
        from repro.fleet.spec import FLEET_HOST

        cells = self.cells()
        shaken = [c for c in cells if c.coord("perturb") == "wobble"
                  and c.spec.workload.kind == FLEET_HOST]
        assert len(shaken) == 2
        for cell in shaken:
            (p,) = cell.spec.perturbations
            assert (p.kind, p.at_ns, p.duration_ns) == \
                ("suspend", 2_000_000, 1_000_000)
        plain_keys = {spec_key(c.spec) for c in cells
                      if c.coord("perturb") == "none"}
        assert all(spec_key(c.spec) not in plain_keys for c in shaken)

    def test_perturbed_fleet_cells_sanitize_clean(self):
        from repro.scenarios.runcheck import check_cells

        checks = check_cells(self.cells())
        assert all(c.ok for c in checks), \
            [p for c in checks for p in c.problems]
        wobbled = [c for c in checks if "wobble" in c.cell.id]
        assert wobbled and all(c.events > 0 for c in wobbled)
