"""Fleet topology: arrival schedules, spec compilation, cache keys."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TickMode
from repro.errors import ConfigError
from repro.experiments.parallel import WorkloadSpec, spec_key
from repro.fleet.spec import (
    BURSTS,
    FLEET_HOST,
    DEFAULT_BURST_WINDOW_NS,
    FleetSpec,
    arrival_schedule,
    fleet_params,
    host_sim_seed,
)

PING = WorkloadSpec.make("micro.pingpong", rounds=5, work_cycles=10_000,
                         same_vcpu=False)


def fleet(**kw) -> FleetSpec:
    base = dict(name="f", workload=PING, tick_mode=TickMode.PARATICK,
                hosts=3, guests_per_host=2, consolidation=2)
    base.update(kw)
    return FleetSpec(**base)


class TestArrivalSchedule:
    def test_burst_is_thundering_herd(self):
        assert arrival_schedule("burst", 5) == (0,) * 5

    def test_ramp_spans_window_evenly(self):
        sched = arrival_schedule("ramp", 4, window_ns=4000)
        assert sched == (0, 1000, 2000, 3000)

    def test_waves_group_guests(self):
        sched = arrival_schedule("waves", 6, window_ns=4000, waves=2)
        assert sched == (0, 2000, 0, 2000, 0, 2000)

    def test_poisson_deterministic_and_clamped(self):
        a = arrival_schedule("poisson", 8, window_ns=10_000, seed=42)
        b = arrival_schedule("poisson", 8, window_ns=10_000, seed=42)
        assert a == b
        assert all(0 <= x <= 10_000 for x in a)
        assert sorted(a) == list(a)  # cumulative inter-arrivals
        assert a != arrival_schedule("poisson", 8, window_ns=10_000, seed=43)

    @given(burst=st.sampled_from(BURSTS), guests=st.integers(1, 32),
           window=st.integers(0, 10**7), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_all_profiles_in_range_and_sized(self, burst, guests, window, seed):
        sched = arrival_schedule(burst, guests, window_ns=window, seed=seed)
        assert len(sched) == guests
        assert all(0 <= x <= max(window, 0) for x in sched)

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown burst"):
            arrival_schedule("stampede", 4)
        with pytest.raises(ConfigError, match="at least one guest"):
            arrival_schedule("burst", 0)
        with pytest.raises(ConfigError, match="negative"):
            arrival_schedule("ramp", 2, window_ns=-1)
        with pytest.raises(ConfigError, match="waves"):
            arrival_schedule("waves", 2, waves=0)


class TestHostSimSeed:
    @given(seed=st.integers(0, 2**40), host=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_pure_and_bounded(self, seed, host):
        s = host_sim_seed(seed, host)
        assert s == host_sim_seed(seed, host)
        assert 0 <= s < 2**62

    def test_hosts_get_distinct_seeds(self):
        seeds = {host_sim_seed(7, h) for h in range(64)}
        assert len(seeds) == 64


class TestFleetSpecValidation:
    @pytest.mark.parametrize("kw", [
        {"hosts": 0}, {"guests_per_host": 0}, {"consolidation": 0},
        {"burst": "stampede"},
    ])
    def test_rejects_bad_topology(self, kw):
        with pytest.raises(ConfigError):
            fleet(**kw)

    def test_totals_and_labels(self):
        f = fleet(label_parts=("paratick",))
        assert f.total_guests == 6
        assert f.display_label() == "f/paratick"
        assert f.host_label(2) == "f/paratick/h02"

    def test_host_index_bounds(self):
        with pytest.raises(ConfigError, match="out of range"):
            fleet().host_spec(3)
        with pytest.raises(ConfigError, match="out of range"):
            fleet().host_spec(-1)


class TestCompilation:
    def test_host_specs_ride_the_fleet_kind(self):
        specs = fleet().host_specs()
        assert len(specs) == 3
        assert all(s.workload.kind == FLEET_HOST for s in specs)
        assert [s.label for s in specs] == ["f/h00", "f/h01", "f/h02"]

    def test_cache_keys_distinct_per_host_and_topology(self):
        keys = {spec_key(s) for s in fleet().host_specs()}
        assert len(keys) == 3
        other = fleet(consolidation=4).host_spec(0)
        assert spec_key(other) not in keys
        assert spec_key(fleet(burst="ramp").host_spec(0)) != \
            spec_key(fleet().host_spec(0))

    def test_fleet_params_round_trip(self):
        spec = fleet(burst="waves", burst_waves=3,
                     burst_window_ns=7_000_000).host_spec(1)
        p = fleet_params(spec)
        assert p == {
            "guest_kind": "micro.pingpong",
            "guest_params": {"rounds": 5, "work_cycles": 10_000,
                             "same_vcpu": False},
            "guests": 2,
            "consolidation": 2,
            "burst": "waves",
            "burst_window_ns": 7_000_000,
            "burst_waves": 3,
            "host_index": 1,
        }

    def test_guest_params_canonical_json(self):
        spec = fleet(tick_mode=TickMode.TICKLESS).host_spec(0)
        raw = spec.workload.kwargs()["guest_params"]
        assert raw == json.dumps(json.loads(raw), sort_keys=True,
                                 separators=(",", ":"))

    def test_non_fleet_spec_rejected_by_decoder(self):
        from repro.experiments.parallel import RunSpec

        plain = RunSpec(workload=PING, tick_mode=TickMode.PARATICK)
        with pytest.raises(ConfigError, match="not a fleet host spec"):
            fleet_params(plain)

    def test_defaults_flow_through(self):
        p = fleet_params(fleet().host_spec(0))
        assert p["burst"] == "burst"
        assert p["burst_window_ns"] == DEFAULT_BURST_WINDOW_NS
