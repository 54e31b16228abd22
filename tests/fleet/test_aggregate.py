"""Property tests for the fleet aggregator's monoid invariants.

The aggregator promises three things (see :mod:`repro.fleet.aggregate`):
conservation (summed quantities are exact integer sums), partition/order
invariance (any batching of hosts, in any order, merges to the same
value), and byte stability (equal aggregates are equal bytes). Hosts
here are synthetic :class:`RunMetrics` — the invariants are about the
merge algebra, not the simulator — while ``test_identity`` holds the
same promises against real simulation output.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.aggregate import (
    AggregateError,
    FleetAggregate,
    aggregate_hosts,
    fleet_bytes,
    percentile_ns,
)
from repro.host.exitreasons import ExitReason, ExitTag
from repro.hw.cpu import CycleDomain
from repro.metrics.counters import ExitCounters
from repro.metrics.perf import RunMetrics

#: Big enough that any float intermediate would corrupt low bits.
BIG = 2**60


def host_metrics(
    label: str,
    *,
    guests: int = 2,
    lats=(10, 20),
    steals=(1, 2),
    exec_ns: int = 100,
    cycles: int = 1_000,
    halted_ns: int = 5,
    ticks: int = 3,
    exits: int = 1,
    cstate=(),
) -> RunMetrics:
    """A synthetic fleet-host result carrying every extra the
    aggregator ingests."""
    extra = {
        "guests": guests,
        "vcpus": guests,
        "steal_ns": sum(steals),
        "halted_ns": halted_ns,
        "virtual_ticks": ticks,
    }
    for g in range(guests):
        extra[f"g{g:02d}_latency_ns"] = lats[g]
        extra[f"g{g:02d}_steal_ns"] = steals[g]
    for state, ns in cstate:
        extra[f"cstate_{state}_ns"] = ns
    counters = ExitCounters()
    for _ in range(exits):
        counters.record(0, ExitReason.HLT, ExitTag.IDLE)
    return RunMetrics(
        label=label,
        exec_time_ns=exec_ns,
        total_cycles=cycles,
        useful_cycles=cycles // 2,
        overhead_cycles=cycles // 4,
        exits=counters,
        ledger={CycleDomain.GUEST_USER: cycles // 2,
                CycleDomain.VMX_TRANSITION: cycles // 8},
        extra=extra,
    )


@st.composite
def hosts(draw, min_hosts=1, max_hosts=8):
    """A list of synthetic host results with values up to >2**53."""
    n = draw(st.integers(min_hosts, max_hosts))
    ns_values = st.integers(min_value=0, max_value=BIG)
    out = []
    for i in range(n):
        guests = draw(st.integers(1, 4))
        lats = tuple(draw(ns_values) for _ in range(guests))
        steals = tuple(draw(ns_values) for _ in range(guests))
        out.append(host_metrics(
            f"h{i:02d}",
            guests=guests,
            lats=lats,
            steals=steals,
            exec_ns=draw(ns_values),
            cycles=draw(ns_values),
            halted_ns=draw(ns_values),
            ticks=draw(st.integers(0, 10_000)),
            exits=draw(st.integers(0, 5)),
        ))
    return out


class TestConservation:
    @given(metrics=hosts())
    @settings(max_examples=60, deadline=None)
    def test_sums_are_exact_integer_sums(self, metrics):
        agg = aggregate_hosts(metrics)
        assert agg.hosts == len(metrics)
        assert agg.guests == sum(m.extra["guests"] for m in metrics)
        assert agg.steal_ns == sum(m.extra["steal_ns"] for m in metrics)
        assert agg.halted_ns == sum(m.extra["halted_ns"] for m in metrics)
        assert agg.total_cycles == sum(m.total_cycles for m in metrics)
        assert agg.exits.total == sum(m.exits.total for m in metrics)
        assert agg.exec_time_ns == max(m.exec_time_ns for m in metrics)
        assert isinstance(agg.steal_ns, int)

    @given(metrics=hosts())
    @settings(max_examples=60, deadline=None)
    def test_distribution_counts_match_population(self, metrics):
        agg = aggregate_hosts(metrics)
        assert len(agg.host_exec_ns) == len(metrics)
        assert len(agg.guest_latency_ns) == agg.guests
        assert len(agg.guest_steal_ns) == agg.guests
        # the distributions carry exactly the per-host/per-guest values
        assert sorted(agg.host_exec_ns) == sorted(m.exec_time_ns for m in metrics)
        want_lats = sorted(
            m.extra[f"g{g:02d}_latency_ns"]
            for m in metrics for g in range(m.extra["guests"])
        )
        assert list(agg.guest_latency_ns) == want_lats

    @given(metrics=hosts())
    @settings(max_examples=40, deadline=None)
    def test_ledger_conserved_per_domain(self, metrics):
        agg = aggregate_hosts(metrics)
        ledger = dict(agg.ledger)
        for domain in (CycleDomain.GUEST_USER, CycleDomain.VMX_TRANSITION):
            assert ledger[domain.value] == sum(m.ledger[domain] for m in metrics)

    def test_steal_conserved_beyond_2_53(self):
        metrics = [
            host_metrics("a", steals=(BIG + 1, 0)),
            host_metrics("b", steals=(3, 0)),
        ]
        agg = aggregate_hosts(metrics)
        assert agg.steal_ns == BIG + 4  # float math would drop the +1


class TestPartitionAndOrderInvariance:
    @given(metrics=hosts(min_hosts=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_partition_merges_identically(self, metrics, data):
        """Batching hosts arbitrarily, then merging batch aggregates,
        is byte-identical to one flat fold."""
        flat = fleet_bytes(aggregate_hosts(metrics))
        cuts = sorted(data.draw(st.sets(
            st.integers(1, len(metrics) - 1), max_size=len(metrics) - 1)))
        batches, start = [], 0
        for cut in cuts + [len(metrics)]:
            batches.append(metrics[start:cut])
            start = cut
        agg = FleetAggregate.empty()
        for batch in batches:
            agg = agg.merge(aggregate_hosts(batch))
        assert fleet_bytes(agg) == flat

    @given(metrics=hosts(min_hosts=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_invariant_bytes(self, metrics, data):
        shuffled = data.draw(st.permutations(metrics))
        assert fleet_bytes(aggregate_hosts(shuffled)) == \
            fleet_bytes(aggregate_hosts(metrics))

    @given(metrics=hosts(min_hosts=3, max_hosts=5))
    @settings(max_examples=30, deadline=None)
    def test_merge_associative(self, metrics):
        a, b, c = (FleetAggregate.from_host(m) for m in metrics[:3])
        assert fleet_bytes(a.merge(b).merge(c)) == fleet_bytes(a.merge(b.merge(c)))

    @given(metrics=hosts())
    @settings(max_examples=30, deadline=None)
    def test_empty_is_identity(self, metrics):
        agg = aggregate_hosts(metrics)
        empty = FleetAggregate.empty()
        assert fleet_bytes(empty.merge(agg)) == fleet_bytes(agg)
        assert fleet_bytes(agg.merge(empty)) == fleet_bytes(agg)


class TestDegenerateFleets:
    def test_empty_fleet(self):
        agg = aggregate_hosts([])
        assert agg == FleetAggregate.empty()
        assert agg.hosts == agg.guests == agg.steal_ns == 0
        assert agg.percentiles("guest_latency") == {
            f"p{p}": 0 for p in (50, 90, 95, 99, 100)}
        assert agg.steal_ratio == 0.0 and agg.overhead_ratio == 0.0
        # byte-stable: the empty aggregate always encodes identically
        assert fleet_bytes(agg) == fleet_bytes(FleetAggregate.empty())

    def test_single_host_equals_from_host(self):
        m = host_metrics("solo", cstate=(("C1", 7), ("C6", 11)))
        assert fleet_bytes(aggregate_hosts([m])) == \
            fleet_bytes(FleetAggregate.from_host(m))
        agg = aggregate_hosts([m])
        assert agg.hosts == 1
        assert dict(agg.cstate_ns) == {"C1": 7, "C6": 11}

    def test_non_fleet_metrics_rejected(self):
        plain = RunMetrics(label="plain", exec_time_ns=1, total_cycles=1,
                           useful_cycles=1, overhead_cycles=0,
                           exits=ExitCounters())
        with pytest.raises(AggregateError, match="guests"):
            FleetAggregate.from_host(plain)

    def test_missing_guest_key_rejected(self):
        m = host_metrics("h")
        del m.extra["g01_latency_ns"]
        with pytest.raises(AggregateError, match="g01_latency_ns"):
            FleetAggregate.from_host(m)


class TestPercentiles:
    @given(values=st.lists(st.integers(0, BIG), min_size=1, max_size=50),
           p=st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_nearest_rank_is_an_element(self, values, p):
        values = tuple(sorted(values))
        got = percentile_ns(values, p)
        assert got in values
        # nearest-rank reference: smallest v with at least ceil(p*n/100)
        # values <= it (1-based rank, clamped to the first element).
        rank = max(1, -(-p * len(values) // 100))
        assert got == values[rank - 1]

    def test_bounds_and_errors(self):
        assert percentile_ns((), 50) == 0
        assert percentile_ns((7,), 0) == 7
        assert percentile_ns((1, 2, 3, 4), 100) == 4
        with pytest.raises(AggregateError):
            percentile_ns((1,), 101)
        with pytest.raises(AggregateError):
            aggregate_hosts([]).percentiles("nope")


class TestRoundTrip:
    @given(metrics=hosts())
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip_is_byte_identical(self, metrics):
        agg = aggregate_hosts(metrics)
        again = FleetAggregate.from_json_dict(
            json.loads(fleet_bytes(agg).decode()))
        assert fleet_bytes(again) == fleet_bytes(agg)
