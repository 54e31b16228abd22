"""Divergence reporting of the golden manifest, with no simulation.

Each committed fixture is diffed against a tampered copy of itself (the
untampered fixture stands in for a fresh run): every tamper must surface
as a problem naming the battery, the case key and, where there is one,
the diverged field.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.golden import BATTERIES, diff, load

TRACED = [("simcore", "workloads"), ("arm", "workloads"), ("perturb", "cases")]


@pytest.fixture(scope="module")
def fixtures():
    return {name: load(battery.fixture) for name, battery in BATTERIES.items()}


def first_key(section: dict) -> str:
    return sorted(section)[0]


def tampered(fixtures, name, edit):
    golden = copy.deepcopy(fixtures[name])
    edit(golden)
    return diff(name, golden, fixtures[name])


def assert_names(problems, *parts):
    assert len(problems) == 1, problems
    for part in parts:
        assert part in problems[0], (part, problems[0])


@pytest.mark.parametrize("name", list(BATTERIES))
def test_untampered_fixture_is_clean(fixtures, name):
    assert diff(name, fixtures[name], fixtures[name]) == []


@pytest.mark.parametrize("name,section", TRACED)
def test_run_metrics_field(fixtures, name, section):
    key = first_key(fixtures[name][section])

    def edit(golden):
        golden[section][key]["metrics"]["exec_time_ns"] += 1

    assert_names(tampered(fixtures, name, edit), name, key, "RunMetrics", "exec_time_ns")


@pytest.mark.parametrize("name,section", TRACED)
def test_trace_hash(fixtures, name, section):
    key = first_key(fixtures[name][section])

    def edit(golden):
        golden[section][key]["trace_sha256"] = "0" * 64

    assert_names(tampered(fixtures, name, edit), name, key, "event stream diverged")


@pytest.mark.parametrize("name", ["simcore", "arm"])
def test_fuzz_hash(fixtures, name):
    key = first_key(fixtures[name]["fuzz"])

    def edit(golden):
        golden["fuzz"][key] = "0" * 64

    assert_names(tampered(fixtures, name, edit), name, key, "metrics hash diverged")


def test_fleet_host_digest(fixtures):
    key = first_key(fixtures["fleet"]["cases"])
    host = first_key(fixtures["fleet"]["cases"][key]["hosts"])

    def edit(golden):
        golden["cases"][key]["hosts"][host] = "0" * 64

    assert_names(tampered(fixtures, "fleet", edit), "fleet", key, host)


def test_fleet_aggregate_field(fixtures):
    key = first_key(fixtures["fleet"]["cases"])
    field = first_key(fixtures["fleet"]["cases"][key]["aggregate"])

    def edit(golden):
        golden["cases"][key]["aggregate"][field] = "tampered"

    assert_names(tampered(fixtures, "fleet", edit), "fleet", key, "aggregate", field)


@pytest.mark.parametrize("name", list(BATTERIES))
def test_case_missing_from_battery(fixtures, name):
    section = first_key({k: v for k, v in fixtures[name].items() if isinstance(v, dict)})

    def edit(golden):
        golden[section]["no-such-case"] = golden[section][first_key(golden[section])]

    assert_names(tampered(fixtures, name, edit), name, "no-such-case", "missing from battery")


@pytest.mark.parametrize("name", list(BATTERIES))
def test_case_not_pinned_in_fixture(fixtures, name):
    section = first_key({k: v for k, v in fixtures[name].items() if isinstance(v, dict)})
    key = first_key(fixtures[name][section])

    def edit(golden):
        del golden[section][key]

    assert_names(tampered(fixtures, name, edit), name, key, "not pinned in fixture")


def test_arm_fixture_replayed_as_simcore_fails_fast(fixtures):
    problems = diff("simcore", fixtures["arm"], fixtures["simcore"])
    assert_names(problems, "simcore", "pins arch 'arm'")
