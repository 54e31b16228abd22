"""Execution-path tests for matrix cells and the fuzz bridge.

A small matrix must check sanitizer-clean, run byte-identically across
serial / pooled / cached engine paths, a checked run must be the very
run the engine executes for the same spec, and the fuzz bridge must
compile seeds into well-formed cells.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import fuzz
from repro.experiments.parallel import execute_spec
from repro.host.exitreasons import ExitReason
from repro.scenarios import (
    check_cell,
    check_cells,
    fuzz_cells,
    identity_problems,
    load_matrix,
    parse_matrix,
)
from repro.scenarios.runcheck import canonical_result_bytes

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"

SMALL = """
[matrix]
name = "small"
seeds = [0]
horizon_ms = 20

[axes]
workload = ["ping"]
mode = ["periodic", "tickless", "paratick"]
perturb = ["none", "shake"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 20, work_cycles = 20000, same_vcpu = false }

[perturbs.shake]
kind = "drift"
at_ms = 1
count = 2
period_ms = 2
step_us = 50
"""


@pytest.fixture(scope="module")
def small_cells():
    return parse_matrix(SMALL, "toml").expand()


def _engine_cells():
    """One x86 and one arm arch-matrix cell, one perturbed fuzz cell and
    one fleet-host shard: every kind of spec a checked run executes."""
    arch = {c.id: c for c in load_matrix(EXAMPLES / "matrix_arch.toml").expand()}
    return [
        arch["sync/periodic/x86/s0"],
        arch["sync/periodic/arm/s0"],
        fuzz_cells(7, perturb=True, placements=(fuzz.SOLO,))[0],
        load_matrix(EXAMPLES / "fleet_smoke.toml").expand()[0],
    ]


class TestCheckCells:
    def test_small_matrix_is_sanitizer_clean(self, small_cells):
        checks = check_cells(small_cells)
        assert len(checks) == 6
        for check in checks:
            assert check.ok, f"{check.cell.id}: {check.problems}"
            assert check.metrics is not None
            assert check.events > 0

    @pytest.mark.parametrize("cell", _engine_cells(), ids=lambda c: c.id)
    def test_checked_run_is_the_engine_run(self, cell):
        check = check_cell(cell)
        assert check.ok, check.problems
        assert canonical_result_bytes(check.metrics) == \
            canonical_result_bytes(execute_spec(cell.spec))
        if cell.spec.arch == "arm":
            assert check.metrics.exits.by_reason(ExitReason.SYSREG_TRAP) > 0
            assert check.metrics.exits.by_reason(ExitReason.MSR_WRITE) == 0

    def test_check_reports_progress(self, small_cells):
        seen = []
        check_cells(small_cells[:2], progress=lambda c: seen.append(c.cell.id))
        assert seen == [c.id for c in small_cells[:2]]


class TestIdentity:
    def test_serial_pooled_cached_byte_identical(self, small_cells, tmp_path):
        problems = identity_problems(
            small_cells, jobs=2, cache_dir=str(tmp_path / "cache"))
        assert problems == []


class TestFuzzBridge:
    def test_cells_share_the_matrix_schema(self):
        cells = fuzz_cells(3, perturb=True)
        assert len(cells) == 6  # 3 modes x 2 placements
        assert len({c.id for c in cells}) == 6
        for cell in cells:
            assert cell.spec.label == cell.id
            assert dict(cell.coords)["seed"] == "3"
            assert cell.spec.perturbations  # seed 3 expands to >= 1 event

    def test_perturbed_and_plain_cells_hash_apart(self):
        from repro.experiments.parallel import spec_key

        plain = {c.coord("mode"): c for c in fuzz_cells(3)}
        shaken = {c.coord("mode"): c for c in fuzz_cells(3, perturb=True)}
        for mode in plain:
            assert spec_key(plain[mode].spec) != spec_key(shaken[mode].spec)

    def test_seed_range_expands_flat(self):
        cells = [c for seed in range(3) for c in fuzz_cells(seed, placements=(fuzz.SOLO,))]
        assert len(cells) == 9
        assert len({c.id for c in cells}) == 9

    def test_perturbed_fuzz_cells_sanitize_clean(self):
        cells = [c for c in fuzz_cells(7, perturb=True, placements=(fuzz.SOLO,))]
        for check in check_cells(cells):
            assert check.ok, f"{check.cell.id}: {check.problems}"
