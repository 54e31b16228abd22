"""Golden-trace conformance for the perturbation subsystem.

The committed fixture (tests/fixtures/golden_perturb.json) pins a
traced run for every perturbation kind — suspend, restore, hotplug,
drift — under all three tick modes: 12 cases, each with full RunMetrics
JSON and the SHA-256 of the structured event stream. Any behavioural
drift in the suspend/resume freeze, the restore clock jump, the hotplug
state machinery or the drift offset application diverges a hash here.

On top of the bit-identity replay, every case's spec must also pass the
shared sanitized run (:func:`repro.scenarios.runcheck.sanitized_run`):
the full perturbation-aware :class:`~repro.analysis.checkers.TickSanitizer`
and the reconcile battery, steal included — golden traces that violate
the invariants they exist to pin would be worthless.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import golden
from repro.config import TickMode
from repro.scenarios.runcheck import sanitized_run

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_perturb.json"

MODES = list(TickMode)
CASES = golden.PERTURB_SCHEDULES
SPECS = {case.key: case.spec for case in golden.BATTERIES["perturb"].cases()}


class TestPerturbFixture:
    def test_fixture_is_committed(self):
        assert FIXTURE.exists(), (
            "perturbation fixture missing; capture it with "
            "`PYTHONPATH=src python -m repro.analysis.golden perturb --write`"
        )

    def test_battery_covers_every_kind_and_mode(self):
        data = golden.load(FIXTURE)
        want = {f"{kind}/{mode.value}" for kind in CASES for mode in MODES}
        assert set(data["cases"]) == want == set(SPECS)
        assert len(want) == 12

    def test_battery_matches_fixture(self):
        problems = golden.compare("perturb", FIXTURE)
        assert not problems, (
            "perturbation behaviour diverged:\n" + "\n".join(problems)
        )


class TestPerturbCasesAreSanitizerClean:
    @pytest.mark.parametrize("kind", sorted(CASES))
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_case_passes_sanitizer_and_reconcile(self, kind, mode):
        spec = SPECS[f"{kind}/{mode.value}"]
        assert spec.perturbations == CASES[kind]
        metrics, sanitizer, problems = sanitized_run(spec)
        assert metrics is not None
        assert sanitizer.events > 0
        assert not problems, "\n".join(problems)
