"""Self-test of the end-to-end benchmark: ``pytest e2ebench/test_e2e.py``.

Runs every workload at ``--scale smoke`` (tiny grids, minimum passes),
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = [n for n in PER_LAYER if n.endswith(".calls")] + ["sim.events", "host.exits"]

sys.path.insert(0, str(HERE))
from compare import verdict  # noqa: E402
from workloads import WORKLOADS as PREPARE  # noqa: E402


def _bench(*args: str, root: Path = ROOT) -> tuple[int, list[dict], str]:
    """Run the benchmark at smoke scale; ``(status, JSON lines, stdout)``."""
    proc = subprocess.run(
        [sys.executable, str(root / "e2ebench" / "run.py"), "--scale", "smoke",
         "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, lines, proc.stdout


def _records(path: Path) -> dict[str, dict]:
    return {r["workload"]: r for r in map(json.loads, path.read_text().splitlines())}


def test_metric_names_units_and_directions():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert list(PREPARE) == WORKLOADS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_pass_runs_every_workload_correctly():
    t0 = time.monotonic()
    status, lines, out = _bench("--workload", "all")
    assert time.monotonic() - t0 < 30
    assert status == 0, out
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == E2E
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_runs_repeat_counts_and_shares_sum_to_one(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (first, second):
        status, lines, stdout = _bench("--workload", "all", "--trace", "1", "--out", str(out))
        assert status == 0, stdout
        assert all(list(line["metrics"]) == PER_LAYER for line in lines)
    a, b = _records(first), _records(second)
    for name in WORKLOADS:
        ma, mb = a[name]["metrics"], b[name]["metrics"]
        assert {n: ma[n]["value"] for n in EXACT} == {n: mb[n]["value"] for n in EXACT}
        shares = sum(m["value"] for n, m in ma.items() if n.endswith(".share"))
        shares += sum(v for n, v in a[name]["extra"].items() if n.endswith(".share"))
        assert shares == pytest.approx(1.0, abs=0.01)


def test_tampered_digest_fails_every_cell(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    ref_path = tmp_path / "e2ebench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["digests"]["smoke"] = {"parsec_mt": {"0": "0" * 64}}
    ref_path.write_text(json.dumps(reference))
    out = tmp_path / "runs.jsonl"
    status, lines, _ = _bench("--workload", "parsec_mt", "--out", str(out), root=tmp_path)
    assert status == 1
    assert not lines[-1]["correct"]
    assert lines[-1]["failed"] == lines[-1]["attempted"]
    assert _records(out)["parsec_mt"]["error_rate"] == 1.0


def test_no_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    status, lines, _ = _bench("--workload", "parsec_mt", root=tmp_path)
    assert status != 0
    assert lines == []


@pytest.mark.parametrize("base, new, expected", [
    ([1.0] * 10, [1.0] * 10, "unchanged"),
    ([1.0 + i / 1000 for i in range(10)], [0.8 + i / 1000 for i in range(10)], "improved"),
    ([1.0 + i / 1000 for i in range(10)], [1.2 + i / 1000 for i in range(10)], "worse"),
    ([1.0, 1.5] * 5, [1.0, 1.5] * 5, "unresolved"),
    ([1.0] * 5, [0.8] * 5, "unchanged"),  # a gain needs ten pairs
])
def test_compare_verdicts(base, new, expected):
    assert verdict(base, new, bound=0.1, better="lower")["verdict"] == expected
