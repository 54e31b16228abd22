"""End-to-end and per-layer benchmark of the simulator.

Times the simulator itself on this host: the paper's grids run through
the entry points the CLI uses, cold (empty result cache) and warm.
Simulated results are not timed; they are pinned by a SHA-256 digest.

    python3 e2ebench/run.py                                # every workload
    python3 e2ebench/run.py --workload parsec_mt --seed 1 --seconds 20
    python3 e2ebench/run.py --workload fio_io --trace 1    # per-layer metrics
    python3 e2ebench/run.py --out runs.jsonl               # keep the records
    python3 e2ebench/run.py --compare base.jsonl new.jsonl

A run repeats *passes* of one workload for ``--seconds``. Each pass is a
fresh interpreter that sets up the workload, runs its grid cold, then
re-runs it warm; every end-to-end metric is the median over passes.
``--trace 1`` alternates profiled and plain passes and reports the
``per_layer`` metrics instead. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (grid cells) and
``metrics``. The exit status is 1 when any cell failed or drifted.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from attribution import LAYERS, MODULES, OTHER
from compare import compare_files, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".e2ebench-work"
#: A run makes at least this many plain passes (one in a traced run).
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def _run_pass(name: str, seed: int, scale: str, trace: bool, work: str) -> dict:
    """Start one pass (``onepass.py``) and return its JSON report."""
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", name,
           "--seed", str(seed), "--scale", scale, "--work", work]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass timed out after {PASS_TIMEOUT_S}s"}
    finally:
        # The pass waits for its pool workers; make sure none outlive it.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _passes(name: str, seed: int, seconds: float, trace: bool, scale: str) -> list[dict]:
    """Run passes until ``seconds`` are spent (after the minimum count)."""
    deadline = time.monotonic() + seconds
    modes = itertools.cycle([True, False]) if trace else itertools.repeat(False)
    took: dict[bool, float] = {}
    passes: list[dict] = []
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        mode = next(modes)
        while True:
            t0 = time.monotonic()
            passes.append(_run_pass(name, seed, scale, mode, work))
            took[mode] = time.monotonic() - t0
            if passes[-1].get("error"):
                break
            mode = next(modes)
            plain = sum(not p["trace"] for p in passes)
            if (plain >= (1 if trace else MIN_PASSES)
                    and time.monotonic() + took.get(mode, max(took.values())) > deadline):
                break
    with contextlib.suppress(OSError):  # another run may still use it
        WORK_DIR.rmdir()
    return passes


def _check(passes: list[dict], expected: str | None,
           cells: int | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over all passes, in grid cells.

    A cell counts as failed when it failed to run, when its pass's
    digest differs from the recorded one (or from the first pass), when
    its warm bytes differ from its cold bytes, or when the warm run did
    not serve it from the cache.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = next((p["digest"] for p in passes if "digest" in p), None)
    for i, p in enumerate(passes):
        if "digest" not in p:
            problems.append(f"pass {i}: {p['error']}")
            attempted += cells or 1
            failed += cells or 1
            continue
        n = p["cells"]
        bad = p["failed"] + p["warm_drift"] + (n - p["cache_hits"])
        if p["error"]:
            problems.append(f"pass {i}: {p['error']}")
            bad = n
        if expected is not None and p["digest"] != expected:
            problems.append(f"pass {i}: digest {p['digest'][:16]} != recorded {expected[:16]}")
            bad = n
        elif p["digest"] != first:
            problems.append(f"pass {i}: digest {p['digest'][:16]} != first pass {first[:16]}")
            bad = n
        if cells is not None and n != cells:
            problems.append(f"pass {i}: {n} cells, expected {cells}")
            bad = n
        if p["warm_drift"]:
            problems.append(f"pass {i}: {p['warm_drift']} cell(s) differ warm vs cold")
        attempted += n
        failed += min(n, bad)
    return attempted, failed, problems


def _per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    t0 = traced[0]
    events, exits = t0["events"], t0["exits"]
    wall = statistics.median(p["wall_s"] for p in plain)
    totals = {layer: sum(p["layers"][layer] for p in traced) for layer in (*LAYERS, OTHER)}
    grand = sum(totals.values())
    out: dict[str, float] = {}
    for layer in (*LAYERS, OTHER):
        out[f"{layer}.self_s"] = statistics.median(p["layers"][layer] for p in traced)
        out[f"{layer}.share"] = totals[layer] / grand
        if layer != OTHER:
            out[f"{layer}.calls"] = t0["calls"][layer]
    for mod in MODULES:
        out[f"{mod}.self_s"] = statistics.median(p["modules"][mod] for p in traced)
    durations = sorted(d for p in plain for d in p["cell_durations"])
    out.update({
        "sim.events": events,
        "sim.simulated_s": t0["sim_ns"] / 1e9,
        "sim.us_per_event": wall / events * 1e6,
        "sim.events_per_s": events / wall,
        "host.exits": exits,
        "host.exits_per_event": exits / events,
        "experiments.cells": t0["cells"],
        "experiments.cache_hits": min(p["cache_hits"] for p in plain),
        "experiments.cell_p50_s": statistics.median(durations),
        "resilience.cache_bytes": t0["cache_bytes"],
        "trace.overhead": statistics.median(p["wall_s"] for p in traced) / wall,
    })
    if len(durations) >= 100:
        out["experiments.cell_p90_s"] = durations[int(len(durations) * 0.9)]
    return out


def _counts_repeat(traced: list[dict]) -> list[str]:
    """Exact counts must read the same in every traced pass."""
    keys = ("calls", "events", "exits", "sim_ns")
    return [f"traced pass {i}: {k} differs from traced pass 0"
            for i, p in enumerate(traced[1:], 1) for k in keys if p[k] != traced[0][k]]


def measure(name: str, *, seed: int, seconds: float, trace: bool, scale: str,
            spec: dict, reference: dict) -> dict:
    """Run one workload for ``seconds`` and build its record."""
    passes = _passes(name, seed, seconds, trace, scale)
    expected = reference["digests"].get(scale, {}).get(name, {}).get(str(seed))
    cells = reference["cells"][name] if scale == "bench" else None
    attempted, failed, problems = _check(passes, expected, cells)
    ok = [p for p in passes if "digest" in p and not p["error"]]
    plain = [p for p in ok if not p["trace"]]
    traced = [p for p in ok if p["trace"]]
    values: dict[str, float] = {}
    stats: dict[str, dict] = {}
    if trace:
        complete = bool(plain and traced)
        if complete:
            values = _per_layer(traced, plain)
            problems += _counts_repeat(traced)
    else:
        complete = len(plain) >= MIN_PASSES
        for metric in [m["name"] for m in spec["end_to_end"]] if complete else ():
            # A pass reports each end-to-end metric under its own name.
            samples = [p[metric] for p in plain]
            q1, med, q3 = quartiles(samples)
            values[metric] = med
            stats[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(samples)}
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "seconds": seconds, "passes": len(passes), "digest": passes[0].get("digest"),
        "problems": problems,
        "correct": failed == 0 and not problems and complete,
        "attempted": max(attempted, 1), "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in wanted.items() if complete},
        "stats": stats,
        "extra": {n: v for n, v in values.items() if n not in wanted},
    }


def _print_record(record: dict) -> None:
    name = record["workload"]
    print(f"== {name} (seed {record['seed']}, {record['scale']}, "
          f"{record['passes']} passes, trace={int(record['trace'])})")
    for metric, m in record["metrics"].items():
        st = record["stats"].get(metric)
        spread = (f"  median of {st['n']}, q1 {st['q1']:.6g}, q3 {st['q3']:.6g}"
                  if st else "")
        print(f"{name}  {metric:<28} {m['value']:>14.6g} {m['unit']}{spread}")
    for metric, value in record["extra"].items():
        unit = ("s" if metric.endswith("_s") else "count" if metric.endswith(".calls")
                else "ratio")
        print(f"{name}  {metric:<28} {value:>14.6g} {unit}  (not a BENCHMARK.json metric)")
    print(f"{name}  error_rate {record['error_rate']:.4g} "
          f"({record['failed']}/{record['attempted']} cells), digest {record['digest']}")
    for problem in record["problems"]:
        print(f"{name}  PROBLEM {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="workload name or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="time to measure each workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    ap.add_argument("--out", help="append each workload's record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two --out files and print a verdict per metric")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no simulator sources at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare_files(*args.compare, spec)
    reference = json.loads((HERE / "reference.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; know {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        record = measure(name, seed=args.seed, seconds=seconds, trace=bool(args.trace),
                         scale=args.scale, spec=spec, reference=reference)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        _print_record(record)
        result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result), flush=True)
        status |= 0 if record["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
