"""``run.py --compare BASE NEW``: verdicts on two sets of benchmark runs.

Each file holds the JSONL records ``run.py --out`` appends, one per run
of a workload. Runs pair up in file order, so make them alternately on
the two sides (base, new, base, new, ...). For every workload and
end-to-end metric the verdict follows the benchmark's rule:

* **improved** -- at least 10 pairs, the new side wins at least 9 in 10
  of them (ties count for neither), and the medians differ by more than
  the base side's interquartile range;
* **unresolved** -- either side's spread (IQR / median) exceeds the
  metric's bound, unless every new run beats every base run;
* **worse** -- the new median is worse than the base median by more
  than the bound;
* **unchanged** -- otherwise.

More failed cells on the new side make a workload worse regardless.
The exit status is 1 when any verdict is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], *, bound: float, better: str) -> dict:
    """Verdict and supporting numbers for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    change = sign * (nmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    all_better = all(sign * (n - b) < 0 for b in base for n in new)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(nmed - bmed) > bq3 - bq1 and change < 0):
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif change > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"verdict": outcome, "base": (bmed, bq1, bq3), "new": (nmed, nq1, nq3),
            "wins": wins, "pairs": len(pairs), "change": change, "spread": spread}


def _load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def compare_files(base_path: str, new_path: str, spec: dict) -> int:
    base, new = _load(base_path), _load(new_path)
    bad = 0
    print(f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'wins':>7} {'change':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        if not b_runs or not n_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not b or not n:
                continue
            v = verdict(b, n, bound=metric["bound"], better=metric["better"])
            bad += v["verdict"] in ("worse", "unresolved")
            print(f"{workload:<11} {name:<12} "
                  f"{'%.5g [%.5g, %.5g]' % v['base']:<32} "
                  f"{'%.5g [%.5g, %.5g]' % v['new']:<32} "
                  f"{v['wins']:>3}/{v['pairs']:<3} {v['change']:>+8.2%}  {v['verdict']}")
        b_failed = sum(r["failed"] for r in b_runs)
        n_failed = sum(r["failed"] for r in n_runs)
        if n_failed > b_failed:
            bad += 1
            print(f"{workload:<11} failed cells {b_failed} -> {n_failed}  worse")
    return 1 if bad else 0
