"""Compare benchmark result files: one row per (workload, metric).

    python bench/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments alternate parent and change runs, as written by ``run.py
--out``; run the two sides alternately and with the same ``--seconds``.
Each end-to-end row is marked

* ``unresolved`` when the parent's own spread (interquartile distance
  over its median: across runs with two or more pairs, across the timed
  repeats of its one run otherwise) exceeds the metric's bound, unless
  the gain can be claimed and every change run reads better than every
  parent run (``improved``);
* ``regressed`` when the change's median is worse than the parent's by
  more than the bound from ``BENCHMARK.json``;
* ``improved`` when, over at least ten pairs of result files, the change
  wins at least nine tenths of them (ties count for neither) and the
  medians differ by more than the parent's interquartile distance;
* ``unchanged`` otherwise.

A gain is never claimed from fewer than ten pairs of result files.  The
timed repeats inside one run share one phase of the host, so they can
show a spread or a regression but not a gain.

A ``failed`` row regresses when the change failed more operations.
Results from different hosts or CPU counts are refused.  Exit status:
0, or 1 when any row regressed, or 2 when the inputs are refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

MIN_CLAIM_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent_runs, change_runs, parent_spread, bound, lower_is_better, claimable) -> str:
    """The row's mark; ``*_runs`` are the values compared side against side.

    ``claimable`` says the runs are one value per result file over at
    least ``MIN_CLAIM_PAIRS`` pairs; only then may the mark be ``improved``.
    """
    sign = 1.0 if lower_is_better else -1.0
    parent_median = stats.median(parent_runs)
    change_median = stats.median(change_runs)
    all_better = max(sign * c for c in change_runs) < min(sign * p for p in parent_runs)
    if parent_spread > bound:
        return "improved" if claimable and all_better else "unresolved"
    worse_by = sign * (change_median - parent_median) / abs(parent_median) if parent_median else 0.0
    if worse_by > bound:
        return "regressed"
    if not claimable:
        return "unchanged"
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))
    q1, q3 = stats.quartiles(parent_runs)
    if wins >= WIN_SHARE * len(parent_runs) and sign * (parent_median - change_median) > q3 - q1:
        return "improved"
    return "unchanged"


def compare(results) -> list:
    """Rows ``(workload, metric, parent, change, spread, bound, verdict)``."""
    parents, changes = results[0::2], results[1::2]
    claimable = len(parents) >= MIN_CLAIM_PAIRS
    rows = []
    workloads = [w for w in parents[0]["workloads"] if all(w in r["workloads"] for r in results)]
    for name in workloads:
        for metric in stats.spec()["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            parent = [r["workloads"][name]["end_to_end"][key] for r in parents]
            change = [r["workloads"][name]["end_to_end"][key] for r in changes]
            if len(parents) == 1:
                parent_runs, change_runs = parent[0]["samples"], change[0]["samples"]
            else:
                parent_runs = [s["value"] for s in parent]
                change_runs = [s["value"] for s in change]
            spread = stats.spread(parent_runs)
            mark = verdict(parent_runs, change_runs, spread, bound,
                           metric["better"] == "lower", claimable)
            rows.append((name, key, stats.median([s["value"] for s in parent]),
                         stats.median([s["value"] for s in change]), spread, bound, mark))
        failed = [sum(r["workloads"][name]["failed"] for r in side) for side in (parents, changes)]
        rows.append((name, "failed", failed[0], failed[1], 0.0, 0.0,
                     "regressed" if failed[1] > failed[0] else "unchanged"))
    return rows


def layer_rows(results) -> list:
    """Per-layer medians of both sides, for metrics non-zero on either."""
    parents, changes = results[0::2], results[1::2]
    rows = []
    for name in parents[0]["workloads"]:
        for metric in stats.spec()["per_layer"]:
            sides = [
                [r["workloads"][name].get("per_layer", {}).get(metric["name"]) for r in side]
                for side in (parents, changes)
            ]
            if any(v is None for side in sides for v in side):
                continue
            parent, change = (stats.median(side) for side in sides)
            if parent or change:
                rows.append((name, metric["name"], parent, change, metric["unit"]))
    return rows


def main(paths) -> int:
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = [json.loads(Path(path).read_text()) for path in paths]
    hosts = {(r["env"]["host"], r["env"]["nproc"]) for r in results}
    if len(hosts) > 1:
        print(f"compare: refusing results from different hosts or CPU counts: {sorted(hosts)}",
              file=sys.stderr)
        return 2
    rows = compare(results)
    print(f"{'workload':14s} {'metric':12s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict   ({len(paths) // 2} pairs)")
    for name, metric, parent, change, spread, bound, mark in rows:
        delta = (change - parent) / parent if parent else 0.0
        print(f"{name:14s} {metric:12s} {parent:12.6g} {change:12.6g} "
              f"{delta:+8.2%} {spread:7.2%} {bound:6.0%}  {mark}")
    print("\nper-layer medians (no bound):")
    for name, metric, parent, change, unit in layer_rows(results):
        print(f"{name:14s} {metric:34s} {parent:12.6g} {change:12.6g} {unit}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
