"""Compare two sets of benchmark results, one row per workload x metric.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds records appended by `bench/run.py --out FILE`; only
end-to-end records (--trace 0) are read, and the metrics are the
`end_to_end` entries of BENCHMARK.json with their bounds.  Runs of one
workload are paired in file order, so record the parent and the change
alternately, on the same seeds.

Verdicts (choosing-metrics guide, sections 6.5 and 8):

better        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side) and the medians differ by
              more than the parent's interquartile range;
unresolved    otherwise, when either side's interquartile range exceeds
              the bound (as a share of its median), unless every run of
              the change reads better than every run of the parent;
worse         otherwise, when the change's median is worse than the
              parent's by more than the bound;
within bound  otherwise.

No combined score is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) < 0 is a gain
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > p3 - p1):
        return "better"
    spread = max((p3 - p1) / abs(p_med), (c3 - c1) / abs(c_med))
    every_run_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    if sign * (c_med - p_med) / abs(p_med) > bound:
        return "worse"
    return "within bound"


def load(path: Path) -> dict[str, list[dict]]:
    """End-to-end records by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def rows(parent: dict, change: dict, spec: dict) -> list[list[str]]:
    out = []
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r[name]["value"] for r in parent[workload] if name in r]
            b = [r[name]["value"] for r in change[workload] if name in r]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            out.append([
                workload, name, m["unit"],
                f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}",
                f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}",
                f"{qb[1] / qa[1]:.4f}",
                f"{m['bound']:g}",
                verdict(a, b, m["bound"], m["better"]),
            ])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of bench/run.py records.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    table = [["workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "change/parent", "bound", "verdict"]]
    table += rows(load(args.parent), load(args.change), spec)
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
