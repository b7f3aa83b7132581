#!/usr/bin/env python3
"""Compare two result sets of ``run.py`` (a parent commit and a change).

Collect each side with ``--record``, alternating which side runs first
and using the same seeds on both::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/run.py --workload gc-cube --seed $seed --record ../parent.jsonl)
      (cd change && python3 perfbench/run.py --workload gc-cube --seed $seed --record ../change.jsonl)
    done
    python3 perfbench/compare.py parent.jsonl change.jsonl

Runs pair up by workload and seed.  For each workload and metric the
table gives each side's median and quartiles, the share of pairs the
change won (ties count for neither side) and a verdict:

- host-time metrics: ``improved`` when the change wins at least nine
  tenths of the pairs and the medians differ by more than the parent's
  interquartile range; otherwise ``unresolved`` when the parent's own
  spread exceeds the metric's bound (unless every change run beats every
  parent run); otherwise ``worse`` when the change's median is worse by
  more than the bound, else ``no worse``.  Bounds and directions come
  from ``BENCHMARK.json``; a metric without a bound is only ever
  ``improved`` or ``not shown better``.
- simulated metrics (``sim_*`` and ``*.sim_*``) are deterministic for a
  seed and compare exactly: ``identical`` or ``changed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str):
    """{workload: {seed: record}} of one result file (last record wins)."""
    runs = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]][record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def is_simulated(metric: str) -> bool:
    return metric.startswith("sim_") or ".sim_" in metric


def verdict(parent, change, better: str, bound):
    """The rule of the module docstring for one host-time metric."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    won = wins / len(parent)
    gain = sign * (cm - pm)
    if won >= 0.9 and gain > p3 - p1:
        return won, "improved"
    if bound is None:
        return won, "not shown better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return won, "unresolved"
    if gain < -bound * abs(pm):
        return won, "worse"
    return won, "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    rules = {
        m["name"]: (m["better"], m.get("bound"))
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    parent, change = load(args.parent), load(args.change)
    worse = changed = 0
    header = (
        f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'won':>5}  verdict"
    )
    print(header)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        left = [parent[workload][s] for s in seeds]
        right = [change[workload][s] for s in seeds]
        for record in left + right:
            if not record["correct"] or record["failed"]:
                print(
                    f"{workload}: seed {record['seed']} had failed runs "
                    f"({record['failed']} of {record['attempted']})"
                )
        for metric in left[0]["metrics"]:
            a = [r["metrics"][metric] for r in left if metric in r["metrics"]]
            b = [r["metrics"][metric] for r in right if metric in r["metrics"]]
            if len(a) != len(seeds) or len(b) != len(seeds):
                continue
            p1, pm, p3 = quartiles(a)
            c1, cm, c3 = quartiles(b)
            won = "-"
            if is_simulated(metric):
                if a == b:
                    result = "identical"
                else:
                    changed += 1
                    shift = (cm - pm) / pm if pm else float("inf")
                    result = f"changed ({100.0 * shift:+.2f}% median)"
            else:
                better, bound = rules.get(metric, ("higher", None))
                share, result = verdict(a, b, better, bound)
                won = f"{share:.2f}"
                worse += result == "worse"
            print(
                f"{workload:<14} {metric:<28} "
                f"{pm:>14.4f} [{p1:.4f}, {p3:.4f}]".ljust(79)
                + f" {cm:>14.4f} [{c1:.4f}, {c3:.4f}]".ljust(35)
                + f" {won:>5}  {result}"
            )
        same = sum(
            1
            for p, c in zip(left, right)
            if p["detail"].get("digests") == c["detail"].get("digests")
        )
        print(
            f"{workload:<14} simulated-result digests identical on "
            f"{same}/{len(seeds)} seeds"
        )
    print(f"{worse} host-time metric(s) worse, {changed} simulated metric(s) changed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
