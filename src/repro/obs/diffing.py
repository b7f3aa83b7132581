"""Cross-run metric diffing with tolerance verdicts.

:func:`compare_artifacts` diffs two *run artifact* directories (see
:mod:`repro.obs.artifact`) metric-by-metric, with :func:`pct` delta
formatting, giving every row a verdict:

``same``
    exactly equal (the expected outcome for an identical spec+seed --
    the simulator is deterministic).
``ok`` / ``better`` / ``REGRESSION``
    within tolerance / beyond tolerance in the good direction / beyond
    tolerance in the bad direction, for gated metrics (IOPS up is good,
    latency percentiles down is good).
``info``
    reported but never gated (counters, durations).
"""

from __future__ import annotations

import json
import os
from typing import List

__all__ = [
    "SchemaDriftError",
    "pct",
    "compare_artifacts",
    "format_artifact_diff",
]


def pct(new: float, old: float) -> str:
    """Signed relative delta, or ``n/a`` when undefined."""
    if new is None or old is None:
        return "n/a"
    if old == 0:
        return "n/a" if new == 0 else "+inf"
    return f"{100.0 * (new - old) / old:+.1f} %"


class SchemaDriftError(Exception):
    """A directory handed to :func:`compare_artifacts` is not a readable
    run artifact.

    The comparator must *name* the missing file and the directory it
    was expected in, not die with a traceback -- a crashed diff is
    indistinguishable from a broken comparator."""


#: gated scalar metrics: (dotted path, good direction)
_GATED = (
    ("iops", "higher"),
    ("read_latency.mean_us", "lower"),
    ("read_latency.p50_us", "lower"),
    ("read_latency.p90_us", "lower"),
    ("read_latency.p99_us", "lower"),
    ("read_latency.p999_us", "lower"),
    ("read_latency.max_us", "lower"),
    ("write_latency.mean_us", "lower"),
    ("write_latency.p50_us", "lower"),
    ("write_latency.p90_us", "lower"),
    ("write_latency.p99_us", "lower"),
    ("write_latency.p999_us", "lower"),
    ("write_latency.max_us", "lower"),
)

#: informational scalar metrics (never gated)
_INFO = (
    "completed_requests",
    "duration_us",
    "read_latency.count",
    "write_latency.count",
)


def _load_json(run_dir: str, name: str, source: str):
    path = os.path.join(run_dir, name)
    if not os.path.isfile(path):
        raise SchemaDriftError(f"{source} has no {name} (not a run artifact?)")
    with open(path) as handle:
        return json.load(handle)


def _lookup(document: dict, dotted: str):
    value = document
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _verdict(a, b, direction: str, tolerance: float) -> str:
    if a is None or b is None:
        return "info"
    if b == a:
        return "same"
    if a == 0:
        return "ok"
    rel = (b - a) / a
    if direction == "higher":
        rel = -rel
    if rel > tolerance:
        return "REGRESSION"
    if rel < -tolerance:
        return "better"
    return "ok"


def compare_artifacts(dir_a: str, dir_b: str, tolerance: float = 0.10) -> dict:
    """Diff two run-artifact directories metric-by-metric.

    Returns ``{"a", "b", "same_run", "rows", "problems"}`` where each
    row is ``{"metric", "a", "b", "delta", "verdict"}`` and ``problems``
    lists the REGRESSION rows.  Raises :class:`SchemaDriftError` when
    either directory is not a readable run artifact.
    """
    manifest_a = _load_json(dir_a, "manifest.json", dir_a)
    manifest_b = _load_json(dir_b, "manifest.json", dir_b)
    result_a = _load_json(dir_a, "result.json", dir_a)
    result_b = _load_json(dir_b, "result.json", dir_b)

    rows = []
    problems = []
    for dotted, direction in _GATED:
        value_a = _lookup(result_a, dotted)
        value_b = _lookup(result_b, dotted)
        if value_a is None and value_b is None:
            continue
        verdict = _verdict(value_a, value_b, direction, tolerance)
        row = {
            "metric": dotted,
            "a": value_a,
            "b": value_b,
            "delta": pct(value_b, value_a),
            "verdict": verdict,
        }
        rows.append(row)
        if verdict == "REGRESSION":
            problems.append(row)
    for dotted in _INFO:
        value_a = _lookup(result_a, dotted)
        value_b = _lookup(result_b, dotted)
        if value_a is None and value_b is None:
            continue
        rows.append(
            {
                "metric": dotted,
                "a": value_a,
                "b": value_b,
                "delta": pct(value_b, value_a),
                "verdict": "same" if value_a == value_b else "info",
            }
        )
    counters_a = result_a.get("counters") or {}
    counters_b = result_b.get("counters") or {}
    for name in sorted(set(counters_a) | set(counters_b)):
        value_a = counters_a.get(name)
        value_b = counters_b.get(name)
        rows.append(
            {
                "metric": f"counters.{name}",
                "a": value_a,
                "b": value_b,
                "delta": pct(value_b, value_a),
                "verdict": "same" if value_a == value_b else "info",
            }
        )
    return {
        "a": {
            "dir": dir_a,
            "run_id": manifest_a.get("run_id"),
            "fingerprint": manifest_a.get("fingerprint"),
        },
        "b": {
            "dir": dir_b,
            "run_id": manifest_b.get("run_id"),
            "fingerprint": manifest_b.get("fingerprint"),
        },
        "same_run": manifest_a.get("fingerprint") == manifest_b.get("fingerprint"),
        "tolerance": tolerance,
        "rows": rows,
        "problems": problems,
    }


def format_artifact_diff(report: dict) -> List[str]:
    """Deterministic text rendering of a :func:`compare_artifacts` report."""

    def cell(value) -> str:
        if value is None:
            return "n/a"
        if isinstance(value, float):
            return f"{value:.1f}"
        return str(value)

    lines = [
        f"a: {report['a']['run_id']}  ({report['a']['dir']})",
        f"b: {report['b']['run_id']}  ({report['b']['dir']})",
    ]
    if report["same_run"]:
        lines.append("note: identical spec fingerprint (same spec + seed)")
    lines.append("")
    width = max(len(row["metric"]) for row in report["rows"]) if report["rows"] else 6
    header = f"{'metric':<{width}}  {'a':>12}  {'b':>12}  {'delta':>9}  verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["rows"]:
        lines.append(
            f"{row['metric']:<{width}}  {cell(row['a']):>12}  "
            f"{cell(row['b']):>12}  {row['delta']:>9}  {row['verdict']}"
        )
    lines.append("")
    if report["problems"]:
        for row in report["problems"]:
            lines.append(
                f"REGRESSION: {row['metric']} {cell(row['a'])} -> "
                f"{cell(row['b'])} ({row['delta']})"
            )
    else:
        lines.append(
            f"OK: no regressions beyond {report['tolerance']:.0%} tolerance"
        )
    return lines
