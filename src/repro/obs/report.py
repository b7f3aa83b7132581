"""Deterministic dashboards over run artifacts.

:func:`render_report` turns a loaded run artifact (see
:func:`repro.obs.artifact.load_artifact`) into an ASCII dashboard:
header summary, latency CDFs, time-series charts of the most
interesting telemetry keys, top-K tail exemplars with their span
breakdowns, the host-time layers of a profiled run, and first-to-last
telemetry deltas.  Rendering is a pure function of the artifact files
-- no wall clock, no environment -- so the same artifact always renders
to the same bytes (asserted by the test suite, and what makes
``repro-ssd report`` output diffable).

:func:`render_html` wraps the same sections into a single-file static
page (monospace ``<pre>`` blocks; nothing external to load).
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Optional, Sequence

from repro.analysis.ascii_plot import cdf_chart, series_chart
from repro.obs.profile import profile_report
from repro.obs.timeseries import expand_records

#: substrings that promote a telemetry key into the charted selection,
#: most interesting first
PREFERRED_SERIES = (
    "free_blocks",
    "buffer_utilization",
    "gc",
    "retry",
    "ort",
    "chip_busy",
)

#: how many telemetry keys to chart / list in the delta table
MAX_SERIES = 4
MAX_DELTA_ROWS = 20


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _header(artifact: dict) -> List[str]:
    manifest = artifact["manifest"]
    result = artifact["result"] or {}
    lines = [
        f"run {manifest['run_id']}  "
        f"ftl={manifest.get('ftl')}  workload={manifest.get('workload')}  "
        f"seed={manifest.get('seed')}",
        f"completed: {result.get('completed_requests')} request(s) in "
        f"{_fmt(result.get('duration_us'))} us  "
        f"({_fmt(result.get('iops'))} IOPS)",
    ]
    for kind in ("read", "write"):
        block = result.get(f"{kind}_latency")
        if not block or not block.get("count"):
            continue
        lines.append(
            f"{kind:>5}: n={block['count']}  mean={_fmt(block['mean_us'])}  "
            f"p50={_fmt(block['p50_us'])}  p99={_fmt(block['p99_us'])}  "
            f"p999={_fmt(block['p999_us'])}  max={_fmt(block['max_us'])} us"
        )
    return lines


def _latency_section(artifact: dict) -> List[str]:
    latency = artifact.get("latency") or {}
    samples: Dict[str, Sequence[float]] = {}
    for kind in ("read", "write"):
        table = latency.get(kind)
        if table and table.get("count"):
            samples[kind] = table["quantiles_us"]
    if not samples:
        return []
    return ["", "latency CDF (quantile grid, us)", cdf_chart(samples)]


def _select_series(windows: List[Dict[str, float]], limit: int) -> List[str]:
    """The most interesting telemetry keys: preferred-substring matches
    first, then alphabetical; constant series are never interesting."""
    if not windows:
        return []
    scored = []
    for key in sorted(windows[-1]):
        values = {w[key] for w in windows if key in w}
        if len(values) <= 1:
            continue
        rank = len(PREFERRED_SERIES)
        for position, substring in enumerate(PREFERRED_SERIES):
            if substring in key:
                rank = position
                break
        scored.append((rank, key))
    scored.sort()
    return [key for _, key in scored[:limit]]


def _timeseries_section(artifact: dict) -> List[str]:
    records = artifact.get("timeseries")
    if not records:
        return []
    times, windows = expand_records(records)
    keys = _select_series(windows, MAX_SERIES)
    if not keys:
        return ["", f"time series: {len(records)} window(s), all keys constant"]
    lines = ["", f"time series ({len(records)} window(s))"]
    for key in keys:
        values = []
        last = 0.0
        for window in windows:
            last = window.get(key, last)
            values.append(last)
        lines.append("")
        lines.append(key)
        lines.append(series_chart(times, {"value": values}, height=6))
    return lines


def _stage_breakdown(stages: Dict[str, float], top: int = 4) -> str:
    ranked = sorted(stages.items(), key=lambda item: (-item[1], item[0]))[:top]
    return " ".join(f"{stage}={_fmt(duration)}" for stage, duration in ranked)


def _exemplar_section(artifact: dict) -> List[str]:
    document = artifact.get("exemplars")
    if not document:
        return []
    lines: List[str] = []
    for kind in sorted(document.get("kinds", {})):
        entry = document["kinds"][kind]
        slowest = entry.get("slowest", [])
        if not slowest:
            continue
        lines += ["", f"slowest {kind} exemplars ({entry['count']} total)"]
        links = document.get("tail_links", {}).get(kind, {})
        cuts = links.get("thresholds")
        if cuts:
            lines.append(
                f"  tail: p90={_fmt(cuts['p90_us'])}  "
                f"p99={_fmt(cuts['p99_us'])}  p999={_fmt(cuts['p999_us'])}  "
                f"max={_fmt(cuts['max_us'])} us"
            )
        for record in slowest:
            flags = []
            if record.get("retries"):
                flags.append(f"retries={record['retries']}")
            if record.get("gc_collision"):
                flags.append("gc-collision")
            if record.get("layers"):
                layers = ",".join(str(layer) for layer in record["layers"])
                flags.append(f"layers={layers}")
            flag_text = f"  [{' '.join(flags)}]" if flags else ""
            lines.append(
                f"  #{record['request']}: {_fmt(record['latency_us'])} us  "
                f"{_stage_breakdown(record.get('stages_us', {}))}{flag_text}"
            )
        buckets = links.get("buckets")
        if buckets:
            parts = [
                f"{name}: {len(buckets[name])}"
                for name in ("p90-p99", "p99-p999", "p999-max")
                if name in buckets
            ]
            lines.append(f"  tail buckets -> {'  '.join(parts)}")
    return lines


def _profile_section(artifact: dict) -> List[str]:
    """Host CPU time per layer (``profile.json``), layers above 1 %."""
    profile = artifact.get("profile")
    if not profile or "layers" not in profile:
        return []
    return ["", "host time by layer", profile_report(profile, min_share=0.01)]


def _delta_section(artifact: dict) -> List[str]:
    records = artifact.get("timeseries")
    if not records or len(records) < 2:
        return []
    _, windows = expand_records(records)
    first, last = windows[0], windows[-1]
    rows = []
    for key in sorted(last):
        before = first.get(key, 0.0)
        after = last[key]
        if before != after:
            rows.append((abs(after - before), key, before, after))
    if not rows:
        return []
    rows.sort(key=lambda row: (-row[0], row[1]))
    shown = rows[:MAX_DELTA_ROWS]
    width = max(len(key) for _, key, _, _ in shown)
    lines = ["", f"telemetry deltas (first -> last window, top {len(shown)})"]
    for _, key, before, after in shown:
        lines.append(f"  {key:<{width}}  {_fmt(before)} -> {_fmt(after)}")
    if len(rows) > len(shown):
        lines.append(f"  ... {len(rows) - len(shown)} more changed key(s)")
    return lines


def _extras_section(artifact: dict) -> List[str]:
    check = artifact.get("check")
    if check is None:
        return []
    violations = check.get("violations")
    count = len(violations) if isinstance(violations, list) else violations
    return ["", f"check: level={check.get('level')}  violations={_fmt(count)}"]


def render_report(artifact: dict) -> str:
    """ASCII dashboard for one loaded run artifact (deterministic)."""
    lines: List[str] = []
    lines += _header(artifact)
    lines += _latency_section(artifact)
    lines += _timeseries_section(artifact)
    lines += _exemplar_section(artifact)
    lines += _profile_section(artifact)
    lines += _delta_section(artifact)
    lines += _extras_section(artifact)
    return "\n".join(lines)


def render_html(artifact: dict, report: Optional[str] = None) -> str:
    """Single-file static HTML page wrapping the ASCII dashboard."""
    if report is None:
        report = render_report(artifact)
    manifest = artifact["manifest"]
    title = f"run {manifest['run_id']}"
    return (
        "<!DOCTYPE html>\n"
        "<html>\n<head>\n"
        '<meta charset="utf-8">\n'
        f"<title>{_html.escape(title)}</title>\n"
        "<style>\n"
        "body { background: #111; color: #ddd; font-family: monospace; "
        "margin: 2em; }\n"
        "pre { line-height: 1.25; }\n"
        "h1 { font-size: 1.2em; }\n"
        "</style>\n"
        "</head>\n<body>\n"
        f"<h1>{_html.escape(title)}</h1>\n"
        f"<pre>{_html.escape(report)}</pre>\n"
        "</body>\n</html>\n"
    )
