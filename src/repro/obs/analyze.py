"""Trace and metrics analysis: latency breakdowns and timelines.

Turns a span trace into the per-mechanism attribution the paper's
evaluation is built on: how much of a request's latency was *queueing*
(FIFO and buffer waits), *NAND time* (array sense / program), *retry*
(extra sense steps the ORT is meant to eliminate), and *transfer*.

All attribution is per observed page: a WL program serving three host
pages contributes its duration to each of the three (each page really
did spend that time in the stage), so group totals are page-observed
time, not device busy time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.trace import Span

#: span stages -> report groups (the acceptance-level decomposition)
STAGE_GROUPS: Dict[str, str] = {
    "buffer_wait": "queueing",
    "buffer_staged": "queueing",
    "bus_queue": "queueing",
    "chip_queue": "queueing",
    "nand_read": "nand",
    "nand_program": "nand",
    "read_retry": "retry",
    "recovery_read": "retry",
    "bus_xfer": "transfer",
    "buffer_read": "buffer",
}

GROUP_ORDER = ("queueing", "nand", "retry", "transfer", "buffer")


def load_trace(path: str) -> List[Span]:
    """Read a JSONL trace file back into spans."""
    spans: List[Span] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# ----------------------------------------------------------------------
# per-request decomposition
# ----------------------------------------------------------------------


def request_spans(spans: Iterable[Span]) -> Dict[int, Span]:
    """The end-to-end ``request`` span of each host request."""
    return {
        span.request: span
        for span in spans
        if span.stage == "request" and span.request is not None
    }


def page_chains(
    spans: Iterable[Span],
) -> Dict[Tuple[int, int], List[Span]]:
    """Stage spans grouped per (request, lpn) page, in time order."""
    chains: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.request is None or span.stage == "request":
            continue
        chains[(span.request, span.lpn)].append(span)
    for chain in chains.values():
        chain.sort(key=lambda span: (span.start_us, span.end_us))
    return dict(chains)


def request_breakdown(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per-request page-observed time in each stage group.

    For a one-page request the group values sum to the request's
    end-to-end latency; for an n-page request they sum to the total
    page-observed time (pages progress in parallel).
    """
    breakdown: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {group: 0.0 for group in GROUP_ORDER}
    )
    for span in spans:
        if span.request is None or span.stage == "request":
            continue
        group = STAGE_GROUPS.get(span.stage)
        if group is not None:
            breakdown[span.request][group] += span.duration_us
    return dict(breakdown)


def stage_summary(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-stage count / total / mean of page-observed time."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        if span.request is None or span.stage == "request":
            continue
        entry = totals[span.stage]
        entry[0] += 1
        entry[1] += span.duration_us
    return {
        stage: {
            "count": count,
            "total_us": total,
            "mean_us": total / count if count else 0.0,
        }
        for stage, (count, total) in sorted(totals.items())
    }


def validate_trace(spans: Sequence[Span], tol_us: float = 1e-6) -> List[str]:
    """Check the tiling contract; returns human-readable violations.

    For every traced page the stage spans must (a) start at the
    request's issue time, (b) be contiguous (each span starts where the
    previous ended), and (c) therefore sum to that page's end-to-end
    latency; the request's last page must end at the request span's
    end.  An empty return value means the trace is self-consistent.
    """
    errors: List[str] = []
    requests = request_spans(spans)
    chains = page_chains(spans)
    last_end: Dict[int, float] = defaultdict(float)
    for (request, lpn), chain in chains.items():
        parent = requests.get(request)
        if parent is None:
            errors.append(f"req {request} lpn {lpn}: no request span")
            continue
        if abs(chain[0].start_us - parent.start_us) > tol_us:
            errors.append(
                f"req {request} lpn {lpn}: first span starts at "
                f"{chain[0].start_us}, request issued at {parent.start_us}"
            )
        for previous, current in zip(chain, chain[1:]):
            if abs(current.start_us - previous.end_us) > tol_us:
                errors.append(
                    f"req {request} lpn {lpn}: gap between "
                    f"{previous.stage}@{previous.end_us} and "
                    f"{current.stage}@{current.start_us}"
                )
        total = sum(span.duration_us for span in chain)
        span_latency = chain[-1].end_us - parent.start_us
        if abs(total - span_latency) > tol_us:
            errors.append(
                f"req {request} lpn {lpn}: stage sum {total} != "
                f"page latency {span_latency}"
            )
        last_end[request] = max(last_end[request], chain[-1].end_us)
    for request, parent in requests.items():
        if request not in last_end:
            errors.append(f"req {request}: no page spans")
        elif abs(last_end[request] - parent.end_us) > tol_us:
            errors.append(
                f"req {request}: last page ends at {last_end[request]}, "
                f"request completed at {parent.end_us}"
            )
    return errors


def breakdown_report(spans: Sequence[Span]) -> str:
    """Human-readable per-stage-group latency decomposition.

    Splits host requests into reads and writes and reports, per group,
    the page-observed time and its share -- the table that attributes a
    regression to queueing vs. NAND vs. retry time.
    """
    from repro.analysis.tables import format_table

    requests = request_spans(spans)
    breakdown = request_breakdown(spans)
    by_kind: Dict[str, Dict[str, float]] = {
        "read": {group: 0.0 for group in GROUP_ORDER},
        "write": {group: 0.0 for group in GROUP_ORDER},
    }
    counts = {"read": 0, "write": 0}
    for request, groups in breakdown.items():
        parent = requests.get(request)
        if parent is None:
            continue
        kind = parent.info.get("kind", "read")
        counts[kind] += 1
        for group, value in groups.items():
            by_kind[kind][group] += value
    rows = []
    for kind in ("read", "write"):
        total = sum(by_kind[kind].values())
        if counts[kind] == 0:
            continue
        for group in GROUP_ORDER:
            value = by_kind[kind][group]
            if value == 0.0:
                continue
            rows.append(
                [
                    kind,
                    group,
                    f"{value:.0f}",
                    f"{value / counts[kind]:.1f}",
                    f"{100.0 * value / total:.1f} %" if total else "-",
                ]
            )
    header = ["kind", "stage group", "total us", "us/request", "share"]
    return format_table(header, rows)


# ----------------------------------------------------------------------
# metrics timelines
# ----------------------------------------------------------------------


#: every series :func:`metrics_timeline` emits (beyond ``t_us``); the
#: timeline always carries all of them -- empty on short runs -- so
#: consumers can index keys without guarding against partial dicts
TIMELINE_SERIES = (
    "iops",
    "write_pages_per_s",
    "read_pages_per_s",
    "gc_programs_per_s",
    "erases_per_s",
    "buffer_utilization",
    "free_blocks",
    "follower_fraction",
    "ort_hit_rate",
)


def metrics_timeline(samples: Sequence[dict]) -> Dict[str, List[float]]:
    """Differentiate cumulative samples (``result.metrics``) into
    per-interval rates.

    Returns a dict of aligned series keyed by name; ``t_us`` holds the
    interval end times.  Rates are per second of simulated time.  A run
    shorter than one sampling interval (fewer than two distinct-time
    samples) yields the same keys with empty series, never a partial
    dict.
    """
    timeline: Dict[str, List[float]] = {"t_us": []}
    for name in TIMELINE_SERIES:
        timeline[name] = []
    if len(samples) < 2:
        return timeline
    rates = (
        ("iops", "completed_requests"),
        ("write_pages_per_s", "host_write_pages"),
        ("read_pages_per_s", "host_read_pages"),
        ("gc_programs_per_s", "gc_programs"),
        ("erases_per_s", "erases"),
    )
    for previous, current in zip(samples, samples[1:]):
        dt_s = (current["t_us"] - previous["t_us"]) / 1e6
        if dt_s <= 0:
            continue
        timeline["t_us"].append(current["t_us"])
        for series, key in rates:
            timeline[series].append((current[key] - previous[key]) / dt_s)
        timeline["buffer_utilization"].append(current["buffer_utilization"])
        timeline["free_blocks"].append(float(current["free_blocks"]))
        timeline["follower_fraction"].append(current["follower_fraction"])
        timeline["ort_hit_rate"].append(current["ort_hit_rate"])
    return timeline


def metrics_report(samples: Sequence[dict], width: int = 60) -> str:
    """ASCII timeline of IOPS, buffer utilization and ORT hit rate.

    Degrades gracefully on runs shorter than one sampling interval:
    instead of an empty (or misleading) timeline it reports the final
    snapshot's headline values, so the caller always gets *something*
    truthful to print.
    """
    from repro.analysis.ascii_plot import series_chart

    if not samples:
        return "(no metrics samples recorded)"
    timeline = metrics_timeline(samples)
    xs = timeline["t_us"]
    if len(xs) < 2:
        final = samples[-1]
        return (
            f"(run shorter than one metrics interval: {len(samples)} "
            f"sample(s), no timeline)\n"
            f"final sample @ {final['t_us']:.0f} us: "
            f"{final['completed_requests']} requests, "
            f"mu={final['buffer_utilization']:.2f}, "
            f"free_blocks={final['free_blocks']}, "
            f"ort_hit_rate={final['ort_hit_rate']:.2f}"
        )
    parts = []
    parts.append("IOPS per interval:")
    parts.append(series_chart(xs, {"iops": timeline["iops"]}, width=width))
    parts.append("")
    parts.append("buffer utilization (mu) / ORT hit rate / follower mix:")
    parts.append(
        series_chart(
            xs,
            {
                "mu": timeline["buffer_utilization"],
                "ort": timeline["ort_hit_rate"],
                "followers": timeline["follower_fraction"],
            },
            width=width,
        )
    )
    return "\n".join(parts)


# ----------------------------------------------------------------------
# telemetry snapshots (registry heatmaps and histograms)
# ----------------------------------------------------------------------


def _series(snapshot: dict, name: str) -> List[dict]:
    instrument = snapshot.get(name)
    return instrument["series"] if instrument else []


def _grid(
    series: List[dict], row_key: str, col_key: str, value
) -> Tuple[List[str], List[str], List[List[float]]]:
    """Pivot labelled series into a dense rows x cols value grid.

    ``value(entry)`` extracts the cell value; missing (row, col)
    combinations become 0.  Label values are sorted numerically where
    possible so die/layer axes come out in device order.
    """

    def order(values):
        try:
            return sorted(values, key=int)
        except (TypeError, ValueError):
            return sorted(values, key=str)

    rows = order({entry["labels"][row_key] for entry in series})
    cols = order({entry["labels"][col_key] for entry in series})
    cells = {
        (entry["labels"][row_key], entry["labels"][col_key]): value(entry)
        for entry in series
    }
    grid = [[cells.get((row, col), 0.0) for col in cols] for row in rows]
    return [str(row) for row in rows], [str(col) for col in cols], grid


def _hist_mean(entry: dict) -> float:
    return entry["sum"] / entry["count"] if entry["count"] else 0.0


def telemetry_report(snapshot: dict, include_histograms: bool = True) -> str:
    """Render a registry snapshot's device telemetry as ASCII heatmaps.

    Sections (each skipped when its instrument recorded nothing):

    - per-die busy time (rows: channel, cols: die) -- load balance
    - per-die x h-layer mean read retries -- where the retry time goes
    - per-h-layer mean tPROG -- the paper's per-WL program-time surface
    - per-h-layer ORT hit rate -- which layers the table is serving
    - die / channel queue-depth histograms -- congestion shape
    """
    from repro.analysis.ascii_plot import heatmap, histogram_chart

    parts: List[str] = []

    busy = _series(snapshot, "chip_busy_us")
    if busy:
        rows, cols, grid = _grid(
            busy, "channel", "die", lambda entry: entry["value"]
        )
        parts.append("die busy time (rows: channel, cols: die, us):")
        parts.append(heatmap(rows, cols, grid, unit=" us"))

    retries = _series(snapshot, "nand_read_retries")
    observed = [entry for entry in retries if entry["count"]]
    if observed:
        rows, cols, grid = _grid(observed, "die", "h_layer", _hist_mean)
        parts.append("")
        parts.append("mean read retries (rows: die, cols: h-layer):")
        parts.append(heatmap(rows, cols, grid))

    programs = _series(snapshot, "nand_program_us")
    observed = [entry for entry in programs if entry["count"]]
    if observed:
        layers = sorted(observed, key=lambda entry: int(entry["labels"]["h_layer"]))
        parts.append("")
        parts.append("mean tPROG per h-layer (us):")
        parts.append(
            heatmap(
                ["tPROG"],
                [str(entry["labels"]["h_layer"]) for entry in layers],
                [[_hist_mean(entry) for entry in layers]],
                unit=" us",
            )
        )

    lookups = _series(snapshot, "ort_lookups")
    if lookups:
        per_layer: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"hit": 0.0, "miss": 0.0}
        )
        for entry in lookups:
            labels = entry["labels"]
            per_layer[labels["h_layer"]][labels["outcome"]] = entry["value"]
        layers = sorted(per_layer, key=int)
        rates = []
        for layer in layers:
            counts = per_layer[layer]
            total = counts["hit"] + counts["miss"]
            rates.append(counts["hit"] / total if total else 0.0)
        parts.append("")
        parts.append("ORT hit rate per h-layer:")
        parts.append(heatmap(["hit rate"], layers, [rates]))

    if include_histograms:
        for name, title in (
            ("chip_queue_depth", "die FIFO queue depth at arrival (all dies):"),
            ("bus_queue_depth", "channel FIFO queue depth at arrival:"),
        ):
            series = _series(snapshot, name)
            if not series:
                continue
            merged: Dict[str, int] = {}
            for entry in series:
                for bucket, count in entry["buckets"].items():
                    merged[bucket] = merged.get(bucket, 0) + count
            if not sum(merged.values()):
                continue
            parts.append("")
            parts.append(title)
            parts.append(histogram_chart(merged))

    if not parts:
        return "(telemetry snapshot contains no device series)"
    return "\n".join(part for part in parts)
