"""Dependency-free ASCII charts for examples and CLI output."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart, scaled to the largest value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return ""
    peak = max(values)
    if peak <= 0:
        raise ValueError("values must contain a positive entry")
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
        lines.append(f"{str(label):>{label_width}} | {bar} {value:g}{unit}")
    return "\n".join(lines)


#: shade ramp used by :func:`heatmap`, darkest last
HEAT_RAMP = " .:-=+*#%@"


def heatmap(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    unit: str = "",
    col_header_every: int = 8,
) -> str:
    """Character heatmap of a rows x cols value grid.

    Each cell is one character from :data:`HEAT_RAMP`, scaled linearly
    between the grid's min and max (a flat grid renders mid-ramp).  A
    sparse column ruler is printed when there are many columns (e.g. 48
    h-layers), and the value range is annotated so shades are readable.
    """
    if len(values) != len(row_labels):
        raise ValueError("values must have one row per row label")
    for row in values:
        if len(row) != len(col_labels):
            raise ValueError("every row must have one value per col label")
    if not row_labels or not col_labels:
        return "(empty heatmap)"
    flat = [v for row in values for v in row]
    lo, hi = min(flat), max(flat)
    span = hi - lo
    label_width = max(len(str(label)) for label in row_labels)

    def shade(value: float) -> str:
        if span == 0:
            return HEAT_RAMP[len(HEAT_RAMP) // 2]
        index = int((value - lo) / span * (len(HEAT_RAMP) - 1))
        return HEAT_RAMP[index]

    lines = []
    if len(col_labels) > col_header_every:
        ruler = [" "] * len(col_labels)
        for index in range(0, len(col_labels), col_header_every):
            text = str(col_labels[index])
            for offset, ch in enumerate(text):
                if index + offset < len(ruler):
                    ruler[index + offset] = ch
        lines.append(" " * (label_width + 3) + "".join(ruler))
    else:
        header = " ".join(f"{str(label):>3}" for label in col_labels)
        lines.append(" " * (label_width + 3) + header)
    for label, row in zip(row_labels, values):
        if len(col_labels) > col_header_every:
            cells = "".join(shade(value) for value in row)
        else:
            cells = " ".join(f"{shade(value):>3}" for value in row)
        lines.append(f"{str(label):>{label_width}} | {cells}")
    lines.append(
        f"{'':>{label_width}}   scale: ' '={lo:g}{unit} .. '@'={hi:g}{unit}"
    )
    return "\n".join(lines)


def histogram_chart(
    buckets: Dict[str, int], width: int = 40, unit: str = ""
) -> str:
    """Horizontal bar rendering of histogram bucket counts (upper-edge
    label -> count), skipping nothing so empty buckets stay visible."""
    if not buckets:
        return "(empty histogram)"
    peak = max(buckets.values())
    label_width = max(len(f"<= {label}") for label in buckets)
    lines = []
    for label, count in buckets.items():
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"{f'<= {label}':>{label_width}} | {bar} {count}{unit}")
    return "\n".join(lines)


def cdf_chart(
    samples_by_label: Dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    markers: str = "*o+x@",
) -> str:
    """Overlayed empirical CDFs of several sample sets.

    The x axis spans the pooled value range; each label gets a marker.
    """
    if not samples_by_label:
        return ""
    pooled: List[float] = []
    for samples in samples_by_label.values():
        pooled.extend(samples)
    if not pooled:
        return ""
    lo, hi = min(pooled), max(pooled)
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (label, samples) in enumerate(samples_by_label.items()):
        marker = markers[index % len(markers)]
        values = np.sort(np.asarray(samples, dtype=float))
        for column in range(width):
            x = lo + (hi - lo) * column / (width - 1)
            fraction = float(np.searchsorted(values, x, side="right")) / len(values)
            row = height - 1 - min(height - 1, int(fraction * (height - 1)))
            if grid[row][column] == " ":
                grid[row][column] = marker
    lines = []
    for row_index, row in enumerate(grid):
        fraction = 1.0 - row_index / (height - 1)
        lines.append(f"{fraction:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {lo:<12.4g}{'':^{max(0, width - 24)}}{hi:>12.4g}")
    legend = "  ".join(
        f"{markers[i % len(markers)]} = {label}"
        for i, label in enumerate(samples_by_label)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


def series_chart(
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    markers: str = "*o+x@",
) -> str:
    """Plot one or more y-series over a shared x axis."""
    if not series:
        return ""
    for label, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {label!r} does not match the x axis")
    pooled = [y for ys in series.values() for y in ys]
    lo, hi = min(pooled), max(pooled)
    if hi == lo:
        hi = lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (label, ys) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            column = min(width - 1, int((x - x_lo) / span * (width - 1)))
            row = height - 1 - min(height - 1, int((y - lo) / (hi - lo) * (height - 1)))
            grid[row][column] = marker
    lines = [f"{hi:10.4g} |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("           |" + "".join(row))
    lines.append(f"{lo:10.4g} |" + "".join(grid[-1]))
    lines.append("           +" + "-" * width)
    lines.append(f"            {x_lo:<10.4g}{'':^{max(0, width - 20)}}{x_hi:>10.4g}")
    legend = "  ".join(
        f"{markers[i % len(markers)]} = {label}" for i, label in enumerate(series)
    )
    lines.append("            " + legend)
    return "\n".join(lines)
