"""Real block-trace ingestion (MSR-Cambridge / blktrace-style CSV).

The synthetic generators reproduce the *statistics* of the paper's
workloads; this module replays *recorded* block traces through the same
simulator.  The accepted shape is a CSV (or whitespace-separated) file
with one request per line carrying, in order or by header name::

    timestamp, op, offset, size

- **timestamp** -- arrival time; ``time_unit`` scales it to simulated
  microseconds (``"us"``, ``"ms"``, ``"s"``, or ``"win100ns"`` for the
  MSR-Cambridge 100-ns Windows filetime ticks).  Timestamps are
  re-based so the first request arrives at 0.
- **op** -- ``R``/``W`` (any case), ``Read``/``Write``, ``RS``/``WS``
  (blktrace), or ``0``/``1`` (0 = read, as in the MSR traces).
- **offset** -- starting address; ``offset_unit`` says whether it is in
  ``"byte"``, ``"sector"`` (512 B), or ``"page"`` units.
- **size** -- request length in the same unit.

MSR-Cambridge rows (``timestamp,hostname,disk,type,offset,size,
response``) are recognized by column count and the extra fields are
ignored.  Lines starting with ``#`` and blank lines are skipped.

Addresses are scaled from LBA space to LPN space (``offset //
page_size``) and then fit to the simulated device's logical space with
one of four ``address_mode`` policies:

``"scale"`` (default)
    proportionally remap the observed address span onto
    ``[0, logical_pages)`` -- preserves relative layout/locality of the
    trace on any device size.
``"wrap"``
    ``lpn % logical_pages`` -- preserves absolute strides, folds the
    address space.
``"clamp"``
    clip out-of-range requests to the top of the logical space.
``"strict"``
    raise :class:`BlockTraceError` on the first out-of-range request.

Use the ``trace:<path>`` workload scheme (see
:func:`repro.workloads.build_workload` and
:class:`repro.specs.WorkloadSpec`) to plug a trace file in anywhere a
workload name is accepted; ``.csv`` files route here, anything else to
the native :func:`repro.workloads.traceio.load_trace` format.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.workloads.base import READ, WRITE, IORequest, Trace

#: bytes per sector for ``offset_unit="sector"`` (the universal LBA unit)
SECTOR_BYTES = 512

_TIME_UNIT_US = {
    "us": 1.0,
    "ms": 1e3,
    "s": 1e6,
    # MSR-Cambridge timestamps are Windows filetime ticks (100 ns)
    "win100ns": 0.1,
}

_ADDRESS_MODES = ("scale", "wrap", "clamp", "strict")

_READ_TOKENS = {"r", "rs", "read", "0"}
_WRITE_TOKENS = {"w", "ws", "write", "1"}

#: header names recognized for each field (lower-cased)
_FIELD_ALIASES = {
    "timestamp": ("timestamp", "time", "ts", "arrival"),
    "op": ("op", "type", "opcode", "operation"),
    "offset": ("offset", "lba", "addr", "address", "sector"),
    "size": ("size", "length", "len", "bytes", "nbytes"),
}


class BlockTraceError(ValueError):
    """The file is not a replayable block trace."""


def _split(line: str) -> List[str]:
    if "," in line:
        return [field.strip() for field in line.split(",")]
    return line.split()


def _parse_op(token: str, path: str, line_no: int) -> str:
    lowered = token.strip().lower()
    if lowered in _READ_TOKENS:
        return READ
    if lowered in _WRITE_TOKENS:
        return WRITE
    raise BlockTraceError(
        f"{path}:{line_no}: unrecognized op {token!r} "
        "(expected R/W, Read/Write, RS/WS, or 0/1)"
    )


def _header_columns(fields: List[str]) -> Optional[dict]:
    """Column indices when ``fields`` is a header row, else ``None``."""
    lowered = [field.lower() for field in fields]
    columns = {}
    for name, aliases in _FIELD_ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                columns[name] = lowered.index(alias)
                break
    if len(columns) == 4:
        return columns
    return None


def _positional_columns(fields: List[str]) -> dict:
    """Column layout inferred from the field count of a data row."""
    if len(fields) >= 7:
        # MSR-Cambridge: timestamp,hostname,disk,type,offset,size,response
        return {"timestamp": 0, "op": 3, "offset": 4, "size": 5}
    if len(fields) >= 4:
        return {"timestamp": 0, "op": 1, "offset": 2, "size": 3}
    raise BlockTraceError(
        "rows need at least 4 columns (timestamp, op, offset, size); "
        f"got {len(fields)}"
    )


def _to_pages(value: int, unit: str, page_size_bytes: int) -> Tuple[int, int]:
    """(whole pages, remainder bytes) an offset/size covers."""
    if unit == "page":
        return value, 0
    scale = SECTOR_BYTES if unit == "sector" else 1
    return divmod(value * scale, page_size_bytes)


def load_block_trace(
    path: Union[str, Path],
    logical_pages: int,
    *,
    page_size_bytes: int = 4096,
    offset_unit: str = "byte",
    time_unit: str = "us",
    address_mode: str = "scale",
    time_scale: float = 1.0,
    limit: Optional[int] = None,
    name: Optional[str] = None,
) -> Trace:
    """Load a block-trace CSV into a replayable :class:`Trace`.

    Every request carries an ``arrival_us`` timestamp (re-based to the
    first request), so the result satisfies ``Trace.has_arrivals`` and
    replays open-loop / NCQ; passing it to a closed-loop run simply
    ignores the timestamps.  ``time_scale`` additionally stretches
    (>1) or compresses (<1) the arrival timeline after unit conversion,
    which is how a recorded trace is replayed at a higher or lower
    arrival rate than it was captured at.
    """
    path = Path(path)
    if logical_pages < 1:
        raise ValueError("logical_pages must be >= 1")
    if page_size_bytes < 1:
        raise ValueError("page_size_bytes must be >= 1")
    if offset_unit not in ("byte", "sector", "page"):
        raise ValueError("offset_unit must be 'byte', 'sector', or 'page'")
    if time_unit not in _TIME_UNIT_US:
        raise ValueError(f"time_unit must be one of {sorted(_TIME_UNIT_US)}")
    if address_mode not in _ADDRESS_MODES:
        raise ValueError(f"address_mode must be one of {_ADDRESS_MODES}")
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1 (or None)")

    tick_us = _TIME_UNIT_US[time_unit] * time_scale
    columns: Optional[dict] = None
    parsed: List[Tuple[float, str, int, int]] = []
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _split(line)
            if columns is None:
                header = _header_columns(fields)
                if header is not None:
                    columns = header
                    continue
                columns = _positional_columns(fields)
            try:
                timestamp = float(fields[columns["timestamp"]])
                offset = int(fields[columns["offset"]])
                size = int(fields[columns["size"]])
            except (IndexError, ValueError) as error:
                raise BlockTraceError(
                    f"{path}:{line_no}: unparseable row {line!r} ({error})"
                ) from error
            if not math.isfinite(timestamp):
                raise BlockTraceError(
                    f"{path}:{line_no}: non-finite timestamp in row {line!r}"
                )
            op = _parse_op(fields[columns["op"]], str(path), line_no)
            if size < 1 or offset < 0:
                raise BlockTraceError(
                    f"{path}:{line_no}: offset/size out of range "
                    f"(offset={offset}, size={size})"
                )
            lpn, byte_offset = _to_pages(offset, offset_unit, page_size_bytes)
            pages, tail = _to_pages(size, offset_unit, page_size_bytes)
            # a request covering a partial page still touches that page
            n_pages = max(1, pages + (1 if (tail + byte_offset) > 0 else 0))
            parsed.append((timestamp * tick_us, op, lpn, n_pages))
            if limit is not None and len(parsed) >= limit:
                break
    if not parsed:
        raise BlockTraceError(f"{path}: no requests found")

    base_time = min(entry[0] for entry in parsed)
    max_end = max(lpn + n_pages for _, _, lpn, n_pages in parsed)
    trace = Trace(name or path.stem, logical_pages)
    for timestamp, op, lpn, n_pages in parsed:
        n_pages = min(n_pages, logical_pages)
        if address_mode == "scale" and max_end > logical_pages:
            lpn = lpn * logical_pages // max_end
        elif address_mode == "wrap":
            lpn %= logical_pages
        if lpn + n_pages > logical_pages:
            if address_mode == "strict":
                raise BlockTraceError(
                    f"{path}: request at LPN {lpn} x{n_pages} exceeds the "
                    f"logical space ({logical_pages} pages); use "
                    "address_mode='scale'/'wrap'/'clamp' to fit it"
                )
            lpn = logical_pages - n_pages
        trace.append(IORequest(op, lpn, n_pages, arrival_us=timestamp - base_time))
    return trace
