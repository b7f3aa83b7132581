"""Trace primitives: I/O requests and traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

READ = "R"
WRITE = "W"


@dataclass(frozen=True)
class IORequest:
    """One host request: operation, starting logical page, page count.

    ``arrival_us`` is optional: traces without arrival times replay
    closed-loop at a fixed queue depth; traces with arrival times can be
    replayed open-loop (requests issue at their timestamps).

    ``tenant`` names the stream the request belongs to in a multi-tenant
    scenario (see :mod:`repro.workloads.tenants`); single-stream traces
    leave it ``None`` and nothing downstream ever looks at it.
    """

    op: str
    lpn: int
    n_pages: int = 1
    arrival_us: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ValueError(f"op must be {READ!r} or {WRITE!r}")
        if self.lpn < 0:
            raise ValueError("lpn must be >= 0")
        if self.n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        # a NaN arrival would stall the engine, an infinite one end the
        # run at t = inf
        if self.arrival_us is not None and not 0 <= self.arrival_us < math.inf:
            raise ValueError("arrival_us must be finite and >= 0")

    def at(self, arrival_us: float) -> "IORequest":
        """A copy of this request stamped with an arrival time."""
        return IORequest(self.op, self.lpn, self.n_pages, arrival_us, self.tenant)

    def tagged(self, tenant: str) -> "IORequest":
        """A copy of this request tagged with a tenant name."""
        return IORequest(self.op, self.lpn, self.n_pages, self.arrival_us, tenant)

    @property
    def is_read(self) -> bool:
        return self.op == READ

    @property
    def is_write(self) -> bool:
        return self.op == WRITE

    @property
    def end_lpn(self) -> int:
        """One past the last page touched."""
        return self.lpn + self.n_pages


@dataclass
class Trace:
    """A named sequence of host requests over a logical page space."""

    name: str
    logical_pages: int
    requests: List[IORequest] = field(default_factory=list)

    def __post_init__(self) -> None:
        for request in self.requests:
            self._check(request)

    def _check(self, request: IORequest) -> None:
        if request.end_lpn > self.logical_pages:
            raise ValueError(
                f"request {request} exceeds logical space {self.logical_pages}"
            )

    def append(self, request: IORequest) -> None:
        self._check(request)
        self.requests.append(request)

    @property
    def has_arrivals(self) -> bool:
        """True when every request carries an arrival timestamp.

        The host model dispatches on this property (open-loop replay is
        only defined for fully-stamped traces) instead of scattering
        per-request ``is not None`` checks.
        """
        return bool(self.requests) and all(
            request.arrival_us is not None for request in self.requests
        )

    @property
    def tenants(self) -> List[str]:
        """Distinct tenant tags, in first-appearance order."""
        seen: Dict[str, None] = {}
        for request in self.requests:
            if request.tenant is not None and request.tenant not in seen:
                seen[request.tenant] = None
        return list(seen)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def __getitem__(self, index):
        return self.requests[index]


def with_arrivals(
    trace: Trace,
    rate_iops: float,
    burstiness: float = 1.0,
    seed: int = 1,
) -> Trace:
    """Stamp a trace with arrival times for open-loop replay.

    Inter-arrival gaps are exponential with mean ``1/rate_iops``; a
    ``burstiness`` above 1 alternates between dense bursts and idle gaps
    of the same average rate (a simple on/off burst model).
    """
    if rate_iops <= 0:
        raise ValueError("rate_iops must be positive")
    if burstiness < 1.0:
        raise ValueError("burstiness must be >= 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / rate_iops
    now = 0.0
    stamped = Trace(trace.name, trace.logical_pages)
    for index, request in enumerate(trace):
        if burstiness > 1.0 and rng.random() < 0.5:
            gap = rng.exponential(mean_gap_us / burstiness)
        else:
            gap = rng.exponential(mean_gap_us * burstiness) if burstiness > 1.0 \
                else rng.exponential(mean_gap_us)
        now += gap
        stamped.append(request.at(now))
    return stamped


def trace_summary(trace: Trace) -> Dict[str, float]:
    """Aggregate statistics of a trace (used in docs and tests)."""
    reads = [r for r in trace if r.is_read]
    writes = [r for r in trace if r.is_write]
    read_pages = sum(r.n_pages for r in reads)
    write_pages = sum(r.n_pages for r in writes)
    total_pages = read_pages + write_pages
    lpns = {r.lpn for r in trace}
    return {
        "requests": len(trace),
        "read_requests": len(reads),
        "write_requests": len(writes),
        "read_fraction": len(reads) / len(trace) if trace else 0.0,
        "read_page_fraction": read_pages / total_pages if total_pages else 0.0,
        "mean_read_pages": read_pages / len(reads) if reads else 0.0,
        "mean_write_pages": write_pages / len(writes) if writes else 0.0,
        "unique_start_lpns": len(lpns),
    }
