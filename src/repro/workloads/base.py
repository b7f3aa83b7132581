"""Trace primitives: I/O requests, traces, and the columns a generated
stream is made of before its requests are built."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Callable, Dict, Iterator, List, Optional

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

    @classmethod
    def _checked(
        cls, name: str, logical_pages: int, requests: List[IORequest]
    ) -> "Trace":
        """A trace over requests :meth:`Columns.check` already checked
        against ``logical_pages``, without a second pass."""
        trace = cls(name, logical_pages)
        trace.requests = requests
        return trace

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


@dataclass
class Columns:
    """A request stream before its requests are built: one list per field.

    A generator fills ``ops``, ``lpns`` and ``sizes`` (each request's
    ``n_pages``) through :meth:`add`, with Python ints in ``lpns`` and
    ``sizes``; its stream is checked once against ``logical_pages``
    (:meth:`check`).  Open-loop stamping sets ``arrivals``
    (:meth:`stamp`), and tenant placement shifts ``lpns`` and sets
    ``tenants``, all on the lists; :meth:`build` then constructs each
    request once.
    """

    name: str
    logical_pages: int
    ops: List[str] = field(default_factory=list)
    lpns: List[int] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    #: per-request arrival times (µs), ``None`` until stamped
    arrivals: Optional[List[Optional[float]]] = None
    #: per-request tenant tags, ``None`` for a single-stream trace
    tenants: Optional[List[Optional[str]]] = None

    @classmethod
    def of(cls, trace: Trace) -> "Columns":
        """The columns of an existing trace."""
        requests = trace.requests
        return cls(
            trace.name,
            trace.logical_pages,
            [request.op for request in requests],
            [request.lpn for request in requests],
            [request.n_pages for request in requests],
            [request.arrival_us for request in requests],
            [request.tenant for request in requests],
        )

    def add(self, op: str, lpn: int, n_pages: int = 1) -> None:
        self.ops.append(op)
        self.lpns.append(lpn)
        self.sizes.append(n_pages)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def has_arrivals(self) -> bool:
        """True when every request carries an arrival time (as
        :attr:`Trace.has_arrivals`)."""
        return (
            bool(self.ops) and self.arrivals is not None and None not in self.arrivals
        )

    def _requests(self) -> Iterator[IORequest]:
        return map(
            IORequest,
            self.ops,
            self.lpns,
            self.sizes,
            self.arrivals or repeat(None),
            self.tenants or repeat(None),
        )

    def check(self) -> None:
        """Raise what appending each request in order to a
        :class:`Trace` over ``logical_pages`` would raise: the first
        request that fails its own validation or ends past the space.

        A scan of the columns shows that nothing fails; only when it
        finds something are the requests built and appended one by one,
        to raise that error."""
        ops, lpns, sizes = self.ops, self.lpns, self.sizes
        if not lpns or (
            # counted, not hashed: an op of any type fails as IORequest's
            # own test would
            ops.count(READ) + ops.count(WRITE) == len(ops)
            and min(lpns) >= 0
            and min(sizes) >= 1
            and max(map(add, lpns, sizes)) <= self.logical_pages
        ):
            return
        trace = Trace(self.name, self.logical_pages)
        for request in self._requests():
            trace.append(request)

    def stamp(self, rate_iops: float, burstiness: float = 1.0, seed: int = 1) -> None:
        """Set ``arrivals`` to :func:`arrival_times` of this stream."""
        self.arrivals = arrival_times(len(self), rate_iops, burstiness, seed)

    def build(self) -> Trace:
        """The trace of these columns, each request constructed once.

        The columns must have passed :meth:`check`; each request still
        runs its own validation as it is built."""
        return Trace._checked(self.name, self.logical_pages, list(self._requests()))


def trace_generator(make_columns: Callable[..., Columns]) -> Callable[..., Trace]:
    """Make the public generator of a function that fills a stream's
    columns: it returns the stream checked and built into a
    :class:`Trace`.  ``.columns`` returns the checked columns unbuilt,
    for callers that stamp, place or tag the stream before building it.
    """

    @functools.wraps(make_columns)
    def columns(*args, **kwargs) -> Columns:
        stream = make_columns(*args, **kwargs)
        stream.check()
        return stream

    @functools.wraps(make_columns)
    def generate(*args, **kwargs) -> Trace:
        return columns(*args, **kwargs).build()

    generate.columns = columns
    return generate


def arrival_times(
    n: int, rate_iops: float, burstiness: float = 1.0, seed: int = 1
) -> List[float]:
    """``n`` arrival times (µs) of an open-loop stream.

    Inter-arrival gaps are exponential with mean ``1/rate_iops``; a
    ``burstiness`` above 1 alternates between dense bursts and idle gaps
    of the same average rate (a simple on/off burst model).
    """
    # NaN fails every comparison, so a ``rate_iops <= 0`` test lets it
    # through; an infinite rate would stamp every arrival at 0
    if not (rate_iops > 0 and math.isfinite(rate_iops)):
        raise ValueError("rate_iops must be positive and finite")
    if not (burstiness >= 1.0 and math.isfinite(burstiness)):
        raise ValueError("burstiness must be >= 1 and finite")
    import numpy as np

    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / rate_iops
    if burstiness == 1.0:
        # every gap in one draw: the generator fills the array with the
        # values the same number of scalar calls return, and cumsum adds
        # them one after another, as the loop below does
        return np.cumsum(rng.exponential(mean_gap_us, n)).tolist()
    arrivals = []
    now = 0.0
    for _ in range(n):
        if rng.random() < 0.5:
            gap = rng.exponential(mean_gap_us / burstiness)
        else:
            gap = rng.exponential(mean_gap_us * burstiness)
        now += gap
        arrivals.append(now)
    return arrivals


def with_arrivals(
    trace: Trace,
    rate_iops: float,
    burstiness: float = 1.0,
    seed: int = 1,
) -> Trace:
    """Stamp a trace with arrival times for open-loop replay (see
    :func:`arrival_times`)."""
    stream = Columns.of(trace)
    stream.stamp(rate_iops, burstiness, seed)
    return stream.build()


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
