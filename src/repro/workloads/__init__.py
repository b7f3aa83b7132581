"""Workload generation: the paper's six traces, building-block
generators, and recorded block traces.

Four Filebench personalities (Mail, Web, Proxy, OLTP) and two YCSB-A
database workloads (Rocks = RocksDB, Mongo = MongoDB).  Since the
original traces are not distributable, each generator synthesizes a
request stream reproducing the workload's documented read/write mix,
request sizes, locality, and burstiness -- the properties that drive the
FTL comparison.  The building-block generators (uniform, sequential,
zipf) are registered too so parameterized streams (e.g. a ``zipf``
stream with a custom ``theta`` skew) compose into sweeps and tenant
mixes without new code.

Anywhere a workload name is accepted, a ``trace:<path>`` scheme loads a
recorded trace instead: ``.csv`` paths route through
:func:`repro.workloads.blocktrace.load_block_trace` (MSR-Cambridge /
blktrace-style), anything else through the native
:func:`repro.workloads.traceio.load_trace` text format.
"""


from repro.workloads.base import (
    Columns,
    IORequest,
    Trace,
    trace_summary,
    with_arrivals,
)
from repro.workloads.blocktrace import BlockTraceError, load_block_trace
from repro.workloads.synthetic import (
    mixed_trace,
    sequential_trace,
    uniform_random_trace,
    zipf_trace,
)
from repro.workloads.filebench import mail_trace, oltp_trace, proxy_trace, web_trace
from repro.workloads.traceio import load_trace, save_trace
from repro.workloads.ycsb import mongo_trace, rocks_trace

#: workload name -> generator.  Every generator takes ``(logical_pages,
#: n_requests, seed=..., **params)``; the extra keyword params are
#: forwarded verbatim (e.g. ``theta`` for ``zipf``, ``read_fraction``
#: for ``uniform``), so registry entries are parameterizable rather
#: than fixed 4-arg shapes.  Each is made by
#: :func:`~repro.workloads.base.trace_generator`, so ``.columns`` gives
#: its stream unbuilt (see :func:`build_columns`).
WORKLOAD_GENERATORS = {
    "Mail": mail_trace,
    "Web": web_trace,
    "Proxy": proxy_trace,
    "OLTP": oltp_trace,
    "Rocks": rocks_trace,
    "Mongo": mongo_trace,
    "uniform": uniform_random_trace,
    "sequential": sequential_trace,
    "zipf": zipf_trace,
}

#: the six workload mixes evaluated in the paper (Section 6.1) -- the
#: building-block generators in the registry are not among them
PAPER_WORKLOADS = ("Mail", "Web", "Proxy", "OLTP", "Rocks", "Mongo")

#: prefix marking a workload "name" as a recorded-trace path
TRACE_SCHEME = "trace:"


def available_workloads() -> "list[str]":
    """Registered workload names, sorted (the ``trace:<path>`` scheme is
    additionally accepted everywhere these names are)."""
    return sorted(WORKLOAD_GENERATORS)


def is_trace_path(name: str) -> bool:
    """True when a workload name is a ``trace:<path>`` reference."""
    return name.startswith(TRACE_SCHEME)


def check_workload_name(name) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered workload or a
    ``trace:<path>`` reference."""
    if not (
        isinstance(name, str)
        and (is_trace_path(name) or name in WORKLOAD_GENERATORS)
    ):
        raise ValueError(
            f"unknown workload {name!r}; choose from {available_workloads()} "
            "or a 'trace:<path>' reference"
        )


def _load_trace_scheme(name: str, logical_pages: int, **params) -> Trace:
    path = name[len(TRACE_SCHEME):]
    if not path:
        raise ValueError("empty path in 'trace:' workload name")
    if path.endswith(".csv"):
        return load_block_trace(path, logical_pages, **params)
    if params:
        raise ValueError(
            f"workload params {sorted(params)} are only supported for "
            ".csv block traces; the native trace format takes none"
        )
    return load_trace(path)


def build_columns(
    name: str,
    logical_pages: int,
    n_requests: int = None,
    seed: int = 1,
    **params,
) -> Columns:
    """The stream :func:`build_workload` builds, as columns not yet built.

    A generated stream comes checked against ``logical_pages``, so a
    caller can stamp, place or tag it and build each request once
    (:meth:`Columns.build`).  A ``trace:`` reference is loaded and
    returned as its trace's columns.
    """
    if is_trace_path(name):
        return Columns.of(_load_trace_scheme(name, logical_pages, **params))
    if n_requests is None:
        raise TypeError("build_workload requires n_requests for generated workloads")
    check_workload_name(name)
    return WORKLOAD_GENERATORS[name].columns(
        logical_pages, n_requests, seed=seed, **params
    )


def build_workload(
    name: str,
    logical_pages: int,
    n_requests: int = None,
    seed: int = 1,
    **params,
) -> Trace:
    """Build a workload by registry name or ``trace:<path>`` reference.

    The imperative core behind :meth:`repro.specs.WorkloadSpec.build`;
    extra keyword ``params`` are forwarded to the generator (e.g.
    ``theta=1.2`` for ``zipf``) or to
    :func:`~repro.workloads.blocktrace.load_block_trace` for ``.csv``
    trace references.  ``n_requests`` is ignored for ``trace:`` names
    (the file's length wins).
    """
    if is_trace_path(name):
        return _load_trace_scheme(name, logical_pages, **params)
    return build_columns(name, logical_pages, n_requests, seed, **params).build()


__all__ = [
    "Columns",
    "IORequest",
    "Trace",
    "trace_summary",
    "with_arrivals",
    "uniform_random_trace",
    "sequential_trace",
    "zipf_trace",
    "mixed_trace",
    "mail_trace",
    "web_trace",
    "proxy_trace",
    "oltp_trace",
    "mongo_trace",
    "rocks_trace",
    "save_trace",
    "load_trace",
    "load_block_trace",
    "BlockTraceError",
    "WORKLOAD_GENERATORS",
    "PAPER_WORKLOADS",
    "TRACE_SCHEME",
    "available_workloads",
    "is_trace_path",
    "check_workload_name",
    "build_columns",
    "build_workload",
]
