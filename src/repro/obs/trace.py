"""Request-lifecycle tracing: spans, sinks, and the tracer.

A *span* is one contiguous interval a host page spent in one stage of
the datapath.  The stages tile: for every page of a request, the spans
recorded for that ``(request, lpn)`` pair cover ``[issue, completion]``
with no gaps and no overlap, so per-stage sums reproduce the page's
end-to-end latency exactly (this is asserted by
:func:`repro.obs.analyze.validate_trace` and the test suite).

Span taxonomy (see ``docs/OBSERVABILITY.md`` for the full contract):

=================  ========================================================
stage              meaning
=================  ========================================================
``request``        the whole host request (issue to last-page completion)
``buffer_read``    read served from the write buffer / mapping table
``buffer_wait``    write waiting for a free write-buffer slot
``buffer_staged``  write staged in the buffer awaiting WL-group dispatch
``bus_queue``      waiting for the channel (host flush or read transfer)
``bus_xfer``       data moving over the channel
``chip_queue``     waiting for the die FIFO
``nand_read``      array sense time excluding retries
``read_retry``     extra sense time spent on read retries
``nand_program``   one-shot WL program occupying the die
``recovery_read``  conservative re-read after an uncorrectable read
``gc_read``        GC migration read (unattributed: ``request`` is null)
``gc_program``     GC migration program (unattributed)
``erase``          block erase (unattributed)
=================  ========================================================

Sinks are pluggable.  :class:`JsonlSink` writes one JSON object per
span with a fixed key order, so two runs with the same seed produce
byte-identical trace files (determinism is part of the contract).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: stages a host *read* page can pass through
READ_STAGES = (
    "buffer_read",
    "chip_queue",
    "nand_read",
    "read_retry",
    "recovery_read",
    "bus_queue",
    "bus_xfer",
)

#: stages a host *write* page can pass through
WRITE_STAGES = (
    "buffer_wait",
    "buffer_staged",
    "bus_queue",
    "bus_xfer",
    "chip_queue",
    "nand_program",
)

#: background stages never attributed to a host request
BACKGROUND_STAGES = ("gc_read", "gc_program", "erase")


@dataclass(frozen=True)
class Span:
    """One stage interval of one page (or one background operation)."""

    #: host request id, or ``None`` for background (GC / erase) spans
    request: Optional[int]
    #: logical page the span belongs to (``None`` for background spans)
    lpn: Optional[int]
    stage: str
    start_us: float
    end_us: float
    #: chip the stage executed on (``None`` for buffer-level stages)
    chip: Optional[int] = None
    #: stage-specific extras (``num_retry``, ``fail``, ``vfy_skipped``...)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        """JSONL record with a fixed key order (byte-determinism)."""
        record: Dict[str, object] = {
            "request": self.request,
            "lpn": self.lpn,
            "stage": self.stage,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "chip": self.chip,
        }
        if self.info:
            record["info"] = {key: self.info[key] for key in sorted(self.info)}
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            request=record["request"],
            lpn=record["lpn"],
            stage=record["stage"],
            start_us=record["start_us"],
            end_us=record["end_us"],
            chip=record.get("chip"),
            info=record.get("info", {}),
        )


class TraceSink:
    """Where spans go.  Subclasses override :meth:`emit`."""

    def emit(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class NullSink(TraceSink):
    """Discards every span (tracing plumbing with zero retention)."""

    def emit(self, span: Span) -> None:
        pass


class InMemorySink(TraceSink):
    """Keeps every span in a list (analysis within the same process)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)


class JsonlSink(TraceSink):
    """Streams spans to a JSON-lines file.

    Records are written in emission order with a fixed key order and
    Python's deterministic float repr, so identical runs yield
    byte-identical files.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")
        self.count = 0

    def emit(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict()))
        self._handle.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Tracer:
    """Assigns request ids and routes spans to a sink.

    The tracer is attached to the :class:`~repro.ssd.controller.SSDController`
    (``controller.tracer``); the FTL hooks test ``tracer is not None``
    and otherwise do nothing, so a disabled tracer costs one pointer
    comparison per hook and the simulation's event sequence is
    untouched either way (recording never schedules events).
    """

    __slots__ = ("sink", "exemplars", "_next_request", "_admits")

    def __init__(
        self, sink: Optional[TraceSink] = None, first_request: int = 0
    ) -> None:
        self.sink = sink if sink is not None else InMemorySink()
        #: optional :class:`~repro.obs.exemplars.ExemplarRecorder` fed
        #: out-of-band page context via :meth:`annotate`
        self.exemplars = None
        #: id of the first request; a run resumed at a checkpoint
        #: barrier starts at the barrier's completed count (every issued
        #: request has completed there, and ids follow issue order)
        self._next_request = first_request
        #: (request, lpn) -> buffer-admission time, open until dispatch
        self._admits: Dict[Tuple[int, int], float] = {}

    # -- request lifecycle ---------------------------------------------

    def begin_request(self) -> int:
        """Allocate the next request id (ids are issue-ordered, so two
        identically seeded runs number their requests identically)."""
        request = self._next_request
        self._next_request += 1
        return request

    def end_request(
        self,
        request: int,
        is_read: bool,
        lpn: int,
        n_pages: int,
        issued_us: float,
        completed_us: float,
        tenant: Optional[str] = None,
    ) -> None:
        """Emit the end-to-end ``request`` span.

        ``tenant`` tags the span in multi-tenant runs; untagged requests
        emit exactly the historical span layout (golden traces are
        byte-pinned), so the key only appears when a tenant is named.
        """
        info = {
            "kind": "read" if is_read else "write",
            "lpn": lpn,
            "n_pages": n_pages,
        }
        if tenant is not None:
            info["tenant"] = tenant
        self.sink.emit(
            Span(
                request=request,
                lpn=None,
                stage="request",
                start_us=issued_us,
                end_us=completed_us,
                info=info,
            )
        )

    # -- span emission --------------------------------------------------

    def span(
        self,
        request: Optional[int],
        lpn: Optional[int],
        stage: str,
        start_us: float,
        end_us: float,
        chip: Optional[int] = None,
        **info: object,
    ) -> None:
        self.sink.emit(
            Span(
                request=request,
                lpn=lpn,
                stage=stage,
                start_us=start_us,
                end_us=end_us,
                chip=chip,
                info=info,
            )
        )

    # -- exemplar side channel ------------------------------------------

    def annotate(self, request: int, lpn: int, **info: object) -> None:
        """Report out-of-band page context (e.g. the physical h-layer)
        for exemplar sampling *without* emitting a span.

        Span layouts are byte-pinned by the golden traces, so context
        that only exemplars need must not widen span ``info``; this
        side channel forwards it to the attached
        :class:`~repro.obs.exemplars.ExemplarRecorder` instead and is a
        no-op when none is attached.
        """
        if self.exemplars is not None:
            self.exemplars.annotate(request, lpn, info)

    # -- write-buffer bookkeeping ---------------------------------------

    def note_admit(self, request: int, lpn: int, now_us: float) -> None:
        """A page entered the write buffer; the ``buffer_staged`` span
        stays open until :meth:`pop_admit` at WL-group dispatch."""
        self._admits[(request, lpn)] = now_us

    def pop_admit(self, request: int, lpn: int) -> Optional[float]:
        """Close a page's staging interval.  Returns ``None`` when the
        page has no open interval (e.g. a failed program's re-dispatch,
        which starts its next stage directly)."""
        return self._admits.pop((request, lpn), None)

    def close(self) -> None:
        self.sink.close()
