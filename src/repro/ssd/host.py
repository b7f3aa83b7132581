"""Host replay: how the host issues a trace to the simulated SSD.

:func:`replay` is the one replay loop.  The host has ``queue_depth``
slots and one FIFO wait list: a request that reaches the host takes a
free slot and issues at once, or waits until a completion frees a slot.
The three modes (``mode``, the string :attr:`repro.specs.HostSpec.mode`
computes) differ only in when requests reach the host:

``"closed"``
    A request arrives whenever a slot frees, so ``queue_depth`` requests
    are outstanding at all times.  Arrival timestamps, if any, are
    ignored.  Latency is measured from issue to completion.

``"ncq"``
    Requests arrive at their trace timestamps, and an arrival that finds
    every slot busy waits (backpressure).  Latency is measured from
    arrival to completion, so queue-full wait is part of it -- the
    host-visible number.

``"unbounded"``
    Requests arrive at their trace timestamps into unlimited slots, so
    each issues at its arrival regardless of completions.  Under
    overload the backlog grows without bound and latencies reflect pure
    queueing delay.  ``queue_depth`` and ``warmup_requests`` are
    ignored: every completion is measured.

The first ``warmup_requests`` completions are simulated but left out of
IOPS and latency: they bring the WAM's active blocks, the OPM's
monitored parameters and the ORT into steady state, as the paper's
platform measures long steady-state runs.  Every mode keeps per-tenant
statistics (:class:`~repro.ssd.stats.TenantStats`) when the trace
carries tenant tags.

The open-loop modes take their arrivals from one lazy cursor
(:func:`_feed_arrivals`) that keeps a single arrival event queued, so
the event heap stays as deep as the device's in-flight work instead of
the trace's length.  Closed-loop replay can also run in drained
segments with a barrier hook between them, which is how
:mod:`repro.persist` checkpoints a run; :func:`check_segmentable` is
the one rule for what such a replay refuses.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Callable, Dict, Iterator, Optional

from repro.obs.registry import bind_host
from repro.ssd.controller import SimulationStalledError, _stall_message
from repro.ssd.stats import SimulationStats, TenantStats
from repro.workloads.base import IORequest, Trace

#: replay modes :func:`replay` accepts
REPLAY_MODES = ("closed", "ncq", "unbounded")


def _new_stats(sim, trace: Trace) -> SimulationStats:
    stats = SimulationStats(ftl_name=sim.ftl.name, workload=trace.name)
    if trace.tenants:
        stats.tenants = {name: TenantStats() for name in trace.tenants}
    return stats


def _note_tenant(stats: SimulationStats, request: IORequest, latency: float) -> None:
    """Mirror one measured completion into its tenant's slice."""
    if stats.tenants is None or request.tenant is None:
        return
    tenant = stats.tenants[request.tenant]
    tenant.completed_requests += 1
    if request.is_read:
        tenant.read_latency.add(latency)
    else:
        tenant.write_latency.add(latency)


def _require_arrivals(trace: Trace, mode: str) -> None:
    if not trace.has_arrivals:
        raise ValueError(
            f"{mode} replay needs arrival times on every request; "
            "stamp the trace with workloads.base.with_arrivals (or load "
            "a recorded trace that carries timestamps)"
        )


def check_segmentable(
    mode: str, *, max_events: Optional[int], tenants
) -> None:
    """Raise ``ValueError`` unless a replay with these settings can run
    in drained segments (checkpointing).

    A barrier is the drained instant between segments.  Open-loop
    arrivals are pinned to trace times, so no drained instant exists
    between them; ``max_events`` stops a segment before it drains; and
    the barrier payload carries no per-tenant slices.  The message
    names each conflict by its run option.
    """
    conflicts = [
        name
        for name, conflict in (
            (f"open_loop ({mode} replay)", mode != "closed"),
            ("max_events", max_events is not None),
            ("tenants", bool(tenants)),
        )
        if conflict
    ]
    if conflicts:
        raise ValueError(
            "checkpointing (segmented replay) is incompatible with "
            f"{', '.join(conflicts)} (see docs/PERSISTENCE.md)"
        )


def _feed_arrivals(
    engine, trace: Trace, start_us: float, arrive: Callable[[IORequest, float], None]
) -> None:
    """Call ``arrive(request, arrival_us)`` at ``start_us +
    request.arrival_us`` for every request of ``trace``, keeping one
    arrival event queued at a time.

    The trace's whole sequence-number range is reserved here, and the
    request at trace index ``k`` is scheduled with ``base + k`` once the
    arrival before it (in stable (time, index) order) fires.  Each
    arrival therefore carries the (time, seq) it would have had if every
    request had been scheduled here, and the engine dispatches exactly
    the same order: unsorted traces and exact ties included.  Arrivals
    go through ``engine.schedule_at`` so wrappers on it see every one.
    """
    requests = trace.requests
    times = [start_us + request.arrival_us for request in requests]
    order = iter(sorted(range(len(requests)), key=times.__getitem__))
    base = engine.reserve(len(requests))
    upcoming = next(order, None)

    def fire() -> None:
        nonlocal upcoming
        k = upcoming
        upcoming = next(order, None)
        if upcoming is not None:
            engine.schedule_at(times[upcoming], fire, seq=base + upcoming)
        arrive(requests[k], times[k])

    if upcoming is not None:
        engine.schedule_at(times[upcoming], fire, seq=base + upcoming)


def replay(
    sim,
    trace: Trace,
    *,
    mode: str = "closed",
    queue_depth: Optional[int] = 32,
    warmup_requests: int = 0,
    max_events: Optional[int] = None,
    segment_requests: Optional[int] = None,
    on_barrier: Optional[Callable[[dict], None]] = None,
    resume_accounting: Optional[dict] = None,
) -> SimulationStats:
    """Replay a trace through a simulation under one host model.

    ``segment_requests`` replays the trace that many requests at a
    time, each segment run until the event queue drains, so between
    segments the whole stack is quiescent; :func:`check_segmentable`
    states what it refuses.  At every drained instant but the last,
    ``on_barrier(accounting)`` receives the completed count,
    measurement window and latency samples a resumed run needs;
    :mod:`repro.persist` checkpoints there.
    ``resume_accounting`` is such a payload, loaded from a checkpoint:
    the requests it counts as completed are skipped and its accounting
    carries on.  The drains shape scheduling, so a segmented run equals
    other segmented runs (resumed or not), never an unsegmented one.
    A drain with requests still pending re-arms GC
    (:meth:`~repro.ftl.base.BaseFTL.rearm_gc`) and runs on; the replay
    raises :class:`SimulationStalledError` only when that schedules
    nothing.

    A telemetry registry on ``sim`` gets the host's completion count
    (:func:`~repro.obs.registry.bind_host`), and a time-series recorder
    on ``sim`` (``sim.timeseries``) takes windows from the first request
    to the last completion, then its end-of-run window.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(f"mode must be one of {REPLAY_MODES}")
    if trace.logical_pages > sim.config.logical_pages:
        raise ValueError("trace logical space exceeds the SSD's")
    if segment_requests is not None:
        if segment_requests < 1:
            raise ValueError("segment_requests must be >= 1")
        check_segmentable(mode, max_events=max_events, tenants=trace.tenants)
    if mode == "unbounded":
        _require_arrivals(trace, "open-loop")
        queue_depth, warmup_requests = math.inf, 0
    else:
        if queue_depth is None or queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not 0 <= warmup_requests < len(trace):
            raise ValueError("warmup_requests must be < len(trace)")
        if mode == "ncq":
            _require_arrivals(trace, "NCQ")

    engine = sim.controller.engine
    stats = _new_stats(sim, trace)
    requests = trace.requests
    n_requests = len(requests)
    pending: Dict[int, IORequest] = {}
    waiting: "deque[IORequest]" = deque()
    #: arrival time of each request that had to wait for a slot; every
    #: other request issued at its arrival
    waited_since: Dict[int, float] = {}
    backlog: Iterator[IORequest] = iter(())
    outstanding = completed = 0
    measure_start: Optional[float] = None
    start_us = engine.now
    if resume_accounting is not None:
        completed = resume_accounting["completed"]
        measure_start = resume_accounting["measure_start"]
        start_us = resume_accounting["start_us"]
        stats.read_latency.extend(resume_accounting["read_latency"])
        stats.write_latency.extend(resume_accounting["write_latency"])
    if warmup_requests == 0 and measure_start is None:
        measure_start = start_us
    registry = getattr(sim, "telemetry", None)
    if registry is not None:
        bind_host(registry, lambda: completed)
    recorder = getattr(sim, "timeseries", None)
    progress = getattr(sim, "progress", None)

    def issue(request: IORequest) -> None:
        nonlocal outstanding
        outstanding += 1
        pending[id(request)] = request
        sim.ftl.submit(request, on_complete)

    def arrive(request: IORequest, arrival_us: float) -> None:
        if outstanding < queue_depth:
            issue(request)
        else:
            waited_since[id(request)] = arrival_us
            waiting.append(request)

    def on_complete(active, now_us: float) -> None:
        nonlocal outstanding, completed, measure_start
        request = active.spec
        key = id(request)
        pending.pop(key, None)
        arrived_us = waited_since.pop(key, active.issued_us)
        outstanding -= 1
        completed += 1
        if progress is not None:
            progress(completed, n_requests, now_us)
        if completed == warmup_requests:
            measure_start = now_us
        elif completed > warmup_requests:
            latency = now_us - arrived_us
            if request.is_read:
                stats.read_latency.add(latency)
            else:
                stats.write_latency.add(latency)
            _note_tenant(stats, request, latency)
        if completed == n_requests and recorder is not None:
            # no periodic window after the last host completion
            recorder.stop()
        # the freed slot goes to the longest-waiting arrival; in closed
        # mode the next request of the trace arrives to take it
        if waiting:
            issue(waiting.popleft())
        else:
            request = next(backlog, None)
            if request is not None:
                issue(request)

    if mode != "closed":
        _feed_arrivals(engine, trace, start_us, arrive)
    if recorder is not None:
        recorder.start()
    position = completed
    while True:
        end = n_requests
        if segment_requests is not None:
            end = min(position + segment_requests, n_requests)
        if mode == "closed":
            backlog = iter(requests[position:end])
            for request in islice(backlog, queue_depth):
                issue(request)
        engine.run(max_events=max_events)
        while (pending or waiting) and max_events is None:
            # drained with requests pending: a chip's GC is re-armed only
            # by its own completions, so re-evaluate every chip's
            sim.ftl.rearm_gc()
            if not engine.live_pending:
                stalled = dict(pending)
                stalled.update((id(request), request) for request in waiting)
                sim._log_stall(completed, stalled)
                raise SimulationStalledError(_stall_message(completed, stalled))
            engine.run()
        position = end
        if position >= n_requests:
            break
        if on_barrier is not None:
            on_barrier(
                {
                    "completed": completed,
                    "measure_start": measure_start,
                    "start_us": start_us,
                    "read_latency": stats.read_latency.sample_list(),
                    "write_latency": stats.write_latency.sample_list(),
                }
            )
    if measure_start is None:
        measure_start = start_us
    stats.duration_us = engine.now - measure_start
    stats.completed_requests = completed - warmup_requests
    stats.counters = sim.ftl.counters
    stats.recovery = sim.ftl.recovery
    if recorder is not None:
        recorder.finalize()
    return stats


__all__ = ["REPLAY_MODES", "check_segmentable", "replay"]
