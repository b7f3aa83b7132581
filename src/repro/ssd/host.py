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
the trace's length.  Every mode can also run in drained segments with
a barrier hook between them (:mod:`repro.persist` checkpoints there;
:func:`check_segmentable` is what such a replay refuses) and stop at a
simulated instant (:mod:`repro.persist.spor` cuts power there).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional

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
    """Mirror one measured completion into its tenant's slice (a trace
    with tenants only)."""
    if request.tenant is None:
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
    *, max_events: Optional[int], until_us: Optional[float] = None
) -> None:
    """Raise ``ValueError`` unless a replay with these settings can run
    in drained segments (checkpointing): ``max_events`` and ``until_us``
    stop a segment before it drains.  The message names the option."""
    if max_events is not None or until_us is not None:
        name = "max_events" if max_events is not None else "until_us"
        raise ValueError(
            "checkpointing (segmented replay) is incompatible with "
            f"{name} (see docs/PERSISTENCE.md)"
        )


def _feed_arrivals(
    engine, requests: List[IORequest], times: List[float],
    arrive: Callable[[IORequest, float], None],
) -> None:
    """Call ``arrive(requests[k], times[k])`` at ``times[k]`` for every
    ``k``, keeping one arrival event queued at a time.

    The requests' whole sequence-number range is reserved here, and the
    request at index ``k`` is scheduled with ``base + k`` once the
    arrival before it (in stable (time, index) order) fires.  Each
    arrival therefore carries the (time, seq) it would have had if every
    request had been scheduled here, and the engine dispatches exactly
    the same order: unsorted traces and exact ties included.  Arrivals
    go through ``engine.schedule_at`` so wrappers on it see every one.
    """
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
    until_us: Optional[float] = None,
) -> SimulationStats:
    """Replay a trace through a simulation under one host model.

    ``segment_requests`` replays the trace that many requests at a
    time, each segment run until the event queue drains, so between
    segments the whole stack is quiescent; :func:`check_segmentable`
    states what it refuses.  An open-loop segment is the next requests
    in arrival order, all shifted later by however much the previous
    drain overran its first arrival.  At every drained instant but the
    last, ``on_barrier(accounting)`` receives what a resumed run needs
    (the completed count, measurement window, latency samples, arrival
    shift and tenant slices); :mod:`repro.persist` checkpoints there.
    ``resume_accounting`` is such a payload, loaded from a checkpoint:
    the requests it counts as completed are skipped and its accounting
    carries on.  The drains shape scheduling, so a segmented run equals
    other segmented runs (resumed or not), never an unsegmented one.
    A drain with requests still pending re-arms GC
    (:meth:`~repro.ftl.base.BaseFTL.rearm_gc`) and runs on; the replay
    raises :class:`SimulationStalledError` only when that schedules
    nothing.

    ``until_us`` stops the replay at that simulated instant, as
    ``max_events`` does after that many events: it returns without a
    drain, with the requests in flight (in issue order), then those
    waiting for a slot, in ``stats.unfinished``; requests not yet issued
    or arrived are in neither.  :mod:`repro.persist.spor` cuts power this way.
    A replay whose events all ran before the stop reports what the
    unstopped replay would: its measured window ends at its last event,
    not at the stop the clock moved on to.

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
        check_segmentable(max_events=max_events, until_us=until_us)
    # ``not >=`` also refuses NaN; an earlier stop would move the clock back
    if until_us is not None and not until_us >= sim.controller.engine.now:
        raise ValueError("until_us must not lie before the clock")
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
    shift = 0.0  # how late each open-loop arrival comes
    if resume_accounting is not None:
        completed = resume_accounting["completed"]
        measure_start = resume_accounting["measure_start"]
        start_us = resume_accounting["start_us"]
        stats.read_latency.extend(resume_accounting["read_latency"])
        stats.write_latency.extend(resume_accounting["write_latency"])
        shift = resume_accounting.get("shift_us", 0.0)
        for name, (done, reads, writes) in resume_accounting.get("tenants", {}).items():
            tenant = stats.tenants[name]
            tenant.completed_requests = done
            tenant.read_latency.extend(reads)
            tenant.write_latency.extend(writes)
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
            if stats.tenants is not None:
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

    step = n_requests if segment_requests is None else segment_requests
    if mode != "closed":
        times = [start_us + request.arrival_us for request in requests]
        by_arrival = sorted(range(n_requests), key=times.__getitem__)

    def feed(position: int) -> None:
        # queue the arrivals of the segment at ``position`` of arrival order
        nonlocal shift
        members = sorted(by_arrival[position:position + step])
        now = engine.now
        shift = max(shift, now - times[by_arrival[position]])
        # rounding can leave a shifted arrival a hair before the clock
        shifted = [max(times[k] + shift, now) for k in members]
        _feed_arrivals(engine, [requests[k] for k in members], shifted, arrive)

    # arrivals take their sequence numbers before the recorder's first
    # window; closed-loop requests issue after it
    if mode != "closed":
        feed(completed)
    if recorder is not None:
        recorder.start()
    last_us = engine.now
    for position in range(completed, n_requests, step):
        if mode == "closed":
            backlog = iter(requests[position:position + step])
            for request in islice(backlog, queue_depth):
                issue(request)
        last_us = engine.run(until=until_us, max_events=max_events)
        if until_us is not None or max_events is not None:
            stats.unfinished = [*pending.values(), *waiting]
            break
        while pending or waiting:
            # drained with requests pending: a chip's GC is re-armed only
            # by its own completions, so re-evaluate every chip's
            sim.ftl.rearm_gc()
            if not engine.pending:
                stalled = dict(pending)
                stalled.update((id(request), request) for request in waiting)
                sim._log_stall(completed, stalled)
                raise SimulationStalledError(_stall_message(completed, stalled))
            engine.run()
        if position + step >= n_requests:
            break
        if on_barrier is not None:
            accounting = {
                "completed": completed,
                "measure_start": measure_start,
                "start_us": start_us,
                "read_latency": stats.read_latency.sample_list(),
                "write_latency": stats.write_latency.sample_list(),
            }
            if mode != "closed":
                accounting["shift_us"] = shift
            if stats.tenants is not None:
                accounting["tenants"] = {
                    name: (t.completed_requests, t.read_latency.sample_list(),
                           t.write_latency.sample_list())
                    for name, t in stats.tenants.items()
                }
            on_barrier(accounting)
        if mode != "closed":
            feed(position + step)
    if measure_start is None:
        measure_start = start_us
    # a replay that drained before its stop ends at its last event: the
    # clock's move to the stop is idle time, not part of the run
    end_us = last_us if until_us is not None and not engine.pending else engine.now
    stats.duration_us = end_us - measure_start
    stats.completed_requests = completed - warmup_requests
    stats.counters = sim.ftl.counters
    stats.recovery = sim.ftl.recovery
    if recorder is not None:
        recorder.finalize()
    return stats


__all__ = ["REPLAY_MODES", "check_segmentable", "replay"]
