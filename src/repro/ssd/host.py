"""Host replay models: closed-loop, NCQ open-loop, unbounded open-loop.

This module owns *how the host issues a trace* -- previously an ad-hoc
split between ``SSDSimulation.run`` (closed loop) and
``SSDSimulation.run_open_loop`` (unbounded open loop).  Three modes,
selected by :func:`replay`'s ``mode`` (the string
:attr:`repro.specs.HostSpec.mode` computes):

``"closed"``
    ``queue_depth`` requests outstanding at all times; each completion
    immediately issues the next request.  Arrival timestamps, if any,
    are ignored.  Latency is measured from issue to completion.

``"ncq"``
    An explicit NCQ model: requests *arrive* at their trace timestamps
    into a queue of ``queue_depth`` slots.  An arrival finding a free
    slot issues immediately; an arrival finding all slots busy waits in
    FIFO order for a completion to free one (backpressure).  Latency is
    measured from **arrival** to completion, so queue-full wait time is
    part of the reported latency -- the host-visible number.

``"unbounded"``
    Every request issues exactly at its arrival timestamp regardless of
    completions (infinite queue; the legacy open-loop model).  Under
    overload the backlog grows without bound and latencies reflect pure
    queueing delay.

All three modes account per-tenant statistics
(:class:`~repro.ssd.stats.TenantStats`) whenever the trace carries
tenant tags; untagged traces produce byte-identical output to the
pre-host-model code paths.

The two open-loop modes feed arrivals through one lazy cursor
(:func:`_feed_arrivals`) that keeps a single arrival event queued, so
the event heap stays as deep as the device's in-flight work instead of
the trace's length.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

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


def _finish_or_stall(sim, state, pending, waiting=None, max_events=None) -> None:
    """Raise the stall diagnostic when the event queue drained early."""
    from repro.ssd.controller import SimulationStalledError, _stall_message

    stalled = dict(pending)
    if waiting:
        stalled.update({id(request): request for request in waiting})
    if stalled and max_events is None:
        sim._log_stall(state["completed"], stalled)
        raise SimulationStalledError(_stall_message(state["completed"], stalled))


def replay(
    sim,
    trace: Trace,
    *,
    mode: str = "closed",
    queue_depth: Optional[int] = 32,
    warmup_requests: int = 0,
    max_events: Optional[int] = None,
    metrics_interval_us: Optional[float] = None,
) -> SimulationStats:
    """Replay a trace through a simulation under one host model."""
    if mode not in REPLAY_MODES:
        raise ValueError(f"mode must be one of {REPLAY_MODES}")
    if trace.logical_pages > sim.config.logical_pages:
        raise ValueError("trace logical space exceeds the SSD's")
    if mode == "unbounded":
        return replay_unbounded(
            sim,
            trace,
            max_events=max_events,
            metrics_interval_us=metrics_interval_us,
        )
    if queue_depth is None or queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    if not 0 <= warmup_requests < len(trace):
        raise ValueError("warmup_requests must be < len(trace)")
    if mode == "ncq":
        return replay_ncq(
            sim,
            trace,
            queue_depth=queue_depth,
            warmup_requests=warmup_requests,
            max_events=max_events,
            metrics_interval_us=metrics_interval_us,
        )
    return replay_closed(
        sim,
        trace,
        queue_depth=queue_depth,
        warmup_requests=warmup_requests,
        max_events=max_events,
        metrics_interval_us=metrics_interval_us,
    )


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def replay_closed(
    sim,
    trace: Trace,
    *,
    queue_depth: int = 32,
    warmup_requests: int = 0,
    max_events: Optional[int] = None,
    metrics_interval_us: Optional[float] = None,
) -> SimulationStats:
    """Fixed-queue-depth replay: a completion issues the next request.

    The first ``warmup_requests`` completions are simulated but excluded
    from IOPS and latency statistics -- they bring the WAM's active
    blocks, the OPM's monitored parameters, and the ORT into steady
    state (the paper's platform measures long steady-state runs).
    """
    engine = sim.controller.engine
    stats = _new_stats(sim, trace)
    iterator = iter(trace.requests)
    state = {"outstanding": 0, "completed": 0, "measure_start": None}
    pending: Dict[int, IORequest] = {}
    n_requests = len(trace)
    sampler = sim._make_sampler(metrics_interval_us, lambda: state["completed"])
    recorder = getattr(sim, "timeseries", None)
    progress = getattr(sim, "progress", None)

    def on_complete(active, now_us: float) -> None:
        pending.pop(id(active.spec), None)
        state["outstanding"] -= 1
        state["completed"] += 1
        if progress is not None:
            progress(state["completed"], n_requests, now_us)
        if state["completed"] == warmup_requests:
            state["measure_start"] = now_us
        elif state["completed"] > warmup_requests:
            latency = now_us - active.issued_us
            if active.spec.is_read:
                stats.read_latency.add(latency)
            else:
                stats.write_latency.add(latency)
            _note_tenant(stats, active.spec, latency)
        if state["completed"] == n_requests:
            # stop re-arming so sampling never advances the clock past
            # the last host completion (it would distort IOPS)
            if sampler is not None:
                sampler.stop()
            if recorder is not None:
                recorder.stop()
        issue_next()

    def issue_next() -> None:
        request = next(iterator, None)
        if request is None:
            return
        state["outstanding"] += 1
        pending[id(request)] = request
        sim.ftl.submit(request, on_complete)

    start_us = engine.now
    if warmup_requests == 0:
        state["measure_start"] = start_us
    if sampler is not None:
        sampler.start()
    if recorder is not None:
        recorder.start()
    for _ in range(queue_depth):
        issue_next()
    engine.run(max_events=max_events, profiler=sim.profiler)
    if state["outstanding"] > 0:
        _finish_or_stall(sim, state, pending, max_events=max_events)
    measure_start = state["measure_start"]
    if measure_start is None:
        measure_start = start_us
    stats.duration_us = engine.now - measure_start
    stats.completed_requests = state["completed"] - warmup_requests
    stats.counters = sim.ftl.counters
    stats.recovery = sim.ftl.recovery
    if sampler is not None:
        stats.metrics = sampler.finalize()
    if recorder is not None:
        recorder.finalize()
    return stats


# ---------------------------------------------------------------------------
# NCQ open loop
# ---------------------------------------------------------------------------


def replay_ncq(
    sim,
    trace: Trace,
    *,
    queue_depth: int = 32,
    warmup_requests: int = 0,
    max_events: Optional[int] = None,
    metrics_interval_us: Optional[float] = None,
) -> SimulationStats:
    """Arrival-driven replay through an N-slot queue with backpressure.

    Requests arrive at their trace timestamps.  An arrival finding a
    free slot issues immediately; otherwise it joins a FIFO wait list
    and issues when a completion frees a slot.  Latency is measured from
    the *arrival* timestamp, so time spent waiting for a slot counts --
    this is the host-visible latency an application would observe
    through a depth-N NCQ.
    """
    _require_arrivals(trace, "NCQ")
    engine = sim.controller.engine
    stats = _new_stats(sim, trace)
    state = {"outstanding": 0, "completed": 0, "measure_start": None}
    pending: Dict[int, IORequest] = {}
    waiting: "deque[IORequest]" = deque()
    arrival_of: Dict[int, float] = {}
    n_requests = len(trace)
    start_us = engine.now
    sampler = sim._make_sampler(metrics_interval_us, lambda: state["completed"])
    recorder = getattr(sim, "timeseries", None)
    progress = getattr(sim, "progress", None)

    def issue(request: IORequest) -> None:
        state["outstanding"] += 1
        pending[id(request)] = request
        sim.ftl.submit(request, on_complete)

    def on_complete(active, now_us: float) -> None:
        request = active.spec
        pending.pop(id(request), None)
        state["outstanding"] -= 1
        state["completed"] += 1
        if progress is not None:
            progress(state["completed"], n_requests, now_us)
        if state["completed"] == warmup_requests:
            state["measure_start"] = now_us
        elif state["completed"] > warmup_requests:
            latency = now_us - arrival_of.pop(id(request))
            if request.is_read:
                stats.read_latency.add(latency)
            else:
                stats.write_latency.add(latency)
            _note_tenant(stats, request, latency)
        if state["completed"] == n_requests:
            if sampler is not None:
                sampler.stop()
            if recorder is not None:
                recorder.stop()
        if waiting and state["outstanding"] < queue_depth:
            issue(waiting.popleft())

    def arrive(request: IORequest, arrival_us: float) -> None:
        arrival_of[id(request)] = arrival_us
        if state["outstanding"] < queue_depth:
            issue(request)
        else:
            waiting.append(request)

    _feed_arrivals(engine, trace, start_us, arrive)
    if warmup_requests == 0:
        state["measure_start"] = start_us
    if sampler is not None:
        sampler.start()
    if recorder is not None:
        recorder.start()
    engine.run(max_events=max_events, profiler=sim.profiler)
    if state["outstanding"] > 0 or waiting:
        _finish_or_stall(sim, state, pending, waiting, max_events=max_events)
    measure_start = state["measure_start"]
    if measure_start is None:
        measure_start = start_us
    stats.duration_us = engine.now - measure_start
    stats.completed_requests = state["completed"] - warmup_requests
    stats.counters = sim.ftl.counters
    stats.recovery = sim.ftl.recovery
    if sampler is not None:
        stats.metrics = sampler.finalize()
    if recorder is not None:
        recorder.finalize()
    return stats


# ---------------------------------------------------------------------------
# unbounded open loop
# ---------------------------------------------------------------------------


def replay_unbounded(
    sim,
    trace: Trace,
    *,
    max_events: Optional[int] = None,
    metrics_interval_us: Optional[float] = None,
) -> SimulationStats:
    """Replay a trace open-loop with an infinite queue: requests issue
    at their arrival times regardless of completions.

    Under overload the backlog grows and latencies reflect queueing --
    the regime where the WAM's burst absorption shows directly.
    """
    _require_arrivals(trace, "open-loop")
    engine = sim.controller.engine
    stats = _new_stats(sim, trace)
    state = {"outstanding": 0, "completed": 0}
    pending: Dict[int, IORequest] = {}
    start_us = engine.now
    n_requests = len(trace)
    sampler = sim._make_sampler(metrics_interval_us, lambda: state["completed"])
    recorder = getattr(sim, "timeseries", None)
    progress = getattr(sim, "progress", None)

    def on_complete(active, now_us: float) -> None:
        pending.pop(id(active.spec), None)
        latency = now_us - active.issued_us
        if active.spec.is_read:
            stats.read_latency.add(latency)
        else:
            stats.write_latency.add(latency)
        _note_tenant(stats, active.spec, latency)
        state["outstanding"] -= 1
        state["completed"] += 1
        if progress is not None:
            progress(state["completed"], n_requests, now_us)
        if state["completed"] == n_requests:
            if sampler is not None:
                sampler.stop()
            if recorder is not None:
                recorder.stop()

    def issue(request: IORequest, arrival_us: float) -> None:
        state["outstanding"] += 1
        pending[id(request)] = request
        sim.ftl.submit(request, on_complete)

    if sampler is not None:
        sampler.start()
    if recorder is not None:
        recorder.start()
    _feed_arrivals(engine, trace, start_us, issue)
    engine.run(max_events=max_events, profiler=sim.profiler)
    if state["outstanding"] > 0:
        _finish_or_stall(sim, state, pending, max_events=max_events)
    stats.duration_us = engine.now - start_us
    stats.completed_requests = state["completed"]
    stats.counters = sim.ftl.counters
    stats.recovery = sim.ftl.recovery
    if sampler is not None:
        stats.metrics = sampler.finalize()
    if recorder is not None:
        recorder.finalize()
    return stats


__all__ = [
    "REPLAY_MODES",
    "replay",
    "replay_closed",
    "replay_ncq",
    "replay_unbounded",
]
