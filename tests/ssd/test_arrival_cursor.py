"""The lazy open-loop arrival cursor against the loop it replaced.

NCQ and unbounded replay feed arrivals through ``host._feed_arrivals``,
which keeps one arrival event queued at a time.  :func:`_prescheduled`
below is the loop it replaced: every arrival scheduled up front, one
closure per request, in trace order.  Both give each arrival the same
(time, seq), so the engine pops the same (time, seq) entries in the
same order, and every figure -- latency samples, FTL counters, the
engine's event count and final clock -- must match exactly.
"""

import heapq
import json
import random
from collections import Counter

import pytest

from repro.obs.registry import TelemetryRegistry
from repro.obs.timeseries import TimeSeriesRecorder, metrics_samples
from repro.sim.engine import Engine
from repro.specs import TenantSpec, WorkloadSpec
from repro.ssd import host
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import IORequest, Trace, with_arrivals
from repro.workloads.blocktrace import load_block_trace
from repro.workloads.synthetic import uniform_random_trace
from repro.workloads.tenants import compose_tenants

MODES = ("ncq", "unbounded")
QUEUE_DEPTH = 8


def _prescheduled(engine, requests, times, arrive):
    """The pre-cursor arrival loop: one closure per request, every one
    scheduled up front in trace order."""
    for request, arrival_us in zip(requests, times):

        def fire(request=request, arrival_us=arrival_us):
            arrive(request, arrival_us)

        engine.schedule_at(arrival_us, fire)


def _sim(config, metrics_us=None):
    """A prefilled simulation; ``metrics_us`` attaches a registry and a
    recorder taking a window every that many microseconds."""
    registry = TelemetryRegistry() if metrics_us is not None else None
    sim = SSDSimulation(config, ftl="page", telemetry=registry)
    if metrics_us is not None:
        sim.timeseries = TimeSeriesRecorder(
            registry, sim.controller.engine, interval_us=metrics_us
        )
    sim.prefill(0.5)
    return sim


def _fingerprint(sim, stats):
    engine = sim.controller.engine
    tenants = {
        name: (t.read_latency.sample_list(), t.write_latency.sample_list())
        for name, t in (stats.tenants or {}).items()
    }
    return {
        "result": json.dumps(stats.to_dict(), sort_keys=True),
        "reads": stats.read_latency.sample_list(),
        "writes": stats.write_latency.sample_list(),
        "tenants": tenants,
        "counters": stats.counters,
        "processed": engine.processed,
        "now": engine.now,
    }


def _replay(monkeypatch, config, trace, mode, feed=None, metrics_us=None,
            **kwargs):
    """Fingerprint of one replay, with the (time, seq) of every entry
    the engine popped; ``feed`` replaces the arrival cursor and
    ``metrics_us`` attaches a recorder (see :func:`_sim`)."""
    if mode == "ncq":
        kwargs.setdefault("queue_depth", QUEUE_DEPTH)
    popped = []
    pop = heapq.heappop

    def recording_pop(heap):
        entry = pop(heap)
        popped.append(entry[:2])
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappop", recording_pop)
        if feed is not None:
            patch.setattr(host, "_feed_arrivals", feed)
        sim = _sim(config, metrics_us)
        stats = replay(sim, trace, mode=mode, **kwargs)
    if metrics_us is not None:
        stats.metrics = metrics_samples(sim.timeseries.records, sim.ftl.name)
    fingerprint = _fingerprint(sim, stats)
    fingerprint["popped"] = popped
    return fingerprint, sim


def _replay_both(monkeypatch, config, trace, mode, **kwargs):
    """(cursor, reference) fingerprints of one replay, and the cursor's
    simulation."""
    cursor, sim = _replay(monkeypatch, config, trace, mode, **kwargs)
    reference, _ = _replay(
        monkeypatch, config, trace, mode, feed=_prescheduled, **kwargs
    )
    return cursor, reference, sim


def _out_of_order_trace(tmp_path, config):
    """A block-trace CSV in shuffled file order with repeated
    timestamps; ``load_block_trace`` keeps the file order."""
    rng = random.Random(11)
    rows = [
        f"{rng.randrange(0, 40_000)},{rng.choice('RRRW')},"
        f"{rng.randrange(0, config.logical_pages) * 4096},4096"
        for _ in range(300)
    ]
    rows += rows[:20]  # exact repeats: same time, same request
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(rows) + "\n")
    trace = load_block_trace(path, config.logical_pages, address_mode="wrap")
    arrivals = [request.arrival_us for request in trace]
    assert arrivals != sorted(arrivals)
    assert len(set(arrivals)) < len(arrivals)
    return trace


def _grid_trace(config):
    """Two requests on every point of an 80 us grid (the base read
    time), so arrivals tie with each other and with read completions."""
    rng = random.Random(5)
    trace = Trace("grid", config.logical_pages)
    for i in range(400):
        op = "R" if rng.random() < 0.8 else "W"
        lpn = rng.randrange(config.logical_pages)
        trace.append(IORequest(op, lpn, 1, arrival_us=80.0 * (i // 2)))
    return trace


def _tenant_trace(config):
    tenants = [
        TenantSpec("reader", WorkloadSpec("OLTP", n_requests=150), 20_000.0,
                   partition=(0.0, 0.5)),
        TenantSpec("writer", WorkloadSpec("Proxy", n_requests=150), 8_000.0,
                   partition=(0.5, 1.0)),
    ]
    return compose_tenants(tenants, config, base_seed=3)


class TestCursorMatchesPrescheduling:
    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_order_block_trace(self, tmp_path, monkeypatch, mode):
        config = SSDConfig.small()
        trace = _out_of_order_trace(tmp_path, config)
        cursor, reference, _ = _replay_both(monkeypatch, config, trace, mode)
        assert cursor == reference

    @pytest.mark.parametrize("mode", MODES)
    def test_exact_ties_with_completions_and_sampler(self, monkeypatch, mode):
        config = SSDConfig.small()
        trace = _grid_trace(config)
        # recorder windows land on the grid too, from the first one on
        cursor, reference, _ = _replay_both(
            monkeypatch, config, trace, mode, metrics_us=80.0
        )
        assert cursor == reference
        metrics = json.loads(cursor["result"])["metrics"]
        times = [sample["t_us"] for sample in metrics]
        assert times[:3] == [0.0, 80.0, 160.0]
        # the grid really collides: some arrival instants dispatch more
        # than that instant's two arrivals
        per_instant = Counter(time for time, _ in cursor["popped"])
        assert any(per_instant[80.0 * i] > 2 for i in range(1, 200))
        # and the windows are not events: the plain replay pops the same
        plain, _ = _replay(monkeypatch, config, trace, mode)
        assert plain["popped"] == cursor["popped"]

    @pytest.mark.parametrize("mode", MODES)
    def test_tenant_tagged_trace(self, monkeypatch, mode):
        config = SSDConfig.small()
        trace = _tenant_trace(config)
        cursor, reference, _ = _replay_both(monkeypatch, config, trace, mode)
        assert set(cursor["tenants"]) == {"reader", "writer"}
        assert cursor == reference

    @pytest.mark.parametrize("mode", MODES)
    def test_max_events_stop(self, monkeypatch, mode):
        config = SSDConfig.small()
        trace = with_arrivals(
            uniform_random_trace(config.logical_pages, 300, read_fraction=0.7,
                                 seed=8),
            rate_iops=30_000, seed=9,
        )
        cursor, reference, sim = _replay_both(
            monkeypatch, config, trace, mode, max_events=300
        )
        assert cursor["processed"] == 300
        # stopped with arrivals still to come
        assert sim.controller.engine.now < trace.requests[-1].arrival_us
        assert cursor == reference

    @pytest.mark.parametrize("mode", MODES)
    def test_range_reserved_where_arrivals_were_scheduled(
        self, monkeypatch, mode
    ):
        """Both open-loop modes reserve their arrivals' range at one
        place, before the recorder starts: windows take no sequence
        number, so nothing orders arrivals against them any more."""
        calls = []
        for owner, name in ((Engine, "reserve"), (TimeSeriesRecorder, "start")):
            method = getattr(owner, name)

            def spy(self, *args, _name=name, _method=method):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(owner, name, spy)
        config = SSDConfig.small()
        _replay(monkeypatch, config, _grid_trace(config), mode, metrics_us=80.0)
        assert calls == ["reserve", "start"]


class TestOpenLoopHeapDepth:
    """The event heap holds in-flight work and one pending arrival, so
    its depth no longer grows with the trace's length."""

    @pytest.mark.parametrize("mode", MODES)
    def test_peak_pending_is_bounded_by_device_not_trace(self, mode):
        config = SSDConfig.small()
        for n_requests in (600, 2400):
            sim = _sim(config)
            trace = with_arrivals(
                uniform_random_trace(config.logical_pages, n_requests,
                                     read_fraction=0.7, seed=3),
                rate_iops=20_000, seed=4,
            )
            kwargs = {"queue_depth": QUEUE_DEPTH} if mode == "ncq" else {}
            stats = replay(sim, trace, mode=mode, **kwargs)
            assert stats.completed_requests == n_requests
            controller = sim.controller
            resources = len(controller._chip_resources) + len(
                controller._bus_resources
            )
            assert controller.engine.peak_pending < QUEUE_DEPTH + resources
