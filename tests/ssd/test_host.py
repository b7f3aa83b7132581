"""Tests for the explicit host replay models (closed / NCQ / unbounded)."""

import pytest

from repro.obs.registry import TelemetryRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SimulationStalledError, SSDSimulation
from repro.ssd.host import REPLAY_MODES, replay
from repro.workloads import build_workload
from repro.workloads.base import Trace, with_arrivals
from repro.workloads.synthetic import uniform_random_trace


def _stamped(config, n_requests, *, rate_iops, seed=3, burstiness=1.0):
    trace = uniform_random_trace(
        config.logical_pages, n_requests, read_fraction=0.0, seed=seed
    )
    return with_arrivals(
        trace, rate_iops=rate_iops, burstiness=burstiness, seed=seed + 1
    )


class TestReplayValidation:
    def test_unknown_mode_rejected(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(config.logical_pages, 5, seed=1)
        with pytest.raises(ValueError, match="mode"):
            replay(sim, trace, mode="half-open")

    def test_modes_constant_is_exhaustive(self):
        assert REPLAY_MODES == ("closed", "ncq", "unbounded")

    def test_ncq_requires_arrivals(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(config.logical_pages, 5, seed=1)
        with pytest.raises(ValueError, match="arrival"):
            replay(sim, trace, mode="ncq")

    def test_bad_queue_depth_rejected(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 5, rate_iops=1000)
        with pytest.raises(ValueError, match="queue_depth"):
            replay(sim, trace, mode="ncq", queue_depth=0)

    def test_warmup_must_leave_measured_requests(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 5, rate_iops=1000)
        with pytest.raises(ValueError, match="warmup"):
            replay(sim, trace, mode="ncq", warmup_requests=5)

    def test_oversized_trace_rejected(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(config.logical_pages * 2, 5, seed=1)
        with pytest.raises(ValueError, match="logical space"):
            replay(sim, trace, mode="closed")

    @pytest.mark.parametrize(
        "conflict",
        ["ncq", "unbounded", "ncq-unstamped", "max_events", "tenants"],
    )
    def test_segmented_replay_refuses_each_conflict(self, conflict):
        """Segments end at drained barriers; whatever cannot cross one is
        refused by the option's name, before the arrival-time check."""
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(config.logical_pages, 20, seed=1)
        kwargs = {}
        name = conflict
        if conflict in ("ncq", "unbounded"):
            trace = _stamped(config, 20, rate_iops=1000)
            kwargs["mode"] = conflict
            name = "open_loop"
        elif conflict == "ncq-unstamped":
            kwargs["mode"] = "ncq"
            name = "open_loop"
        elif conflict == "max_events":
            kwargs["max_events"] = 100
        else:
            trace = Trace(
                "mix", trace.logical_pages,
                [request.tagged("a") for request in trace],
            )
        with pytest.raises(ValueError, match=f"incompatible.*{name}"):
            replay(sim, trace, segment_requests=5, **kwargs)
        assert sim.controller.engine.now == 0.0

    def test_segmented_replay_composes_with_recorder(self):
        """The recorder's windows come from the batch loop, so they hold
        no drain open: segmented replay with a recorder dispatches the
        plain segmented run's events and meets the same barriers."""
        config = SSDConfig.small()
        trace = uniform_random_trace(config.logical_pages, 60, seed=1)
        runs = []
        for observed in (False, True):
            registry = TelemetryRegistry() if observed else None
            sim = SSDSimulation(config, ftl="page", telemetry=registry)
            engine = sim.controller.engine
            if observed:
                sim.timeseries = TimeSeriesRecorder(
                    registry, engine, interval_us=50.0
                )
            barriers = []
            stats = replay(
                sim, trace, queue_depth=4, segment_requests=20,
                on_barrier=lambda accounting, engine=engine: barriers.append(
                    (accounting["completed"], engine.now)
                ),
            )
            runs.append((stats.to_dict(), barriers, engine.processed))
        assert runs[0] == runs[1]
        assert len(runs[1][1]) == 2
        records = sim.timeseries.records
        assert len(records) > 2
        # the final window aligns with the end of the run
        assert records[-1]["t_us"] == sim.controller.engine.now


def _segmented_near_full(ftl):
    """OLTP on ``SSDConfig.small()`` at 0.9 fill, replayed in drained
    10-request segments."""
    config = SSDConfig.small()
    sim = SSDSimulation(config, ftl=ftl)
    sim.prefill(0.9)
    trace = build_workload("OLTP", config.logical_pages, 8000, seed=7)
    stats = replay(sim, trace, queue_depth=32, segment_requests=10)
    assert stats.completed_requests == 8000
    assert sim.ftl.counters.erases > 0


class TestDrainLiveness:
    def test_drain_rearms_gc(self):
        """A segment can drain with a chip short of free blocks and no
        GC job on it: GC is re-armed only by the chip's own completions.
        The replay re-evaluates GC on every chip there instead of
        stalling (this run stalled at 6,011 completions without it)."""
        _segmented_near_full("cube")

    def test_page_drains(self):
        _segmented_near_full("page")

    @pytest.mark.xfail(
        strict=True,
        raises=SimulationStalledError,
        reason="ROADMAP item 2: dftl's GC declines every victim at a "
        "drain (stalls at 785 completions)",
    )
    def test_dftl_drains(self):
        _segmented_near_full("dftl")


class TestNCQ:
    def test_completes_everything_under_backpressure(self):
        """A burst far beyond the queue depth still drains completely --
        arrivals finding the queue full wait and issue later."""
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 120, rate_iops=500_000)  # ~instant burst
        stats = replay(sim, trace, mode="ncq", queue_depth=4)
        assert stats.completed_requests == 120

    def test_queue_wait_counts_toward_latency(self):
        """Under a burst, depth 1 serializes the device: host-visible
        p90 must far exceed the depth-32 p90 because queue-full wait is
        part of NCQ latency."""
        config = SSDConfig.small()
        tails = {}
        for depth in (1, 32):
            sim = SSDSimulation(config, ftl="page")
            trace = _stamped(config, 150, rate_iops=200_000)
            stats = replay(sim, trace, mode="ncq", queue_depth=depth)
            tails[depth] = stats.write_latency.percentile(90)
        assert tails[1] > 2 * tails[32]

    def test_depth_one_is_fifo(self):
        """With one slot the device never sees request N+1 before N
        completed, so completion count equals trace length and the
        measured duration is at least the sum of bare service times'
        lower bound (no overlap)."""
        config = SSDConfig.small()
        sim_deep = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 80, rate_iops=300_000, seed=9)
        deep = replay(sim_deep, trace, mode="ncq", queue_depth=32)
        sim_one = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 80, rate_iops=300_000, seed=9)
        one = replay(sim_one, trace, mode="ncq", queue_depth=1)
        assert one.completed_requests == deep.completed_requests == 80
        # serialized replay cannot finish faster than the parallel one
        assert one.duration_us > deep.duration_us

    def test_huge_depth_matches_unbounded(self):
        """With queue depth >= trace length no arrival ever waits, so
        NCQ reduces exactly to the unbounded open loop (latency is
        measured from arrival in both)."""
        config = SSDConfig.small()
        sim_ncq = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 60, rate_iops=20_000, seed=5)
        ncq = replay(sim_ncq, trace, mode="ncq", queue_depth=60)
        sim_open = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 60, rate_iops=20_000, seed=5)
        unbounded = replay(sim_open, trace, mode="unbounded")
        assert ncq.completed_requests == unbounded.completed_requests
        assert ncq.write_latency.mean_us == pytest.approx(
            unbounded.write_latency.mean_us
        )
        assert ncq.write_latency.percentile(99) == pytest.approx(
            unbounded.write_latency.percentile(99)
        )

    def test_warmup_excludes_early_completions(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 100, rate_iops=50_000)
        stats = replay(sim, trace, mode="ncq", queue_depth=8,
                       warmup_requests=40)
        assert stats.completed_requests == 60
        assert (
            len(stats.read_latency) + len(stats.write_latency) == 60
        )

    def test_light_load_latency_is_service_time(self):
        """At a trickle rate nothing queues: NCQ latency from arrival
        equals the bare service time, same as the closed loop at
        depth 1 would measure from issue."""
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = _stamped(config, 50, rate_iops=200)  # ~5 ms apart
        stats = replay(sim, trace, mode="ncq", queue_depth=8)
        assert stats.write_latency.percentile(50) < 1200
