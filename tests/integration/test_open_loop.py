"""Tests for open-loop (arrival-timed) trace replay."""

import numpy as np
import pytest

from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import IORequest, with_arrivals
from repro.workloads.synthetic import uniform_random_trace


class TestWithArrivals:
    def test_stamps_monotone_arrivals(self):
        trace = uniform_random_trace(1000, 50, seed=1)
        stamped = with_arrivals(trace, rate_iops=10_000, seed=2)
        times = [r.arrival_us for r in stamped]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    def test_rate_approximately_respected(self):
        trace = uniform_random_trace(1000, 400, seed=1)
        stamped = with_arrivals(trace, rate_iops=50_000, seed=2)
        span_us = stamped[-1].arrival_us
        implied_rate = 400 / (span_us / 1e6)
        assert 30_000 <= implied_rate <= 80_000

    def test_validation(self):
        trace = uniform_random_trace(1000, 10, seed=1)
        with pytest.raises(ValueError):
            with_arrivals(trace, rate_iops=0)
        with pytest.raises(ValueError):
            with_arrivals(trace, rate_iops=100, burstiness=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_rate_must_be_positive_and_finite(self, bad):
        trace = uniform_random_trace(1000, 10, seed=1)
        with pytest.raises(ValueError, match="rate_iops must be positive and finite"):
            with_arrivals(trace, rate_iops=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_burstiness_must_be_finite_and_at_least_one(self, bad):
        trace = uniform_random_trace(1000, 10, seed=1)
        with pytest.raises(ValueError, match="burstiness must be >= 1 and finite"):
            with_arrivals(trace, rate_iops=100, burstiness=bad)

    def test_request_at_helper(self):
        request = IORequest("R", 5, 2)
        stamped = request.at(123.0)
        assert stamped.arrival_us == 123.0
        assert (stamped.op, stamped.lpn, stamped.n_pages) == ("R", 5, 2)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            IORequest("R", 0, 1, arrival_us=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            IORequest("R", 0, 1, arrival_us=bad)


def _arrivals_by_loop(n, rate_iops, burstiness, seed):
    """The reference: one scalar draw per request, summed one by one.
    Returns the arrivals and the generator after the last draw."""
    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / rate_iops
    now = 0.0
    arrivals = []
    for _ in range(n):
        if burstiness > 1.0 and rng.random() < 0.5:
            gap = rng.exponential(mean_gap_us / burstiness)
        elif burstiness > 1.0:
            gap = rng.exponential(mean_gap_us * burstiness)
        else:
            gap = rng.exponential(mean_gap_us)
        now += gap
        arrivals.append(now)
    return arrivals, rng


class TestArrivalsMatchTheScalarLoop:
    """``with_arrivals`` draws the Poisson case's gaps in one call; the
    arrivals and the generator state after them must be the loop's."""

    @pytest.mark.parametrize("seed", [1, 7, 12345])
    @pytest.mark.parametrize("rate_iops", [200.0, 20_000.0, 33_333.3])
    @pytest.mark.parametrize("burstiness", [1.0, 2.0, 3.5])
    def test_identical_arrivals_and_generator_state(
        self, monkeypatch, seed, rate_iops, burstiness
    ):
        trace = uniform_random_trace(1000, 4000, seed=3)
        generators = []
        default_rng = np.random.default_rng

        def recording_rng(*args, **kwargs):
            generators.append(default_rng(*args, **kwargs))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        stamped = with_arrivals(trace, rate_iops, burstiness=burstiness, seed=seed)
        monkeypatch.undo()
        expected, reference = _arrivals_by_loop(len(trace), rate_iops, burstiness, seed)
        arrivals = [request.arrival_us for request in stamped]
        assert arrivals == expected
        assert all(type(arrival) is float for arrival in arrivals)
        assert [(r.op, r.lpn, r.n_pages) for r in stamped] == [
            (r.op, r.lpn, r.n_pages) for r in trace
        ]
        assert generators[0].bit_generator.state == reference.bit_generator.state

    def test_empty_trace(self):
        trace = uniform_random_trace(1000, 0, seed=3)
        stamped = with_arrivals(trace, 1000.0)
        assert len(stamped) == 0 and stamped.logical_pages == 1000


class TestOpenLoopReplay:
    def test_light_load_latency_is_service_time(self):
        """At a trickle arrival rate there is no queueing: write latency
        approaches the bare program latency."""
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(
            config.logical_pages, 60, read_fraction=0.0, seed=3
        )
        stamped = with_arrivals(trace, rate_iops=200, seed=4)  # ~5 ms apart
        stats = replay(sim, stamped, mode="unbounded")
        assert stats.completed_requests == 60
        assert stats.write_latency.percentile(50) < 1200

    def test_overload_builds_queueing_delay(self):
        config = SSDConfig.small()
        results = {}
        for rate in (500, 100_000):
            sim = SSDSimulation(config, ftl="page")
            trace = uniform_random_trace(
                config.logical_pages, 150, read_fraction=0.0, seed=5
            )
            stats = replay(
                sim, with_arrivals(trace, rate_iops=rate, seed=6), mode="unbounded"
            )
            results[rate] = stats.write_latency.percentile(90)
        assert results[100_000] > 2 * results[500]

    def test_missing_arrivals_rejected(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(config.logical_pages, 5, seed=1)
        with pytest.raises(ValueError):
            replay(sim, trace, mode="unbounded")

    def test_ps_aware_ftl_beats_baseline_under_bursts(self):
        """Bursty open-loop writes: the PS-aware FTL's tail latency stays
        below the PS-unaware baseline's (followers drain bursts faster)."""
        config = SSDConfig.small()
        tails = {}
        for ftl in ("page", "cube"):
            sim = SSDSimulation(config, ftl=ftl)
            trace = uniform_random_trace(
                config.logical_pages, 600, read_fraction=0.0, seed=7
            )
            stamped = with_arrivals(
                trace, rate_iops=25_000, burstiness=6.0, seed=8
            )
            stats = replay(sim, stamped, mode="unbounded")
            tails[ftl] = stats.write_latency.percentile(95)
        assert tails["cube"] < tails["page"]
