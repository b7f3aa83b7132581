"""Tests for trace primitives and the six workload generators."""

import numpy as np
import pytest

from repro.workloads import WORKLOAD_GENERATORS, build_workload
from repro.workloads.base import READ, WRITE, IORequest, Trace, trace_summary
from repro.workloads.synthetic import (
    ZipfSampler,
    mixed_trace,
    sequential_trace,
    uniform_random_trace,
    zipf_trace,
)

LOGICAL_PAGES = 20_000


class TestIORequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            IORequest("X", 0, 1)
        with pytest.raises(ValueError):
            IORequest(READ, -1, 1)
        with pytest.raises(ValueError):
            IORequest(READ, 0, 0)

    def test_flags_and_end(self):
        request = IORequest(WRITE, 10, 4)
        assert request.is_write and not request.is_read
        assert request.end_lpn == 14


class TestTrace:
    def test_append_checks_bounds(self):
        trace = Trace("t", 100)
        trace.append(IORequest(READ, 96, 4))
        with pytest.raises(ValueError):
            trace.append(IORequest(READ, 97, 4))

    def test_constructor_checks_bounds(self):
        with pytest.raises(ValueError):
            Trace("t", 10, [IORequest(READ, 20, 1)])

    def test_sequence_protocol(self):
        trace = Trace("t", 100, [IORequest(READ, 0, 1), IORequest(WRITE, 1, 1)])
        assert len(trace) == 2
        assert trace[0].is_read
        assert [r.op for r in trace] == [READ, WRITE]

    def test_summary(self):
        trace = Trace("t", 100, [IORequest(READ, 0, 2), IORequest(WRITE, 5, 1)])
        summary = trace_summary(trace)
        assert summary["requests"] == 2
        assert summary["read_fraction"] == 0.5
        assert summary["read_page_fraction"] == pytest.approx(2 / 3)
        assert summary["mean_read_pages"] == 2.0


class TestZipfSampler:
    def test_samples_in_range(self):
        rng = np.random.default_rng(0)
        sampler = ZipfSampler(1000, theta=0.99, rng=rng)
        samples = sampler.sample(rng, 5000)
        assert samples.min() >= 0 and samples.max() < 1000

    def test_skew(self):
        """The hottest item appears far more often than the median item."""
        rng = np.random.default_rng(0)
        sampler = ZipfSampler(1000, theta=0.99, rng=rng)
        samples = sampler.sample(rng, 20000)
        counts = np.bincount(samples, minlength=1000)
        assert counts.max() > 20 * np.median(counts[counts > 0])

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ZipfSampler(0, 0.99, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, 0.0, rng)


class TestSyntheticGenerators:
    def test_uniform_mix(self):
        trace = uniform_random_trace(LOGICAL_PAGES, 2000, read_fraction=0.7, seed=3)
        summary = trace_summary(trace)
        assert 0.65 <= summary["read_fraction"] <= 0.75

    def test_sequential_wraps(self):
        trace = sequential_trace(100, 60, n_pages=4)
        assert all(r.end_lpn <= 100 for r in trace)
        assert trace[0].lpn == 0
        assert trace[1].lpn == 4

    def test_zipf_trace_bounds(self):
        trace = zipf_trace(LOGICAL_PAGES, 1000, seed=1)
        assert all(0 <= r.lpn < LOGICAL_PAGES for r in trace)

    def test_mixed_preserves_all_requests(self):
        a = sequential_trace(1000, 50, name="a")
        b = uniform_random_trace(1000, 70, name="b", seed=2)
        mixed = mixed_trace([a, b], [1.0, 1.0], seed=3)
        assert len(mixed) == 120

    def test_mixed_validation(self):
        a = sequential_trace(1000, 5)
        b = sequential_trace(2000, 5)
        with pytest.raises(ValueError):
            mixed_trace([a, b], [1, 1])
        with pytest.raises(ValueError):
            mixed_trace([a], [1, 2])


class TestPaperWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_GENERATORS))
    def test_generators_produce_valid_traces(self, name):
        trace = build_workload(name, LOGICAL_PAGES, 1500, seed=5)
        assert trace.name == name
        assert len(trace) >= 1500 * 0.95
        assert all(0 <= r.lpn and r.end_lpn <= LOGICAL_PAGES for r in trace)

    @pytest.mark.parametrize("name", sorted(WORKLOAD_GENERATORS))
    def test_generators_deterministic(self, name):
        a = build_workload(name, LOGICAL_PAGES, 300, seed=9)
        b = build_workload(name, LOGICAL_PAGES, 300, seed=9)
        assert list(a) == list(b)

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            build_workload("nope", LOGICAL_PAGES, 10)

    def test_read_write_mixes_match_personalities(self):
        """The documented mix of each personality (Section 6.1)."""
        mixes = {}
        for name in WORKLOAD_GENERATORS:
            trace = build_workload(name, LOGICAL_PAGES, 4000, seed=11)
            mixes[name] = trace_summary(trace)["read_fraction"]
        assert mixes["Web"] > 0.85            # read-dominant
        assert 0.6 <= mixes["Proxy"] <= 0.85  # read-mostly
        assert mixes["OLTP"] < 0.4            # write-intensive
        assert 0.35 <= mixes["Mail"] <= 0.55
        # YCSB-A is a 50/50 op mix; Rocks adds compaction write requests
        assert 0.3 <= mixes["Rocks"] <= 0.55
        assert 0.35 <= mixes["Mongo"] <= 0.55

    def test_oltp_is_most_write_intensive(self):
        from repro.workloads import PAPER_WORKLOADS

        fractions = {
            name: trace_summary(build_workload(name, LOGICAL_PAGES, 4000, seed=2))[
                "read_fraction"
            ]
            for name in PAPER_WORKLOADS
        }
        assert min(fractions, key=fractions.get) == "OLTP"

    def test_oltp_writes_arrive_in_bursts(self):
        trace = build_workload("OLTP", LOGICAL_PAGES, 4000, seed=2)
        ops = [r.is_write for r in trace]
        runs = []
        current = 0
        for is_write in ops:
            if is_write:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert max(runs) >= 8

    def test_rocks_has_compaction_bursts(self):
        trace = build_workload("Rocks", LOGICAL_PAGES, 4000, seed=2)
        large_writes = [r for r in trace if r.is_write and r.n_pages >= 8]
        assert large_writes

    def test_proxy_reads_whole_objects(self):
        trace = build_workload("Proxy", LOGICAL_PAGES, 4000, seed=2)
        summary = trace_summary(trace)
        assert summary["mean_read_pages"] >= 3.0
