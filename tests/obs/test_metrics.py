"""Time-sliced metrics sampling: alignment, monotonicity, no distortion.

``result.metrics`` is projected from the time-series recorder's
windows, which the engine's batch loop takes without scheduling events.
"""

import math

import pytest

from repro.api import run_simulation
from repro.obs.analyze import metrics_report, metrics_timeline
from repro.obs.timeseries import TimeSeriesRecorder
from repro.specs import RunOptions, SpecError
from repro.ssd.config import SSDConfig

#: the keys of one metrics sample, in order
SAMPLE_KEYS = [
    "t_us", "completed_requests", "buffer_utilization", "buffer_occupancy",
    "free_blocks", "host_read_pages", "host_write_pages", "flash_reads",
    "flash_programs", "gc_reads", "gc_programs", "erases",
    "leader_programs", "follower_programs", "follower_fraction",
    "reprograms", "vfy_skipped", "read_retries", "retried_reads",
    "program_time_us", "read_time_us", "ort_entries", "ort_hits",
    "ort_misses", "ort_hit_rate",
]


def _run(metrics_interval=None, **kwargs):
    config = SSDConfig.small(logical_fraction=0.4)
    defaults = dict(
        queue_depth=8, warmup_requests=0, prefill=0.4, n_requests=300, seed=7
    )
    defaults.update(kwargs)
    return run_simulation(
        config, "OLTP", ftl="cube", metrics_interval=metrics_interval,
        **defaults,
    )


class TestSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(None, None, interval_us=0.0)

    @pytest.mark.parametrize(
        "interval", [0.0, -5.0, math.nan, math.inf], ids=str
    )
    def test_bad_cadence_refused_before_the_run(self, tmp_path, interval):
        """A cadence that is not positive and finite is refused when the
        run options are built: no device, no file."""
        with pytest.raises(SpecError, match="metrics_interval"):
            RunOptions(metrics_interval=interval)
        with pytest.raises(SpecError, match="metrics_interval"):
            _run(metrics_interval=interval,
                 artifact_dir=str(tmp_path / "runs"))
        assert list(tmp_path.iterdir()) == []

    def test_samples_cover_run(self):
        result = _run(metrics_interval=500.0)
        samples = result.metrics
        assert samples is not None and len(samples) >= 3
        assert all(list(sample) == SAMPLE_KEYS for sample in samples)
        assert samples[0]["t_us"] == 0.0
        times = [sample["t_us"] for sample in samples]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_cumulative_counters_monotonic(self):
        samples = _run(metrics_interval=500.0).metrics
        for name in ("completed_requests", "flash_programs", "host_write_pages",
                     "erases", "vfy_skipped"):
            series = [sample[name] for sample in samples]
            assert series == sorted(series), name

    def test_final_sample_aligns_with_stats(self):
        result = _run(metrics_interval=500.0)
        stats, last = result.stats, result.metrics[-1]
        assert last["completed_requests"] == stats.completed_requests
        assert last["flash_programs"] == stats.counters.flash_programs
        assert last["erases"] == stats.counters.erases
        assert last["program_time_us"] == stats.counters.program_time_us

    def test_sampling_does_not_distort_stats(self):
        plain = _run().stats.to_dict()
        sampled = _run(metrics_interval=500.0).stats.to_dict()
        sampled.pop("metrics")
        assert sampled == plain

    def test_sample_serialization(self):
        import json

        samples = _run(metrics_interval=500.0).metrics
        payload = json.loads(json.dumps(samples))
        assert payload == samples
        assert 0.0 <= payload[-1]["ort_hit_rate"] <= 1.0


class TestTimeline:
    def test_rates_from_cumulative(self):
        samples = _run(metrics_interval=500.0).metrics
        timeline = metrics_timeline(samples)
        assert len(timeline["iops"]) == len(timeline["t_us"])
        assert any(rate > 0 for rate in timeline["iops"])

    def test_short_run_degrades_gracefully(self):
        from repro.obs.analyze import TIMELINE_SERIES

        samples = _run(metrics_interval=500.0).metrics
        timeline = metrics_timeline(samples[:1])
        # every series key is present (just empty), so consumers that
        # index timeline["iops"] etc. never KeyError on short runs
        assert timeline["t_us"] == []
        for key in TIMELINE_SERIES:
            assert timeline[key] == []
        report = metrics_report(samples[:1])
        assert "shorter than one metrics interval" in report
        assert "final sample" in report

    def test_no_samples_report(self):
        assert "no metrics samples" in metrics_report([])

    def test_report_renders(self):
        samples = _run(metrics_interval=500.0).metrics
        report = metrics_report(samples)
        assert "IOPS" in report
        assert "mu" in report
