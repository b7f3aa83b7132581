"""The windowed, delta-compressed telemetry time-series recorder."""

import math

import pytest

from repro.obs.registry import TelemetryRegistry
from repro.obs.timeseries import (
    DEFAULT_INTERVAL_US,
    TimeSeriesRecorder,
    expand_records,
    flatten_snapshot,
)
from repro.sim.engine import Engine


def _advance(engine, dt):
    """Run the engine to one no-op event ``dt`` from now; the batch loop
    takes every window due up to it first."""
    engine.schedule(dt, lambda: None)
    engine.run()


@pytest.fixture
def registry():
    return TelemetryRegistry()


class TestFlattenSnapshot:
    def test_counter_flattens_to_value_key(self, registry):
        registry.counter("ops_total", "ops").inc(3)
        flat = flatten_snapshot(registry.snapshot())
        assert flat["ops_total.value"] == 3

    def test_labelled_series_sorted_into_keys(self, registry):
        counter = registry.counter("per_chip", "per chip", labelnames=("chip",))
        counter.labels(chip=1).inc(2)
        counter.labels(chip=0).inc(5)
        flat = flatten_snapshot(registry.snapshot())
        assert flat["per_chip{chip=0}.value"] == 5
        assert flat["per_chip{chip=1}.value"] == 2
        assert list(flat) == sorted(flat)

    def test_flatten_is_deterministic(self, registry):
        counter = registry.counter("c", "c", labelnames=("k",))
        for key in ("b", "a", "z"):
            counter.labels(k=key).inc()
        first = flatten_snapshot(registry.snapshot())
        second = flatten_snapshot(registry.snapshot())
        assert first == second
        assert list(first) == list(second)


class TestDeltaCompression:
    def test_first_window_full_later_windows_delta(self, registry):
        counter = registry.counter("a", "a")
        other = registry.counter("b", "b")
        counter.inc()
        other.inc()
        engine = Engine()
        recorder = TimeSeriesRecorder(registry, engine, interval_us=10.0)
        recorder.start()
        assert recorder.records[0]["full"] is True
        assert recorder.records[0]["values"] == {"a.value": 1, "b.value": 1}
        counter.inc()  # only a changes
        _advance(engine, 10.0)
        assert recorder.records[1]["full"] is False
        assert recorder.records[1]["values"] == {"a.value": 2}
        _advance(engine, 10.0)  # nothing changed: empty delta
        assert recorder.records[2]["values"] == {}

    def test_expand_records_roundtrips(self, registry):
        counter = registry.counter("a", "a")
        engine = Engine()
        recorder = TimeSeriesRecorder(registry, engine, interval_us=5.0)
        recorder.start()
        expected = []
        expected.append(flatten_snapshot(registry.snapshot()))
        for _ in range(4):
            counter.inc()
            _advance(engine, 5.0)
            expected.append(flatten_snapshot(registry.snapshot()))
        times, windows = expand_records(recorder.records)
        assert times == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert windows == expected

    def test_finalize_replaces_same_timestamp_window(self, registry):
        counter = registry.counter("a", "a")
        engine = Engine()
        recorder = TimeSeriesRecorder(registry, engine, interval_us=5.0)
        recorder.start()
        _advance(engine, 5.0)  # periodic window at t=5
        counter.inc()  # state changes after the periodic snapshot
        records = recorder.finalize()  # end-of-run also at t=5
        assert [r["t_us"] for r in records] == [0.0, 5.0]
        _, windows = expand_records(records)
        assert windows[-1]["a.value"] == 1  # final window sees the inc

    def test_stop_cancels_recurring_event(self, registry):
        engine = Engine()
        recorder = TimeSeriesRecorder(registry, engine)
        recorder.start()
        recorder.stop()
        assert engine.next_window == math.inf
        n = len(recorder.records)
        _advance(engine, DEFAULT_INTERVAL_US)
        assert len(recorder.records) == n

    def test_rejects_nonpositive_interval(self, registry):
        for interval in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                TimeSeriesRecorder(registry, Engine(), interval_us=interval)

    def test_restored_recorder_carries_on(self):
        """A recorder restored from a checkpoint's state takes no second
        start window and keeps the straight recorder's cadence."""
        registries = [TelemetryRegistry(), TelemetryRegistry()]
        engines = [Engine(), Engine()]
        straight = TimeSeriesRecorder(registries[0], engines[0], interval_us=5.0)
        straight.start()
        _advance(engines[0], 12.0)
        restored = TimeSeriesRecorder(registries[1], engines[1], interval_us=5.0)
        restored.load_state_dict(straight.state_dict())
        _advance(engines[1], 12.0)
        restored.start()
        assert engines[1].next_window == engines[0].next_window == 15.0
        for registry, engine in zip(registries, engines):
            registry.counter("a", "a").inc()
            _advance(engine, 9.0)
        assert restored.records == straight.records
        assert [r["t_us"] for r in restored.records] == [0.0, 5.0, 10.0, 15.0, 20.0]
