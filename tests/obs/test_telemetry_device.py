"""Device telemetry, the host-time profiler, and the no-perturbation
contract: attaching either must not change any simulated result."""

import importlib.util
import math
import signal

import pytest

from repro.api import run_simulation
from repro.ssd.config import SSDConfig


def _run(**kwargs):
    config = SSDConfig.small(logical_fraction=0.4)
    defaults = dict(
        ftl="cube", queue_depth=8, prefill=0.4, n_requests=300, seed=7
    )
    defaults.update(kwargs)
    return run_simulation(config, "OLTP", **defaults)


class TestDeviceTelemetry:
    def test_snapshot_has_device_instruments(self):
        snapshot = _run(telemetry=True).telemetry
        for name in (
            "nand_ops",
            "nand_program_us",
            "nand_read_retries",
            "chip_busy_us",
            "chip_queue_depth",
            "bus_busy_us",
            "bus_queue_depth",
            "ort_lookups",
            "ftl_counter",
            "engine_events_processed",
        ):
            assert name in snapshot, name

    def test_registry_mirrors_ftl_counters(self):
        # the collector re-reads the same live FTLCounters the result
        # schema serializes, so the two surfaces can never drift
        result = _run(telemetry=True)
        counters = result.to_dict()["counters"]
        mirrored = {
            entry["labels"]["counter"]: entry["value"]
            for entry in result.telemetry["ftl_counter"]["series"]
        }
        for key in ("flash_programs", "flash_reads", "erases", "gc_programs"):
            assert mirrored[key] == counters[key]

    def test_busy_time_spread_over_dies(self):
        result = _run(telemetry=True)
        busy = result.telemetry["chip_busy_us"]["series"]
        assert sum(entry["value"] for entry in busy) > 0
        assert len({entry["labels"]["die"] for entry in busy}) > 1

    def test_program_time_recorded_per_layer(self):
        result = _run(telemetry=True)
        series = result.telemetry["nand_program_us"]["series"]
        observed = [entry for entry in series if entry["count"]]
        assert observed
        for entry in observed:
            assert entry["sum"] / entry["count"] > 0

    def test_report_renders_heatmaps(self):
        report = _run(telemetry=True).telemetry_report()
        assert "die busy time" in report
        assert "tPROG" in report
        assert "queue depth" in report

    def test_report_requires_telemetry(self):
        with pytest.raises(ValueError):
            _run().telemetry_report()

    def test_snapshot_json_safe_and_deterministic(self):
        import json

        first = json.dumps(_run(telemetry=True).telemetry)
        second = json.dumps(_run(telemetry=True).telemetry)
        assert first == second


class TestNoPerturbation:
    def test_telemetry_and_profile_do_not_change_results(self):
        plain = _run().to_dict()
        observed = _run(telemetry=True, profile=True).to_dict()
        assert observed == plain

    def test_telemetry_with_trace_identical_jsonl(self, tmp_path):
        paths = [str(tmp_path / "off.jsonl"), str(tmp_path / "on.jsonl")]
        _run(trace=paths[0])
        _run(trace=paths[1], telemetry=True)
        with open(paths[0], "rb") as off, open(paths[1], "rb") as on:
            assert off.read() == on.read()


class TestProfiler:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGPROF"), reason="SIGPROF sampling is POSIX-only"
    )
    def test_layers_cover_the_replay(self):
        from repro.obs.profile import FTL_LAYERS, MODULE_LAYERS

        profile = _run(profile=True, trace="memory", n_requests=2000).profile
        layers = profile["layers"]
        assert profile["samples"] == sum(
            layer["samples"] for layer in layers.values()
        ) > 0
        assert math.isclose(
            sum(layer["seconds"] for layer in layers.values()),
            profile["replay_s"],
        )
        assert profile["total_s"] >= profile["setup_s"] > 0.0
        named = set(FTL_LAYERS) | set(MODULE_LAYERS.values()) | {"check"}
        for name in layers:
            assert name in named or importlib.util.find_spec(
                f"repro.{name}"
            ), name

    def test_result_field_absent_when_disabled(self):
        result = _run()
        assert result.profile is None
        assert result.telemetry is None
