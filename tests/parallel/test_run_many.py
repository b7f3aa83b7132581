"""``repro.api.run_many``: batch runs merged back into spec order."""

import pytest

from repro.api import run_many, spec_from_kwargs
from repro.parallel import RunSpec, derive_seed, resolve_seed, specs_to_shards
from repro.ssd.config import SSDConfig


def _specs(telemetry=False):
    config = SSDConfig.small()
    return [
        RunSpec(
            name=f"cell-{workload}",
            spec=spec_from_kwargs(
                config, workload, n_requests=200, prefill=0.3,
                telemetry=telemetry,
            ),
        )
        for workload in ("OLTP", "Proxy")
    ]


class TestRunMany:
    def test_results_in_spec_order(self):
        batch = run_many(_specs(), jobs=1)
        assert batch.ok
        assert batch.names == ["cell-OLTP", "cell-Proxy"]
        assert all(r is not None and r.stats.iops > 0 for r in batch.results)

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_many(_specs(telemetry=True), jobs=1)
        pooled = run_many(_specs(telemetry=True), jobs=2)
        assert serial.ok and pooled.ok
        for a, b in zip(serial.results, pooled.results):
            assert a.to_dict() == b.to_dict()
            assert a.telemetry == b.telemetry
        assert serial.telemetry == pooled.telemetry

    def test_failed_spec_is_isolated(self):
        specs = _specs() + [
            RunSpec(
                name="broken",
                spec=spec_from_kwargs(SSDConfig.small(), "NOPE"),
            )
        ]
        batch = run_many(specs, jobs=2)
        assert not batch.ok
        assert set(batch.errors) == {"broken"}
        assert batch.results[2] is None
        assert batch.results[0] is not None and batch.results[1] is not None
        with pytest.raises(KeyError):
            batch.result_for("broken")
        assert batch.result_for("cell-OLTP").stats.iops > 0

    def test_merged_telemetry_present_only_when_requested(self):
        assert run_many(_specs(), jobs=1).telemetry is None
        merged = run_many(_specs(telemetry=True), jobs=1).telemetry
        assert merged is not None and "chip_busy_us" in merged

    def test_seed_resolution_rule(self):
        spec = _specs()[0]
        assert resolve_seed(spec, 7) == derive_seed(7, spec.name)
        pinned = RunSpec(
            name="pinned",
            spec=spec_from_kwargs(SSDConfig.small(), "OLTP"),
            seed=42,
        )
        assert resolve_seed(pinned, 7) == 42

    def test_duplicate_names_rejected(self):
        spec = _specs()[0]
        with pytest.raises(ValueError, match="duplicate"):
            specs_to_shards([spec, spec], base_seed=7)
