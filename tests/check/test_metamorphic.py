"""Metamorphic guarantees: instrumentation must never move the model.

The checker (like the tracer and telemetry before it) observes through
pointer-test hooks and never schedules events, so a checked run must
produce exactly the stats of an unchecked run, and shard-parallel
execution must reproduce serial execution bit for bit.
"""

from repro.api import run_many, run_simulation, spec_from_kwargs
from repro.parallel import RunSpec
from repro.ssd.config import SSDConfig
from tests.helpers.determinism import (
    assert_files_identical,
    assert_snapshots_identical,
)


def _run(check=None, **kwargs):
    config = SSDConfig.small(logical_fraction=0.4)
    return run_simulation(
        config, "OLTP", ftl="cube", queue_depth=8, prefill=0.4,
        n_requests=150, seed=11, check=check, **kwargs,
    )


class TestCheckingIsInvisible:
    def test_unchecked_runs_reproduce(self):
        assert_snapshots_identical(
            _run().stats.to_dict(), _run().stats.to_dict(),
            "two unchecked runs",
        )

    def test_strict_checking_leaves_stats_untouched(self):
        plain = _run()
        checked = _run(check="strict")
        assert checked.check["violations"] == 0
        assert_snapshots_identical(
            plain.stats.to_dict(), checked.stats.to_dict(),
            "unchecked vs strict-checked stats",
        )

    def test_checking_composes_with_other_instrumentation(self):
        plain = _run()
        instrumented = _run(check="strict", telemetry=True, profile=True)
        assert_snapshots_identical(
            plain.stats.to_dict(), instrumented.stats.to_dict(),
            "plain vs check+telemetry+profile stats",
        )

    def test_trace_bytes_identical_with_checking_on(self, tmp_path):
        """The checker taps the trace sink (for violation context) but
        must forward every span unchanged."""
        plain_path = str(tmp_path / "plain.jsonl")
        checked_path = str(tmp_path / "checked.jsonl")
        _run(trace=plain_path)
        _run(check="strict", trace=checked_path)
        assert_files_identical(
            plain_path, checked_path, "trace with checking off vs on"
        )


class TestShardEquality:
    def _specs(self):
        config = SSDConfig.small(logical_fraction=0.4)
        return [
            RunSpec(
                name=f"{ftl}-{workload}",
                spec=spec_from_kwargs(
                    config, workload, ftl, queue_depth=8, prefill=0.4,
                    n_requests=150, telemetry=True,
                ),
            )
            for ftl in ("page", "cube")
            for workload in ("OLTP", "Mail")
        ]

    def test_serial_vs_sharded_batches_identical(self):
        serial = run_many(self._specs(), jobs=1)
        sharded = run_many(self._specs(), jobs=2)
        assert serial.ok and sharded.ok
        assert serial.names == sharded.names
        for name, a, b in zip(serial.names, serial.results, sharded.results):
            assert_snapshots_identical(
                a.stats.to_dict(), b.stats.to_dict(),
                f"run {name}: serial vs --jobs 2",
            )
        assert_snapshots_identical(
            serial.telemetry, sharded.telemetry,
            "merged telemetry: serial vs --jobs 2",
        )
