"""The checkpoint container: header schema, atomicity, and the
validation a resume performs before trusting a checkpoint."""

import dataclasses
import json
import os

import pytest

from repro import api
from repro.api import run_simulation, spec_from_kwargs
from repro.persist import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_header,
    validate_header,
    write_checkpoint,
)
from repro.persist.checkpoint import OBSERVERS_NAME, load_observers
from repro.specs import HostSpec, TenantSpec, WorkloadSpec
from repro.ssd.config import SSDConfig


def _header(**overrides):
    header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_fingerprint": "ab" * 32,
        "ftl": "cube",
        "workload": "OLTP",
        "seed": 7,
        "n_requests": 100,
        "queue_depth": 32,
        "host_mode": "closed",
        "rate_iops": None,
        "burstiness": 1.0,
        "tenants": [],
        "warmup_requests": 0,
        "checkpoint_every": 10,
        "check": None,
        "segment": 1,
        "completed": 10,
        "clock_us": 123.5,
    }
    header.update(overrides)
    return header


class TestHeaderSchema:
    def test_valid_header_passes(self):
        assert validate_header(_header()) == []

    def test_missing_key_is_reported(self):
        header = _header()
        del header["seed"]
        problems = validate_header(header)
        assert any("seed" in problem for problem in problems)

    def test_wrong_type_is_reported(self):
        problems = validate_header(_header(n_requests="100"))
        assert any("n_requests" in problem for problem in problems)

    def test_unbounded_open_loop_header_passes(self):
        """An unbounded host has no queue depth."""
        header = _header(queue_depth=None, host_mode="unbounded",
                         rate_iops=20_000)
        assert validate_header(header) == []

    def test_bool_does_not_pass_as_int(self):
        problems = validate_header(_header(segment=True))
        assert any("segment" in problem for problem in problems)

    def test_future_schema_version_is_rejected(self):
        problems = validate_header(
            _header(schema_version=CHECKPOINT_SCHEMA_VERSION + 1)
        )
        assert any("schema_version" in problem for problem in problems)

    def test_non_dict_is_rejected(self):
        assert validate_header([1, 2]) != []


class TestContainer:
    def test_write_then_load_roundtrip(self, tmp_path):
        state = {"payload": [1, 2, 3]}
        path = write_checkpoint(str(tmp_path), _header(), state)
        header, loaded = load_checkpoint(path)
        assert header == _header()
        assert loaded == state

    def test_observer_state_is_an_optional_file(self, tmp_path):
        plain = write_checkpoint(str(tmp_path / "a"), _header(), {"v": 1})
        observed = write_checkpoint(
            str(tmp_path / "b"), _header(), {"v": 1}, {"telemetry": {"c": 1}}
        )
        assert not os.path.exists(os.path.join(plain, OBSERVERS_NAME))
        assert load_observers(plain) == {}
        assert load_observers(observed) == {"telemetry": {"c": 1}}
        for name in ("header.json", "state.pkl"):
            with open(os.path.join(plain, name), "rb") as a, open(
                os.path.join(observed, name), "rb"
            ) as b:
                assert a.read() == b.read()

    def test_write_refuses_invalid_header(self, tmp_path):
        with pytest.raises(CheckpointError, match="seed"):
            header = _header()
            del header["seed"]
            write_checkpoint(str(tmp_path), header, {})

    def test_no_partial_directory_is_listed(self, tmp_path):
        write_checkpoint(str(tmp_path), _header(segment=1), {})
        # a half-written directory (no header yet) must be invisible
        os.makedirs(tmp_path / "ckpt_00000002")
        (tmp_path / "junk").mkdir()
        assert [os.path.basename(p) for p in list_checkpoints(str(tmp_path))] \
            == ["ckpt_00000001"]

    def test_latest_checkpoint_orders_numerically(self, tmp_path):
        for segment in (1, 2, 10):
            write_checkpoint(
                str(tmp_path),
                _header(segment=segment, completed=segment * 10),
                {},
            )
        assert latest_checkpoint(str(tmp_path)).endswith("ckpt_00000010")

    def test_rewrite_same_segment_replaces(self, tmp_path):
        write_checkpoint(str(tmp_path), _header(), {"v": 1})
        path = write_checkpoint(str(tmp_path), _header(), {"v": 2})
        _, state = load_checkpoint(path)
        assert state == {"v": 2}

    def test_corrupt_header_is_refused(self, tmp_path):
        path = write_checkpoint(str(tmp_path), _header(), {})
        with open(os.path.join(path, "header.json"), "w") as fh:
            json.dump({"schema_version": "x"}, fh)
        with pytest.raises(CheckpointError, match="invalid header"):
            read_header(path)


class TestResumeValidation:
    def _checkpoint(self, tmp_path, config, **overrides):
        kwargs = dict(
            n_requests=120, seed=9, prefill=0.4,
            checkpoint_every=40, checkpoint_dir=str(tmp_path / "out"),
        )
        kwargs.update(overrides)
        run_simulation(config, "OLTP", ftl="cube", **kwargs)
        return latest_checkpoint(str(tmp_path / "out"))

    def test_config_fingerprint_mismatch(self, tmp_path):
        config = SSDConfig.small()
        checkpoint = self._checkpoint(tmp_path, config)
        other = SSDConfig.small(buffer_capacity_pages=12)
        assert config_fingerprint(other) != config_fingerprint(config)
        with pytest.raises(CheckpointError, match="fingerprint"):
            run_simulation(other, "OLTP", ftl="cube", seed=9,
                           n_requests=120, resume_from=checkpoint)

    def test_ftl_mismatch(self, tmp_path):
        config = SSDConfig.small()
        checkpoint = self._checkpoint(tmp_path, config)
        with pytest.raises(CheckpointError, match="ftl"):
            run_simulation(config, "OLTP", ftl="page", seed=9,
                           n_requests=120, resume_from=checkpoint)

    def test_seed_mismatch(self, tmp_path):
        config = SSDConfig.small()
        checkpoint = self._checkpoint(tmp_path, config)
        with pytest.raises(CheckpointError, match="seed"):
            run_simulation(config, "OLTP", ftl="cube", seed=10,
                           n_requests=120, resume_from=checkpoint)

    def test_workload_mismatch(self, tmp_path):
        config = SSDConfig.small()
        checkpoint = self._checkpoint(tmp_path, config)
        with pytest.raises(CheckpointError, match="workload"):
            run_simulation(config, "Proxy", ftl="cube", seed=9,
                           n_requests=120, resume_from=checkpoint)


class TestArrivalProcessValidation:
    """``run_spec`` builds the trace from the resuming spec, so a resume
    whose arrivals would differ is refused by the header, before the
    simulation is built; the queue depth is the header's."""

    HOST = HostSpec(queue_depth=8, open_loop=True, rate_iops=5000.0)
    TENANTS = (
        TenantSpec("a", WorkloadSpec("OLTP", n_requests=60), 5000.0,
                   partition=(0.0, 0.5)),
        TenantSpec("b", WorkloadSpec("Proxy", n_requests=60), 2000.0,
                   partition=(0.5, 1.0)),
    )

    @staticmethod
    def _spec(tmp_path, host):
        spec = spec_from_kwargs(
            SSDConfig.small(), "OLTP", ftl="cube", n_requests=120, seed=9,
            prefill=0.4, checkpoint_every=40,
            checkpoint_dir=str(tmp_path / "out"),
        )
        return dataclasses.replace(
            spec, host=host, workload=None if host.tenants else spec.workload
        )

    def _resume(self, tmp_path, host, **changes):
        """Checkpoint a run of ``host``, then resume it with ``changes``
        made to the host."""
        spec = self._spec(tmp_path, host)
        straight = run_simulation(spec)
        resume = dataclasses.replace(
            spec, host=dataclasses.replace(host, **changes)
        ).with_options(
            resume_from=latest_checkpoint(str(tmp_path / "out")),
            checkpoint_dir=str(tmp_path / "resumed"),
        )
        return straight, resume

    @pytest.mark.parametrize(
        "changes,key",
        [
            ({"rate_iops": 4000.0}, "rate_iops"),
            ({"burstiness": 2.0}, "burstiness"),
            ({"queue_depth": None}, "host_mode"),
            ({"open_loop": False, "rate_iops": None}, "host_mode"),
        ],
    )
    def test_other_arrivals_are_refused(
        self, tmp_path, monkeypatch, changes, key
    ):
        _, resume = self._resume(tmp_path, self.HOST, **changes)

        def refuse_build(*args, **kwargs):
            raise AssertionError("the simulation was built")

        monkeypatch.setattr(api, "SSDSimulation", refuse_build)
        with pytest.raises(CheckpointError, match=f"another run: {key}"):
            run_simulation(resume)
        assert not (tmp_path / "resumed").exists()

    def test_other_tenants_are_refused(self, tmp_path):
        host = HostSpec(queue_depth=8, tenants=self.TENANTS)
        slower = (dataclasses.replace(self.TENANTS[0], rate_iops=4000.0),
                  self.TENANTS[1])
        _, resume = self._resume(tmp_path, host, tenants=slower)
        with pytest.raises(CheckpointError, match="another run: tenants"):
            run_simulation(resume)

    def test_queue_depth_comes_from_the_header(self, tmp_path):
        straight, resume = self._resume(tmp_path, self.HOST, queue_depth=2)
        resumed = run_simulation(resume)
        assert resumed.stats.to_dict() == straight.stats.to_dict()


class TestApiGuards:
    def test_checkpoint_without_dir_raises(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_simulation(SSDConfig.small(), "OLTP", checkpoint_every=10)

    def test_checkpoint_dir_without_cadence_raises(self, tmp_path):
        """A checkpoint directory alone would run to the end and write
        no checkpoint at all."""
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_simulation(
                SSDConfig.small(), "OLTP", n_requests=120, prefill=0.4,
                checkpoint_dir=str(out),
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {
                "host": HostSpec(queue_depth=None, open_loop=True, rate_iops=5000.0),
                "max_events": 10,
            },
            {
                "host": HostSpec(
                    queue_depth=8,
                    tenants=(
                        TenantSpec(
                            "a", WorkloadSpec("OLTP", n_requests=40),
                            rate_iops=5000.0,
                        ),
                    ),
                ),
                "max_events": 10,
            },
            {
                "host": HostSpec(queue_depth=8, open_loop=True, rate_iops=5000.0),
                "max_events": 10,
            },
            {"max_events": 10},
        ],
    )
    def test_incompatible_options_raise(self, tmp_path, monkeypatch, kwargs):
        """``max_events``, the option segmented replay cannot honour, is
        refused by name on every host model (unbounded, tenants, NCQ,
        closed) before the simulation is built or any file is written."""
        monkeypatch.chdir(tmp_path)
        kwargs = dict(kwargs)
        host = kwargs.pop("host", None)
        spec = spec_from_kwargs(
            SSDConfig.small(), "OLTP", n_requests=40,
            checkpoint_every=10, checkpoint_dir="ckpts", **kwargs,
        )
        if host is not None:
            spec = dataclasses.replace(
                spec, host=host,
                workload=None if host.tenants else spec.workload,
            )
        with pytest.raises(ValueError, match="incompatible") as error:
            run_simulation(spec)
        assert "max_events" in str(error.value)
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _checkpoint(tmp_path, **observers):
        run_simulation(
            SSDConfig.small(), "OLTP", ftl="cube", n_requests=120, seed=9,
            prefill=0.4, checkpoint_every=40,
            checkpoint_dir=str(tmp_path / "out"), **observers,
        )
        return latest_checkpoint(str(tmp_path / "out"))

    @staticmethod
    def _refused(tmp_path, checkpoint, match, **observers):
        """The resume is refused before anything is built or written."""
        with pytest.raises(CheckpointError, match=match):
            run_simulation(
                SSDConfig.small(), "OLTP", ftl="cube", seed=9,
                n_requests=120, resume_from=checkpoint,
                checkpoint_dir=str(tmp_path / "resumed"), **observers,
            )
        assert not (tmp_path / "resumed").exists()

    def test_telemetry_on_resume_raises(self, tmp_path):
        """A checkpoint taken without telemetry holds no registry state
        to carry on, so a telemetered resume is refused by name."""
        checkpoint = self._checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="no observer state for telemetry"):
            run_simulation(
                SSDConfig.small(), "OLTP", ftl="cube", seed=9,
                n_requests=120, telemetry=True, resume_from=checkpoint,
            )

    def test_metrics_interval_on_resume_raises(self, tmp_path):
        """Telemetry alone checkpoints no time-series recorder."""
        checkpoint = self._checkpoint(tmp_path, telemetry=True)
        with pytest.raises(
            CheckpointError, match="no observer state for metrics_interval"
        ):
            run_simulation(
                SSDConfig.small(), "OLTP", ftl="cube", seed=9,
                n_requests=120, metrics_interval=100.0,
                resume_from=checkpoint,
            )

    def test_missing_observer_state_is_refused_by_name(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        self._refused(
            tmp_path, checkpoint,
            "no observer state for telemetry, metrics_interval, artifact_dir",
            telemetry=True, metrics_interval=100.0,
            artifact_dir=str(tmp_path / "runs"),
        )

    def test_resume_at_another_cadence_is_refused(self, tmp_path):
        checkpoint = self._checkpoint(
            tmp_path, metrics_interval=100.0,
            artifact_dir=str(tmp_path / "runs"),
        )
        self._refused(tmp_path, checkpoint, "metrics_interval 250.0",
                      metrics_interval=250.0)
        # an artifact run without metrics_interval records every 1000 us
        self._refused(tmp_path, checkpoint, "metrics_interval 1000.0",
                      artifact_dir=str(tmp_path / "runs"))

    def test_observers_resume_from_an_observed_checkpoint(self, tmp_path):
        """A resume may ask for fewer observers than the checkpoint
        carries state for (here: no artifact)."""
        observers = dict(telemetry=True, metrics_interval=100.0)
        straight = run_simulation(
            SSDConfig.small(), "OLTP", ftl="cube", n_requests=120, seed=9,
            prefill=0.4, checkpoint_every=40,
            checkpoint_dir=str(tmp_path / "out"),
            artifact_dir=str(tmp_path / "runs"), **observers,
        )
        resumed = run_simulation(
            SSDConfig.small(), "OLTP", ftl="cube", seed=9, n_requests=120,
            resume_from=latest_checkpoint(str(tmp_path / "out")), **observers,
        )
        assert resumed.metrics == straight.metrics
        assert resumed.telemetry == straight.telemetry

    def test_telemetry_allowed_straight_through(self, tmp_path):
        result = run_simulation(
            SSDConfig.small(), "OLTP", ftl="cube", n_requests=120,
            seed=9, prefill=0.4, telemetry=True,
            checkpoint_every=40, checkpoint_dir=str(tmp_path),
        )
        assert result.telemetry is not None
