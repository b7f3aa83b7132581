"""Resume equivalence: checkpoint + restore + continue must be
byte-identical to the straight-through checkpointing run.

The matrix covers every FTL variant, fresh and aged (2K P/E + 1 yr)
devices, fault campaigns, and every host model (closed loop, NCQ,
unbounded, tenants).  "Byte-identical" is asserted on the
canonical JSON of the schema-v2 result *and* on the checker's
``state_digest`` of the final logical state.
"""

import dataclasses
import filecmp
import json
import os

import pytest

from repro.api import run_simulation, spec_from_kwargs
from repro.faults import get_campaign
from repro.nand.reliability import AgingState
from repro.persist import (
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_header,
)
from repro.specs import HostSpec, TenantSpec, WorkloadSpec
from repro.ssd.config import SSDConfig

REQUESTS = 300
EVERY = 100


def _config(aged, faults):
    config = SSDConfig.small()
    if aged:
        config = config.with_aging(AgingState(2000, 12.0))
    if faults is not None:
        config = config.with_faults(get_campaign(faults))
    return config


def _run(config, ftl, out_dir, resume_from=None, **overrides):
    kwargs = dict(
        n_requests=REQUESTS,
        seed=11,
        prefill=0.5,
        check="on",
        checkpoint_every=EVERY,
        checkpoint_dir=str(out_dir),
    )
    kwargs.update(overrides)
    return run_simulation(
        config, "OLTP", ftl=ftl, resume_from=resume_from, **kwargs
    )


def _key(result):
    return (
        json.dumps(result.stats.to_dict(), sort_keys=True),
        result.check["state_digest"],
    )


class TestResumeEquivalence:
    @pytest.mark.parametrize(
        "ftl", ["page", "vert", "cube", "cube-", "oracle", "dftl"]
    )
    @pytest.mark.parametrize(
        "aged,faults", [(False, None), (True, "default")]
    )
    def test_resume_matches_straight_through(self, tmp_path, ftl, aged, faults):
        config = _config(aged, faults)
        straight = _run(config, ftl, tmp_path / "straight")
        checkpoints = list_checkpoints(str(tmp_path / "straight"))
        assert len(checkpoints) == (REQUESTS - 1) // EVERY
        for checkpoint in checkpoints:
            resumed = _run(
                config, ftl, tmp_path / "resumed", resume_from=checkpoint
            )
            assert _key(resumed) == _key(straight)

    def test_resume_continues_checkpoint_sequence(self, tmp_path):
        config = _config(False, None)
        _run(config, "cube", tmp_path / "a")
        first = list_checkpoints(str(tmp_path / "a"))[0]
        _run(config, "cube", tmp_path / "b", resume_from=first)
        # the resumed run re-writes the later checkpoints into its own dir
        resumed_names = [
            header["segment"]
            for header in map(read_header, list_checkpoints(str(tmp_path / "b")))
        ]
        assert resumed_names == [2]

    def test_checkpoint_headers_are_consistent(self, tmp_path):
        config = _config(False, None)
        _run(config, "cube", tmp_path / "out")
        for index, path in enumerate(list_checkpoints(str(tmp_path / "out"))):
            header = read_header(path)
            assert header["segment"] == index + 1
            assert header["completed"] == (index + 1) * EVERY
            assert header["n_requests"] == REQUESTS
            assert header["checkpoint_every"] == EVERY
            assert header["check"] == "on"

    def test_strict_fuzzlike_seed(self, tmp_path):
        """The acceptance criterion's strict-checker cell: a fault
        campaign under check=strict resumes byte-identically."""
        config = _config(True, "default")
        straight = _run(config, "cube", tmp_path / "s", check="strict")
        checkpoint = latest_checkpoint(str(tmp_path / "s"))
        resumed = _run(
            config, "cube", tmp_path / "r", check="strict",
            resume_from=checkpoint,
        )
        assert _key(resumed) == _key(straight)


class TestEveryHostModelResumes:
    """NCQ, unbounded and tenant runs checkpoint at drained barriers as
    closed-loop runs do, and a resume equals the straight checkpointed
    run.  At 20k IOPS the drains overrun the next segment's first
    arrival, so the arrival shift rides in the barrier payload; on dftl
    one shifted arrival rounds a hair below the clock, where only the
    clamp keeps ``schedule_at`` from refusing it."""

    EVERY = 150
    HOSTS = {
        "ncq-20k": HostSpec(queue_depth=8, open_loop=True, rate_iops=20_000.0),
        "ncq-2k": HostSpec(queue_depth=8, open_loop=True, rate_iops=2_000.0),
        "unbounded": HostSpec(
            queue_depth=None, open_loop=True, rate_iops=20_000.0
        ),
        "tenants": HostSpec(
            queue_depth=8,
            tenants=(
                TenantSpec("reader", WorkloadSpec("OLTP", n_requests=200),
                           10_000.0, partition=(0.0, 0.5)),
                TenantSpec("writer", WorkloadSpec("Proxy", n_requests=200),
                           5_000.0, partition=(0.5, 1.0)),
            ),
        ),
    }

    @pytest.mark.parametrize("ftl", ["cube", "dftl"])
    @pytest.mark.parametrize("host", sorted(HOSTS))
    def test_resume_matches_straight_through(self, tmp_path, ftl, host):
        host = self.HOSTS[host]
        spec = spec_from_kwargs(
            SSDConfig.small(), "OLTP", ftl=ftl, n_requests=450, seed=11,
            prefill=0.5, check="on", checkpoint_every=self.EVERY,
            checkpoint_dir=str(tmp_path / "straight"),
        )
        spec = dataclasses.replace(
            spec, host=host, workload=None if host.tenants else spec.workload
        )
        straight = run_simulation(spec)
        checkpoints = list_checkpoints(str(tmp_path / "straight"))
        assert len(checkpoints) == 2
        _, state = load_checkpoint(checkpoints[1])
        accounting = state["accounting"]
        assert accounting["shift_us"] >= 0.0
        assert ("tenants" in accounting) == bool(host.tenants)
        resumed = run_simulation(
            spec.with_options(
                resume_from=checkpoints[1],
                checkpoint_dir=str(tmp_path / "resumed"),
            )
        )
        assert _key(resumed) == _key(straight)
        if host.rate_iops == 20_000.0:
            assert accounting["shift_us"] > 0.0


def _state_bytes(out_dir):
    states = []
    for checkpoint in list_checkpoints(str(out_dir)):
        with open(os.path.join(checkpoint, "state.pkl"), "rb") as fh:
            states.append(fh.read())
    return states


class TestObservedCheckpointing:
    """Checkpointing is a barrier hook of the one run pipeline, so the
    observers compose with it: they change neither the run nor what a
    checkpoint holds, and a resumed trace continues the straight one."""

    @pytest.mark.parametrize(
        "ftl,aged,faults",
        [
            ("page", False, None),
            ("cube", False, None),
            ("dftl", False, None),
            ("cube", True, "default"),
        ],
    )
    def test_observers_compose_with_checkpoint_and_resume(
        self, tmp_path, ftl, aged, faults
    ):
        config = _config(aged, faults)
        plain = _run(config, ftl, tmp_path / "plain")
        observed = _run(
            config, ftl, tmp_path / "observed",
            trace="memory", profile=True, telemetry=True,
        )
        assert observed.spans
        assert observed.profile is not None
        assert observed.telemetry is not None
        assert _key(observed) == _key(plain)
        states = _state_bytes(tmp_path / "observed")
        assert len(states) == (REQUESTS - 1) // EVERY
        assert states == _state_bytes(tmp_path / "plain")
        for checkpoint in list_checkpoints(str(tmp_path / "observed")):
            resumed = _run(
                config, ftl, tmp_path / "resumed",
                resume_from=checkpoint, trace="memory",
            )
            assert _key(resumed) == _key(plain)
            spans = resumed.spans
            assert spans == observed.spans[-len(spans):]
            # request ids carry on from the barrier's completed count
            first = min(span.request for span in spans if span.request is not None)
            assert first == read_header(checkpoint)["completed"]


class TestWindowedCheckpointing:
    """Metrics, artifacts and telemetry compose with checkpoints too:
    the time-series recorder takes its windows from the engine's batch
    loop, so it never holds a barrier's drain open, and a checkpoint
    carries the observers' state in its own file."""

    #: artifact files a resume must write byte for byte
    FILES = (
        "timeseries.jsonl", "telemetry.json", "exemplars.json",
        "latency.json", "result.json",
    )

    @staticmethod
    def _observed(config, ftl, out_dir, runs_dir, **overrides):
        return _run(
            config, ftl, out_dir, metrics_interval=250.0, telemetry=True,
            artifact_dir=str(runs_dir), **overrides,
        )

    @pytest.mark.parametrize("ftl", ["page", "cube", "dftl"])
    def test_windowed_observers_compose_with_checkpoint_and_resume(
        self, tmp_path, ftl
    ):
        config = _config(False, None)
        plain = _run(config, ftl, tmp_path / "plain")
        straight = self._observed(
            config, ftl, tmp_path / "observed", tmp_path / "runs"
        )
        result = straight.stats.to_dict()
        assert len(result.pop("metrics")) > 3
        assert result == plain.stats.to_dict()
        assert straight.check["state_digest"] == plain.check["state_digest"]
        assert _state_bytes(tmp_path / "observed") == _state_bytes(
            tmp_path / "plain"
        )
        checkpoints = list_checkpoints(str(tmp_path / "observed"))
        assert len(checkpoints) == (REQUESTS - 1) // EVERY
        for index, checkpoint in enumerate(checkpoints):
            resumed = self._observed(
                config, ftl, tmp_path / "resumed",
                tmp_path / f"resumed-runs-{index}", resume_from=checkpoint,
            )
            assert _key(resumed) == _key(straight)
            assert resumed.metrics == straight.metrics
            assert resumed.telemetry == straight.telemetry
            for name in self.FILES:
                assert filecmp.cmp(
                    os.path.join(straight.artifact, name),
                    os.path.join(resumed.artifact, name),
                    shallow=False,
                ), name


class TestGcAndFlushHeavyBarriers:
    def test_tiny_segments_through_gc_pressure(self, tmp_path):
        """A near-full device with single-digit segments forces barrier
        instants right after GC bursts and mid-buffer-flush windows;
        every capture must still find the stack quiescent (the
        state_dict barrier assertions raise otherwise) and resume must
        stay byte-identical."""
        config = SSDConfig.small()
        straight = run_simulation(
            config, "OLTP", ftl="cube", n_requests=120, seed=3,
            prefill=0.9, check="on",
            checkpoint_every=7, checkpoint_dir=str(tmp_path / "s"),
        )
        checkpoints = list_checkpoints(str(tmp_path / "s"))
        assert len(checkpoints) == 17
        # resume from a mid-run checkpoint (GC has already fired by then)
        resumed = run_simulation(
            config, "OLTP", ftl="cube", n_requests=120, seed=3,
            prefill=0.9, check="on",
            resume_from=checkpoints[8], checkpoint_dir=str(tmp_path / "r"),
        )
        assert _key(resumed) == _key(straight)

    def test_non_quiescent_capture_is_refused(self):
        """Freezing the simulation mid-flight (in-flight programs or
        staged host writes) must be impossible: state_dict() raises
        instead of capturing a torn snapshot."""
        from repro.ssd.controller import SSDSimulation
        from repro.workloads import build_workload

        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.5)
        trace = build_workload("OLTP", config.logical_pages, 400, seed=11)
        engine = sim.controller.engine
        state = {"outstanding": 0}
        iterator = iter(trace.requests)

        def on_complete(active, now_us):
            state["outstanding"] -= 1
            issue_next()

        def issue_next():
            request = next(iterator, None)
            if request is None:
                return
            state["outstanding"] += 1
            sim.ftl.submit(request, on_complete)

        for _ in range(16):
            issue_next()
        caught = 0
        cursor = engine.now
        for _ in range(40):
            cursor += 200.0
            engine.run(until=cursor)
            if state["outstanding"] == 0:
                break
            try:
                sim.ftl.state_dict()
            except RuntimeError:
                caught += 1
        assert caught > 0, "never caught a non-quiescent instant"
