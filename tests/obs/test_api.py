"""The repro.api facade: the stable entry point every front end uses."""

import inspect

import pytest

import repro
from repro.api import SimulationResult, run_simulation, spec_from_kwargs
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.workloads.synthetic import uniform_random_trace

#: a value for each argument of the flat form but ``config``, and one FTL
#: constructor keyword; ``ftl`` is the spec's own FTL, so even an
#: argument that agrees with the spec is refused beside it
FLAT_ARGUMENTS = {
    "workload": "OLTP",
    "ftl": "cube",
    "queue_depth": 1,
    "warmup_requests": 1,
    "prefill": 0.0,
    "n_requests": 5,
    "seed": 3,
    "trace": "memory",
    "metrics_interval": 100.0,
    "telemetry": True,
    "profile": True,
    "max_events": 10,
    "check": "strict",
    "checkpoint_every": 10,
    "checkpoint_dir": "checkpoints",
    "resume_from": "checkpoints/ckpt_00000001",
    "artifact_dir": "runs",
    "cmt_capacity": 32,
}


class TestRunSimulation:
    def test_happy_path_by_name(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_simulation(
            config, "OLTP", ftl="cube", queue_depth=8, prefill=0.4,
            n_requests=200,
        )
        assert isinstance(result, SimulationResult)
        assert result.stats.completed_requests == 200
        assert result.iops == result.stats.iops > 0
        assert result.spans is None
        assert result.metrics is None
        assert result.trace_path is None

    def test_accepts_prebuilt_trace(self):
        config = SSDConfig.small(logical_fraction=0.4)
        workload = uniform_random_trace(
            config.logical_pages, 150, read_fraction=0.5, seed=3
        )
        result = run_simulation(
            config, workload, ftl="page", queue_depth=8, prefill=0.4
        )
        assert result.stats.completed_requests == 150
        assert result.stats.ftl_name == "pageFTL"

    def test_schema_version_2(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_simulation(
            config, "OLTP", ftl="cube", queue_depth=8, prefill=0.4,
            n_requests=100,
        )
        payload = result.to_dict()
        assert payload["schema_version"] == 2
        assert payload["read_latency"]["p999_us"] >= payload["read_latency"]["p99_us"]
        assert payload["read_latency"]["max_us"] >= payload["read_latency"]["p999_us"]
        assert payload["counters"]["vfy_skipped"] >= 0

    def test_memory_trace_and_metrics_together(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_simulation(
            config, "OLTP", ftl="cube", queue_depth=8, prefill=0.4,
            n_requests=100, trace="memory", metrics_interval=1000.0,
        )
        assert result.spans
        assert result.metrics
        assert result.to_dict()["metrics"][-1]["completed_requests"] == 100

    def test_jsonl_trace_written_and_closed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_simulation(
            config, "OLTP", ftl="cube", queue_depth=8, prefill=0.4,
            n_requests=50, trace=path,
        )
        assert result.trace_path == path
        assert result.spans is None
        with open(path) as handle:
            assert sum(1 for line in handle if line.strip()) > 50

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(SSDConfig.small(), "NoSuchWorkload", n_requests=10)

    def test_exported_from_package_root(self):
        assert repro.run_simulation is run_simulation
        assert repro.SimulationResult is SimulationResult


class TestSpecForm:
    """A spec is the whole run: any argument beside it is refused
    before anything runs, never silently dropped."""

    SPEC = SimulationSpec(
        config=SSDConfig.small(),
        workload=WorkloadSpec("OLTP", n_requests=20),
        host=HostSpec(queue_depth=8),
        prefill=0.2,
    )

    def test_every_flat_argument_is_covered(self):
        parameters = inspect.signature(spec_from_kwargs).parameters
        named = {
            name for name, parameter in parameters.items()
            if parameter.kind is not parameter.VAR_KEYWORD
        }
        assert set(FLAT_ARGUMENTS) - {"cmt_capacity"} == named - {"config"}

    @pytest.mark.parametrize("argument", sorted(FLAT_ARGUMENTS))
    def test_argument_beside_a_spec_is_refused(self, argument):
        with pytest.raises(TypeError, match="not both"):
            run_simulation(self.SPEC, **{argument: FLAT_ARGUMENTS[argument]})

    def test_positional_ftl_beside_a_spec_is_refused(self):
        with pytest.raises(TypeError, match="not both"):
            run_simulation(self.SPEC, None, "cube")
