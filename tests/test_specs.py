"""Tests for the frozen spec API (repro.specs)."""

import json

import pytest

from repro.specs import (
    SPEC_VERSION,
    HostSpec,
    RunOptions,
    SimulationSpec,
    SpecError,
    TenantSpec,
    WorkloadSpec,
    config_from_dict,
    config_to_dict,
    load_spec_file,
    validate_spec_dict,
)
from repro.ssd.config import SSDConfig


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(SpecError):
            WorkloadSpec("")
        with pytest.raises(SpecError):
            WorkloadSpec("OLTP", n_requests=0)

    def test_round_trip(self):
        spec = WorkloadSpec("Web", n_requests=500, seed=3,
                            params={"read_fraction": 0.5})
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_from_bare_string(self):
        assert WorkloadSpec.from_dict("OLTP") == WorkloadSpec("OLTP")

    def test_trace_scheme_detected(self):
        assert WorkloadSpec("trace:/tmp/t.csv").is_trace
        assert not WorkloadSpec("OLTP").is_trace

    def test_build_uses_registry(self):
        config = SSDConfig.small()
        trace = WorkloadSpec("OLTP", n_requests=50, seed=3).build(config)
        assert len(trace) == 50


class TestTenantSpec:
    def _workload(self):
        return WorkloadSpec("OLTP", n_requests=50)

    def test_validation(self):
        with pytest.raises(SpecError, match="rate_iops"):
            TenantSpec("t", self._workload(), rate_iops=0)
        with pytest.raises(SpecError, match="burstiness"):
            TenantSpec("t", self._workload(), rate_iops=10, burstiness=0.5)
        with pytest.raises(SpecError, match="partition"):
            TenantSpec("t", self._workload(), rate_iops=10,
                       partition=(0.5, 0.25))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("rate_iops", "rate_iops must be positive and finite"),
            ("rate_scale", "rate_scale must be positive and finite"),
            ("burstiness", "burstiness must be >= 1 and finite"),
        ],
    )
    def test_rates_must_be_finite(self, field, message, bad):
        kwargs = {"rate_iops": 10.0, field: bad}
        with pytest.raises(SpecError, match=f"tenant 't': {message}"):
            TenantSpec("t", self._workload(), **kwargs)

    def test_round_trip(self):
        spec = TenantSpec("t", self._workload(), rate_iops=1000,
                          rate_scale=2.0, partition=(0.0, 0.5), seed=9)
        assert TenantSpec.from_dict(spec.to_dict()) == spec

    def test_effective_rate(self):
        spec = TenantSpec("t", self._workload(), rate_iops=1000,
                          rate_scale=2.0)
        assert spec.effective_rate_iops == 2000


class TestHostSpec:
    def test_mode_selection(self):
        assert HostSpec().mode == "closed"
        assert HostSpec(rate_iops=1000).mode == "ncq"
        assert HostSpec(queue_depth=None, open_loop=True).mode == "unbounded"
        tenant = TenantSpec("t", WorkloadSpec("OLTP"), rate_iops=10)
        assert HostSpec(tenants=(tenant,)).mode == "ncq"

    def test_validation(self):
        with pytest.raises(SpecError):
            HostSpec(queue_depth=0)
        with pytest.raises(SpecError, match="open-loop"):
            HostSpec(queue_depth=None)
        tenant = TenantSpec("t", WorkloadSpec("OLTP"), rate_iops=10)
        with pytest.raises(SpecError, match="unique"):
            HostSpec(tenants=(tenant, tenant))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("rate_iops", "rate_iops must be positive and finite"),
            ("burstiness", "burstiness must be >= 1 and finite"),
        ],
    )
    def test_rates_must_be_finite(self, field, message, bad):
        with pytest.raises(SpecError, match=message):
            HostSpec(**{field: bad})

    def test_round_trip_with_tenants(self):
        tenants = (
            TenantSpec("a", WorkloadSpec("OLTP"), rate_iops=10),
            TenantSpec("b", WorkloadSpec("Web"), rate_iops=20),
        )
        spec = HostSpec(queue_depth=16, tenants=tenants)
        assert HostSpec.from_dict(spec.to_dict()) == spec


class TestSimulationSpec:
    def test_needs_exactly_one_stream_source(self):
        with pytest.raises(SpecError, match="workload or host.tenants"):
            SimulationSpec(workload=None)
        tenant = TenantSpec("t", WorkloadSpec("OLTP"), rate_iops=10)
        with pytest.raises(SpecError):
            SimulationSpec(workload="OLTP",
                           host=HostSpec(tenants=(tenant,)))

    def test_string_workload_coerced(self):
        spec = SimulationSpec(workload="OLTP")
        assert isinstance(spec.workload, WorkloadSpec)
        assert spec.workload_name == "OLTP"

    def test_round_trip_is_exact(self):
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("Mail", n_requests=300),
            ftl="vert",
            host=HostSpec(queue_depth=8, rate_iops=5000.0),
            warmup_requests=10,
            prefill=0.5,
            seed=42,
            options=RunOptions(telemetry=True, check="strict"),
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert SimulationSpec.from_dict(data) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            SimulationSpec.from_dict({"workload": "OLTP", "bogus": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(SpecError, match="spec_version"):
            SimulationSpec.from_dict(
                {"spec_version": SPEC_VERSION + 1, "workload": "OLTP"}
            )

    def test_with_options(self):
        spec = SimulationSpec(workload="OLTP")
        changed = spec.with_options(telemetry=True)
        assert changed.options.telemetry
        assert not spec.options.telemetry
        assert changed.workload == spec.workload

    def test_build_trace_stamps_rate(self):
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("OLTP", n_requests=40),
            host=HostSpec(rate_iops=10_000.0),
        )
        trace = spec.build_trace()
        assert trace.has_arrivals

    def test_build_trace_deterministic(self):
        spec = SimulationSpec(
            config=SSDConfig.small(),
            workload=WorkloadSpec("OLTP", n_requests=40),
            host=HostSpec(rate_iops=10_000.0),
        )
        one = [(r.op, r.lpn, r.arrival_us) for r in spec.build_trace()]
        two = [(r.op, r.lpn, r.arrival_us) for r in spec.build_trace()]
        assert one == two


class TestConfigDict:
    def test_round_trip_geometry_aging_faults(self):
        from repro.faults import get_campaign
        from repro.nand.reliability import AgingState

        config = (
            SSDConfig.small()
            .with_aging(AgingState(2000, 12.0))
            .with_faults(get_campaign("default"))
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert config_to_dict(rebuilt) == config_to_dict(config)
        assert rebuilt.logical_pages == config.logical_pages

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            config_from_dict({"warp_factor": 9})


class TestSpecFiles:
    def test_load_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"workload": "OLTP", "ftl": "page", "seed": 3}
        ))
        spec = load_spec_file(path)
        assert spec.ftl == "page"
        assert spec.seed == 3

    def test_load_toml(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841  (py3.11+)
        path = tmp_path / "spec.toml"
        path.write_text(
            'ftl = "cube"\nseed = 5\n\n[workload]\nname = "Web"\n'
            'n_requests = 100\n'
        )
        spec = load_spec_file(path)
        assert spec.workload_name == "Web"
        assert spec.seed == 5

    def test_bad_json_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="spec.json"):
            load_spec_file(path)

    def test_validate_spec_dict(self):
        assert validate_spec_dict({"workload": "OLTP"}) == []
        problems = validate_spec_dict({"workload": "OLTP", "bogus": 1})
        assert problems and "bogus" in problems[0]
