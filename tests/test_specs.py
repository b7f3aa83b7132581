"""Tests for the frozen spec API (repro.specs).

``golden/spec_forms.json`` pins the file form of specs that together
set every field of every spec class, of three configs and of partial
config dicts, and the message each malformed spec dict is refused with
(:func:`spec_forms`).  A spec's file form names its run (the artifact
run id hashes it, checkpoint headers carry it), so the golden changes
only with ``SPEC_VERSION``::

    PYTHONPATH=src python tests/golden/regen_spec_forms.py
"""

import json
import os
from dataclasses import fields, replace

import pytest

from repro.check import CheckConfig
from repro.faults import get_campaign
from repro.faults.campaign import FaultCampaign
from repro.nand.reliability import AgingState
from repro.nand.timing import NandTiming
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
from repro.workloads import WORKLOAD_GENERATORS

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
SPEC_FORMS_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "spec_forms.json"
)

#: three configs: the default, a small aged device under a named fault
#: campaign, and the paper-scale device with every scalar field moved
CONFIGS = {
    "default": SSDConfig(),
    "small-aged-faulted": (
        SSDConfig.small()
        .with_aging(AgingState(2000, 12.0))
        .with_faults(get_campaign("default"))
    ),
    "every-scalar": SSDConfig.paper_scale(
        buffer_capacity_pages=48,
        buffer_read_us=7.5,
        mu_threshold=0.8,
        active_blocks_per_chip=3,
        max_inflight_programs=4,
        gc_trigger_blocks=6,
        wear_aware_allocation=False,
        gc_min_invalid_fraction=0.1,
        logical_fraction=0.7,
        aging=AgingState(1000, 3.0),
        env_shift_prob=1e-3,
        store_tags=True,
        store_oob=True,
        seed=9,
        faults=get_campaign("heavy"),
        read_recovery_attempts=3,
        scrub_margin_threshold=0.2,
    ),
}

#: specs that together set every field of every spec class
SPECS = {
    "defaults": SimulationSpec(workload="OLTP"),
    "closed-every-field": SimulationSpec(
        workload=WorkloadSpec("zipf", n_requests=1234, seed=5,
                              params={"theta": 1.2}),
        ftl="dftl",
        host=HostSpec(queue_depth=4, rate_iops=5000.0, burstiness=2.0),
        options=RunOptions(
            trace="spans.jsonl",
            metrics_interval=250.0,
            telemetry=True,
            profile=True,
            check="strict",
            max_events=10**6,
            checkpoint_every=100,
            checkpoint_dir="ckpts",
            resume_from="ckpts/ckpt_00000001",
            artifact_dir="runs",
        ),
        warmup_requests=10,
        prefill=0.5,
        seed=42,
        ftl_kwargs={"cmt_capacity": 16},
    ),
    "unbounded-trace": SimulationSpec(
        config=CONFIGS["small-aged-faulted"],
        workload=WorkloadSpec(
            "trace:examples/sample_blocktrace.csv",
            params={"time_unit": "us"},
        ),
        ftl="cube-",
        host=HostSpec(queue_depth=None, open_loop=True),
        options=RunOptions(check=True),
    ),
    "tenants": SimulationSpec(
        config=CONFIGS["every-scalar"],
        ftl="page",
        host=HostSpec(
            queue_depth=16,
            open_loop=True,
            tenants=(
                TenantSpec("a", WorkloadSpec("OLTP", n_requests=400),
                           rate_iops=1000.0, rate_scale=2.0, burstiness=1.5,
                           partition=(0.0, 0.5), seed=3),
                TenantSpec("b", WorkloadSpec("Web"), rate_iops=2000.0),
            ),
        ),
        options=RunOptions(check=CheckConfig.strict()),
        seed=11,
    ),
    "check-config-on": SimulationSpec(
        workload=WorkloadSpec("Mail", n_requests=300, seed=0),
        options=RunOptions(check=CheckConfig(), metrics_interval=500.0),
        prefill=0.0,
    ),
    "check-false": SimulationSpec(
        workload="Rocks", options=RunOptions(check=False), seed=0,
    ),
}

#: partial config dicts: every key is optional, nested ones included
PARTIAL_CONFIGS = {
    "empty": {},
    "blocks-only": {"geometry": {"blocks_per_chip": 16}},
    "channels-only": {"geometry": {"n_channels": 1}},
    "block-only": {"geometry": {"block": {"n_layers": 8, "pages_per_wl": 2}}},
    "pe-only": {"aging": {"pe_cycles": 1000}},
    "retention-only": {"aging": {"retention_months": 6.0}},
    "faults-none": {"faults": "none", "seed": 0},
    "faults-heavy": {"faults": "heavy", "mu_threshold": 0.5},
}

#: malformed config dicts, each refused inside an otherwise valid spec
MALFORMED_CONFIGS = {
    "unknown-key": {"bogus": 1},
    "unknown-keys": {"zeta": 2, "bogus": 1},
    "timing": {"timing": {"t_pgm_us": 40.0}},
    "geometry-unknown-key": {"geometry": {"n_dies": 2}},
    "block-unknown-key": {"geometry": {"block": {"planes": 2}}},
    "aging-unknown-key": {"aging": {"temperature": 85}},
    "unknown-campaign": {"faults": "meltdown"},
    "out-of-domain": {"mu_threshold": 7},
    "block-out-of-domain": {"geometry": {"block": {"n_layers": 0}}},
    "aging-out-of-domain": {"aging": {"pe_cycles": -1}},
    "buffer-below-wl": {"buffer_capacity_pages": 2},
}

_TENANT = {"name": "a", "workload": "OLTP", "rate_iops": 1000.0}

#: malformed spec dicts
MALFORMED_SPECS = {
    "unknown-key": {"workload": "OLTP", "bogus": 1},
    "wrong-version": {"spec_version": SPEC_VERSION + 1, "workload": "OLTP"},
    "unknown-key-before-version": {
        "spec_version": SPEC_VERSION + 1, "workload": "OLTP", "bogus": 1,
    },
    "no-stream": {},
    "workload-and-tenants": {
        "workload": "OLTP", "host": {"tenants": [_TENANT]},
    },
    "workload-missing-name": {"workload": {"n_requests": 5}},
    "workload-unknown-key": {"workload": {"name": "OLTP", "size": 3}},
    "workload-no-requests": {"workload": {"name": "OLTP", "n_requests": 0}},
    "workload-empty-name": {"workload": ""},
    "negative-warmup": {"workload": "OLTP", "warmup_requests": -1},
    "prefill-above-one": {"workload": "OLTP", "prefill": 1.5},
    "host-unknown-key": {"workload": "OLTP", "host": {"depth": 8}},
    "host-zero-depth": {"workload": "OLTP", "host": {"queue_depth": 0}},
    "host-unbounded-closed": {"workload": "OLTP", "host": {"queue_depth": None}},
    "host-burstiness": {"workload": "OLTP", "host": {"burstiness": 0.5}},
    "tenant-missing-name": {"host": {"tenants": [{}]}},
    "tenant-missing-rate": {
        "host": {"tenants": [{"name": "a", "workload": "OLTP"}]},
    },
    "tenant-unknown-key": {"host": {"tenants": [{**_TENANT, "weight": 2}]}},
    "tenant-partition": {
        "host": {"tenants": [{**_TENANT, "partition": [0.5, 0.25]}]},
    },
    "tenant-duplicate-names": {"host": {"tenants": [_TENANT, _TENANT]}},
    "tenant-workload-missing-name": {
        "host": {"tenants": [{**_TENANT, "workload": {"n_requests": 5}}]},
    },
    "options-unknown-key": {"workload": "OLTP", "options": {"verbose": True}},
    "options-interval": {
        "workload": "OLTP", "options": {"metrics_interval": -1.0},
    },
}


def _unserializable():
    """Specs that have no file form: custom NAND timing, an unnamed fault
    campaign, a pre-built trace."""
    trace = WorkloadSpec("OLTP", n_requests=10, seed=1).build(SSDConfig.small())
    return {
        "custom-timing": SimulationSpec(
            config=SSDConfig(timing=NandTiming(t_pgm_us=40.0)),
            workload="OLTP",
        ),
        "unnamed-campaign": SimulationSpec(
            config=SSDConfig(faults=FaultCampaign(name="mine",
                                                  program_fail_prob=0.01)),
            workload="OLTP",
        ),
        "prebuilt-trace": SimulationSpec(workload=trace),
    }


def _refusal(spec) -> str:
    with pytest.raises(SpecError) as refused:
        spec.to_dict()
    return str(refused.value)


def spec_forms() -> dict:
    """Each pinned file form and refusal message, by section and case."""
    examples = {
        name: load_spec_file(os.path.join(EXAMPLES, name)).to_dict()
        for name in ("spec_smoke.json", "spec_tenants.json")
    }
    return {
        "specs": {name: spec.to_dict() for name, spec in SPECS.items()},
        "examples": examples,
        "configs": {
            name: config_to_dict(config) for name, config in CONFIGS.items()
        },
        "partial_configs": {
            name: config_to_dict(config_from_dict(data))
            for name, data in PARTIAL_CONFIGS.items()
        },
        "malformed_configs": {
            name: validate_spec_dict({"workload": "OLTP", "config": data})
            for name, data in MALFORMED_CONFIGS.items()
        },
        "malformed_specs": {
            name: validate_spec_dict(data)
            for name, data in MALFORMED_SPECS.items()
        },
        "unserializable": {
            name: _refusal(spec) for name, spec in _unserializable().items()
        },
    }


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

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(SSDConfig) if f.name != "timing"]
    )
    def test_every_field_names_the_run(self, name):
        """A config differing in any one field a spec file carries has
        another file form, so another run id."""
        value = getattr(CONFIGS["every-scalar"], name)
        assert value != getattr(SSDConfig(), name)
        moved = replace(SSDConfig(), **{name: value})
        assert config_to_dict(moved) != config_to_dict(SSDConfig())
        assert config_from_dict(config_to_dict(moved)) == moved


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

    def test_non_object_named(self):
        assert validate_spec_dict({"workload": 5}) == [
            "workload: expected an object, got int"
        ]


class TestNamesAtLoad:
    """A spec file naming an FTL, check level or workload that the run
    would refuse is refused when it loads."""

    @pytest.mark.parametrize(
        "data, value",
        [
            ({"workload": "OLTP", "ftl": "bogus"}, "'bogus'"),
            ({"workload": "OLTP", "options": {"check": "paranoid"}},
             "'paranoid'"),
            ({"workload": "NOPE"}, "'NOPE'"),
            ({"workload": {"name": "NOPE", "n_requests": 10}}, "'NOPE'"),
            ({"host": {"tenants": [{**_TENANT, "workload": "NOPE"}]}},
             "'NOPE'"),
        ],
        ids=["ftl", "check", "workload", "workload-object", "tenant"],
    )
    def test_refused(self, data, value):
        [problem] = validate_spec_dict(data)
        assert value in problem

    @pytest.mark.parametrize(
        "ftl",
        ["page", "vert", "cube", "cube-", "oracle", "dftl", "pageftl",
         "vertftl", "cubeftl", "cubeftl-", "oracleftl", "VERT", "cubeFTL"],
    )
    def test_every_ftl_name_a_run_takes(self, ftl):
        assert validate_spec_dict({"workload": "OLTP", "ftl": ftl}) == []

    @pytest.mark.parametrize("check", ["off", "on", "strict", True, False, None])
    def test_every_check_level(self, check):
        data = {"workload": "OLTP", "options": {"check": check}}
        assert validate_spec_dict(data) == []

    @pytest.mark.parametrize(
        "workload", [*sorted(WORKLOAD_GENERATORS), "trace:runs/t.csv"]
    )
    def test_every_workload(self, workload):
        assert validate_spec_dict({"workload": workload}) == []


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


class TestSpecForms:
    """Every file form and refusal stays what the golden pins."""

    @pytest.fixture(scope="class")
    def pinned(self):
        with open(SPEC_FORMS_GOLDEN) as handle:
            return json.load(handle), spec_forms()

    @pytest.mark.parametrize(
        "section",
        ["specs", "examples", "configs", "partial_configs",
         "malformed_configs", "malformed_specs", "unserializable"],
    )
    def test_matches_golden(self, pinned, section):
        golden, current = pinned
        assert current[section] == golden[section]
        # the bytes a run id hashes: an int written as a float differs
        assert _canonical(current[section]) == _canonical(golden[section])

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_round_trip(self, name):
        data = json.loads(json.dumps(SPECS[name].to_dict()))
        assert SimulationSpec.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_config_round_trip(self, name):
        data = config_to_dict(CONFIGS[name])
        assert config_from_dict(data) == CONFIGS[name]
