"""Tests for the command-line interface.

``golden/sweep_digests.json`` pins the SHA-256 of the ``--json`` files
two ``sweep`` runs write (one from flags, one from a ``--spec`` file)
and of the ``sweep.json`` index the second writes with ``--artifacts``.
Regenerate it only after an intentional model change::

    PYTHONPATH=src python tests/golden/regen_sweep_digests.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.cli import main

SPEC_SMOKE = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "spec_smoke.json"
)
SPEC_TENANTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "spec_tenants.json"
)
SWEEP_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "sweep_digests.json"
)
#: a flag sweep crossing every dimension: 3 FTLs x 2 workloads x 2
#: aging states x 2 fault campaigns
SWEEP_FLAGS = (
    "--ftls", "page,cube,dftl", "--workloads", "OLTP,Mail",
    "--aging", "0:0", "2000:12", "--faults", "none", "heavy",
    "--requests", "150", "--warmup", "20", "--blocks-per-chip", "8",
    "--prefill", "0.3", "--queue-depth", "8", "--jobs", "1",
)
#: a spec-file sweep with telemetry: 2 FTLs x 2 aging states
SWEEP_SPEC = (
    "--spec", SPEC_SMOKE, "--ftls", "page,cube", "--aging", "0:0",
    "2000:12", "--telemetry", "--jobs", "1",
)


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def sweep_digests():
    """The digest of each pinned sweep output, by case name."""
    with tempfile.TemporaryDirectory() as tmp:
        flags = os.path.join(tmp, "flags.json")
        spec = os.path.join(tmp, "spec.json")
        artifacts = os.path.join(tmp, "runs")
        assert main(["sweep", *SWEEP_FLAGS, "--json", flags]) == 0
        assert main(
            ["sweep", *SWEEP_SPEC, "--json", spec, "--artifacts", artifacts]
        ) == 0
        return {
            "flags": _sha256(flags),
            "spec": _sha256(spec),
            "spec-index": _sha256(os.path.join(artifacts, "sweep.json")),
        }


class TestCharacterize:
    def test_runs_and_prints_metrics(self, capsys):
        exit_code = main(["characterize", "--chips", "1", "--blocks", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Delta-H" in out
        assert "Delta-V" in out


class TestSimulate:
    def test_small_simulation(self, capsys):
        exit_code = main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "300", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cubeFTL" in out
        assert "IOPS" in out
        assert "tPROG" in out

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "bogus"])

    def test_bad_ftl_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--ftl", "bogus"])

    def test_telemetry_and_profile_flags(self, capsys):
        exit_code = main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "200", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--telemetry", "--profile",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "die busy time" in out
        header = ["layer", "samples", "CPU s", "share"]  # the profile table
        assert any(
            [cell.strip() for cell in line.split("|")] == header
            for line in out.splitlines()
        )

    def test_telemetry_embedded_in_json(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "out.json")
        exit_code = main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "200", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--telemetry", "--json", path,
        ])
        assert exit_code == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == 2
        assert "chip_busy_us" in payload["telemetry"]

    def test_json_without_telemetry_has_no_extra_key(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "out.json")
        main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "200", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--json", path,
        ])
        with open(path) as handle:
            assert "telemetry" not in json.load(handle)

    def test_fault_report_routed_through_structured_log(self, capsys):
        exit_code = main([
            "--log-level", "info",
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "400", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--faults", "heavy",
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        # the old ad-hoc multi-line report ("recovery: N program fails,
        # ...") is gone from stdout; the one-line stats summary remains
        assert "program fails" not in captured.out
        from repro.obs.log import parse_line

        events = [
            parsed
            for parsed in map(parse_line, captured.err.splitlines())
            if parsed is not None
        ]
        assert any(parsed["event"] == "fault_recovery" for parsed in events)

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "chatty", "simulate"])


class TestSimulateSpec:
    def test_run_option_flags_apply_to_a_spec_file(self, tmp_path, capsys):
        """--trace and --metrics-interval reach a --spec run: the trace
        is written and its breakdown and timeline are printed."""
        trace = tmp_path / "spec.jsonl"
        exit_code = main([
            "simulate", "--spec", SPEC_SMOKE,
            "--trace", str(trace), "--metrics-interval", "500",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert trace.stat().st_size > 0
        assert f"trace written to {trace}" in out
        assert "stage group" in out  # the breakdown table header
        assert "IOPS per interval" in out


#: each command's flat flags, which describe the run and so are refused
#: beside --spec, with a value for each
FLAT_FLAGS = [
    ("simulate", "--ftl", "dftl"),
    ("simulate", "--workload", "Mail"),
    ("simulate", "--pe", "2000"),
    ("simulate", "--retention", "12"),
    ("simulate", "--faults", "heavy"),
    ("simulate", "--requests", "50"),
    ("simulate", "--warmup", "10"),
    ("simulate", "--queue-depth", "4"),
    ("simulate", "--blocks-per-chip", "8"),
    ("simulate", "--prefill", "0.3"),
    ("simulate", "--seed", "3"),
    ("simulate", "--cmt-capacity", "16"),
    ("sweep", "--workloads", "Mail"),
    ("sweep", "--requests", "50"),
    ("sweep", "--warmup", "10"),
    ("sweep", "--queue-depth", "4"),
    ("sweep", "--blocks-per-chip", "8"),
    ("sweep", "--prefill", "0.3"),
    ("tenants", "--requests-per-tenant", "50"),
    ("tenants", "--rate", "5000"),
    ("tenants", "--ftl", "page"),
    ("tenants", "--queue-depth", "4"),
    ("tenants", "--blocks-per-chip", "8"),
    ("tenants", "--prefill", "0.3"),
    ("tenants", "--seed", "3"),
]

#: the flags each command keeps beside --spec: run options, and the
#: sweep's dimensions and base seed
SPEC_COMPANIONS = {
    "simulate": ["--telemetry", "--check", "--checkpoint-every", "100"],
    "sweep": [
        "--ftls", "page", "--aging", "0:0", "--faults", "none",
        "--jobs", "1", "--seed", "3",
    ],
    "tenants": ["--jobs", "1"],
}


class TestFlatFlagsBesideSpec:
    @pytest.fixture
    def no_runs(self, monkeypatch):
        """A run that starts fails the test: the refusal comes first."""

        def run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("repro.cli.run_spec", run)
        monkeypatch.setattr("repro.api.run_many", run)
        monkeypatch.setattr("repro.api.run_tenant_scenario", run)

    @pytest.mark.parametrize(
        "command, flag, value", FLAT_FLAGS,
        ids=[f"{command}{flag}" for command, flag, _ in FLAT_FLAGS],
    )
    def test_refused_by_name(self, no_runs, command, flag, value):
        """The flag is named and refused; the companion flags are not."""
        spec = SPEC_TENANTS if command == "tenants" else SPEC_SMOKE
        argv = [command, "--spec", spec, *SPEC_COMPANIONS[command], flag, value]
        with pytest.raises(SystemExit) as refusal:
            main(argv)
        assert str(refusal.value.code).startswith(
            f"{flag} cannot be combined with --spec"
        )


class TestCompare:
    def test_three_ftl_comparison(self, capsys):
        exit_code = main([
            "compare", "--workload", "Mail",
            "--requests", "300", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        for name in ("pageFTL", "vertFTL", "cubeFTL", "dftl"):
            assert name in out


class TestSweep:
    @pytest.fixture(scope="class")
    def pinned(self):
        with open(SWEEP_GOLDEN) as handle:
            return json.load(handle), sweep_digests()

    @pytest.mark.parametrize("case", ["flags", "spec", "spec-index"])
    def test_output_matches_golden(self, pinned, case):
        golden, current = pinned
        assert current[case] == golden[case]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
