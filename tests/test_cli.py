"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main

SPEC_SMOKE = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "spec_smoke.json"
)


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


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
