"""Run artifacts: content-addressable ids, byte-identity of repeated
runs, validation, and the artifacts-off metamorphic contract."""

import filecmp
import hashlib
import json
import os
import signal

import pytest

from repro.api import run_spec
from repro.obs.artifact import (
    load_artifact,
    run_fingerprint,
    run_id,
    validate_artifact,
    write_sweep_manifest,
)
from repro.specs import simulation_spec_from_dict


def _spec(seed=5, **options):
    spec = simulation_spec_from_dict({
        "spec_version": 1,
        "config": {"geometry": {"blocks_per_chip": 8}},
        "workload": {"name": "OLTP", "n_requests": 200},
        "ftl": "cube",
        "host": {"queue_depth": 8},
        "warmup_requests": 50,
        "prefill": 0.3,
        "seed": seed,
    })
    return spec.with_options(**options) if options else spec


@pytest.fixture(scope="module")
def artifact_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("artifacts")
    spec = _spec(artifact_dir=str(base))
    result = run_spec(spec)
    return spec, result


class TestRunId:
    def test_artifact_knobs_do_not_change_identity(self):
        plain = _spec()
        here = _spec(artifact_dir="/tmp/a")
        there = _spec(artifact_dir="/somewhere/else")
        assert run_id(plain) == run_id(here) == run_id(there)
        assert run_id(plain) == run_fingerprint(plain)[:16]

    def test_seed_is_part_of_identity(self):
        assert run_id(_spec(seed=5)) != run_id(_spec(seed=6))

    def test_cadence_is_part_of_identity(self):
        """``metrics_interval`` sets the time series' windows, so two
        cadences name two runs, and two sets of files."""
        assert run_id(_spec(metrics_interval=250.0)) != run_id(_spec())
        assert run_id(_spec(metrics_interval=250.0)) != run_id(
            _spec(metrics_interval=500.0)
        )

    def test_telemetry_does_not_depend_on_cadence(self, artifact_run, tmp_path):
        """Windows are not events, so the end-of-run telemetry -- event
        count and peak queue length included -- is the same at any
        cadence."""
        _, result = artifact_run
        fine = run_spec(
            _spec(artifact_dir=str(tmp_path), metrics_interval=250.0)
        )
        assert fine.artifact != result.artifact
        assert filecmp.cmp(
            os.path.join(result.artifact, "telemetry.json"),
            os.path.join(fine.artifact, "telemetry.json"),
            shallow=False,
        )
        windows = load_artifact(fine.artifact)["manifest"]["counts"]
        default = load_artifact(result.artifact)["manifest"]["counts"]
        assert windows["timeseries_windows"] > default["timeseries_windows"]


class TestWrittenArtifact:
    def test_result_points_at_a_valid_directory(self, artifact_run):
        spec, result = artifact_run
        assert result.artifact is not None
        assert os.path.basename(result.artifact) == run_id(spec)
        assert validate_artifact(result.artifact) == []

    def test_load_round_trips_the_stats(self, artifact_run):
        spec, result = artifact_run
        artifact = load_artifact(result.artifact)
        assert artifact["result"] == result.stats.to_dict()
        assert artifact["manifest"]["run_id"] == run_id(spec)
        assert artifact["timeseries"], "expected at least one window"
        assert artifact["exemplars"]["kinds"]

    def test_rerun_is_byte_identical(self, artifact_run, tmp_path):
        _, result = artifact_run
        again = run_spec(_spec(artifact_dir=str(tmp_path)))
        names = sorted(os.listdir(result.artifact))
        assert sorted(os.listdir(again.artifact)) == names
        match, mismatch, errors = filecmp.cmpfiles(
            result.artifact, again.artifact, names, shallow=False
        )
        assert (mismatch, errors) == ([], [])
        assert match == names

    def test_metamorphic_artifacts_off(self, artifact_run):
        _, with_artifacts = artifact_run
        plain = run_spec(_spec())
        assert plain.artifact is None
        assert plain.stats.to_dict() == with_artifacts.stats.to_dict()


class TestSweepManifest:
    def test_index_records_cells_relative_to_base(self, tmp_path):
        base = str(tmp_path)
        cell = os.path.join(base, "abcd1234abcd1234")
        os.mkdir(cell)
        index = write_sweep_manifest(
            base, {"qd8": cell, "qd16": None}, base_seed=5
        )
        with open(index) as handle:
            data = json.load(handle)
        assert data["kind"] == "sweep"
        assert data["base_seed"] == 5
        assert data["cells"] == {"qd8": "abcd1234abcd1234", "qd16": None}


class TestValidation:
    def test_tampered_result_is_reported(self, artifact_run, tmp_path):
        run = run_spec(_spec(artifact_dir=str(tmp_path)))
        result_path = os.path.join(run.artifact, "result.json")
        with open(result_path) as handle:
            doc = json.load(handle)
        doc["iops"] *= 0.5
        with open(result_path, "w") as handle:
            json.dump(doc, handle)
        problems = validate_artifact(run.artifact)
        assert problems
        assert any("result.json" in p for p in problems)

    def test_missing_directory_is_reported(self, tmp_path):
        problems = validate_artifact(str(tmp_path / "nope"))
        assert problems


def _rewrite_listed(run_dir, name, document):
    """Rewrite one listed file and its manifest entry, so validation
    gets past the hash check to the file's own checks."""
    path = os.path.join(run_dir, name)
    with open(path, "w") as handle:
        json.dump(document, handle)
    with open(path, "rb") as handle:
        blob = handle.read()
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["files"][name] = {
        "bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)


@pytest.mark.skipif(
    not hasattr(signal, "SIGPROF"), reason="SIGPROF sampling is POSIX-only"
)
class TestProfileFile:
    def test_profiled_artifact_validates(self, artifact_run, tmp_path):
        spec, plain = artifact_run
        run = run_spec(_spec(artifact_dir=str(tmp_path), profile=True))
        # profiling names the same run and writes the same deterministic
        # files, plus profile.json
        assert os.path.basename(run.artifact) == run_id(spec)
        names = sorted(os.listdir(plain.artifact))
        assert sorted(os.listdir(run.artifact)) == sorted(names + ["profile.json"])
        _, mismatch, _ = filecmp.cmpfiles(
            plain.artifact, run.artifact, names, shallow=False
        )
        assert mismatch == ["manifest.json"]
        assert load_artifact(run.artifact)["profile"] == run.profile
        assert validate_artifact(run.artifact) == []

    def test_negative_seconds_are_reported(self, tmp_path):
        run = run_spec(_spec(artifact_dir=str(tmp_path), profile=True))
        profile = dict(run.profile)
        profile["layers"] = dict(
            profile["layers"], **{"nand.chip": {"samples": 1, "seconds": -0.25}}
        )
        _rewrite_listed(run.artifact, "profile.json", profile)
        problems = validate_artifact(run.artifact)
        assert problems == [
            "profile.json: layers['nand.chip'].seconds is -0.25, "
            "not a non-negative number"
        ]
