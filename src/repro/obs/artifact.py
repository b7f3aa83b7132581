"""Persistent, content-addressable run artifacts.

A *run artifact* is a self-contained directory capturing everything a
seeded run produced, laid out as::

    <artifact_dir>/<run_id>/
        manifest.json     typed index: schema version, run id, spec
                          fingerprint, per-file byte counts + SHA-256,
                          summary counts
        spec.json         the resolved SimulationSpec (``artifact_dir``
                          and ``profile`` stripped -- see below)
        result.json       SimulationStats.to_dict() (results schema v2)
        latency.json      101-point quantile tables per op type
        timeseries.jsonl  delta-compressed telemetry windows
                          (repro.obs.timeseries)
        telemetry.json    end-of-run registry snapshot
        exemplars.json    tail + typical request exemplars with
                          histogram tail-bucket links
                          (repro.obs.exemplars)
        profile.json      optional: host CPU time per layer (sampled;
                          host-dependent, excluded from byte-identity)
        check.json        optional: invariant-checker report

The ``run_id`` is the first 16 hex digits of the SHA-256 over the
canonical JSON of the spec dict -- seed and ``metrics_interval`` (the
time series' cadence) included, ``artifact_dir`` and ``profile``
excluded, so *where* you store the artifact, and whether host time was
sampled, never change *which* run it names.  Identical spec+seed therefore
always maps to the same directory with byte-identical deterministic
files (everything except ``profile.json`` / ``check.json`` is
wall-clock free), which is what makes results content-addressable for
caching and for the future job server.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.obs.profile import validate_profile

ARTIFACT_SCHEMA_VERSION = 1

#: files every valid artifact must carry
REQUIRED_FILES = ("spec.json", "result.json", "latency.json")

#: quantile grid for latency.json (p0, p1, ..., p100)
QUANTILE_GRID = tuple(range(101))


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _stripped_spec_dict(spec) -> dict:
    """Spec dict without ``artifact_dir`` and ``profile``: they locate
    the artifact or sample host time, not part of the run's identity."""
    data = spec.to_dict()
    options = dict(data.get("options", {}))
    options.pop("artifact_dir", None)
    options.pop("profile", None)
    if options:
        data["options"] = options
    else:
        data.pop("options", None)
    return data


def run_fingerprint(spec) -> str:
    """Full SHA-256 hex over the canonical artifact-knob-stripped spec."""
    blob = _canonical(_stripped_spec_dict(spec))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_id(spec) -> str:
    """Content-addressable run name: first 16 hex of the fingerprint."""
    return run_fingerprint(spec)[:16]


def _quantile_table(latency) -> dict:
    return {
        "count": len(latency),
        "quantiles_us": [latency.percentile(p) for p in QUANTILE_GRID],
    }


def _write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _file_entry(path: str) -> dict:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"bytes": size, "sha256": digest.hexdigest()}


def write_artifact(
    base_dir: str,
    spec,
    stats,
    *,
    timeseries=None,
    exemplars=None,
    telemetry: Optional[dict] = None,
    profile: Optional[dict] = None,
    check: Optional[dict] = None,
) -> str:
    """Write ``<base_dir>/<run_id>/`` and return its path.

    ``timeseries`` is a :class:`~repro.obs.timeseries.TimeSeriesRecorder`
    (already finalized), ``exemplars`` an
    :class:`~repro.obs.exemplars.ExemplarRecorder`, ``telemetry`` a
    registry snapshot dict.  An existing directory for the same run id
    is overwritten file-by-file: identical spec+seed produces identical
    bytes, so the overwrite is a no-op in content terms.
    """
    from repro.obs.exemplars import link_tail_buckets

    rid = run_id(spec)
    run_dir = os.path.join(base_dir, rid)
    os.makedirs(run_dir, exist_ok=True)

    files: Dict[str, dict] = {}

    def emit(name: str, writer) -> None:
        path = os.path.join(run_dir, name)
        writer(path)
        files[name] = _file_entry(path)

    emit("spec.json", lambda p: _write_json(p, _stripped_spec_dict(spec)))
    emit("result.json", lambda p: _write_json(p, stats.to_dict()))
    emit(
        "latency.json",
        lambda p: _write_json(
            p,
            {
                "read": _quantile_table(stats.read_latency),
                "write": _quantile_table(stats.write_latency),
            },
        ),
    )

    records = []
    if timeseries is not None:
        records = timeseries.records

        def write_jsonl(path: str) -> None:
            with open(path, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True))
                    handle.write("\n")

        emit("timeseries.jsonl", write_jsonl)

    if telemetry is not None:
        emit("telemetry.json", lambda p: _write_json(p, telemetry))

    exemplar_count = 0
    if exemplars is not None:
        document = exemplars.to_dict()
        thresholds = {}
        for kind, latency in (
            ("read", stats.read_latency),
            ("write", stats.write_latency),
        ):
            if kind in document["kinds"] and len(latency):
                thresholds[kind] = {
                    "p90_us": latency.percentile(90),
                    "p99_us": latency.percentile(99),
                    "p999_us": latency.percentile(99.9),
                    "max_us": latency.max_us,
                }
        document["tail_links"] = link_tail_buckets(document, thresholds)
        exemplar_count = sum(
            len(kind["slowest"]) + len(kind["typical"])
            for kind in document["kinds"].values()
        )
        emit("exemplars.json", lambda p: _write_json(p, document))

    if profile is not None:
        emit("profile.json", lambda p: _write_json(p, profile))
    if check is not None:
        emit("check.json", lambda p: _write_json(p, check))

    manifest = {
        "artifact_schema_version": ARTIFACT_SCHEMA_VERSION,
        "run_id": rid,
        "fingerprint": run_fingerprint(spec),
        "seed": spec.seed,
        "ftl": spec.ftl,
        "workload": spec.workload_name,
        "files": {name: files[name] for name in sorted(files)},
        "counts": {
            "completed_requests": stats.completed_requests,
            "timeseries_windows": len(records),
            "exemplars": exemplar_count,
        },
    }
    _write_json(os.path.join(run_dir, "manifest.json"), manifest)
    return run_dir


def load_artifact(run_dir: str) -> dict:
    """Load every file of an artifact; optional files load as ``None``."""

    def read_json(name: str):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            return None
        with open(path) as handle:
            return json.load(handle)

    manifest = read_json("manifest.json")
    if manifest is None:
        raise FileNotFoundError(f"{run_dir} has no manifest.json")
    timeseries = None
    jsonl = os.path.join(run_dir, "timeseries.jsonl")
    if os.path.isfile(jsonl):
        with open(jsonl) as handle:
            timeseries = [json.loads(line) for line in handle if line.strip()]
    return {
        "path": run_dir,
        "manifest": manifest,
        "spec": read_json("spec.json"),
        "result": read_json("result.json"),
        "latency": read_json("latency.json"),
        "timeseries": timeseries,
        "telemetry": read_json("telemetry.json"),
        "exemplars": read_json("exemplars.json"),
        "profile": read_json("profile.json"),
        "check": read_json("check.json"),
    }


def validate_artifact(run_dir: str) -> List[str]:
    """Schema-check one artifact directory; returns problems (empty =
    valid).  Used by ``tools/check_schema.py --run-artifact``."""
    problems: List[str] = []
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        return [f"{run_dir}: missing manifest.json"]
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except ValueError as error:
        return [f"{run_dir}: manifest.json is not valid JSON: {error}"]

    version = manifest.get("artifact_schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        problems.append(
            f"artifact_schema_version is {version!r}, "
            f"expected {ARTIFACT_SCHEMA_VERSION}"
        )
    for key in ("run_id", "fingerprint", "seed", "files", "counts"):
        if key not in manifest:
            problems.append(f"manifest.json missing key {key!r}")
    if problems:
        return problems

    if manifest["run_id"] != manifest["fingerprint"][:16]:
        problems.append("run_id does not match fingerprint prefix")
    basename = os.path.basename(os.path.normpath(run_dir))
    if basename != manifest["run_id"]:
        problems.append(
            f"directory name {basename!r} does not match "
            f"run_id {manifest['run_id']!r}"
        )

    files = manifest["files"]
    for name in REQUIRED_FILES:
        if name not in files:
            problems.append(f"manifest.json does not list required {name}")
    for name, entry in sorted(files.items()):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            problems.append(f"listed file {name} is missing")
            continue
        actual = _file_entry(path)
        if actual["bytes"] != entry.get("bytes"):
            problems.append(
                f"{name}: size {actual['bytes']} != manifest "
                f"{entry.get('bytes')}"
            )
        if actual["sha256"] != entry.get("sha256"):
            problems.append(f"{name}: sha256 mismatch against manifest")
    if problems:
        return problems

    spec_path = os.path.join(run_dir, "spec.json")
    if os.path.isfile(spec_path):
        from repro.specs import validate_spec_dict

        with open(spec_path) as handle:
            spec_data = json.load(handle)
        problems += [f"spec.json: {p}" for p in validate_spec_dict(spec_data)]
        fingerprint = hashlib.sha256(
            _canonical(spec_data).encode("utf-8")
        ).hexdigest()
        if fingerprint != manifest["fingerprint"]:
            problems.append("spec.json does not hash to manifest fingerprint")

    result_path = os.path.join(run_dir, "result.json")
    if os.path.isfile(result_path):
        with open(result_path) as handle:
            result = json.load(handle)
        for key in ("schema_version", "iops", "read_latency", "write_latency"):
            if key not in result:
                problems.append(f"result.json missing key {key!r}")

    if "profile.json" in files:
        with open(os.path.join(run_dir, "profile.json")) as handle:
            profile = json.load(handle)
        problems += [f"profile.json: {p}" for p in validate_profile(profile)]
    return problems


def write_sweep_manifest(
    base_dir: str, cells: Dict[str, Optional[str]], base_seed: int
) -> str:
    """Index the per-cell artifacts of one sweep/batch under its tree.

    ``cells`` maps cell name to the cell's artifact directory (``None``
    for failed cells).  Paths are stored relative to ``base_dir`` so the
    tree relocates cleanly.
    """
    relative = {}
    for name in sorted(cells):
        path = cells[name]
        relative[name] = (
            os.path.relpath(path, base_dir) if path is not None else None
        )
    manifest = {
        "artifact_schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": "sweep",
        "base_seed": base_seed,
        "cells": relative,
    }
    path = os.path.join(base_dir, "sweep.json")
    os.makedirs(base_dir, exist_ok=True)
    _write_json(path, manifest)
    return path
