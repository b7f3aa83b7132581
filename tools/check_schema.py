#!/usr/bin/env python
"""Validate a ``repro-ssd simulate --json`` result file (schema v2),
optionally a ``--trace`` JSONL span file, a checkpoint directory's
headers (``--checkpoint``, see ``docs/PERSISTENCE.md``), a
SimulationSpec file (``--spec``, see ``docs/WORKLOADS.md``), and/or a
run-artifact directory written with ``--artifacts``
(``--run-artifact``, see ``docs/OBSERVABILITY.md``).

Used by the CI smoke steps to catch schema drift and tiling-contract
regressions on a tiny simulation::

    python tools/check_schema.py out.json --trace trace.jsonl
    PYTHONPATH=src python tools/check_schema.py --checkpoint /tmp/ckpts
    PYTHONPATH=src python tools/check_schema.py --run-artifact runs/<run_id>

Exits nonzero with a list of problems on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

REQUIRED_TOP_LEVEL = [
    "schema_version",
    "ftl",
    "workload",
    "duration_us",
    "completed_requests",
    "iops",
    "read_latency",
    "write_latency",
    "counters",
]

REQUIRED_LATENCY_KEYS = [
    "count",
    "mean_us",
    "p50_us",
    "p90_us",
    "p99_us",
    "p999_us",
    "max_us",
]

#: every counter the typed serialization must emit, with its type
REQUIRED_COUNTERS = {
    "host_read_pages": int,
    "host_write_pages": int,
    "buffer_read_hits": int,
    "flash_reads": int,
    "flash_programs": int,
    "leader_programs": int,
    "follower_programs": int,
    "gc_reads": int,
    "gc_programs": int,
    "erases": int,
    "retired_blocks": int,
    "reprograms": int,
    "read_retries": int,
    "retried_reads": int,
    "vfy_skipped": int,
    "program_time_us": (int, float),
    "read_time_us": (int, float),
    "mean_t_prog_us": (int, float),
    "mean_num_retry": (int, float),
}

#: device instruments a ``--telemetry`` result must carry
REQUIRED_INSTRUMENTS = ["ftl_counter", "chip_busy_us", "nand_ops"]


def check_stats(document: dict) -> List[str]:
    errors: List[str] = []
    for key in REQUIRED_TOP_LEVEL:
        if key not in document:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if document["schema_version"] != 2:
        errors.append(
            f"schema_version is {document['schema_version']!r}, expected 2"
        )
    for block_name in ("read_latency", "write_latency"):
        block = document[block_name]
        for key in REQUIRED_LATENCY_KEYS:
            if key not in block:
                errors.append(f"{block_name} missing {key!r}")
    counters = document["counters"]
    for key, expected_type in REQUIRED_COUNTERS.items():
        if key not in counters:
            errors.append(f"counters missing {key!r}")
        elif not isinstance(counters[key], expected_type):
            errors.append(
                f"counters[{key!r}] is {type(counters[key]).__name__}, "
                f"expected {expected_type}"
            )
    if "metrics" in document:
        if not isinstance(document["metrics"], list):
            errors.append("metrics must be a list of samples")
        elif document["metrics"]:
            sample = document["metrics"][0]
            for key in ("t_us", "completed_requests", "buffer_utilization"):
                if key not in sample:
                    errors.append(f"metrics sample missing {key!r}")
    if "telemetry" in document:
        telemetry = document["telemetry"]
        if not isinstance(telemetry, dict):
            errors.append("telemetry must be a registry snapshot object")
        else:
            for instrument in REQUIRED_INSTRUMENTS:
                if instrument not in telemetry:
                    errors.append(
                        f"telemetry missing instrument {instrument!r}"
                    )
    return errors


def check_checkpoint(path: str) -> List[str]:
    """Validate a checkpoint directory's header against the persist
    schema (``repro.persist.validate_header``).

    ``path`` may be one ``ckpt_<n>`` directory or a parent directory
    holding several; every checkpoint found is validated.
    """
    # imported lazily: needs PYTHONPATH=src, like the trace check
    import os

    from repro.persist import (
        CheckpointError,
        list_checkpoints,
        read_header,
        validate_header,
    )

    if os.path.isfile(os.path.join(path, "header.json")):
        targets = [path]
    else:
        targets = list_checkpoints(path)
    if not targets:
        return [f"{path}: no checkpoints found"]
    errors: List[str] = []
    for target in targets:
        try:
            header = read_header(target)
        except (CheckpointError, OSError, json.JSONDecodeError) as exc:
            errors.append(f"{target}: unreadable header: {exc}")
            continue
        errors += [f"{target}: {problem}" for problem in validate_header(header)]
    return errors


def check_spec(path: str) -> List[str]:
    """Validate a ``--spec`` file (JSON/TOML :class:`SimulationSpec`)."""
    # imported lazily: needs PYTHONPATH=src, like the trace check
    from repro.specs import SpecError, load_spec_file, validate_spec_dict

    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            return [f"{path}: TOML specs need Python >= 3.11 (no tomllib)"]
        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                return [f"{path}: unparseable TOML: {exc}"]
    else:
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                return [f"{path}: unparseable JSON: {exc}"]
    problems = [f"{path}: {problem}" for problem in validate_spec_dict(data)]
    if problems:
        return problems
    # the structural pass said OK -- the full load must agree
    try:
        load_spec_file(path)
    except SpecError as exc:
        return [f"{path}: loads failed after validation passed: {exc}"]
    return []


def check_run_artifact(path: str) -> List[str]:
    """Validate one run-artifact directory (manifest hashes, spec
    round-trip, result schema) via ``repro.obs.artifact``."""
    # imported lazily: needs PYTHONPATH=src, like the trace check
    from repro.obs.artifact import validate_artifact

    return validate_artifact(path)


def check_trace(path: str) -> List[str]:
    # imported lazily: the stats check must work without PYTHONPATH=src
    from repro.obs.analyze import validate_trace
    from repro.obs.trace import Span

    spans = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                return [f"{path}:{line_no}: unparseable span: {exc}"]
    if not spans:
        return [f"{path}: no spans recorded"]
    return validate_trace(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "stats_json", nargs="?", default=None,
        help="simulate --json output file",
    )
    parser.add_argument(
        "--trace", default=None, help="simulate --trace JSONL file to validate"
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint directory (one ckpt_<n> or a parent of several) "
        "whose header(s) to validate against the persist schema",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="SimulationSpec file (JSON/TOML) to validate against the "
        "spec schema",
    )
    parser.add_argument(
        "--run-artifact",
        default=None,
        dest="run_artifact",
        help="run-artifact directory (runs/<run_id>, written with "
        "--artifacts) to validate against the artifact schema",
    )
    args = parser.parse_args(argv)
    if (
        args.stats_json is None
        and args.checkpoint is None
        and args.spec is None
        and args.run_artifact is None
    ):
        parser.error(
            "give a stats_json file, --checkpoint, --spec, "
            "and/or --run-artifact"
        )

    errors: List[str] = []
    document = None
    if args.stats_json is not None:
        with open(args.stats_json) as handle:
            document = json.load(handle)
        errors += check_stats(document)
    if args.trace is not None:
        errors += check_trace(args.trace)
    if args.checkpoint is not None:
        errors += check_checkpoint(args.checkpoint)
    if args.spec is not None:
        errors += check_spec(args.spec)
    if args.run_artifact is not None:
        errors += [
            f"{args.run_artifact}: {error}"
            for error in check_run_artifact(args.run_artifact)
        ]
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    if document is not None:
        n_spans = "-"
        if args.trace is not None:
            with open(args.trace) as handle:
                n_spans = sum(1 for line in handle if line.strip())
        print(
            f"OK: schema v{document['schema_version']}, "
            f"{document['completed_requests']} requests, {n_spans} spans"
        )
    if args.checkpoint is not None:
        print(f"OK: checkpoint header(s) valid under {args.checkpoint}")
    if args.spec is not None:
        print(f"OK: spec {args.spec} valid")
    if args.run_artifact is not None:
        print(f"OK: run artifact {args.run_artifact} valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
