"""Checkpoint container format: header + pickled component state.

A checkpoint is a *directory* named ``ckpt_<index:08d>`` holding

- ``header.json`` -- small, human-readable run identity: the checkpoint
  schema version, a fingerprint of the :class:`~repro.ssd.config.SSDConfig`,
  the run parameters a resume must reproduce (FTL, workload, seed,
  request count, queue depth, arrival process, checkpoint cadence), and
  where in the run the checkpoint was taken (segment index, completed
  requests, engine clock).
- ``state.pkl`` -- the pickled ``state_dict()`` tree of every stateful
  component (engine, chips, resources, FTL, injector, checker).
- ``observers.pkl`` -- optional: the pickled state of the run's
  observers (telemetry registry, time-series recorder, exemplar
  recorder), written only when the run had any.  It is kept out of
  ``state.pkl`` so that file's bytes do not depend on what watched the
  run.

The header is the compatibility surface: :func:`validate_header` is the
schema check (also exposed via ``tools/check_schema.py --checkpoint``)
and loading refuses any checkpoint whose ``schema_version`` differs from
:data:`CHECKPOINT_SCHEMA_VERSION` -- the versioning policy (bump on any
layout change, no cross-version migration; see docs/PERSISTENCE.md).

Writes are atomic: the directory is assembled under a temporary name in
the same parent and published with a single :func:`os.replace`, so a
checkpoint directory either exists completely or not at all -- a run
killed mid-write never leaves a half-checkpoint that a resume could
trip over.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
from typing import List, Optional, Tuple

from repro.ssd.config import SSDConfig

#: version stamp of the checkpoint layout (header keys + state.pkl
#: shape); bump on any change -- loads refuse mismatched versions
CHECKPOINT_SCHEMA_VERSION = 3

HEADER_NAME = "header.json"
STATE_NAME = "state.pkl"
OBSERVERS_NAME = "observers.pkl"

_CKPT_RE = re.compile(r"^ckpt_(\d{8})$")

#: header keys every checkpoint must carry, with their expected types
#: (``bool`` passes for none of them)
_HEADER_FIELDS = {
    "schema_version": int,
    "config_fingerprint": str,
    "ftl": str,
    "workload": str,
    "seed": int,
    "n_requests": int,
    "queue_depth": (int, type(None)),  # None: an unbounded host
    "host_mode": str,
    "rate_iops": (int, float, type(None)),
    "burstiness": (int, float),
    "tenants": list,
    "warmup_requests": int,
    "checkpoint_every": int,
    "check": (str, type(None)),
    "segment": int,
    "completed": int,
    "clock_us": (int, float),
}


class CheckpointError(ValueError):
    """A checkpoint is malformed, incompatible, or mismatched."""


def config_fingerprint(config: SSDConfig) -> str:
    """Stable digest of the full config (a frozen dataclass, so its
    ``repr`` enumerates every field recursively)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()


def checkpoint_name(index: int) -> str:
    return f"ckpt_{index:08d}"


def validate_header(header: dict) -> List[str]:
    """Schema-check one header dict; returns a list of problems
    (empty = valid).  Used by loads and ``check_schema.py``."""
    problems = []
    if not isinstance(header, dict):
        return [f"header is {type(header).__name__}, expected an object"]
    for key, expected in _HEADER_FIELDS.items():
        if key not in header:
            problems.append(f"missing key {key!r}")
            continue
        value = header[key]
        if not isinstance(value, expected) or isinstance(value, bool):
            problems.append(
                f"key {key!r} has type {type(value).__name__}"
            )
    if not problems and header["schema_version"] != CHECKPOINT_SCHEMA_VERSION:
        problems.append(
            f"schema_version {header['schema_version']} != "
            f"supported {CHECKPOINT_SCHEMA_VERSION}"
        )
    return problems


def write_checkpoint(
    parent_dir: str, header: dict, state: dict,
    observers: Optional[dict] = None,
) -> str:
    """Atomically publish ``ckpt_<segment>`` under ``parent_dir``, with
    ``observers.pkl`` when ``observers`` is given.

    Returns the final checkpoint path.  The temporary staging directory
    lives in the same parent so the final :func:`os.replace` stays on
    one filesystem.
    """
    problems = validate_header(header)
    if problems:
        raise CheckpointError(
            "refusing to write invalid header: " + "; ".join(problems)
        )
    os.makedirs(parent_dir, exist_ok=True)
    name = checkpoint_name(header["segment"])
    final_path = os.path.join(parent_dir, name)
    tmp_path = os.path.join(parent_dir, f".{name}.tmp")
    if os.path.exists(tmp_path):
        shutil.rmtree(tmp_path)
    os.makedirs(tmp_path)
    with open(os.path.join(tmp_path, HEADER_NAME), "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(tmp_path, STATE_NAME), "wb") as fh:
        pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
    if observers is not None:
        with open(os.path.join(tmp_path, OBSERVERS_NAME), "wb") as fh:
            pickle.dump(observers, fh, protocol=pickle.HIGHEST_PROTOCOL)
    if os.path.exists(final_path):
        shutil.rmtree(final_path)
    os.replace(tmp_path, final_path)
    return final_path


def read_header(checkpoint_path: str) -> dict:
    """Load and schema-check just the header of one checkpoint dir."""
    header_path = os.path.join(checkpoint_path, HEADER_NAME)
    if not os.path.isfile(header_path):
        raise CheckpointError(f"{checkpoint_path}: no {HEADER_NAME}")
    with open(header_path) as fh:
        header = json.load(fh)
    problems = validate_header(header)
    if problems:
        raise CheckpointError(
            f"{checkpoint_path}: invalid header: " + "; ".join(problems)
        )
    return header


def load_checkpoint(checkpoint_path: str) -> Tuple[dict, dict]:
    """Load one checkpoint directory -> ``(header, state)``."""
    header = read_header(checkpoint_path)
    state_path = os.path.join(checkpoint_path, STATE_NAME)
    if not os.path.isfile(state_path):
        raise CheckpointError(f"{checkpoint_path}: no {STATE_NAME}")
    with open(state_path, "rb") as fh:
        state = pickle.load(fh)
    return header, state


def load_observers(checkpoint_path: str) -> dict:
    """The observer state of one checkpoint dir (empty when it has none)."""
    path = os.path.join(checkpoint_path, OBSERVERS_NAME)
    if not os.path.isfile(path):
        return {}
    with open(path, "rb") as fh:
        return pickle.load(fh)


def list_checkpoints(parent_dir: str) -> List[str]:
    """All complete checkpoint dirs under ``parent_dir``, oldest first."""
    if not os.path.isdir(parent_dir):
        return []
    found = []
    for entry in sorted(os.listdir(parent_dir)):
        match = _CKPT_RE.match(entry)
        path = os.path.join(parent_dir, entry)
        if match and os.path.isfile(os.path.join(path, HEADER_NAME)):
            found.append(path)
    return found


def latest_checkpoint(parent_dir: str) -> Optional[str]:
    """The newest complete checkpoint under ``parent_dir``, or None."""
    found = list_checkpoints(parent_dir)
    return found[-1] if found else None
