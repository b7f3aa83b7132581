"""Durability for simulations: checkpoint/restore, SPOR, resumable sweeps.

Three independent layers (see docs/PERSISTENCE.md):

- **Checkpoint/restore** (:mod:`repro.persist.checkpoint`,
  :mod:`repro.persist.driver`): versioned on-disk snapshots of a running
  simulation at quiescent barriers, with byte-identical resume.  The
  run itself is :func:`repro.api.run_spec`'s, with checkpointing as the
  replay's barrier hook, so it composes with every host model, tracing,
  profiling, checking, telemetry, metrics sampling and run artifacts --
  surfaced as ``run_simulation(checkpoint_every=..., resume_from=...)``
  and ``repro-ssd simulate --checkpoint/--resume``.
- **SPOR** (:mod:`repro.persist.spor`): sudden-power-off injection at a
  simulated instant (a replay stopped there) plus OOB-based FTL
  recovery, verified end-to-end by the shadow-store oracle.
- **Resumable sweeps** (:mod:`repro.persist.manifest`): a manifest +
  per-shard result directory so an interrupted ``repro-ssd sweep``
  reruns only unfinished shards.
"""

from repro.persist.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_header,
    validate_header,
    write_checkpoint,
)
from repro.persist.driver import capture_state, restore_state
from repro.persist.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestMismatch,
    load_manifest,
    run_shards_resumable,
    shard_result_path,
    write_manifest,
)
from repro.persist.spor import SporReport, run_spor_campaign

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestMismatch",
    "SporReport",
    "capture_state",
    "config_fingerprint",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "load_manifest",
    "read_header",
    "restore_state",
    "run_shards_resumable",
    "run_spor_campaign",
    "shard_result_path",
    "validate_header",
    "write_checkpoint",
    "write_manifest",
]
