"""Parallel experiment execution: shard, isolate, merge, reproduce.

The package splits an experiment batch (benchmark cases, fault
campaigns, parameter sweeps) into named shards, runs them across worker
processes with per-shard crash isolation, and merges the results into
exactly what a serial run would have produced:

- :mod:`~repro.parallel.seeds` -- the fixed seed-derivation rule
  (``derive_seed``): a shard's seed depends only on the base seed and
  the shard's name.
- :mod:`~repro.parallel.runner` -- ``run_shards``: one process per
  in-flight shard, a dying worker yields a failed outcome instead of
  killing the batch, outcomes always return in input order.
- :mod:`~repro.parallel.merge` -- ``merge_snapshots``: fold per-shard
  telemetry registries into one combined snapshot.
- :mod:`~repro.parallel.experiments` -- ``RunSpec``: a name, a
  :class:`~repro.specs.SimulationSpec` and an optional pinned seed,
  one picklable run for :func:`repro.api.run_many`.
- :mod:`~repro.parallel.progress` -- the process-wide live-progress
  sink: running shards stream ``completed``/``total``/``sim_us``
  heartbeats back over their result pipes for the CLI status line.

Together these give the reproducibility contract stated in the docs:
the merged output of a sharded run is bit-for-bit identical for any
worker count and any completion order.
"""

from repro.parallel.experiments import (
    RunSpec,
    execute_run_spec,
    resolve_seed,
    specs_to_shards,
)
from repro.parallel.merge import merge_snapshots
from repro.parallel.progress import (
    get_progress_sink,
    make_progress_hook,
    set_progress_sink,
)
from repro.parallel.runner import (
    ShardOutcome,
    ShardSpec,
    ShardsInterrupted,
    run_shards,
)
from repro.parallel.seeds import derive_seed

__all__ = [
    "RunSpec",
    "ShardOutcome",
    "ShardSpec",
    "ShardsInterrupted",
    "derive_seed",
    "execute_run_spec",
    "get_progress_sink",
    "make_progress_hook",
    "merge_snapshots",
    "resolve_seed",
    "run_shards",
    "set_progress_sink",
    "specs_to_shards",
]
