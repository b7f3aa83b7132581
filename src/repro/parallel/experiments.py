"""Experiment-level shard specs for the parallel runner.

:class:`RunSpec` names one simulation run (a benchmark case, one cell of
a parameter sweep, one fault campaign): a name, a
:class:`~repro.specs.SimulationSpec`, and an optional pinned seed, all
of which pickle into a worker process; :func:`execute_run_spec` is the
module-level worker the runner invokes.  :func:`specs_to_shards` turns
RunSpecs into :class:`~repro.parallel.runner.ShardSpec` items, resolving
each spec's seed through the fixed derivation rule when the spec does
not pin one:

    spec.seed if spec.seed is not None else derive_seed(base_seed, spec.name)

Seeds therefore depend only on (base_seed, name) -- never on worker
count or shard-to-worker assignment -- which is what makes sweep results
bit-for-bit reproducible under any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.parallel.runner import ShardSpec
from repro.parallel.seeds import derive_seed
from repro.specs import SimulationSpec


@dataclass(frozen=True)
class RunSpec:
    """One named simulation run: ``spec`` with its seed replaced by the
    shard's resolved seed.

    ``seed=None`` (the default) means "derive from the base seed and my
    name"; pin an explicit seed to opt out (the benchmark harness does,
    to stay comparable with its committed baselines).  Telemetry, an
    artifact directory and every other run option ride on
    ``spec.options``.
    """

    name: str
    spec: SimulationSpec
    seed: Optional[int] = None


def execute_run_spec(spec: RunSpec, seed: int):
    """Worker entry point: run one spec, return its SimulationResult."""
    from repro.api import run_spec

    return run_spec(replace(spec.spec, seed=seed))


def resolve_seed(spec: RunSpec, base_seed: int) -> int:
    """The seed a spec runs with (pinned, or derived from its name)."""
    return spec.seed if spec.seed is not None else derive_seed(base_seed, spec.name)


def specs_to_shards(
    specs: Sequence[RunSpec], base_seed: int
) -> "list[ShardSpec]":
    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate RunSpec names {duplicates}: the name is the shard's "
            "seed-derivation identity, so it must be unique per run"
        )
    return [
        ShardSpec(
            name=spec.name,
            fn=execute_run_spec,
            kwargs={"spec": spec, "seed": resolve_seed(spec, base_seed)},
        )
        for spec in specs
    ]
