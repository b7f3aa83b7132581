"""Segmented checkpoint/resume driver for :func:`repro.api.run_simulation`.

Checkpointing is the barrier hook of the host replay loop,
:func:`repro.ssd.host.replay` with ``segment_requests=`` and
``on_barrier=``: the trace is replayed ``checkpoint_every`` host
requests at a time, each segment runs to full event-queue drain, and the
drained instant between segments is where every component's
``state_dict()`` is captured -- no in-flight programs, no pending host
writes, no active GC, empty FIFO queues.  The component ``state_dict()``
methods *assert* that quiescence, so a checkpoint can never silently
capture a half-finished operation.

Resume builds a fresh simulation (skipping prefill -- the chips' full
media state is in the checkpoint), loads every component, and continues
the remaining segments with the carried-over accounting
(``resume_accounting=``).  Because both the straight-through
checkpointing run and the resumed run drain at the same request
boundaries, they replay the identical event sequence: results and
``state_digest`` are byte-identical (the resume-equivalence property
pinned by ``tests/persist``).

The segment drains themselves are a (deterministic) scheduling change
relative to an un-segmented run, so resume equivalence is defined
between checkpoint-enabled runs; a checkpoint-*off* run stays
bit-identical to builds without this module entirely.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional, Union

from repro.persist.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    load_checkpoint,
    write_checkpoint,
)
from repro.specs import SimulationSpec, SpecError, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload
from repro.workloads.base import Trace


def _build_workload_arg(
    workload: Union[str, Trace, WorkloadSpec],
    config: SSDConfig,
    n_requests: int,
    seed: int,
) -> Trace:
    """Materialize a checkpointable workload argument.

    Accepts the legacy name / pre-built-trace forms plus a
    :class:`~repro.specs.WorkloadSpec` (the spec-form path through
    :func:`repro.api.run_spec`).
    """
    if isinstance(workload, WorkloadSpec):
        return workload.build(config, default_seed=seed)
    if isinstance(workload, str):
        return build_workload(workload, config.logical_pages, n_requests, seed=seed)
    return workload


def capture_state(sim: SSDSimulation, accounting: dict) -> dict:
    """One quiescent-barrier snapshot of every stateful component.

    Must be called with the engine fully drained; the component
    ``state_dict()`` implementations raise otherwise.
    """
    controller = sim.controller
    return {
        "engine": controller.engine.state_dict(),
        "chips": [chip.state_dict() for chip in controller.chips],
        "chip_resources": [
            res.state_dict() for res in controller._chip_resources
        ],
        "bus_resources": [
            res.state_dict() for res in controller._bus_resources
        ],
        "ftl": sim.ftl.state_dict(),
        "injector": (
            controller.faults.state_dict()
            if controller.faults is not None
            else None
        ),
        "checker": (
            sim.checker.state_dict() if sim.checker is not None else None
        ),
        "accounting": accounting,
    }


def restore_state(sim: SSDSimulation, state: dict) -> None:
    """Load a :func:`capture_state` snapshot into a freshly built,
    *unprefilled* simulation.  Wiring (observers, telemetry hooks,
    report callbacks) is whatever the fresh build attached; only state
    is replaced."""
    controller = sim.controller
    controller.engine.load_state_dict(state["engine"])
    for chip, chip_state in zip(controller.chips, state["chips"]):
        chip.load_state_dict(chip_state)
    for res, res_state in zip(
        controller._chip_resources, state["chip_resources"]
    ):
        res.load_state_dict(res_state)
    for res, res_state in zip(
        controller._bus_resources, state["bus_resources"]
    ):
        res.load_state_dict(res_state)
    sim.ftl.load_state_dict(state["ftl"])
    if state["injector"] is not None:
        if controller.faults is None:
            raise CheckpointError(
                "checkpoint carries fault-injector state but the config "
                "has no fault campaign"
            )
        controller.faults.load_state_dict(state["injector"])
    if state["checker"] is not None and sim.checker is not None:
        sim.checker.load_state_dict(state["checker"])


def _replay_checkpointed(
    sim, trace, base_header, out_dir, resume_accounting=None
):
    """Replay ``trace`` closed-loop in ``checkpoint_every``-request
    segments, writing one checkpoint at every barrier."""
    every = base_header["checkpoint_every"]

    def on_barrier(accounting: dict) -> None:
        header = dict(base_header)
        header["segment"] = accounting["completed"] // every
        header["completed"] = accounting["completed"]
        header["clock_us"] = float(sim.controller.engine.now)
        write_checkpoint(out_dir, header, capture_state(sim, accounting))

    return replay(
        sim,
        trace,
        queue_depth=base_header["queue_depth"],
        warmup_requests=base_header["warmup_requests"],
        segment_requests=every,
        on_barrier=on_barrier,
        resume_accounting=resume_accounting,
    )


def check_level_of(check) -> Optional[str]:
    """Normalize a ``check=`` argument to its level string (or None).

    Checkpoint headers persist the *level*, not the config object, so a
    resumed run rebuilds the checker through
    :func:`repro.check.parse_check_level`.
    """
    if check is None or check is False:
        return None
    if check is True:
        return "on"
    if isinstance(check, str):
        return check
    level = getattr(check, "level", None)
    if not isinstance(level, str):
        raise ValueError(
            "checkpointing supports check=None/True/'on'/'strict' or a "
            "CheckConfig with a level attribute"
        )
    return level


def _build_sim(config, ftl, check_level, registry, ftl_kwargs, context):
    from repro.check import InvariantChecker, parse_check_level

    checker = None
    check_config = parse_check_level(check_level)
    if check_config is not None:
        if not config.store_tags:
            config = replace(config, store_tags=True)
        checker = InvariantChecker(check_config)
        checker.context.update(check=check_config.level, **context)
    sim = SSDSimulation(
        config, ftl=ftl, telemetry=registry, checker=checker, **ftl_kwargs
    )
    return sim, checker


def run_checkpointed(
    config: SSDConfig,
    workload: Union[str, Trace, WorkloadSpec],
    ftl: str = "cube",
    *,
    queue_depth: int = 32,
    warmup_requests: int = 0,
    prefill: float = 0.9,
    n_requests: int = 8000,
    seed: int = 7,
    telemetry: bool = False,
    check=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    spec: Optional[SimulationSpec] = None,
    **ftl_kwargs,
):
    """Run one simulation with checkpointing and/or from a checkpoint.

    With ``resume_from=None``: a fresh run that writes one checkpoint
    directory under ``checkpoint_dir`` after every ``checkpoint_every``
    completed host requests (never after the final segment -- the run's
    result *is* the final state).

    With ``resume_from=PATH``: rebuild from that checkpoint and run the
    remaining requests.  The header is authoritative for ``queue_depth``,
    ``warmup_requests``, ``checkpoint_every`` and the check level (they
    must match the original run for resume equivalence); ``config``,
    ``ftl``, ``workload``, ``seed`` and ``n_requests`` must match the
    header and are validated.  Further checkpoints continue into
    ``checkpoint_dir`` (default: the directory containing
    ``resume_from``).  ``**ftl_kwargs`` are not persisted and must be
    re-passed verbatim.

    ``spec`` (when the call came through :func:`repro.api.run_spec`) is
    embedded in every checkpoint header under the ``"spec"`` key, so a
    checkpoint directory is self-describing: ``repro-ssd simulate
    --spec`` can resume it without re-stating the run parameters.
    """
    from repro.api import SimulationResult
    from repro.obs.registry import TelemetryRegistry

    if resume_from is not None:
        return _resume(
            config,
            workload,
            ftl,
            n_requests=n_requests,
            seed=seed,
            telemetry=telemetry,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
            ftl_kwargs=ftl_kwargs,
        )

    if checkpoint_every is None or checkpoint_every < 1:
        raise ValueError("checkpoint_every must be an integer >= 1")
    if checkpoint_dir is None:
        raise ValueError("checkpoint_dir is required when checkpointing")
    check_level = check_level_of(check)
    trace = _build_workload_arg(workload, config, n_requests, seed)
    registry = TelemetryRegistry() if telemetry else None
    context = {
        "ftl": ftl,
        "workload": trace.name,
        "seed": seed,
    }
    sim, checker = _build_sim(
        config, ftl, check_level, registry, ftl_kwargs, context
    )
    if prefill > 0:
        sim.prefill(prefill)
    base_header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_fingerprint": config_fingerprint(config),
        "ftl": ftl,
        "workload": trace.name,
        "seed": seed,
        "n_requests": len(trace),
        "queue_depth": queue_depth,
        "warmup_requests": warmup_requests,
        "checkpoint_every": checkpoint_every,
        "check": check_level,
    }
    if spec is not None:
        try:
            base_header["spec"] = spec.to_dict()
        except SpecError:
            # in-code constructions (pre-built Trace, custom timing or
            # campaign objects) have no file form; the header simply
            # stays spec-less as it was before the spec API existed
            pass

    stats = _replay_checkpointed(sim, trace, base_header, checkpoint_dir)
    check_report = checker.finalize() if checker is not None else None
    return SimulationResult(
        stats=stats,
        telemetry=registry.snapshot() if registry is not None else None,
        check=check_report,
    )


def _resume(
    config: SSDConfig,
    workload: Union[str, Trace, WorkloadSpec],
    ftl: str,
    *,
    n_requests: int,
    seed: int,
    telemetry: bool,
    checkpoint_dir: Optional[str],
    resume_from: str,
    ftl_kwargs: dict,
):
    from repro.api import SimulationResult

    if telemetry:
        raise ValueError(
            "telemetry is not supported on resume (registry collectors "
            "are not serializable); re-run straight-through instead"
        )
    header, state = load_checkpoint(resume_from)
    fingerprint = config_fingerprint(config)
    if header["config_fingerprint"] != fingerprint:
        raise CheckpointError(
            f"{resume_from}: config fingerprint mismatch "
            f"(checkpoint {header['config_fingerprint'][:12]}..., "
            f"passed config {fingerprint[:12]}...)"
        )
    if header["ftl"] != ftl:
        raise CheckpointError(
            f"{resume_from}: checkpoint is for ftl={header['ftl']!r}, "
            f"got {ftl!r}"
        )
    if isinstance(workload, (str, WorkloadSpec)):
        if seed != header["seed"]:
            raise CheckpointError(
                f"{resume_from}: checkpoint seed {header['seed']} != "
                f"passed seed {seed}"
            )
        if isinstance(workload, WorkloadSpec):
            trace = workload.build(config, default_seed=header["seed"])
        else:
            trace = build_workload(
                workload,
                config.logical_pages,
                header["n_requests"],
                seed=header["seed"],
            )
    else:
        trace = workload
    if trace.name != header["workload"] or len(trace) != header["n_requests"]:
        raise CheckpointError(
            f"{resume_from}: checkpoint is for workload "
            f"{header['workload']!r} x {header['n_requests']}, got "
            f"{trace.name!r} x {len(trace)}"
        )
    out_dir = checkpoint_dir or os.path.dirname(os.path.abspath(resume_from))
    context = {
        "ftl": ftl,
        "workload": trace.name,
        "seed": header["seed"],
    }
    sim, checker = _build_sim(
        config, ftl, header["check"], None, ftl_kwargs, context
    )
    # no prefill: the checkpoint carries the full media state
    restore_state(sim, state)
    base_header = {
        key: header[key]
        for key in header
        if key not in ("segment", "completed", "clock_us")
    }
    stats = _replay_checkpointed(
        sim, trace, base_header, out_dir, state["accounting"]
    )
    check_report = checker.finalize() if checker is not None else None
    return SimulationResult(stats=stats, check=check_report)
