"""Checkpoint state and headers for segmented runs of
:func:`repro.api.run_spec`.

A checkpointed run is an ordinary ``run_spec`` run whose replay
(:func:`repro.ssd.host.replay`) is segmented: the trace is replayed
``checkpoint_every`` host requests at a time, each segment runs to full
event-queue drain, and :func:`checkpoint_hook` is the ``on_barrier``
hook that writes a checkpoint at the drained instant between segments.
There every component's ``state_dict()`` is captured -- no in-flight
programs, no pending host writes, no active GC, empty FIFO queues.  The
component ``state_dict()`` methods *assert* that quiescence, so a
checkpoint can never silently capture a half-finished operation.

A resumed run takes the same path: :func:`checkpoint_plan` loads the
checkpoint and checks its header against the spec, the simulation is
built with every observer the spec asks for, :func:`restore_state`
takes the place of prefill, :func:`restore_observers` carries the
observers' state on, and the replay continues with the carried-over
accounting (``resume_accounting=``).  The observers' state (telemetry
registry, time-series recorder, exemplar recorder) goes into its own
optional file (:func:`capture_observers`), so ``state.pkl`` holds the
same bytes whatever watched the run.  Because both the
straight-through checkpointing run and the resumed run drain at the
same request boundaries, they replay the identical event sequence:
results and ``state_digest`` are byte-identical (the resume-equivalence
property pinned by ``tests/persist``).

The segment drains themselves are a (deterministic) scheduling change
relative to an un-segmented run, so resume equivalence is defined
between checkpoint-enabled runs; a checkpoint-*off* run stays
bit-identical to builds without this module entirely.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional, Tuple

from repro.persist.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    load_checkpoint,
    load_observers,
    write_checkpoint,
)
from repro.specs import SimulationSpec, SpecError, check_level_name
from repro.ssd.controller import SSDSimulation
from repro.workloads.base import Trace

#: header keys that record where in the run a checkpoint was taken
_PROGRESS_KEYS = ("segment", "completed", "clock_us")


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


def _observers(sim: SSDSimulation) -> dict:
    """The run's observers that carry state across a checkpoint, by
    name; an absent observer is ``None``."""
    tracer = sim.controller.tracer
    return {
        "telemetry": sim.telemetry,
        "timeseries": sim.timeseries,
        "exemplars": tracer.exemplars if tracer is not None else None,
    }


def capture_observers(sim: SSDSimulation) -> Optional[dict]:
    """The observers' ``state_dict()`` by name, or ``None`` when the run
    has none (its checkpoints then carry no observer file)."""
    states = {
        name: observer.state_dict()
        for name, observer in _observers(sim).items()
        if observer is not None
    }
    return states or None


def restore_observers(sim: SSDSimulation, state: dict) -> None:
    """Load :func:`capture_observers` state into the observers ``sim``
    was built with (:func:`checkpoint_plan` has checked it is there)."""
    for name, observer in _observers(sim).items():
        if observer is not None:
            observer.load_state_dict(state[name])


#: the run options whose observers a resume needs checkpointed state
#: for, each with the observers it attaches
_OBSERVING_OPTIONS = (
    ("telemetry", ("telemetry",)),
    ("metrics_interval", ("telemetry", "timeseries")),
    ("artifact_dir", ("telemetry", "timeseries", "exemplars")),
)


def _check_observers(observers: dict, spec: SimulationSpec, path: str) -> None:
    """Raise :class:`CheckpointError` unless the checkpoint at ``path``
    carries the state of every observer the resume asks for, at the
    same time-series cadence."""
    options = spec.options
    missing = [
        option
        for option, needs in _OBSERVING_OPTIONS
        if getattr(options, option) not in (None, False)
        and any(observers.get(name) is None for name in needs)
    ]
    if missing:
        raise CheckpointError(
            f"{path}: the checkpoint carries no observer state for "
            f"{', '.join(missing)} (the run that wrote it had no such "
            "observer); resume without it, or re-run straight through"
        )
    interval = options.window_us
    saved = observers.get("timeseries", {}).get("interval_us")
    if interval is not None and interval != saved:
        raise CheckpointError(
            f"{path}: metrics_interval {interval} differs from the "
            f"checkpointed recorder's window of {saved} us"
        )


def _identity(spec: SimulationSpec, trace: Trace) -> dict:
    """The header keys a resume must match -- device, FTL, workload,
    seed and arrival process -- as ``header.json`` holds them.  The
    fingerprint is of ``spec.config`` as given, before a checker forces
    ``store_tags`` on."""
    host = spec.host
    return json.loads(json.dumps({
        "config_fingerprint": config_fingerprint(spec.config),
        "ftl": spec.ftl,
        "workload": trace.name,
        "seed": spec.seed,
        "n_requests": len(trace),
        "host_mode": host.mode,
        "rate_iops": host.rate_iops,
        "burstiness": host.burstiness,
        "tenants": [tenant.to_dict() for tenant in host.tenants],
    }))


def _new_header(spec: SimulationSpec, trace: Trace) -> dict:
    """The run identity and parameters every checkpoint of a fresh run
    carries."""
    options = spec.options
    if options.checkpoint_every is None or options.checkpoint_every < 1:
        raise ValueError("checkpoint_every must be an integer >= 1")
    if options.checkpoint_dir is None:
        raise ValueError("checkpoint_dir is required when checkpointing")
    header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        **_identity(spec, trace),
        "queue_depth": spec.host.queue_depth,
        "warmup_requests": spec.warmup_requests,
        "checkpoint_every": options.checkpoint_every,
        # the level, not a CheckConfig: a resume rebuilds the checker
        # through repro.check.parse_check_level
        "check": check_level_name(options.check),
    }
    try:
        # a self-describing checkpoint: `repro-ssd simulate --spec` can
        # resume it without re-stating the run parameters
        header["spec"] = spec.to_dict()
    except SpecError:
        # in-code constructions (pre-built Trace, custom timing or
        # campaign objects) have no file form; the header stays spec-less
        pass
    return header


def _check_header(
    header: dict, spec: SimulationSpec, trace: Trace, path: str
) -> None:
    """Raise :class:`CheckpointError` unless the checkpoint at ``path``
    was taken by a run of the same :func:`_identity`.  The trace was
    built from the resuming spec, so other arrivals would replay
    silently."""
    passed = _identity(spec, trace)
    # a pre-built trace carries its own stream; the seed only names a
    # generated one
    if isinstance(spec.workload, Trace):
        del passed["seed"]
    differ = [
        f"{key} (checkpoint {header[key]!r}, passed {value!r})"
        for key, value in passed.items()
        if header[key] != value
    ]
    if differ:
        raise CheckpointError(
            f"{path}: checkpoint is of another run: {'; '.join(differ)}"
        )


def checkpoint_plan(
    spec: SimulationSpec, trace: Trace
) -> Tuple[dict, str, Optional[dict], Optional[dict]]:
    """What a checkpointed or resumed run of ``spec`` needs:
    ``(header, out_dir, state, observers)``.

    ``header`` holds the run parameters every checkpoint records; on
    resume it is the loaded one, authoritative for ``queue_depth``,
    ``warmup_requests``, ``checkpoint_every`` and the check level.
    ``out_dir`` is where checkpoints go (on resume by default the
    directory holding ``resume_from``).  ``state`` is the snapshot to
    restore in place of prefill and ``observers`` the observer state,
    both ``None`` on a fresh run.  A resume whose observers the
    checkpoint holds no state for is refused here, by run option.
    """
    options = spec.options
    if options.resume_from is None:
        return _new_header(spec, trace), options.checkpoint_dir, None, None
    path = options.resume_from
    header, state = load_checkpoint(path)
    _check_header(header, spec, trace, path)
    observers = load_observers(path)
    _check_observers(observers, spec, path)
    out_dir = options.checkpoint_dir or os.path.dirname(os.path.abspath(path))
    return header, out_dir, state, observers


def checkpoint_hook(
    sim: SSDSimulation, header: dict, out_dir: str
) -> Callable[[dict], None]:
    """The replay ``on_barrier`` hook: write one checkpoint of ``sim``
    under ``out_dir`` at every barrier, stamped with ``header`` plus
    the barrier's progress."""
    base = {
        key: value for key, value in header.items()
        if key not in _PROGRESS_KEYS
    }
    every = base["checkpoint_every"]

    def on_barrier(accounting: dict) -> None:
        stamped = dict(base)
        stamped["segment"] = accounting["completed"] // every
        stamped["completed"] = accounting["completed"]
        stamped["clock_us"] = float(sim.controller.engine.now)
        write_checkpoint(
            out_dir, stamped, capture_state(sim, accounting),
            capture_observers(sim),
        )

    return on_barrier
