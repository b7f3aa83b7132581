"""Stable high-level entry point: configure, run, observe.

:func:`run_simulation` is the one call every front end goes through
(CLI, benchmarks, examples, notebooks): it builds the SSD, prefills it,
replays a workload, and optionally attaches the :mod:`repro.obs`
tracer, telemetry registry and time-series recorder.  Everything it
returns is packed into a :class:`SimulationResult`, so callers never
reach into the simulation objects themselves -- the facade is the
compatibility surface; the internals behind it are free to move.

Two call forms, verified byte-identical by the golden-trace suite:

- **Spec form** (preferred): pass one
  :class:`~repro.specs.SimulationSpec` --

      spec = SimulationSpec(config=SSDConfig(), workload="OLTP",
                            ftl="cube", seed=7)
      result = run_simulation(spec)

- **Kwarg form** (back-compat shim): the historical flat signature --

      result = run_simulation(SSDConfig(), "OLTP", ftl="cube",
                              n_requests=2000, trace="memory")

  It simply builds the equivalent spec (:func:`spec_from_kwargs`) and
  runs it.

Multi-tenant scenarios, NCQ replay, and trace-file workloads are only
reachable through the spec form (they do not fit flat kwargs -- that is
why the spec API exists).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import process_time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import RunSpec

from repro.obs.profile import sampling
from repro.obs.registry import TelemetryRegistry
from repro.obs.timeseries import TimeSeriesRecorder, metrics_samples
from repro.obs.trace import InMemorySink, JsonlSink, Span, Tracer
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.stats import SimulationStats
from repro.workloads.base import Trace


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    stats: SimulationStats
    #: recorded spans when ``trace="memory"`` was requested, else None
    spans: Optional[List[Span]] = None
    #: metrics timeline when ``metrics_interval`` was set, else None
    #: (:func:`repro.obs.timeseries.metrics_samples`)
    metrics: Optional[List[dict]] = None
    #: path of the written JSONL trace when ``trace`` was a path
    trace_path: Optional[str] = None
    #: registry snapshot when ``telemetry=True`` was requested, else None
    telemetry: Optional[dict] = None
    #: host CPU time per layer (:mod:`repro.obs.profile`) when
    #: ``profile=True`` and sampling could run here, else None
    profile: Optional[dict] = None
    #: invariant-checker report when ``check=`` was requested, else None
    #: (violation counts, oracle stats, and the ``state_digest`` of the
    #: final logical state for differential comparisons)
    check: Optional[dict] = None
    #: path of the written run-artifact directory when ``artifact_dir``
    #: was set, else None (see :mod:`repro.obs.artifact`)
    artifact: Optional[str] = None

    @property
    def iops(self) -> float:
        return self.stats.iops

    def to_dict(self) -> dict:
        """The schema-v2 result dict (same as ``stats.to_dict()``)."""
        return self.stats.to_dict()

    def breakdown(self) -> str:
        """Per-stage-group latency decomposition of the recorded trace."""
        from repro.obs.analyze import breakdown_report, load_trace

        if self.spans is not None:
            return breakdown_report(self.spans)
        if self.trace_path is not None:
            return breakdown_report(load_trace(self.trace_path))
        raise ValueError("run with trace='memory' or trace=PATH first")

    def telemetry_report(self) -> str:
        """ASCII heatmaps/histograms of the device telemetry snapshot."""
        from repro.obs.analyze import telemetry_report

        if self.telemetry is None:
            raise ValueError("run with telemetry=True first")
        return telemetry_report(self.telemetry)


def spec_from_kwargs(
    config: SSDConfig,
    workload: Union[str, Trace],
    ftl: str = "cube",
    *,
    queue_depth: int = 32,
    warmup_requests: int = 0,
    prefill: float = 0.9,
    n_requests: int = 8000,
    seed: int = 7,
    trace: Optional[str] = None,
    metrics_interval: Optional[float] = None,
    telemetry: bool = False,
    profile: bool = False,
    max_events: Optional[int] = None,
    check=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    **ftl_kwargs,
) -> SimulationSpec:
    """The :class:`~repro.specs.SimulationSpec` equivalent of the legacy
    flat-kwarg :func:`run_simulation` call -- the back-compat mapping,
    pinned in one place.  The flat form replays closed-loop; open-loop
    replay (NCQ or unbounded) is spec-form only.
    """
    if isinstance(workload, str):
        workload = WorkloadSpec(workload, n_requests=n_requests)
    host = HostSpec(queue_depth=queue_depth)
    options = RunOptions(
        trace=trace,
        metrics_interval=metrics_interval,
        telemetry=telemetry,
        profile=profile,
        check=check,
        max_events=max_events,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
        artifact_dir=artifact_dir,
    )
    return SimulationSpec(
        config=config,
        workload=workload,
        ftl=ftl,
        host=host,
        options=options,
        warmup_requests=warmup_requests,
        prefill=prefill,
        seed=seed,
        ftl_kwargs=dict(ftl_kwargs),
    )


def run_simulation(
    config: Union[SSDConfig, SimulationSpec],
    workload: Union[str, Trace, None] = None,
    ftl: str = "cube",
    *,
    queue_depth: int = 32,
    warmup_requests: int = 0,
    prefill: float = 0.9,
    n_requests: int = 8000,
    seed: int = 7,
    trace: Optional[str] = None,
    metrics_interval: Optional[float] = None,
    telemetry: bool = False,
    profile: bool = False,
    max_events: Optional[int] = None,
    check=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    **ftl_kwargs,
) -> SimulationResult:
    """Build, prefill, and run one SSD simulation.

    Accepts either one :class:`~repro.specs.SimulationSpec` as the sole
    positional argument (the preferred form) or the legacy flat kwargs
    below, which :func:`spec_from_kwargs` maps to the equivalent spec --
    the two forms produce byte-identical results.

    Parameters
    ----------
    config:
        The SSD to simulate, or a complete
        :class:`~repro.specs.SimulationSpec` (then every other argument
        must be left at its default).
    workload:
        A workload name (``"OLTP"``, ``"Proxy"``, ...; generated with
        ``n_requests`` / ``seed``), a ``trace:<path>`` reference, or a
        pre-built :class:`~repro.workloads.base.Trace` (then
        ``n_requests`` and ``seed`` are ignored).
    ftl:
        FTL variant name (``"page"``, ``"vert"``, ``"cube"``, ...).
    trace:
        ``None`` disables tracing (the default; the simulation is
        bit-for-bit the untraced run), ``"memory"`` records spans into
        ``result.spans``, any other string is a path to stream a JSONL
        trace to.
    metrics_interval:
        Simulated microseconds between metrics snapshots, positive and
        finite (also an artifact's time-series cadence, default 1000);
        ``None`` disables sampling.  ``result.metrics`` holds one dict
        per window of the time-series recorder, which schedules no
        event, so the run is bit-for-bit the unsampled one.
    telemetry:
        Attach a :class:`~repro.obs.registry.TelemetryRegistry` with
        the device instruments (per-die busy time, queue depths,
        per-h-layer retries/tPROG, ORT hits) and return its snapshot
        in ``result.telemetry``.  Off by default; an untelemetered run
        is bit-for-bit the plain run.
    profile:
        Sample the replay's host CPU time per layer into
        ``result.profile`` (:func:`repro.obs.profile.sampling`; ``None``
        where it cannot run).
    check:
        ``None`` disables runtime invariant checking (the default; the
        simulation is bit-for-bit the unchecked run).  ``True`` /
        ``"on"`` attaches an :class:`~repro.check.InvariantChecker`
        (per-event invariants plus one deep audit at the end);
        ``"strict"`` also deep-audits after every erase and
        periodically during the run.  A :class:`~repro.check.CheckConfig`
        passes through as-is.  The report lands in ``result.check``;
        any violation raises
        :class:`~repro.check.InvariantViolation`.
    checkpoint_every:
        Write a checkpoint every N completed host requests into
        ``checkpoint_dir`` (required together; ``checkpoint_dir``
        without a cadence is refused unless resuming).  The run replays
        in quiescent segments of N requests (a deterministic scheduling
        change; see docs/PERSISTENCE.md) and can be resumed
        byte-identically from any checkpoint.  Composes with every
        observer (``trace``, ``profile``, ``telemetry``,
        ``metrics_interval``, ``artifact_dir``) and with ``check``;
        incompatible with ``max_events``, whose event cap cannot cross
        a drained barrier, and with open-loop and multi-tenant hosts.
    resume_from:
        Path to a checkpoint directory to resume from; the run goes
        through the same pipeline, restoring the checkpoint where a
        fresh run prefills.  ``config``, ``ftl``, ``workload`` and
        ``seed`` must match the original run (validated against the
        checkpoint header); ``queue_depth``, ``warmup_requests``,
        ``checkpoint_every`` and the check level are taken from the
        header.  Further checkpoints go to ``checkpoint_dir`` (default:
        the directory holding ``resume_from``).  A resumed ``trace``
        numbers requests on from the checkpoint, so it is a byte suffix
        of the straight run's trace.  The telemetry registry, time-series
        recorder and exemplars carry on from the checkpoint's observer
        state, so ``telemetry``, ``metrics`` and the artifact files
        equal the straight run's; a resume asking for an observer the
        checkpointed run did not have is refused by option name.
    artifact_dir:
        Write a self-contained run-artifact directory under this base
        path (``<artifact_dir>/<run_id>/``; see
        :mod:`repro.obs.artifact`): the spec, result, latency quantile
        grids, a windowed telemetry time-series, tail/typical exemplar
        spans, and a typed manifest.  ``None`` (the default) disables
        artifacts; a run without them is bit-for-bit the plain run.
        The written path lands in ``result.artifact``.
    """
    if isinstance(config, SimulationSpec):
        if workload is not None or ftl_kwargs:
            raise TypeError(
                "pass either one SimulationSpec or the flat kwarg form, "
                "not both"
            )
        return run_spec(config)
    return run_spec(
        spec_from_kwargs(
            config,
            workload,
            ftl,
            queue_depth=queue_depth,
            warmup_requests=warmup_requests,
            prefill=prefill,
            n_requests=n_requests,
            seed=seed,
            trace=trace,
            metrics_interval=metrics_interval,
            telemetry=telemetry,
            profile=profile,
            max_events=max_events,
            check=check,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
            artifact_dir=artifact_dir,
            **ftl_kwargs,
        )
    )


def run_spec(spec: SimulationSpec) -> SimulationResult:
    """Execute one :class:`~repro.specs.SimulationSpec`.

    The single executor behind both :func:`run_simulation` call forms,
    and the only code that builds and runs a simulation: every option
    lives on the spec, so the kwarg shim cannot drift from the spec
    path.  A checkpointed run replays in segments with
    :func:`repro.persist.driver.checkpoint_hook` as the barrier hook; a
    resumed run takes the same path and restores the checkpoint where a
    fresh run prefills.
    """
    from repro.check import InvariantChecker, parse_check_level
    from repro.ssd.host import check_segmentable, replay

    config = spec.config
    host = spec.host
    options = spec.options
    segmented = (
        options.checkpoint_every is not None or options.resume_from is not None
    )
    # refuse before anything is built or any file is written
    if segmented:
        check_segmentable(
            host.mode, max_events=options.max_events, tenants=host.tenants
        )
    elif options.checkpoint_dir is not None:
        raise ValueError(
            "checkpoint_dir without checkpoint_every writes no "
            "checkpoint; set checkpoint_every (or resume_from)"
        )
    started = process_time()
    trace = spec.build_trace()
    traced = process_time()
    # CPU seconds reading the checkpoint a run resumes from: counted
    # with its restore, which stands in for prefill
    load_s = 0.0
    queue_depth = host.queue_depth
    warmup_requests = spec.warmup_requests
    check = options.check
    header = state = None
    if segmented:
        from repro.persist.driver import (
            checkpoint_hook,
            checkpoint_plan,
            restore_observers,
            restore_state,
        )

        header, out_dir, state, observers = checkpoint_plan(spec, trace)
        if state is not None:
            load_s = process_time() - traced
        # the header is authoritative for the run parameters, so a
        # resume cannot diverge from the original run
        queue_depth = header["queue_depth"]
        warmup_requests = header["warmup_requests"]
        check = header["check"]

    artifacts = options.artifact_dir is not None
    # metrics and artifacts both read the time-series recorder's windows
    windowed = options.window_us is not None
    tracer: Optional[Tracer] = None
    sink = None
    # a resumed tracer numbers requests on from the barrier
    first_request = state["accounting"]["completed"] if state else 0
    if options.trace is not None:
        sink = (
            InMemorySink() if options.trace == "memory"
            else JsonlSink(options.trace)
        )
        tracer = Tracer(sink, first_request=first_request)
    exemplars = None
    if artifacts:
        from repro.obs.exemplars import ExemplarRecorder
        from repro.obs.trace import NullSink

        # exemplars ride the span stream: give an artifact-only run a
        # tracer over a null sink, and wrap whichever sink is active so
        # the requested trace output is unchanged byte for byte
        if tracer is None:
            tracer = Tracer(NullSink(), first_request=first_request)
        exemplars = ExemplarRecorder(tracer.sink, seed=spec.seed)
        tracer.sink = exemplars
        tracer.exemplars = exemplars
    # the recorder snapshots a registry, even when the caller did not
    # ask for result.telemetry
    registry = (
        TelemetryRegistry() if (options.telemetry or windowed) else None
    )
    checker = None
    check_config = parse_check_level(check)
    if check_config is not None:
        # the data-integrity oracle reads content tags back; forcing
        # store_tags on changes only what the chips *remember*, never
        # any timing or random draw, so checked and unchecked runs stay
        # event-for-event identical
        if not config.store_tags:
            config = replace(config, store_tags=True)
        checker = InvariantChecker(check_config)
        # checkpoints pickle this context: a checkpointed run names the
        # workload as its header does
        checker.context.update(
            check=check_config.level,
            ftl=spec.ftl,
            workload=trace.name if segmented else spec.workload_name,
            seed=spec.seed,
        )
    sim = SSDSimulation(
        config,
        ftl=spec.ftl,
        tracer=tracer,
        telemetry=registry,
        checker=checker,
        **spec.ftl_kwargs,
    )
    recorder = None
    if windowed:
        recorder = TimeSeriesRecorder(
            registry, sim.controller.engine, interval_us=options.window_us
        )
        sim.timeseries = recorder
    # live progress is independent of artifacts: any run may report to
    # the process-wide sink the shard pool installed (None otherwise)
    from repro.parallel.progress import get_progress_sink, make_progress_hook

    progress_sink = get_progress_sink()
    if progress_sink is not None:
        sim.progress = make_progress_hook(progress_sink)
    built = process_time()
    if state is not None:
        # the checkpoint carries the full media state: no prefill
        restore_state(sim, state)
        restore_observers(sim, observers)
    elif spec.prefill > 0:
        sim.prefill(spec.prefill)
    filled = process_time()
    try:
        with sampling() if options.profile else nullcontext() as host_profile:
            stats = replay(
                sim,
                trace,
                mode=host.mode,
                queue_depth=queue_depth,
                warmup_requests=warmup_requests,
                max_events=options.max_events,
                segment_requests=header["checkpoint_every"] if segmented else None,
                on_barrier=(
                    checkpoint_hook(sim, header, out_dir) if segmented else None
                ),
                resume_accounting=state["accounting"] if state else None,
            )
    finally:
        if tracer is not None:
            tracer.close()
    if options.metrics_interval is not None:
        stats.metrics = metrics_samples(recorder.records, sim.ftl.name)
    # finalize before the telemetry snapshot so collected gauges include
    # the end-of-run deep audit
    check_report = checker.finalize() if checker is not None else None
    profile = None
    if host_profile is not None:
        profile = host_profile.to_dict(
            build_s=built - traced - load_s,
            prefill_s=filled - built + load_s,
            trace_s=traced - started,
            total_s=process_time() - started,
        )
    artifact_path = None
    if artifacts:
        from repro.obs.artifact import write_artifact

        artifact_path = write_artifact(
            options.artifact_dir,
            spec,
            stats,
            timeseries=recorder,
            exemplars=exemplars,
            telemetry=registry.snapshot(),
            profile=profile,
            check=check_report,
        )
    return SimulationResult(
        stats=stats,
        spans=sink.spans if isinstance(sink, InMemorySink) else None,
        metrics=stats.metrics,
        trace_path=(
            options.trace if options.trace not in (None, "memory") else None
        ),
        # result.telemetry keeps its opt-in shape: artifact runs embed
        # the snapshot in the artifact without changing --json output
        telemetry=(
            registry.snapshot()
            if registry is not None and options.telemetry
            else None
        ),
        profile=profile,
        check=check_report,
        artifact=artifact_path,
    )


@dataclass
class BatchResult:
    """What :func:`run_many` produced for a batch of named runs.

    ``results`` is aligned with the input specs (input order, not
    completion order); a failed shard leaves ``None`` there and an entry
    in ``errors``.  ``telemetry`` is the combined registry snapshot
    merged across the specs that requested telemetry (see
    :func:`repro.parallel.merge.merge_snapshots` for the per-kind merge
    semantics), or ``None`` when no spec did.
    """

    names: List[str]
    results: List[Optional[SimulationResult]]
    errors: Dict[str, str] = field(default_factory=dict)
    telemetry: Optional[dict] = None
    #: names of shards relaunched after a worker hard-died (``retries=``)
    retried: List[str] = field(default_factory=list)
    #: names of shards loaded from a sweep checkpoint dir instead of run
    cached: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def result_for(self, name: str) -> SimulationResult:
        result = self.results[self.names.index(name)]
        if result is None:
            raise KeyError(
                f"run {name!r} failed: {self.errors.get(name, 'unknown error')}"
            )
        return result


def run_many(
    specs: Sequence["RunSpec"],
    jobs: int = 1,
    base_seed: int = 7,
    on_progress: Optional[Callable[[str, bool], None]] = None,
    retries: int = 0,
    checkpoint_dir: Optional[str] = None,
    on_heartbeat: Optional[Callable[[str, dict], None]] = None,
) -> BatchResult:
    """Run a batch of :class:`~repro.parallel.RunSpec` runs, sharded
    across up to ``jobs`` worker processes.

    The batch result is a pure function of ``(specs, base_seed)``: each
    spec's seed is its pinned ``seed`` or ``derive_seed(base_seed,
    spec.name)``, shards are crash-isolated (a dying worker fails only
    its own run), and results come back in spec order.  ``jobs=1`` runs
    everything inline and is the reference the parallel path reproduces
    bit-for-bit.

    ``on_progress`` (if given) is called with ``(name, ok)`` as each run
    finishes, in completion order.  ``on_heartbeat`` (if given) receives
    ``(name, payload)`` live-progress messages while runs are still in
    flight -- ``payload`` carries ``completed``/``total`` request counts
    and the shard's simulated-time watermark ``sim_us`` (see
    :mod:`repro.parallel.progress`).

    ``retries`` relaunches shards whose worker hard-died (same spec,
    same derived seed -- see :func:`repro.parallel.run_shards`); the
    names of retried shards land in ``BatchResult.retried`` and the
    ``shard_retries_total`` counter in ``BatchResult.telemetry``.
    ``checkpoint_dir`` makes the batch resumable: completed runs are
    saved there as they land, and a rerun with the same specs and base
    seed loads them (``BatchResult.cached``) instead of re-running.  A
    SIGINT raises :class:`~repro.parallel.ShardsInterrupted` carrying
    the completed outcomes.
    """
    from repro.parallel import merge_snapshots, run_shards, specs_to_shards

    shards = specs_to_shards(specs, base_seed)
    progress = None
    if on_progress is not None:
        callback = on_progress

        def progress(outcome):
            callback(outcome.name, outcome.ok)

    registry = TelemetryRegistry() if retries > 0 else None
    if checkpoint_dir is not None:
        from repro.persist import run_shards_resumable

        outcomes = run_shards_resumable(
            shards,
            jobs=jobs,
            checkpoint_dir=checkpoint_dir,
            base_seed=base_seed,
            on_progress=progress,
            retries=retries,
            registry=registry,
            heartbeat=on_heartbeat,
        )
    else:
        outcomes = run_shards(
            shards,
            jobs=jobs,
            on_progress=progress,
            retries=retries,
            registry=registry,
            heartbeat=on_heartbeat,
        )
    results: List[Optional[SimulationResult]] = []
    errors: Dict[str, str] = {}
    for outcome in outcomes:
        if outcome.ok:
            results.append(outcome.result)
        else:
            results.append(None)
            errors[outcome.name] = outcome.error or "unknown error"
    retried = [outcome.name for outcome in outcomes if outcome.retried]
    telemetered = [
        r.telemetry for r in results if r is not None and r.telemetry is not None
    ]
    if registry is not None and retried:
        telemetered.append(registry.snapshot())
    return BatchResult(
        names=[spec.name for spec in specs],
        results=results,
        errors=errors,
        telemetry=merge_snapshots(telemetered) if telemetered else None,
        retried=retried,
        cached=[outcome.name for outcome in outcomes if outcome.cached],
    )


@dataclass
class TenantScenarioResult:
    """A multi-tenant run plus the per-tenant solo baselines.

    ``shared`` is the all-tenants-together run; ``solo[name]`` replays
    exactly tenant *name*'s stream alone on an identical device (same
    derived seeds, same partition, same arrival process -- the
    per-tenant seed rule guarantees the stream is bit-identical with or
    without the other tenants present).  The difference between the two
    is, by construction, pure cross-tenant interference.
    """

    shared: SimulationResult
    solo: Dict[str, SimulationResult]

    def interference_matrix(self) -> Dict[str, dict]:
        """Per-tenant solo-vs-shared comparison.

        Each row: solo/shared p99 (reads and writes pooled), the p99
        slowdown factor (>= 1 means the tenant is slower when sharing),
        and solo/shared IOPS.
        """
        matrix: Dict[str, dict] = {}
        shared_tenants = self.shared.stats.tenants or {}
        for name, solo_result in self.solo.items():
            solo_slice = (solo_result.stats.tenants or {}).get(name)
            shared_slice = shared_tenants.get(name)
            if solo_slice is None or shared_slice is None:
                continue
            solo_p99 = solo_slice.p99_us
            shared_p99 = shared_slice.p99_us
            matrix[name] = {
                "solo_p99_us": solo_p99,
                "shared_p99_us": shared_p99,
                "p99_slowdown": (shared_p99 / solo_p99) if solo_p99 > 0 else 0.0,
                "solo_iops": solo_slice.iops(solo_result.stats.duration_us),
                "shared_iops": shared_slice.iops(self.shared.stats.duration_us),
            }
        return matrix

    def to_dict(self) -> dict:
        return {
            "scenario": self.shared.to_dict(),
            "solo": {
                name: result.to_dict() for name, result in self.solo.items()
            },
            "interference": self.interference_matrix(),
        }


def run_tenant_scenario(
    spec: SimulationSpec,
    jobs: int = 1,
    on_heartbeat: Optional[Callable[[str, dict], None]] = None,
) -> TenantScenarioResult:
    """Run a multi-tenant spec plus one solo baseline per tenant.

    The shared run and the N solo runs are independent simulations (N+1
    runs total), sharded across up to ``jobs`` workers.  Every run pins
    the scenario's own seed, so the tenant streams in the solo runs are
    bit-identical to their shared-run counterparts and the resulting
    :meth:`~TenantScenarioResult.interference_matrix` isolates
    cross-tenant interference.
    """
    from dataclasses import replace as dc_replace

    from repro.parallel import RunSpec

    if not spec.host.tenants:
        raise ValueError("run_tenant_scenario needs a spec with host.tenants")
    run_specs = [RunSpec(name="shared", spec=spec, seed=spec.seed)]
    for tenant in spec.host.tenants:
        solo_spec = dc_replace(
            spec, host=replace(spec.host, tenants=(tenant,))
        )
        run_specs.append(
            RunSpec(name=f"solo:{tenant.name}", spec=solo_spec, seed=spec.seed)
        )
    batch = run_many(
        run_specs, jobs=jobs, base_seed=spec.seed, on_heartbeat=on_heartbeat
    )
    if not batch.ok:
        failures = "; ".join(
            f"{name}: {error}" for name, error in sorted(batch.errors.items())
        )
        raise RuntimeError(f"tenant scenario runs failed: {failures}")
    return TenantScenarioResult(
        shared=batch.result_for("shared"),
        solo={
            tenant.name: batch.result_for(f"solo:{tenant.name}")
            for tenant in spec.host.tenants
        },
    )
