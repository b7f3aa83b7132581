"""Observability: request-lifecycle tracing and time-sliced metrics.

The paper's claims are *latency decompositions* -- tPROG savings from
VFY skipping and MaxLoop reduction (Figs. 8-11), read-retry counts cut
by the ORT (Fig. 14) -- so the simulator must be able to attribute a
latency to a mechanism, not just report end-to-end percentiles.  This
package provides that attribution in three parts:

- :mod:`repro.obs.trace` -- a :class:`Tracer` that records one
  :class:`Span` per stage a host request passes through (write buffer,
  bus/die FIFOs, NAND operation, read retries, recovery), emitted to a
  pluggable :class:`TraceSink` (in-memory, JSONL file, null).  With no
  tracer attached every hook is a single ``is None`` test.
- :mod:`repro.obs.metrics` -- a :class:`MetricsSampler` driven by the
  event engine that periodically snapshots IOPS, buffer utilization
  (the WAM's mu signal), free-block counts, GC activity, the
  leader/follower WL mix, VFY-skip savings and the ORT hit rate.
- :mod:`repro.obs.analyze` -- turns a trace into per-stage latency
  breakdowns (queueing vs. NAND vs. retry time) and a metrics timeline
  (ASCII plot + dict).
- :mod:`repro.obs.registry` -- a Prometheus-style
  :class:`TelemetryRegistry` of named, labelled counters / gauges /
  histograms; :mod:`repro.obs.device` attaches the per-die /
  per-channel / per-h-layer device instruments to a built simulation.
- :mod:`repro.obs.profile` -- opt-in :func:`sampling`, a ``SIGPROF``
  frame sampler charging *host* CPU time to layers (FTL write/read/GC,
  NAND model, event engine, ...).
- :mod:`repro.obs.log` -- structured ``REPRO key=value`` diagnostics
  on :mod:`logging` (:func:`configure_logging`, :func:`log_event`).
- :mod:`repro.obs.artifact` / :mod:`repro.obs.timeseries` /
  :mod:`repro.obs.exemplars` -- persistent run artifacts: a versioned
  ``runs/<run_id>/`` directory per run with the spec, results, a
  delta-compressed telemetry time-series, and tail/typical exemplar
  spans linked from the latency histogram's tail buckets.
- :mod:`repro.obs.report` / :mod:`repro.obs.diffing` -- deterministic
  ASCII/HTML dashboards over one artifact and metric-by-metric
  comparison between two (``repro-ssd report`` / ``repro-ssd diff``).

The supported entry point is :func:`repro.api.run_simulation` with its
``trace=`` and ``metrics_interval=`` arguments; see
``docs/OBSERVABILITY.md`` for the trace format and span taxonomy.
"""

from repro.obs.artifact import (
    load_artifact,
    run_fingerprint,
    run_id,
    validate_artifact,
    write_artifact,
    write_sweep_manifest,
)
from repro.obs.diffing import (
    SchemaDriftError,
    compare_artifacts,
    format_artifact_diff,
)
from repro.obs.exemplars import ExemplarRecorder
from repro.obs.log import configure_logging, get_logger, log_event
from repro.obs.metrics import MetricsSample, MetricsSampler
from repro.obs.report import render_html, render_report
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.profile import sampling
from repro.obs.registry import Counter, Gauge, Histogram, TelemetryRegistry
from repro.obs.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    Span,
    Tracer,
    TraceSink,
)

__all__ = [
    "Counter",
    "ExemplarRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsSample",
    "MetricsSampler",
    "NullSink",
    "SchemaDriftError",
    "Span",
    "TelemetryRegistry",
    "TimeSeriesRecorder",
    "TraceSink",
    "Tracer",
    "compare_artifacts",
    "configure_logging",
    "format_artifact_diff",
    "get_logger",
    "load_artifact",
    "log_event",
    "render_html",
    "render_report",
    "run_fingerprint",
    "run_id",
    "sampling",
    "validate_artifact",
    "write_artifact",
    "write_sweep_manifest",
]
