"""Device-level telemetry: per-die / per-channel / per-h-layer signals.

:func:`attach_device_telemetry` wires a
:class:`~repro.obs.registry.TelemetryRegistry` into a built simulation:
chip-model hooks (reads, programs, erases, per-h-layer retry counts),
FIFO-resource hooks (busy time and arrival queue depth per die and per
channel), the event engine (events processed, peak queue length), the
ORT (per-h-layer hit/miss counts), and the FTL counter collectors.

The hooks only *record*: they never schedule events or mutate simulated
state, so an attached registry cannot change any simulated result.
With no registry attached, every hook site is one ``is None`` test.

Instrument catalog (see docs/OBSERVABILITY.md for the full table):

===========================  =========  ====================  =========
name                         type       labels                unit
===========================  =========  ====================  =========
``chip_busy_us``             counter    die, channel          us
``chip_queue_depth``         histogram  die                   jobs
``bus_busy_us``              counter    channel               us
``bus_queue_depth``          histogram  channel               jobs
``nand_ops``                 counter    die, op               ops
``nand_read_retries``        histogram  die, h_layer          retries
``nand_program_us``          histogram  h_layer               us
``ort_lookups``              counter    h_layer, outcome      lookups
``ftl_counter``              gauge      ftl, counter          (mixed)
``ftl_recovery``             gauge      ftl, event            events
``buffer_utilization``       gauge      ftl                   fraction
``buffer_occupancy``         gauge      ftl                   pages
``free_blocks``              gauge      ftl                   blocks
``ort_entries``              gauge      ftl                   entries
``ort_hits``                 gauge      ftl                   lookups
``ort_misses``               gauge      ftl                   lookups
``ort_hit_rate``             gauge      ftl                   fraction
``engine_events_processed``  gauge      --                    events
``engine_peak_pending``      gauge      --                    events
``engine_now_us``            gauge      --                    us
``host_completed_requests``  gauge      --                    requests
===========================  =========  ====================  =========

``host_completed_requests`` is bound by the replay
(:func:`~repro.obs.registry.bind_host`), not here.
"""

from __future__ import annotations

from repro.obs.registry import (
    QUEUE_DEPTH_BUCKETS,
    RETRY_BUCKETS,
    Counter,
    Histogram,
    TelemetryRegistry,
    bind_engine,
    bind_ftl,
)

#: bucket upper edges for per-WL program latency (us); spans the default
#: timing model from heavily VFY-skipped followers to env-shifted leaders
PROGRAM_US_BUCKETS = (400, 600, 800, 1000, 1200, 1600, 2000)


class ChipTelemetry:
    """Recording hooks one :class:`~repro.nand.chip.NandChip` calls into.

    Label children are resolved lazily on first use and memoized in
    plain dicts: ``labels(...)`` builds a kwargs dict and a sorted key
    per call, which dominated the recording cost on the per-read hot
    path.  Children still only come into existence when the matching
    operation first occurs, so the serialized snapshot shape is
    identical to uncached recording.
    """

    __slots__ = (
        "die", "_ops", "_retries", "_program_us",
        "_op_children", "_retry_children", "_program_children",
    )

    def __init__(self, registry: TelemetryRegistry, die: int) -> None:
        self.die = die
        self._ops = registry.counter(
            "nand_ops", "NAND operations executed per die",
            unit="ops", labelnames=("die", "op"),
        )
        self._retries = registry.histogram(
            "nand_read_retries",
            "read retries per page read, resolved per die and h-layer",
            unit="retries", labelnames=("die", "h_layer"),
            buckets=RETRY_BUCKETS,
        )
        self._program_us = registry.histogram(
            "nand_program_us", "per-WL program latency, resolved per h-layer",
            unit="us", labelnames=("h_layer",), buckets=PROGRAM_US_BUCKETS,
        )
        self._op_children = {}
        self._retry_children = {}
        self._program_children = {}

    def _op_child(self, op: str):
        child = self._op_children.get(op)
        if child is None:
            child = self._ops.labels(die=self.die, op=op)
            self._op_children[op] = child
        return child

    def record_read(self, layer: int, num_retry: int) -> None:
        self._op_child("read").inc()
        child = self._retry_children.get(layer)
        if child is None:
            child = self._retries.labels(die=self.die, h_layer=layer)
            self._retry_children[layer] = child
        child.observe(num_retry)

    def record_program(self, layer: int, t_prog_us: float) -> None:
        self._op_child("program").inc()
        child = self._program_children.get(layer)
        if child is None:
            child = self._program_us.labels(h_layer=layer)
            self._program_children[layer] = child
        child.observe(t_prog_us)

    def record_erase(self) -> None:
        self._op_child("erase").inc()


class ResourceTelemetry:
    """Recording hooks one :class:`~repro.sim.resources.FifoResource`
    calls into (arrival queue depth, accumulated service time)."""

    __slots__ = ("_depth", "_busy")

    def __init__(self, depth: Histogram, busy: Counter) -> None:
        self._depth = depth
        self._busy = busy

    def record_arrival(self, depth: int) -> None:
        self._depth.observe(depth)

    def record_service(self, duration_us: float) -> None:
        self._busy.inc(duration_us)


class OrtTelemetry:
    """Recording hook the ORT calls into on each lookup."""

    __slots__ = ("_lookups",)

    def __init__(self, registry: TelemetryRegistry) -> None:
        self._lookups = registry.counter(
            "ort_lookups", "ORT lookups per h-layer, split by outcome",
            unit="lookups", labelnames=("h_layer", "outcome"),
        )

    def record_lookup(self, layer: int, hit: bool) -> None:
        outcome = "hit" if hit else "miss"
        self._lookups.labels(h_layer=layer, outcome=outcome).inc()


def attach_device_telemetry(
    registry: TelemetryRegistry, controller, ftl
) -> None:
    """Wire a registry into a built controller + FTL pair.

    Must run before the simulation starts (hooks are snapshot-free
    recording callbacks; attaching mid-run would merely miss the
    operations already executed).
    """
    geometry = controller.config.geometry
    chip_depth = registry.histogram(
        "chip_queue_depth", "die-FIFO queue depth seen by each arriving job",
        unit="jobs", labelnames=("die",), buckets=QUEUE_DEPTH_BUCKETS,
    )
    chip_busy = registry.counter(
        "chip_busy_us", "accumulated die service time",
        unit="us", labelnames=("die", "channel"),
    )
    bus_depth = registry.histogram(
        "bus_queue_depth", "channel-FIFO queue depth seen by each arriving job",
        unit="jobs", labelnames=("channel",), buckets=QUEUE_DEPTH_BUCKETS,
    )
    bus_busy = registry.counter(
        "bus_busy_us", "accumulated channel transfer time",
        unit="us", labelnames=("channel",),
    )
    for chip_id, chip in enumerate(controller.chips):
        chip.telemetry = ChipTelemetry(registry, die=chip_id)
        channel = geometry.channel_of_chip(chip_id)
        controller.chip_resource(chip_id).telemetry = ResourceTelemetry(
            chip_depth.labels(die=chip_id),
            chip_busy.labels(die=chip_id, channel=channel),
        )
    for channel in range(geometry.n_channels):
        controller._bus_resources[channel].telemetry = ResourceTelemetry(
            bus_depth.labels(channel=channel),
            bus_busy.labels(channel=channel),
        )
    opm = getattr(ftl, "opm", None)
    if opm is not None:
        opm.ort.telemetry = OrtTelemetry(registry)
    bind_engine(registry, controller.engine)
    bind_ftl(registry, ftl)
    if getattr(ftl, "dftl_stats", None) is not None:
        _bind_dftl(registry, ftl)


def _bind_dftl(registry: TelemetryRegistry, ftl) -> None:
    """Demand-paged mapping instruments (dftl only): CMT hit/miss/
    eviction counters, translation-path flash traffic, and the live CMT
    occupancy -- read back from the FTL's live stats at snapshot time,
    like the :func:`~repro.obs.registry.bind_ftl` gauges."""
    hits = registry.gauge(
        "dftl_cmt_hits_total", "reads resolved from the cached mapping table"
    )
    misses = registry.gauge(
        "dftl_cmt_misses_total",
        "reads that paid a translation-page fetch (CMT miss)",
    )
    evictions = registry.gauge(
        "dftl_cmt_evictions_total", "CMT evictions, split by dirty bit",
        labelnames=("dirty",),
    )
    trans = registry.gauge(
        "dftl_translation_ops_total",
        "translation-page flash traffic (demand reads, writebacks, "
        "translation-GC reads/programs/erases)",
        unit="ops", labelnames=("op",),
    )
    occupancy = registry.gauge(
        "dftl_cmt_occupancy", "live CMT entries", unit="entries"
    )
    capacity = registry.gauge(
        "dftl_cmt_capacity", "configured CMT capacity", unit="entries"
    )

    def collect() -> None:
        stats = ftl.dftl_stats
        hits.set(stats.cmt_hits)
        misses.set(stats.cmt_misses)
        evictions.labels(dirty="true").set(stats.cmt_evictions_dirty)
        evictions.labels(dirty="false").set(stats.cmt_evictions_clean)
        trans.labels(op="read").set(stats.trans_reads)
        trans.labels(op="write").set(stats.trans_programs)
        trans.labels(op="gc_read").set(stats.trans_gc_reads)
        trans.labels(op="gc_program").set(stats.trans_gc_programs)
        trans.labels(op="gc_erase").set(stats.trans_gc_erases)
        occupancy.set(ftl.cmt_occupancy())
        capacity.set(ftl.cmt_capacity)

    registry.add_collector(collect)
