"""Unified telemetry: a Prometheus-style instrument registry.

Every quantitative signal the simulator exposes -- FTL operation
counters, fault-recovery counters, device-level busy time, queue-depth
and read-retry distributions, ORT lookups -- is described by a named
instrument in a :class:`TelemetryRegistry`:

- :class:`Counter` -- monotonically increasing totals (busy time,
  operation counts), optionally labelled (``die``, ``channel``,
  ``h_layer``, ``ftl``...).
- :class:`Gauge` -- point-in-time values (buffer utilization, free
  blocks).  Gauges may be *collected*: a callback re-reads the live
  value at snapshot time, which is how the pre-existing counter
  dataclasses (:class:`~repro.ftl.base.FTLCounters`,
  :class:`~repro.faults.counters.RecoveryCounters`), the write-buffer,
  free-block and ORT gauges and the host's completion count are
  exported *behind their existing public APIs*: the hot path keeps
  bumping plain Python attributes (zero overhead, schema v2 output
  unchanged) and the registry exports them through collector bindings
  -- the Prometheus custom-collector pattern.
- :class:`Histogram` -- distributions over fixed bucket edges (queue
  depths, retries per read).

Determinism is part of the contract: :meth:`TelemetryRegistry.snapshot`
returns a JSON-safe dict with instruments sorted by name and series
sorted by label values, so two identically seeded runs produce
identical snapshots (asserted by the test suite).

Recording never schedules events and never perturbs simulation state,
so attaching a registry cannot change any simulated result; with no
registry attached every hook site is a single ``is None`` test.

A checkpoint carries the registry's counters and histograms
(:meth:`TelemetryRegistry.state_dict`); every gauge is set by a
collector from live state, which the checkpoint restores anyway.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: hard ceiling on label combinations per instrument -- a guard against
#: accidentally labelling by an unbounded key (LPN, request id, ...)
MAX_SERIES_PER_INSTRUMENT = 4096

#: default bucket upper edges for queue-depth style histograms
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

#: default bucket upper edges for retries-per-read histograms
RETRY_BUCKETS = (0, 1, 2, 3, 4, 6, 8, 12)

#: the attributes holding an instrument's recorded values (checkpoints)
_VALUE_ATTRS = ("_value", "_counts", "_sum", "_count")


class CardinalityError(ValueError):
    """An instrument exceeded :data:`MAX_SERIES_PER_INSTRUMENT` label sets."""


def _check_labels(
    labelnames: Tuple[str, ...], labels: Dict[str, object]
) -> Tuple[object, ...]:
    if tuple(sorted(labels)) != tuple(sorted(labelnames)):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple(labels[name] for name in labelnames)


class _Instrument:
    """Shared naming / label bookkeeping of all instrument kinds."""

    kind = "?"

    def __init__(
        self,
        name: str,
        help: str,
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[object, ...], "_Instrument"] = {}
        self._max_series = MAX_SERIES_PER_INSTRUMENT

    def labels(self, **labels: object) -> "_Instrument":
        """The child series for one label combination (created lazily)."""
        if not self.labelnames:
            raise ValueError(f"instrument {self.name!r} declares no labels")
        key = _check_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self._max_series:
                raise CardinalityError(
                    f"instrument {self.name!r} exceeded "
                    f"{self._max_series} label combinations"
                )
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    # -- snapshot --------------------------------------------------------

    def _series(self) -> List[dict]:
        if self.labelnames:
            rows = []
            for key in sorted(self._children, key=lambda k: tuple(map(str, k))):
                row = {"labels": dict(zip(self.labelnames, map(str, key)))}
                row.update(self._children[key]._value_fields())
                rows.append(row)
            return rows
        return [self._value_fields()]

    def _value_fields(self) -> dict:
        raise NotImplementedError

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> tuple:
        """The recorded values: its own and each label combination's."""
        own = {
            name: copy.copy(value)
            for name, value in vars(self).items()
            if name in _VALUE_ATTRS
        }
        children = {key: child.state_dict() for key, child in self._children.items()}
        return own, children

    def load_state_dict(self, state: tuple) -> None:
        own, children = state
        vars(self).update(own)
        for key, child in children.items():
            self.labels(**dict(zip(self.labelnames, key))).load_state_dict(child)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "unit": self.unit,
            "labelnames": list(self.labelnames),
            "series": self._series(),
        }


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help, self.unit)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _value_fields(self) -> dict:
        return {"value": self._value}


class Gauge(_Instrument):
    """A point-in-time value, set directly or via a collector callback."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help, self.unit)

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _value_fields(self) -> dict:
        return {"value": self._value}


class Histogram(_Instrument):
    """A distribution over fixed, strictly increasing bucket upper edges.

    An observation lands in the first bucket whose edge is >= the value;
    values above the last edge land in the implicit overflow (``+inf``)
    bucket.  Bucket counts are *non-cumulative* (unlike the Prometheus
    exposition format) because snapshots are consumed whole.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = QUEUE_DEPTH_BUCKETS,
    ) -> None:
        super().__init__(name, help, unit, labelnames)
        edges = tuple(buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(low >= high for low, high in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.unit, buckets=self.buckets)

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """Bucket label (upper edge or ``+inf``) -> observation count."""
        labels = [f"{edge:g}" for edge in self.buckets] + ["+inf"]
        return dict(zip(labels, self._counts))

    def _value_fields(self) -> dict:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": self.bucket_counts(),
        }


class TelemetryRegistry:
    """Named instruments plus collector callbacks.

    Instruments are created once (re-requesting a name returns the same
    object, and re-declaring it with a different kind or labels is an
    error).  Collectors run at :meth:`snapshot` / :meth:`collect` time
    and bridge pre-existing live state (counter dataclasses, buffer
    occupancy) into registry gauges without touching the hot paths.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- declaration -----------------------------------------------------

    def _declare(self, cls, name: str, *args, **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"instrument {name!r} already declared as {existing.kind}"
                )
            return existing
        instrument = cls(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str, unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Counter:
        return self._declare(Counter, name, help, unit, labelnames)

    def gauge(
        self, name: str, help: str, unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._declare(Gauge, name, help, unit, labelnames)

    def histogram(
        self, name: str, help: str, unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = QUEUE_DEPTH_BUCKETS,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help, unit, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # -- collectors ------------------------------------------------------

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a zero-argument callback that refreshes gauges from
        live state; it runs on every :meth:`collect` / :meth:`snapshot`."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    # -- snapshot --------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic JSON-safe dump of every instrument.

        Collectors run first, so collected gauges reflect the state at
        the moment of the call.  Instruments are sorted by name, series
        by label values; two identically seeded runs therefore produce
        identical snapshots.
        """
        self.collect()
        return {
            name: self._instruments[name].describe()
            for name in sorted(self._instruments)
        }

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Every counter's and histogram's values, by instrument name
        (collectors set the gauges from live state)."""
        return {
            name: instrument.state_dict()
            for name, instrument in self._instruments.items()
            if not isinstance(instrument, Gauge)
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` onto a registry whose
        instruments are already declared (a freshly built simulation's)."""
        for name, values in state.items():
            if name not in self._instruments:
                raise ValueError(f"no instrument {name!r} to restore")
            self._instruments[name].load_state_dict(values)


# ----------------------------------------------------------------------
# collector bindings for the pre-existing counter surfaces
# ----------------------------------------------------------------------


def bind_ftl(registry: TelemetryRegistry, ftl) -> None:
    """Export an FTL's live counters into the registry.

    Covers :class:`~repro.ftl.base.FTLCounters` (as
    ``ftl_counter{ftl,counter}``), the fault-recovery counters (as
    ``ftl_recovery{ftl,event}``), and the gauges of the metrics
    timeline (buffer utilization / occupancy, free blocks, ORT size,
    hits, misses and hit rate) -- all read back from the same live
    objects at snapshot time, so the existing public APIs and the
    result schema are untouched.
    """
    counter_gauge = registry.gauge(
        "ftl_counter", "FTL operation counters (FTLCounters fields)",
        labelnames=("ftl", "counter"),
    )
    recovery_gauge = registry.gauge(
        "ftl_recovery", "fault-recovery event counters (RecoveryCounters fields)",
        labelnames=("ftl", "event"),
    )
    buffer_util = registry.gauge(
        "buffer_utilization", "write-buffer utilization mu", labelnames=("ftl",)
    )
    buffer_occ = registry.gauge(
        "buffer_occupancy", "staged + in-flight buffer pages",
        unit="pages", labelnames=("ftl",),
    )
    free_blocks = registry.gauge(
        "free_blocks", "free blocks summed over all chips",
        unit="blocks", labelnames=("ftl",),
    )
    ort_entries = registry.gauge(
        "ort_entries", "learned ORT entries", labelnames=("ftl",)
    )
    ort_hits = registry.gauge(
        "ort_hits", "ORT lookups served from a learned entry",
        labelnames=("ftl",),
    )
    ort_misses = registry.gauge(
        "ort_misses", "ORT lookups that found no learned entry",
        labelnames=("ftl",),
    )
    ort_hit_rate = registry.gauge(
        "ort_hit_rate", "fraction of ORT lookups served from a learned entry",
        labelnames=("ftl",),
    )

    name = ftl.name

    def collect() -> None:
        for field, value in vars(ftl.counters).items():
            counter_gauge.labels(ftl=name, counter=field).set(value)
        for field, value in vars(ftl.recovery).items():
            recovery_gauge.labels(ftl=name, event=field).set(value)
        buffer_util.labels(ftl=name).set(ftl.buffer.utilization)
        buffer_occ.labels(ftl=name).set(ftl.buffer.occupancy)
        free_blocks.labels(ftl=name).set(
            sum(ftl.blocks.free_count(c) for c in range(ftl.geometry.n_chips))
        )
        opm = getattr(ftl, "opm", None)
        ort = opm.ort if opm is not None else None
        ort_entries.labels(ftl=name).set(len(ort) if ort is not None else 0)
        ort_hits.labels(ftl=name).set(ort.hits if ort is not None else 0)
        ort_misses.labels(ftl=name).set(ort.misses if ort is not None else 0)
        ort_hit_rate.labels(ftl=name).set(
            ort.hit_rate if ort is not None else 0.0
        )

    registry.add_collector(collect)


def bind_engine(registry: TelemetryRegistry, engine) -> None:
    """Export event-queue statistics (events processed, peak queue
    length) from a :class:`~repro.sim.engine.Engine`."""
    processed = registry.gauge(
        "engine_events_processed", "events executed by the event engine"
    )
    peak = registry.gauge(
        "engine_peak_pending", "largest live event-queue length observed"
    )
    now = registry.gauge(
        "engine_now_us", "engine clock at snapshot time", unit="us"
    )

    def collect() -> None:
        processed.set(engine.processed)
        peak.set(engine.peak_pending)
        now.set(engine.now)

    registry.add_collector(collect)


def bind_host(registry: TelemetryRegistry, completed: Callable[[], int]) -> None:
    """Export the host's completed-request count (warmup included),
    read through ``completed`` at snapshot time; the replay binds it."""
    gauge = registry.gauge(
        "host_completed_requests", "host requests completed, warmup included",
        unit="requests",
    )
    registry.add_collector(lambda: gauge.set(completed()))
