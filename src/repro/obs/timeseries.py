"""Windowed telemetry time-series: periodic registry snapshots, delta-compressed.

A :class:`TimeSeriesRecorder` snapshots a
:class:`~repro.obs.registry.TelemetryRegistry` every ``interval_us`` of
*simulated* time.  Its windows are not events: the engine's batch loop
takes each one before dispatching the events at or after its due time,
with the clock set to the due time
(:meth:`repro.sim.engine.Engine._take_windows`).  A window only *reads*
state, never advances the clock past real work, never holds a drain
open and never takes a sequence number, so a run with a recorder
dispatches exactly the events of the run without one; the replay stops
the recorder at the last host completion.

Each snapshot is flattened to scalar keys
(:func:`flatten_snapshot`) and stored as a *delta window*: the first
window carries every key, later windows carry only the keys whose value
changed.  Long runs over multi-billion-op horizons therefore pay for
what moved, not for the whole instrument catalog per window.
:func:`expand_records` inverts the compression for analysis and report
rendering, and :func:`metrics_samples` projects the windows onto the
metrics timeline (``result.metrics``).

Determinism is part of the contract (the run-artifact suite asserts
byte-identical ``timeseries.jsonl`` files for identical seeded runs):
keys are sorted, label values stringified the same way the registry
snapshot stringifies them, and no wall-clock value ever enters a
record.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

#: window cadence of an artifact run without ``metrics_interval`` (us)
DEFAULT_INTERVAL_US = 1000.0


def flatten_snapshot(snapshot: dict) -> Dict[str, float]:
    """Flatten a registry snapshot into sorted scalar ``key -> value``.

    Key layout: ``name{label=value,...}.field`` where ``field`` is
    ``value`` for counters/gauges and ``count`` / ``sum`` /
    ``bucket[<edge>]`` for histograms.  Unlabelled instruments omit the
    ``{...}`` part.  The result iterates in sorted key order.
    """
    flat: Dict[str, float] = {}
    for name in sorted(snapshot):
        described = snapshot[name]
        for row in described.get("series", []):
            labels = row.get("labels")
            if labels:
                label_part = ",".join(
                    f"{key}={labels[key]}" for key in sorted(labels)
                )
                prefix = f"{name}{{{label_part}}}"
            else:
                prefix = name
            if "value" in row:
                flat[f"{prefix}.value"] = row["value"]
            else:
                flat[f"{prefix}.count"] = row["count"]
                flat[f"{prefix}.sum"] = row["sum"]
                for edge, count in row.get("buckets", {}).items():
                    flat[f"{prefix}.bucket[{edge}]"] = count
    return {key: flat[key] for key in sorted(flat)}


def expand_records(records: Iterable[dict]) -> Tuple[List[float], List[Dict[str, float]]]:
    """Invert the delta compression: ``(timestamps, full windows)``.

    Every returned window carries the complete key set known at that
    time (keys appearing mid-run -- new label combinations -- are absent
    from earlier windows, exactly as they were absent from the live
    registry).
    """
    times: List[float] = []
    windows: List[Dict[str, float]] = []
    current: Dict[str, float] = {}
    for record in records:
        current = dict(current)
        current.update(record["values"])
        times.append(record["t_us"])
        windows.append(current)
    return times, windows


#: ``FTLCounters`` fields a metrics sample carries, in its key order,
#: split where the derived ``follower_fraction`` goes between them
_MIX_COUNTERS = (
    "host_read_pages", "host_write_pages", "flash_reads", "flash_programs",
    "gc_reads", "gc_programs", "erases", "leader_programs",
    "follower_programs",
)
_CELL_COUNTERS = (
    "reprograms", "vfy_skipped", "read_retries", "retried_reads",
    "program_time_us", "read_time_us",
)


def metrics_samples(records: Iterable[dict], ftl: str) -> List[dict]:
    """The metrics timeline of a run's windows (``result.metrics``).

    One dict per window, keyed ``t_us``, ``completed_requests`` (host
    completions, warmup included), the write buffer's utilization mu
    and occupancy, free blocks, the FTL's operation counters, the
    leader/follower mix and ``follower_fraction``, VFY skips, read
    retries, die service time, and the ORT's entries, hits, misses and
    hit rate.  ``ftl`` is the FTL's name, as the registry labels it.
    Counters are cumulative since the measured run started; gauges are
    the values at the window's instant.
    """

    samples = []
    for t_us, window in zip(*expand_records(records)):
        sample = {
            "t_us": t_us,
            "completed_requests": window["host_completed_requests.value"],
        }
        for name in ("buffer_utilization", "buffer_occupancy", "free_blocks"):
            sample[name] = window[f"{name}{{ftl={ftl}}}.value"]
        for name in _MIX_COUNTERS:
            sample[name] = window[f"ftl_counter{{counter={name},ftl={ftl}}}.value"]
        programs = sample["leader_programs"] + sample["follower_programs"]
        sample["follower_fraction"] = (
            sample["follower_programs"] / programs if programs else 0.0
        )
        for name in _CELL_COUNTERS:
            sample[name] = window[f"ftl_counter{{counter={name},ftl={ftl}}}.value"]
        for name in ("ort_entries", "ort_hits", "ort_misses", "ort_hit_rate"):
            sample[name] = window[f"{name}{{ftl={ftl}}}.value"]
        samples.append(sample)
    return samples


class TimeSeriesRecorder:
    """Periodic registry snapshots with delta compression, taken by the
    engine's batch loop.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.TelemetryRegistry` to snapshot
        (collectors run on every snapshot, so collected gauges are
        point-in-time correct).
    engine:
        The event engine driving simulated time.
    interval_us:
        Simulated microseconds between windows (positive and finite).
    """

    def __init__(self, registry, engine, interval_us: float = DEFAULT_INTERVAL_US) -> None:
        if not 0 < interval_us < math.inf:
            raise ValueError("interval_us must be positive and finite")
        self.registry = registry
        self.engine = engine
        self.interval_us = interval_us
        #: delta windows: ``{"t_us": ..., "full": ..., "values": {...}}``
        self.records: List[dict] = []
        self._last: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Hand the next window to the engine's batch loop.  A fresh
        recorder first takes its t=start window; a restored one carries
        on one interval after its last window."""
        if not self.records:
            self.take()
        self.engine.recorder = self
        self.engine.next_window = self.records[-1]["t_us"] + self.interval_us

    def stop(self) -> None:
        """Take no more periodic windows."""
        self.engine.next_window = math.inf

    def finalize(self) -> List[dict]:
        """Stop recording and take the end-of-run window, replacing a
        periodic window that happens to share its timestamp so the final
        window always aligns with the final statistics."""
        self.stop()
        if self.records and self.records[-1]["t_us"] == self.engine.now:
            self.records.pop()
            _, windows = expand_records(self.records)
            self._last = windows[-1] if windows else {}
        self.take()
        return self.records

    def take(self) -> None:
        """Record one window at the engine's clock."""
        flat = flatten_snapshot(self.registry.snapshot())
        if not self.records:
            delta = flat
            full = True
        else:
            delta = {
                key: value
                for key, value in flat.items()
                if self._last.get(key) != value
            }
            full = False
        self.records.append(
            {"t_us": self.engine.now, "full": full, "values": delta}
        )
        self._last = flat

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """The cadence and the windows so far; the next window is due an
        interval after the last."""
        return {"interval_us": self.interval_us, "records": self.records}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` taken at this recorder's cadence
        (a resume checks that first), before :meth:`start`."""
        self.records = list(state["records"])
        _, windows = expand_records(self.records)
        self._last = windows[-1] if windows else {}
