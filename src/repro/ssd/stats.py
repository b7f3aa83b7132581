"""Latency / IOPS statistics collection and CDF helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.ftl.base import FTLCounters
    from repro.workloads.base import IORequest

#: version stamp of the :meth:`SimulationStats.to_dict` layout; bump when
#: keys change shape so downstream tooling can dispatch (v2: typed counter
#: serialization, p999/max latency fields, optional metrics timeline)
SCHEMA_VERSION = 2


class LatencyStats:
    """Accumulates latency samples (microseconds) and summarizes them.

    Samples live in a geometrically grown float64 buffer: a run adds
    hundreds of thousands of samples one by one, and appending straight
    into the array (amortized O(1), no per-sample Python float object
    retained) replaces the old list-then-convert scheme.  The numpy view
    over the filled prefix is cached between queries, since a run
    summarizes the same distribution many times (mean, several
    percentiles, CDF).
    """

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._buffer = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._count = 0
        self._view: Optional[np.ndarray] = None

    def _reserve(self, extra: int) -> None:
        needed = self._count + extra
        capacity = len(self._buffer)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.float64)
        grown[: self._count] = self._buffer[: self._count]
        self._buffer = grown

    def add(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError("latency must be >= 0")
        if self._count == len(self._buffer):
            self._reserve(1)
        self._buffer[self._count] = latency_us
        self._count += 1
        self._view = None

    def extend(self, samples: Sequence[float]) -> None:
        """Bulk-append samples (checkpoint restore)."""
        values = np.fromiter((float(value) for value in samples), dtype=np.float64)
        if values.size:
            self._reserve(values.size)
            self._buffer[self._count : self._count + values.size] = values
            self._count += values.size
            self._view = None

    def sample_list(self) -> List[float]:
        """The raw samples as a plain list (checkpoint serialization);
        float64 -> Python float is exact, so values round-trip."""
        return self._buffer[: self._count].tolist()

    def __len__(self) -> int:
        return self._count

    @property
    def samples(self) -> np.ndarray:
        if self._view is None:
            self._view = self._buffer[: self._count]
        return self._view

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.samples)) if self._count else 0.0

    @property
    def max_us(self) -> float:
        return float(np.max(self.samples)) if self._count else 0.0

    def percentile(self, p: float) -> float:
        """p-th percentile latency in microseconds (p in [0, 100])."""
        if not self._count:
            return 0.0
        return float(np.percentile(self.samples, p))

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted latencies, cumulative fraction) for CDF plots."""
        if not self._count:
            return np.array([]), np.array([])
        values = np.sort(self.samples)
        fractions = np.arange(1, len(values) + 1) / len(values)
        return values, fractions

    def fraction_below(self, threshold_us: float) -> float:
        if not self._count:
            return 0.0
        return float(np.mean(self.samples <= threshold_us))


def _latency_block(stats: LatencyStats) -> dict:
    return {
        "count": len(stats),
        "mean_us": stats.mean_us,
        "p50_us": stats.percentile(50),
        "p90_us": stats.percentile(90),
        "p99_us": stats.percentile(99),
        "p999_us": stats.percentile(99.9),
        "max_us": stats.max_us,
    }


@dataclass
class TenantStats:
    """Per-tenant slice of a multi-tenant run's statistics."""

    completed_requests: int = 0
    read_latency: LatencyStats = field(default_factory=LatencyStats)
    write_latency: LatencyStats = field(default_factory=LatencyStats)

    def iops(self, duration_us: float) -> float:
        if duration_us <= 0:
            return 0.0
        return self.completed_requests / (duration_us / 1e6)

    @property
    def p99_us(self) -> float:
        """p99 over reads and writes together (the interference metric)."""
        if not (len(self.read_latency) or len(self.write_latency)):
            return 0.0
        samples = np.concatenate(
            (self.read_latency.samples, self.write_latency.samples)
        )
        return float(np.percentile(samples, 99))

    def to_dict(self, duration_us: float = 0.0) -> dict:
        return {
            "completed_requests": self.completed_requests,
            "iops": self.iops(duration_us),
            "p99_us": self.p99_us,
            "read_latency": _latency_block(self.read_latency),
            "write_latency": _latency_block(self.write_latency),
        }


@dataclass
class SimulationStats:
    """Result of one simulation run."""

    ftl_name: str
    workload: str
    duration_us: float = 0.0
    completed_requests: int = 0
    read_latency: LatencyStats = field(default_factory=LatencyStats)
    write_latency: LatencyStats = field(default_factory=LatencyStats)
    counters: Optional["FTLCounters"] = None
    #: :class:`~repro.faults.counters.RecoveryCounters` of the run; only
    #: serialized when any recovery action fired, so fault-free output is
    #: unchanged
    recovery: Optional[object] = None
    #: metrics timeline, one dict per window
    #: (:func:`repro.obs.timeseries.metrics_samples`); present only when
    #: the run sampled metrics
    metrics: Optional[List[dict]] = None
    #: per-tenant statistics of a multi-tenant run, keyed by tenant name;
    #: None on single-stream runs so their serialized output is unchanged
    tenants: Optional[Dict[str, TenantStats]] = None
    #: what a stopped replay left in flight, then waiting (not serialized)
    unfinished: List["IORequest"] = field(default_factory=list)

    @property
    def iops(self) -> float:
        """Completed host requests per second."""
        if self.duration_us <= 0:
            return 0.0
        return self.completed_requests / (self.duration_us / 1e6)

    def to_dict(self) -> dict:
        """JSON-serializable summary, result schema v2 (see
        docs/OBSERVABILITY.md for the layout contract)."""
        latency_block = _latency_block

        result = {
            "schema_version": SCHEMA_VERSION,
            "ftl": self.ftl_name,
            "workload": self.workload,
            "duration_us": self.duration_us,
            "completed_requests": self.completed_requests,
            "iops": self.iops,
            "read_latency": latency_block(self.read_latency),
            "write_latency": latency_block(self.write_latency),
        }
        if self.counters is not None:
            result["counters"] = self.counters.to_dict()
        if self.recovery is not None and self.recovery.any():
            result["recovery"] = self.recovery.to_dict()
        if self.metrics is not None:
            result["metrics"] = [dict(sample) for sample in self.metrics]
        if self.tenants is not None:
            result["tenants"] = {
                name: tenant.to_dict(self.duration_us)
                for name, tenant in self.tenants.items()
            }
        return result

    def summary(self) -> str:
        line = (
            f"{self.ftl_name:>9s} | {self.workload:>6s} | "
            f"IOPS {self.iops:10.0f} | "
            f"read p50/p99 {self.read_latency.percentile(50):7.0f}/"
            f"{self.read_latency.percentile(99):7.0f} us | "
            f"write p50/p99 {self.write_latency.percentile(50):7.0f}/"
            f"{self.write_latency.percentile(99):7.0f} us"
        )
        if self.recovery is not None and self.recovery.any():
            recovery = self.recovery
            line += (
                f" | recovery: pfail {recovery.program_fails}"
                f" efail {recovery.erase_fails}"
                f" retired {recovery.blocks_retired}"
                f" scrubs {recovery.scrubs}"
                f" ort-inv {recovery.ort_invalidations}"
                f" uncorr {recovery.uncorrectable_after_recovery}"
            )
        return line


def normalize(values: Sequence[float], baseline: float) -> List[float]:
    """Normalize a series over a baseline value (paper-style plots)."""
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    return [value / baseline for value in values]
