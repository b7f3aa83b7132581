"""Exemplar sampling: keep the K slowest requests per op type, plus a
deterministic reservoir of typical ones, with enough context to explain
*why* a request landed in the latency tail.

The :class:`ExemplarRecorder` is a :class:`~repro.obs.trace.TraceSink`
wrapper: it forwards every span unchanged to the inner sink (trace files
stay byte-identical) while accumulating per-request stage breakdowns
from the span stream.  When the end-to-end ``request`` span arrives it
finalizes an *exemplar record* carrying:

- the per-stage time breakdown (``stages_us``) and total latency,
- the summed retry count (``nand_read`` / ``read_retry`` /
  ``recovery_read`` spans carry ``retries`` info),
- the h-layers touched, fed through the :meth:`annotate` side channel
  (the FTL reports the physical layer of each page *without* emitting a
  span, so golden traces are untouched),
- a ``gc_collision`` flag: whether a background operation (GC read/
  program or erase) on one of the request's chips overlapped the
  request's lifetime, i.e. the request plausibly queued behind it.

Selection is deterministic: the slowest-K set is exact (ties broken by
request id), and the "typical" set is reservoir sampling driven by a
``random.Random`` seeded from the run seed, so the same seeded run
always retains the same exemplars (the artifact byte-identity tests
rely on this).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.trace import BACKGROUND_STAGES, Span, TraceSink

#: how many completed background intervals to remember per chip when
#: testing for GC collisions (oldest evicted first)
BACKGROUND_WINDOW = 64

#: tail buckets linked from the latency histogram, widest first
TAIL_BUCKETS = ("p90-p99", "p99-p999", "p999-max")


class ExemplarRecorder(TraceSink):
    """Accumulate tail and typical request exemplars from a span stream.

    Parameters
    ----------
    inner:
        Sink every span is forwarded to (use a
        :class:`~repro.obs.trace.NullSink` when no trace file was
        requested).
    k_slowest:
        Exact slowest-K retained per op type (``read`` / ``write``).
    reservoir_size:
        Size of the uniform "typical" reservoir per op type.
    seed:
        Run seed; the reservoir RNG derives from it per op type.
    """

    def __init__(
        self,
        inner: Optional[TraceSink] = None,
        k_slowest: int = 8,
        reservoir_size: int = 16,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.k_slowest = k_slowest
        self.reservoir_size = reservoir_size
        self.seed = seed
        # per-request accumulation, finalized on the "request" span
        self._stages: Dict[int, Dict[str, float]] = {}
        self._retries: Dict[int, int] = {}
        self._chips: Dict[int, set] = {}
        self._layers: Dict[int, set] = {}
        # per-chip recent background intervals: (start_us, end_us)
        self._background: Dict[int, Deque[Tuple[float, float]]] = {}
        # per-kind selections
        self._seq = 0
        self._counts: Dict[str, int] = {}
        # min-heap of (latency_us, -seq, record): root is the entry to evict
        self._slowest: Dict[str, List[tuple]] = {}
        self._reservoir: Dict[str, List[dict]] = {}
        self._rng: Dict[str, random.Random] = {}

    # -- side channel ---------------------------------------------------

    def annotate(self, request: int, lpn: int, info: dict) -> None:
        """Record out-of-band page context (currently the h-layer) for a
        request without emitting a span."""
        layer = info.get("layer")
        if layer is not None:
            self._layers.setdefault(request, set()).add(layer)

    # -- sink protocol --------------------------------------------------

    def emit(self, span: Span) -> None:
        if self.inner is not None:
            self.inner.emit(span)
        if span.stage in BACKGROUND_STAGES:
            if span.chip is not None:
                window = self._background.get(span.chip)
                if window is None:
                    window = deque(maxlen=BACKGROUND_WINDOW)
                    self._background[span.chip] = window
                window.append((span.start_us, span.end_us))
            return
        if span.request is None:
            return
        if span.stage == "request":
            self._finalize(span)
            return
        stages = self._stages.setdefault(span.request, {})
        stages[span.stage] = stages.get(span.stage, 0.0) + span.duration_us
        retries = span.info.get("retries")
        if retries:
            self._retries[span.request] = (
                self._retries.get(span.request, 0) + int(retries)
            )
        if span.chip is not None:
            self._chips.setdefault(span.request, set()).add(span.chip)

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()

    # -- finalization ---------------------------------------------------

    def _finalize(self, span: Span) -> None:
        request = span.request
        kind = str(span.info.get("kind", "unknown"))
        chips = self._chips.pop(request, None) or set()
        record = {
            "request": request,
            "kind": kind,
            "lpn": span.info.get("lpn"),
            "n_pages": span.info.get("n_pages"),
            "start_us": span.start_us,
            "end_us": span.end_us,
            "latency_us": span.end_us - span.start_us,
            "stages_us": dict(sorted(self._stages.pop(request, {}).items())),
            "retries": self._retries.pop(request, 0),
            "chips": sorted(chips),
            "layers": sorted(self._layers.pop(request, set())),
            "gc_collision": self._collides(chips, span.start_us, span.end_us),
        }
        tenant = span.info.get("tenant")
        if tenant is not None:
            record["tenant"] = tenant
        self._select(kind, record)

    def _collides(self, chips: set, start_us: float, end_us: float) -> bool:
        for chip in chips:
            window = self._background.get(chip)
            if not window:
                continue
            for bg_start, bg_end in window:
                if bg_end > start_us and bg_start < end_us:
                    return True
        return False

    def _select(self, kind: str, record: dict) -> None:
        self._seq += 1
        count = self._counts.get(kind, 0) + 1
        self._counts[kind] = count
        # exact slowest-K (ties keep the earlier request)
        heap = self._slowest.setdefault(kind, [])
        entry = (record["latency_us"], -self._seq, record)
        if len(heap) < self.k_slowest:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
        # uniform reservoir of typical requests
        reservoir = self._reservoir.setdefault(kind, [])
        if len(reservoir) < self.reservoir_size:
            reservoir.append(record)
        else:
            rng = self._rng.get(kind)
            if rng is None:
                rng = random.Random(f"{self.seed}:{kind}")
                self._rng[kind] = rng
            slot = rng.randrange(count)
            if slot < self.reservoir_size:
                reservoir[slot] = record

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Everything but the inner sink, which is wiring."""
        return {key: value for key, value in vars(self).items() if key != "inner"}

    def load_state_dict(self, state: dict) -> None:
        vars(self).update(state)

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-ready view of the retained exemplars."""
        kinds = {}
        for kind in sorted(self._counts):
            slowest = sorted(
                self._slowest.get(kind, []),
                key=lambda entry: (-entry[0], -entry[1]),
            )
            kinds[kind] = {
                "count": self._counts[kind],
                "slowest": [entry[2] for entry in slowest],
                "typical": list(self._reservoir.get(kind, [])),
            }
        return {
            "k_slowest": self.k_slowest,
            "reservoir_size": self.reservoir_size,
            "seed": self.seed,
            "kinds": kinds,
        }


def link_tail_buckets(exemplars: dict, thresholds: Dict[str, dict]) -> dict:
    """Link slowest exemplars to latency-histogram tail buckets.

    ``thresholds`` maps op kind to ``{"p90_us", "p99_us", "p999_us",
    "max_us"}`` (from the run's latency statistics).  Returns, per kind,
    the thresholds plus ``buckets``: tail-bucket name -> request ids of
    the retained exemplars whose latency falls in that bucket (exemplars
    below p90 are not tail exemplars and are left unlinked).
    """
    links = {}
    for kind in sorted(thresholds):
        cuts = thresholds[kind]
        buckets = {name: [] for name in TAIL_BUCKETS}
        for record in exemplars.get("kinds", {}).get(kind, {}).get("slowest", []):
            latency = record["latency_us"]
            if latency >= cuts["p999_us"]:
                buckets["p999-max"].append(record["request"])
            elif latency >= cuts["p99_us"]:
                buckets["p99-p999"].append(record["request"])
            elif latency >= cuts["p90_us"]:
                buckets["p90-p99"].append(record["request"])
        links[kind] = {
            "thresholds": {key: cuts[key] for key in sorted(cuts)},
            "buckets": buckets,
        }
    return links
