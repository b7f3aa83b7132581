"""The traced pass: per-layer host time from spans recorded in memory.

:func:`instrument` wraps methods on the instances of one built
simulation -- after construction and prefill, the way
``repro.obs.profile.attach_profiler`` wraps the chip entry points -- so
the classes stay untouched and an untraced run pays nothing.  Each call
through a wrapped boundary records a span (boundary, start, end, parent
span) into flat arrays.  A layer's self time is the time of its spans
minus the time of their child spans.  The replay itself is the root
span and belongs to ``ssd.host``, so the host's self time holds every
part of the replay that no other layer's span covers.

Callbacks handed across a boundary (engine events, resource jobs and
completions, the host's completion callback) run later, inside whatever
span dispatches them.  They are wrapped at hand-over time in a span of
the layer that handed them over, so an FTL completion is charged to the
FTL and not to the resource that delivered it.

Boundary names read ``layer/method``.  A method shared by host I/O and
garbage collection (``_program_entries``, ``_flash_read``, ...) is
charged to ``ftl.gc`` when called with ``is_gc`` true.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

import numpy as np

import repro.ssd.host as host_module
from repro.ftl.dftl import DFTL

#: layer -> FTL methods wrapped on the instance (``submit`` is wrapped
#: apart, since it hands over the host's completion callback)
_FTL_METHODS = {
    "ftl.write": (
        "_start_write",
        "_drain_pending_writes",
        "_maybe_flush",
        "_dispatch_group",
        "_bind_host_pages",
        "_ensure_active_blocks",
        "allocate_wl",
    ),
    "ftl.read": (
        "_start_read",
        "_read_lpn",
        "_mapped_read",
        "_controller_read",
        "_buffer_read",
        "_unmapped_read",
    ),
    "ftl.gc": (
        "_maybe_gc",
        "_gc_continue",
        "_gc_erase",
        "_bind_gc_pages",
        "_gc_allocate",
        # dftl's translation-block GC
        "_maybe_trans_gc",
        "_trans_gc_continue",
        "_migrate_tpage",
        "_trans_gc_erase",
    ),
    "ftl.dftl": (
        "_translate_read",
        "_cmt_note_update",
        "_cmt_fill",
        "_cmt_evict_overflow",
        "_writeback",
        "_issue_writeback",
        "_trans_flash_read",
        "_finish_trans_read",
        "_program_tpage",
        "_trans_allocate",
        "_drain_trans_pending",
    ),
}

#: FTL methods taking ``is_gc`` -> its positional index (after self)
_GC_SPLIT = {
    "_program_entries": 2,
    "_on_program_complete": 6,
    "_on_program_fail": 3,
    "_flash_read": 2,
    "_deliver_read": 2,
    "_account_read": 1,
}

_MAPPER_METHODS = (
    "lookup",
    "bind",
    "invalidate_lpn",
    "valid_count",
    "valid_counts_of_chip",
    "valid_pages_of_block",
    "clear_block",
)
_BLOCKMGR_METHODS = (
    "state",
    "kind_of",
    "free_count",
    "take_free",
    "mark_full",
    "mark_free",
    "mark_failing",
    "is_failing",
    "retire",
    "full_blocks",
    "failing_of_kind",
    "select_victim",
)
_BUFFER_METHODS = (
    "can_admit",
    "admit",
    "pop_group",
    "complete",
    "contains",
    "latest_data",
    "latest_version",
)
_CHIP_METHODS = ("program_wl", "read_page", "erase_block", "programmed_wl_count", "block_pe")
_ISPP_METHODS = ("wl_profile", "simulate", "follower_params")
_RELIABILITY_METHODS = ("program_slowdown", "wl_ber", "ber_ep1", "layer_ber", "block_factor")
_RETRY_METHODS = ("transient_optimal", "read_optimal", "stable_optimal", "retries_needed")
_OPM_METHODS = (
    "has_leader",
    "follower_params",
    "record_leader",
    "check_program",
    "read_params",
    "note_read",
    "invalidate_block",
    "invalidate_read_entry",
)
_ORT_METHODS = ("get", "update", "invalidate_entry", "invalidate_block")
_WAM_METHODS = ("allocate", "install_block", "discard_block", "free_wls", "cursors")


class SpanLog:
    """Spans in memory: boundary id, start, end and parent span index.

    ``scheduled`` counts engine events per layer that scheduled them.
    """

    def __init__(self) -> None:
        self.boundaries: List[str] = []
        self._ids: Dict[str, int] = {}
        self._layer_of: List[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.scheduled: Counter = Counter()
        #: ISPP verify steps (performed, skipped) over the replay
        self.verifies = [0, 0]
        #: chip (programs, reads, erases) when the replay started
        self.chip_ops_before = (0, 0, 0)

    def boundary_id(self, boundary: str) -> int:
        bid = self._ids.get(boundary)
        if bid is None:
            bid = self._ids[boundary] = len(self.boundaries)
            self.boundaries.append(boundary)
            self._layer_of.append(boundary.split("/", 1)[0])
        return bid

    def current_layer(self) -> str:
        index = self._stack[-1]
        return self._layer_of[self.name[index]] if index >= 0 else "other"

    def open(self, boundary_id: int) -> int:
        index = len(self.end)
        self.name.append(boundary_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, boundary: str):
        index = self.open(self.boundary_id(boundary))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, boundary: str, fn, callbacks=()):
        """``fn`` recording a span per call.  Positional arguments listed
        in ``callbacks`` (index -> suffix) are callables run later; each
        is wrapped in a span of the caller's layer."""
        bid = self.boundary_id(boundary)
        open_, close = self.open, self.close
        if not callbacks:

            def spanned(*args, **kwargs):
                index = open_(bid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)

            return spanned
        handed = self._handed_over

        def spanned_with_callbacks(*args, **kwargs):
            layer = self.current_layer()
            args = list(args)
            for position, suffix in callbacks:
                if position < len(args) and args[position] is not None:
                    args[position] = handed(layer, suffix, args[position])
            index = open_(bid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return spanned_with_callbacks

    def wrap_gc_split(self, name: str, fn, position: int):
        """``fn`` charged to ``ftl.gc`` or ``ftl.write``/``ftl.read`` by
        its ``is_gc`` argument (keyword or at ``position``)."""
        other = "ftl.read" if "read" in name else "ftl.write"
        gc_id = self.boundary_id(f"ftl.gc/{name}")
        other_id = self.boundary_id(f"{other}/{name}")
        open_, close = self.open, self.close

        def spanned(*args, **kwargs):
            is_gc = kwargs["is_gc"] if "is_gc" in kwargs else args[position]
            index = open_(gc_id if is_gc else other_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return spanned

    def _handed_over(self, layer: str, suffix: str, callback):
        if suffix == "event":
            self.scheduled[layer] += 1
        return self.wrap(f"{layer}/{suffix}", callback)

    # -- analysis ----------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        counts = np.bincount(
            np.frombuffer(self.name, dtype=np.int32), minlength=len(self.boundaries)
        )
        return {b: int(counts[i]) for i, b in enumerate(self.boundaries)}

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span time minus the time of child spans."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(self.boundaries)
        own = np.bincount(names, weights=duration, minlength=n)
        nested = parents >= 0
        children = np.bincount(
            names[parents[nested]], weights=duration[nested], minlength=n
        )
        per_layer: Dict[str, float] = {}
        for bid, boundary in enumerate(self.boundaries):
            layer = self._layer_of[bid]
            per_layer[layer] = per_layer.get(layer, 0.0) + float(
                own[bid] - children[bid]
            )
        return per_layer


class _SpannedTables:
    """Stand-in for a chip's ``FastPathTables`` (which has ``__slots__``,
    so its methods cannot be rebound on the instance)."""

    def __init__(self, log: SpanLog, inner) -> None:
        self.block = log.wrap("nand.reliability/block", inner.block)
        self.invalidate = log.wrap("nand.reliability/invalidate", inner.invalidate)
        self.invalidate_block = log.wrap(
            "nand.reliability/invalidate_block", inner.invalidate_block
        )


def _wrap_methods(log: SpanLog, obj, layer: str, names) -> None:
    for name in names:
        fn = getattr(obj, name, None)
        if fn is not None:
            setattr(obj, name, log.wrap(f"{layer}/{name}", fn))


def instrument(log: SpanLog, sim) -> None:
    """Wrap the layer boundaries of one built simulation."""
    controller = sim.controller
    engine = controller.engine
    engine.run = log.wrap("sim.engine/run", engine.run)
    engine.schedule = log.wrap(
        "sim.engine/schedule", engine.schedule, callbacks=((1, "event"),)
    )
    engine.schedule_at = log.wrap(
        "sim.engine/schedule_at", engine.schedule_at, callbacks=((1, "event"),)
    )
    for resource in controller._chip_resources + controller._bus_resources:
        resource.submit = log.wrap(
            "sim.resources/submit",
            resource.submit,
            callbacks=((0, "job"), (1, "on_done")),
        )
        resource._start_next = log.wrap(
            "sim.resources/_start_next", resource._start_next
        )

    ftl = sim.ftl
    ftl.submit = log.wrap("ftl.submit/submit", ftl.submit, callbacks=((1, "callback"),))
    for layer, names in _FTL_METHODS.items():
        # the RAM-resident FTLs inherit a pass-through _translate_read
        if layer != "ftl.dftl" or isinstance(ftl, DFTL):
            _wrap_methods(log, ftl, layer, names)
    for name, position in _GC_SPLIT.items():
        setattr(ftl, name, log.wrap_gc_split(name, getattr(ftl, name), position))
    for mapper in ftl.mappers().values():
        _wrap_methods(log, mapper, "ftl.mapping", _MAPPER_METHODS)
    _wrap_methods(log, ftl.blocks, "ftl.blockmgr", _BLOCKMGR_METHODS)
    _wrap_methods(log, ftl.buffer, "ssd.write_buffer", _BUFFER_METHODS)
    opm = getattr(ftl, "opm", None)
    if opm is not None:
        _wrap_methods(log, opm, "core.opm", _OPM_METHODS)
        _wrap_methods(log, opm.ort, "core.ort", _ORT_METHODS)
    wam = getattr(ftl, "wam", None)
    if wam is not None:
        _wrap_methods(log, wam, "core.wam", _WAM_METHODS)

    for chip in controller.chips:
        _wrap_methods(log, chip, "nand.chip", _CHIP_METHODS)
        if chip._fast is not None:
            chip._fast = _SpannedTables(log, chip._fast)
    log.chip_ops_before = _chip_ops(controller)
    ispp = controller.ispp
    _wrap_methods(log, ispp, "nand.ispp", _ISPP_METHODS)
    simulate = ispp.simulate

    def counted_simulate(*args, **kwargs):
        result = simulate(*args, **kwargs)
        log.verifies[0] += result.vfy_count
        log.verifies[1] += result.vfy_skipped
        return result

    ispp.simulate = counted_simulate
    _wrap_methods(log, controller.reliability, "nand.reliability", _RELIABILITY_METHODS)
    _wrap_methods(log, controller.retry_model, "nand.read_retry", _RETRY_METHODS)


def _chip_ops(controller):
    chips = controller.chips
    return (
        sum(chip.programs_done for chip in chips),
        sum(chip.reads_done for chip in chips),
        sum(chip.erases_done for chip in chips),
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(log: SpanLog, sim, stats) -> Dict[str, float]:
    """The per-layer figures of one traced replay.

    Host self seconds (``*.self_s``) come from the spans; counts and
    ratios come from the simulation's own counters, so they repeat
    exactly.
    """
    self_s = log.self_seconds()
    calls = log.calls()
    controller = sim.controller
    engine = controller.engine
    ftl = sim.ftl
    counters = stats.counters
    programs, reads, erases = (
        after - before
        for after, before in zip(_chip_ops(controller), log.chip_ops_before)
    )
    dftl = getattr(ftl, "dftl_stats", None)
    opm = getattr(ftl, "opm", None)
    busy_us = sum(r.busy_time_us for r in controller._chip_resources)
    metrics = {
        "ssd.host.self_s": self_s.get("ssd.host", 0.0),
        "ssd.host.arrivals_scheduled": float(log.scheduled["ssd.host"]),
        "sim.engine.self_s": self_s.get("sim.engine", 0.0),
        "sim.engine.events": float(engine.processed),
        "sim.engine.peak_pending": float(engine.peak_pending),
        "sim.resources.self_s": self_s.get("sim.resources", 0.0),
        "sim.resources.submits": float(calls.get("sim.resources/submit", 0)),
        "ftl.submit.self_s": self_s.get("ftl.submit", 0.0),
        "ftl.write.self_s": self_s.get("ftl.write", 0.0),
        "ssd.write_buffer.self_s": self_s.get("ssd.write_buffer", 0.0),
        "ssd.write_buffer.admits": float(calls.get("ssd.write_buffer/admit", 0)),
        "ftl.read.self_s": self_s.get("ftl.read", 0.0),
        "nand.read_retry.self_s": self_s.get("nand.read_retry", 0.0),
        "nand.retries_per_read": counters.mean_num_retry,
        "core.ort.self_s": self_s.get("core.ort", 0.0),
        "core.ort.hit_ratio": opm.ort.hit_rate if opm is not None else 0.0,
        "ftl.gc.self_s": self_s.get("ftl.gc", 0.0),
        "ftl.gc.erases": float(counters.erases),
        "ftl.gc.programs": float(
            counters.gc_programs + (dftl.trans_gc_programs if dftl else 0)
        ),
        "ftl.gc.write_amp": _ratio(programs, counters.flash_programs),
        "ftl.dftl.translation_s": self_s.get("ftl.dftl", 0.0),
        "ftl.dftl.cmt_hit_ratio": (
            _ratio(dftl.cmt_hits, dftl.cmt_hits + dftl.cmt_misses) if dftl else 0.0
        ),
        "ftl.dftl.translation_ops": float(
            dftl.trans_reads + dftl.trans_programs + dftl.trans_gc_programs
            if dftl
            else 0
        ),
        "ftl.dftl.trans_gc_erases": float(dftl.trans_gc_erases if dftl else 0),
        "ftl.mapping.self_s": self_s.get("ftl.mapping", 0.0),
        "ftl.blockmgr.self_s": self_s.get("ftl.blockmgr", 0.0),
        "core.opm.self_s": self_s.get("core.opm", 0.0),
        "core.wam.self_s": self_s.get("core.wam", 0.0),
        "core.wam.follower_ratio": _ratio(
            counters.follower_programs,
            counters.follower_programs + counters.leader_programs,
        ),
        "core.vfy_skip_ratio": _ratio(log.verifies[1], sum(log.verifies)),
        "nand.sim_mean_t_prog_us": counters.mean_t_prog_us,
        "nand.chip.self_s": self_s.get("nand.chip", 0.0),
        "nand.ispp.self_s": self_s.get("nand.ispp", 0.0),
        "nand.reliability.self_s": self_s.get("nand.reliability", 0.0),
        "nand.programs": float(programs),
        "nand.reads": float(reads),
        "nand.erases": float(erases),
        "nand.sim_die_busy_frac": _ratio(
            busy_us, len(controller.chips) * engine.now
        ),
        "ssd.stats.self_s": self_s.get("ssd.stats", 0.0),
    }
    return metrics


@contextmanager
def traced_replay(log: SpanLog):
    """Run the replay as the top-level ``ssd.host`` span, with the
    statistics it creates wrapped as ``ssd.stats``.

    The replay loop builds its :class:`SimulationStats` itself, so the
    module's ``_new_stats`` is swapped for the duration of the replay.
    """
    new_stats = host_module._new_stats

    def spanned_stats(sim, trace):
        stats = new_stats(sim, trace)
        for histogram in (stats.read_latency, stats.write_latency):
            histogram.add = log.wrap("ssd.stats/add", histogram.add)
        return stats

    host_module._new_stats = spanned_stats
    try:
        with log.span("ssd.host/replay"):
            yield
    finally:
        host_module._new_stats = new_stats
