"""Shared FTL machinery: the host datapath, buffer flushing, and GC.

:class:`BaseFTL` implements everything the three evaluated FTLs have in
common -- page-level mapping, write buffering and WL-group flushing,
read coherence, greedy garbage collection -- and exposes policy hooks
that the variants override:

=====================  =====================================================
hook                   policy it controls
=====================  =====================================================
``install_block``      how a fresh active block's WLs will be ordered
``allocate_wl``        which WL serves the next flush (WAM vs. sequential)
``program_params``     operating parameters per WL (PS-aware or default)
``after_program``      post-program bookkeeping (leader recording, safety)
``read_params``        read offset hints (ORT vs. defaults)
``after_read``         read bookkeeping (ORT updates)
=====================  =====================================================

All latencies emerge from the device model and the FIFO resources; the
FTL itself adds no magic numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.wam import Allocation, SequentialCursor
from repro.faults.counters import RecoveryCounters
from repro.ftl.blockmgr import (
    DATA_KIND,
    TRANS_KIND,
    BlockManager,
    BlockState,
    OutOfSpaceError,
)
from repro.ftl.mapping import UNMAPPED, PageMapper
from repro.nand.chip import ProgramResult, ReadResult
from repro.nand.errors import EraseFailError, ProgramFailError, WearOutError
from repro.nand.geometry import PageAddress
from repro.nand.ispp import ProgramParams
from repro.nand.read_retry import NOMINAL_READ, ReadParams
from repro.ssd.config import SSDConfig
from repro.ssd.write_buffer import BufferEntry, WriteBuffer
from repro.workloads.base import IORequest


@dataclass
class FTLCounters:
    """Operation counters exposed for evaluation and tests."""

    host_read_pages: int = 0
    host_write_pages: int = 0
    buffer_read_hits: int = 0
    flash_reads: int = 0
    flash_programs: int = 0
    leader_programs: int = 0
    follower_programs: int = 0
    gc_reads: int = 0
    gc_programs: int = 0
    erases: int = 0
    retired_blocks: int = 0
    reprograms: int = 0
    read_retries: int = 0
    retried_reads: int = 0
    vfy_skipped: int = 0
    program_time_us: float = 0.0
    read_time_us: float = 0.0

    @property
    def mean_t_prog_us(self) -> float:
        total = self.flash_programs + self.gc_programs
        return self.program_time_us / total if total else 0.0

    @property
    def mean_num_retry(self) -> float:
        total = self.flash_reads + self.gc_reads
        return self.read_retries / total if total else 0.0

    def to_dict(self) -> dict:
        """Explicitly typed serialization (result schema v2)."""
        return {
            "host_read_pages": self.host_read_pages,
            "host_write_pages": self.host_write_pages,
            "buffer_read_hits": self.buffer_read_hits,
            "flash_reads": self.flash_reads,
            "flash_programs": self.flash_programs,
            "leader_programs": self.leader_programs,
            "follower_programs": self.follower_programs,
            "gc_reads": self.gc_reads,
            "gc_programs": self.gc_programs,
            "erases": self.erases,
            "retired_blocks": self.retired_blocks,
            "reprograms": self.reprograms,
            "read_retries": self.read_retries,
            "retried_reads": self.retried_reads,
            "vfy_skipped": self.vfy_skipped,
            "program_time_us": self.program_time_us,
            "read_time_us": self.read_time_us,
            "mean_t_prog_us": self.mean_t_prog_us,
            "mean_num_retry": self.mean_num_retry,
        }


class _ActiveRequest:
    """Runtime completion tracking for one host request."""

    __slots__ = ("spec", "issued_us", "remaining", "on_complete", "req_id")

    def __init__(
        self,
        spec: IORequest,
        issued_us: float,
        on_complete: Callable[["_ActiveRequest", float], None],
    ) -> None:
        self.spec = spec
        self.issued_us = issued_us
        self.remaining = spec.n_pages
        self.on_complete = on_complete
        #: tracer-assigned id; None when tracing is disabled
        self.req_id = None

    def page_done(self, now_us: float) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.on_complete(self, now_us)


class _GCJob:
    """State of one in-progress garbage collection on a chip."""

    __slots__ = ("victim", "pending", "next", "staged")

    def __init__(self, victim: int, pending: List[Tuple[int, int]]) -> None:
        self.victim = victim
        #: the victim's valid (ppn, lpn) pairs, in page order
        self.pending = pending
        #: index in ``pending`` of the next pair to migrate
        self.next = 0
        #: (lpn, data, old_ppn) triples read out and awaiting program
        self.staged: List[Tuple[int, object, int]] = []


class BaseFTL:
    """Page-level FTL with pluggable PS-awareness."""

    name = "base"

    def __init__(self, config: SSDConfig, controller) -> None:
        self.config = config
        self.controller = controller
        geometry = config.geometry
        self.geometry = geometry
        self.mapper = PageMapper(geometry, config.logical_pages)
        #: block kind -> the mapper accounting that kind's pages;
        #: demand-paged variants add their translation mapper
        self.kind_mappers: Dict[str, PageMapper] = {DATA_KIND: self.mapper}
        self.blocks = BlockManager(geometry)
        self.buffer = WriteBuffer(config.buffer_capacity_pages)
        self.counters = FTLCounters()
        self.recovery = RecoveryCounters()
        # fault injector shared with the chips; None on fault-free runs,
        # which keeps every recovery path dormant (zero behavioral drift)
        self.faults = getattr(controller, "faults", None)
        # lifecycle tracer shared with the controller; None keeps every
        # hook down to a single pointer comparison (tracing records but
        # never schedules, so the event sequence is identical either way)
        self.tracer = getattr(controller, "tracer", None)
        # runtime invariant checker shared with the controller; None
        # keeps every hook down to a single pointer comparison (checking
        # records and verifies but never schedules events, so the event
        # sequence is identical either way)
        self.checker = getattr(controller, "checker", None)
        self._scrubbed_lpns: set = set()
        self._pending_writes: Deque[Tuple[_ActiveRequest, int]] = deque()
        self._inflight_programs: Dict[int, int] = {
            chip: 0 for chip in range(geometry.n_chips)
        }
        #: programs submitted but not landed, per (chip, block): a block
        #: stays ACTIVE until its last program lands, so GC never takes
        #: it as a victim before that program's pages are bound
        self._block_programs: Dict[Tuple[int, int], int] = {}
        self._gc_jobs: Dict[int, Optional[_GCJob]] = {
            chip: None for chip in range(geometry.n_chips)
        }
        # GC migrations get their own active block per chip (hot/cold
        # separation: host-written and GC-relocated data do not mix)
        self._gc_cursors: Dict[int, Optional[SequentialCursor]] = {
            chip: None for chip in range(geometry.n_chips)
        }
        self._rr_chip = 0
        # SPOR support: every host write carries a monotonic FTL-global
        # sequence number, programmed into the page's OOB area so that
        # recovery can order an LPN's surviving copies.  Page data under
        # store_oob is the sequence number itself (unique per write),
        # which lets the integrity oracle distinguish stale copies.
        self._store_oob = config.store_oob
        self._write_seq = 0
        #: bus time of one page's transfer, and the bus job that takes
        #: it: the same for every page read, so built once, not per read
        transfer = config.timing.transfer_us(geometry.block.page_size_bytes)
        self._page_transfer_us = transfer
        self._page_transfer_job = lambda: (transfer, None)

    # ------------------------------------------------------------------
    # policy hooks (overridden by FTL variants)
    # ------------------------------------------------------------------

    def install_block(self, chip_id: int, block: int) -> None:
        """Register a fresh active block with the allocation policy."""
        raise NotImplementedError

    def active_cursor_space(self, chip_id: int) -> int:
        """Free WLs currently available through the allocation policy."""
        raise NotImplementedError

    def cursor_count(self, chip_id: int) -> int:
        """Number of active blocks currently registered."""
        raise NotImplementedError

    def allocate_wl(self, chip_id: int) -> Allocation:
        """Pick the WL for the next program on a chip."""
        raise NotImplementedError

    def program_params(
        self, chip_id: int, allocation: Allocation
    ) -> Tuple[ProgramParams, float]:
        """Operating parameters for a program: (params, squeeze_mv)."""
        return ProgramParams.default(), 0.0

    def after_program(
        self,
        chip_id: int,
        allocation: Allocation,
        result: ProgramResult,
        squeeze_mv: float,
    ) -> bool:
        """Post-program bookkeeping.  Return False to demand a
        reprogram of the same data on another WL (Section 4.1.4)."""
        return True

    def read_params(self, chip_id: int, block: int, layer: int) -> ReadParams:
        """Offset hint for a read, fetched at die-service time."""
        return NOMINAL_READ

    def after_read(
        self, chip_id: int, block: int, layer: int, result: ReadResult
    ) -> None:
        """Read bookkeeping (ORT updates for the PS-aware FTL)."""

    def on_block_erased(self, chip_id: int, block: int) -> None:
        """Invalidate any per-block monitored state."""

    def discard_block(self, chip_id: int, block: int) -> None:
        """Remove any allocation cursor referencing ``block``.

        Called when a block leaves service early (program-status
        failure): its remaining free WLs must never be allocated.
        Variants extend this for their own cursor structures.
        """
        cursor = self._gc_cursors[chip_id]
        if cursor is not None and cursor.block == block:
            self._gc_cursors[chip_id] = None

    def on_uncorrectable(self, chip_id: int, block: int, layer: int) -> bool:
        """Read-recovery hook: drop any cached read parameters of the
        h-layer before the conservative re-read.  Returns True when a
        stale entry existed (counted as an ORT invalidation)."""
        return False

    def after_prefill(self, n_pages: int) -> None:
        """Post-prefill hook: the untimed fill bound ``n_pages`` LPNs
        directly through :attr:`mapper`.  Demand-paged variants override
        this to persist the matching translation metadata (also untimed)
        so their coverage invariant holds from the first timed request."""

    # ------------------------------------------------------------------
    # introspection for the invariant checker
    # ------------------------------------------------------------------

    def mappers(self) -> Dict[str, PageMapper]:
        """Every mapper whose bijection the deep audit must verify."""
        return {"l2p": self.mapper}

    def block_valid_count(self, chip_id: int, block: int) -> int:
        """Valid pages a block holds *in the mapper accounting its
        kind* -- the number that must be zero before the block may leave
        service."""
        mapper = self.kind_mappers[self.blocks.kind_of(chip_id, block)]
        return mapper.valid_count(chip_id, block)

    def audit_variant(self) -> Optional[dict]:
        """Variant-specific deep-audit hook: return ``None`` when every
        variant invariant holds, else a finding dict shaped like
        :meth:`~repro.ftl.mapping.PageMapper.audit` (``message`` plus
        optional ``lpn``/``ppn``/``chip``/``block`` context)."""
        return None

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------

    def submit(
        self,
        request: IORequest,
        on_complete: Callable[[_ActiveRequest, float], None],
    ) -> None:
        """Accept one host request; ``on_complete(active, time)`` fires
        when all its pages are done."""
        active = _ActiveRequest(request, self.controller.now, on_complete)
        tracer = self.tracer
        if tracer is not None:
            active.req_id = tracer.begin_request()

            def traced_complete(done: _ActiveRequest, now_us: float) -> None:
                tracer.end_request(
                    done.req_id,
                    done.spec.is_read,
                    done.spec.lpn,
                    done.spec.n_pages,
                    done.issued_us,
                    now_us,
                    tenant=done.spec.tenant,
                )
                on_complete(done, now_us)

            active.on_complete = traced_complete
        checker = self.checker
        if checker is not None:
            inner_complete = active.on_complete

            def checked_complete(done: _ActiveRequest, now_us: float) -> None:
                inner_complete(done, now_us)
                checker.on_request_complete(done.spec, now_us)

            active.on_complete = checked_complete
        if request.is_read:
            self._start_read(active)
        else:
            self._start_write(active)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _start_write(self, active: _ActiveRequest) -> None:
        self.counters.host_write_pages += active.spec.n_pages
        self._pending_writes.append((active, 0))
        self._drain_pending_writes()

    def _drain_pending_writes(self) -> None:
        """Admit pending host-write pages into the buffer while slots
        last, then try to flush."""
        progressed = False
        tracer = self.tracer
        checker = self.checker
        while self._pending_writes:
            active, next_page = self._pending_writes[0]
            spec = active.spec
            while next_page < spec.n_pages:
                lpn = spec.lpn + next_page
                if not self.buffer.can_admit(lpn):
                    break
                if self._store_oob:
                    self._write_seq += 1
                    data = self._write_seq
                    self.buffer.admit(
                        lpn, data=data, waiter=active, seq=self._write_seq
                    )
                else:
                    data = lpn
                    self.buffer.admit(lpn, data=lpn, waiter=active)
                if checker is not None:
                    checker.on_host_write(lpn, data)
                if tracer is not None:
                    now = self.controller.now
                    tracer.span(
                        active.req_id, lpn, "buffer_wait", active.issued_us, now
                    )
                    tracer.note_admit(active.req_id, lpn, now)
                next_page += 1
                progressed = True
            if next_page >= spec.n_pages:
                self._pending_writes.popleft()
            else:
                self._pending_writes[0] = (active, next_page)
                break
        if progressed:
            self._maybe_flush()

    def _maybe_flush(self) -> None:
        """Dispatch WL-group programs to eligible chips, round-robin.

        Full WL groups dispatch eagerly; a partial tail group only goes
        out when nothing else is in flight and no admissions are pending
        (otherwise we wait for more pages to coalesce into the group,
        avoiding degenerate one-page WL programs)."""
        n_chips = self.geometry.n_chips
        group = self.geometry.block.pages_per_wl
        made_progress = True
        while made_progress and self.buffer.staged_pages > 0:
            made_progress = False
            if self.buffer.staged_pages < group and not self._allow_partial_flush():
                return
            for offset in range(n_chips):
                chip_id = (self._rr_chip + offset) % n_chips
                if self.buffer.staged_pages == 0:
                    break
                if self.buffer.staged_pages < group and not self._allow_partial_flush():
                    break
                if not self._chip_eligible(chip_id):
                    continue
                self._rr_chip = (chip_id + 1) % n_chips
                self._dispatch_group(chip_id)
                made_progress = True

    def _allow_partial_flush(self) -> bool:
        if self._pending_writes:
            return False
        total_inflight = sum(self._inflight_programs.values())
        return total_inflight == 0 and self.buffer.inflight_pages == 0

    def _chip_eligible(self, chip_id: int) -> bool:
        if self._inflight_programs[chip_id] >= self.config.max_inflight_programs:
            return False
        return self._can_allocate(chip_id, for_gc=False)

    def _can_allocate(self, chip_id: int, for_gc: bool) -> bool:
        """Whether a WL can be allocated without starving GC of blocks."""
        if for_gc:
            cursor = self._gc_cursors[chip_id]
            if cursor is not None and not cursor.exhausted:
                return True
            return self.blocks.free_count(chip_id) > 0
        if self.active_cursor_space(chip_id) > 0:
            return True
        return self.blocks.free_count(chip_id) > 1

    def _take_free_block(self, chip_id: int, kind: str = DATA_KIND) -> int:
        """Draw a free block, wear-aware when configured."""
        key = None
        if self.config.wear_aware_allocation:
            chip = self.controller.chip(chip_id)
            key = chip.block_pe
        return self.blocks.take_free(chip_id, key=key, kind=kind)

    def _ensure_active_blocks(self, chip_id: int) -> None:
        """Top up the chip's active blocks from the free pool."""
        while (
            self.cursor_count(chip_id) < self.config.active_blocks_per_chip
            and self.blocks.free_count(chip_id) > 1
        ):
            self.install_block(chip_id, self._take_free_block(chip_id))
        if self.cursor_count(chip_id) == 0:
            if self.blocks.free_count(chip_id) == 0:
                raise OutOfSpaceError(f"chip {chip_id}: no active block available")
            self.install_block(chip_id, self._take_free_block(chip_id))

    def _dispatch_group(self, chip_id: int) -> None:
        entries = self.buffer.pop_group(self.geometry.block.pages_per_wl)
        if not entries:
            return
        self._program_entries(chip_id, entries, is_gc=False)

    def _gc_allocate(self, chip_id: int) -> Allocation:
        """Allocate a WL from the chip's dedicated GC block."""
        cursor = self._gc_cursors[chip_id]
        if cursor is None or cursor.exhausted:
            block = self._take_free_block(chip_id)
            cursor = SequentialCursor(block, self.geometry.block)
            self._gc_cursors[chip_id] = cursor
        return cursor.take()

    def _program_entries(
        self,
        chip_id: int,
        entries: List[BufferEntry],
        is_gc: bool,
        gc_payload: Optional[List[Tuple[int, object, int]]] = None,
    ) -> None:
        """Program one WL worth of pages (host flush or GC migration)."""
        if is_gc:
            allocation = self._gc_allocate(chip_id)
        else:
            self._ensure_active_blocks(chip_id)
            allocation = self.allocate_wl(chip_id)
        pages_per_wl = self.geometry.block.pages_per_wl
        oob: Optional[List[Optional[Tuple[int, int]]]] = None
        if is_gc:
            if self._store_oob:
                # relocations keep the read-back content and carry the
                # original write's sequence number forward: GC moves
                # data, it never reorders writes
                data = [tag for _lpn, tag, _old in gc_payload]
                oob = [
                    (lpn, self._oob_seq_of(old_ppn))
                    for lpn, _tag, old_ppn in gc_payload
                ]
            else:
                data = [lpn for lpn, _tag, _old in gc_payload]
        else:
            if self._store_oob:
                data = [entry.data for entry in entries]
                oob = [(entry.lpn, entry.seq) for entry in entries]
            else:
                data = [entry.lpn for entry in entries]
        data += [None] * (pages_per_wl - len(data))
        if oob is not None:
            oob += [None] * (pages_per_wl - len(oob))
        self._inflight_programs[chip_id] += 1
        self._program_submitted(chip_id, allocation.block)

        tracer = self.tracer
        trace_ctx = None
        chip_submit = None
        if tracer is not None:
            now = self.controller.now
            if not is_gc:
                # close each page's staging interval; a re-dispatch after
                # a failed/unsafe attempt has no open interval (its next
                # stage starts right where the failed attempt ended)
                trace_ctx = [
                    (waiter.req_id, entry.lpn)
                    for entry in entries
                    for waiter in entry.waiters
                ]
                for req, lpn in trace_ctx:
                    admitted = tracer.pop_admit(req, lpn)
                    if admitted is not None:
                        tracer.span(
                            req, lpn, "buffer_staged", admitted, now, chip=chip_id
                        )
            # service-start bookkeeping shared by the closures below
            chip_submit = {"t": now}

        def job():
            # parameters bind when the die starts the program (the
            # Set-Features immediately preceding the program command), so
            # a follower queued behind its layer's leader sees the
            # leader's freshly monitored values
            params, squeeze_mv = self.program_params(chip_id, allocation)
            try:
                result = self.controller.chip(chip_id).program_wl(
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                    params=params,
                    data=data,
                    oob=oob,
                )
            except ProgramFailError as fail:
                # the failed attempt still occupied the die
                return fail.t_us, (None, params, squeeze_mv, fail.t_us)
            return result.t_prog_us, (result, params, squeeze_mv, result.t_prog_us)

        def on_done(payload) -> None:
            result, params, squeeze_mv, t_us = payload
            if tracer is not None:
                end = self.controller.now
                # clamp: float roundoff in end - t_us must not move the
                # service start before the recorded submit time (it would
                # produce negative-duration queue spans)
                start = max(end - t_us, chip_submit["t"])
                if is_gc:
                    tracer.span(
                        None, None, "gc_program", start, end, chip=chip_id,
                        fail=result is None,
                    )
                else:
                    info = {"fail": True} if result is None else {
                        "vfy_skipped": result.ispp.vfy_skipped,
                        "loops": result.ispp.executed_loops,
                        "leader": allocation.is_leader,
                    }
                    for req, lpn in trace_ctx:
                        tracer.span(
                            req, lpn, "chip_queue", chip_submit["t"], start,
                            chip=chip_id,
                        )
                        tracer.span(
                            req, lpn, "nand_program", start, end, chip=chip_id,
                            **info,
                        )
                        # exemplar side channel only: never emits a span
                        tracer.annotate(
                            req, lpn, layer=allocation.address.layer
                        )
            if result is None:
                self._on_program_fail(
                    chip_id, allocation, entries, is_gc=is_gc,
                    gc_payload=gc_payload,
                )
                return
            self._on_program_complete(
                chip_id, allocation, params, squeeze_mv, entries, result,
                is_gc=is_gc, gc_payload=gc_payload,
            )

        # host flushes move data over the channel first; GC migrations
        # stay on-chip (copyback style)
        if is_gc:
            self.controller.chip_resource(chip_id).submit(job, on_done)
        else:
            n_bytes = len(entries) * self.geometry.block.page_size_bytes
            transfer = self.config.timing.transfer_us(n_bytes)
            bus = self.controller.bus_resource(chip_id)

            def after_bus(_ignored) -> None:
                if tracer is not None:
                    end = self.controller.now
                    mid = max(end - transfer, chip_submit["t"])
                    for req, lpn in trace_ctx:
                        tracer.span(
                            req, lpn, "bus_queue", chip_submit["t"], mid,
                            chip=chip_id,
                        )
                        tracer.span(req, lpn, "bus_xfer", mid, end, chip=chip_id)
                    chip_submit["t"] = end
                self.controller.chip_resource(chip_id).submit(job, on_done)

            bus.submit(lambda: (transfer, None), after_bus)

    def _on_program_complete(
        self,
        chip_id: int,
        allocation: Allocation,
        params: ProgramParams,
        squeeze_mv: float,
        entries: List[BufferEntry],
        result: ProgramResult,
        is_gc: bool,
        gc_payload: Optional[List[Tuple[int, object, int]]],
    ) -> None:
        self._inflight_programs[chip_id] -= 1
        self._program_landed(chip_id, allocation.block)
        self.counters.program_time_us += result.t_prog_us
        self.counters.vfy_skipped += result.ispp.vfy_skipped
        if is_gc:
            self.counters.gc_programs += 1
        else:
            self.counters.flash_programs += 1
        if squeeze_mv > 0 or params.verify_plan.skips_verifies:
            self.counters.follower_programs += 1
        else:
            self.counters.leader_programs += 1

        if self.blocks.is_failing(chip_id, allocation.block):
            # a sibling in-flight program on this block reported FAIL
            # while ours was executing; the block is leaving service, so
            # its pages must not be mapped -- rewrite on a fresh WL
            if is_gc:
                self._program_entries(chip_id, [], is_gc=True, gc_payload=gc_payload)
            else:
                self._program_entries(chip_id, entries, is_gc=False)
            return

        ok = self.after_program(chip_id, allocation, result, squeeze_mv)
        if not ok:
            # Section 4.1.4: improperly programmed -- re-program the same
            # data on the next WL with default (monitoring) parameters
            self.counters.reprograms += 1
            if is_gc:
                self._program_entries(chip_id, [], is_gc=True, gc_payload=gc_payload)
            else:
                self._program_entries(chip_id, entries, is_gc=False)
            return

        if is_gc:
            self._bind_gc_pages(chip_id, allocation, gc_payload)
            self._gc_continue(chip_id)
        else:
            self._bind_host_pages(chip_id, allocation, entries)
            self.buffer.complete(entries)
            now = self.controller.now
            for entry in entries:
                for waiter in entry.waiters:
                    waiter.page_done(now)
        self._maybe_mark_full(chip_id, allocation.block)
        self._maybe_gc(chip_id)
        self._drain_pending_writes()
        self._maybe_flush()

    def _on_program_fail(
        self,
        chip_id: int,
        allocation: Allocation,
        entries: List[BufferEntry],
        is_gc: bool,
        gc_payload: Optional[List[Tuple[int, object, int]]],
    ) -> None:
        """A program reported a FAIL status: the in-flight data never
        landed.  Pull the block out of service (its remaining WLs are
        suspect) and re-dispatch the same data to a fresh WL; the block's
        already-written pages are migrated by prioritized GC and the
        block is then retired."""
        self._inflight_programs[chip_id] -= 1
        self._program_landed(chip_id, allocation.block)
        self.recovery.program_fails += 1
        self.note_program_fail(chip_id, allocation.block)
        if is_gc:
            self._program_entries(chip_id, [], is_gc=True, gc_payload=gc_payload)
        else:
            self._program_entries(chip_id, entries, is_gc=False)
        self._maybe_gc(chip_id)

    def note_program_fail(self, chip_id: int, block: int) -> None:
        """Route a failed block toward retirement: drop its allocation
        cursors, freeze it FULL, and flag it for prioritized GC."""
        self.discard_block(chip_id, block)
        state = self.blocks.state(chip_id, block)
        if state is BlockState.ACTIVE:
            self.blocks.mark_full(chip_id, block)
            state = BlockState.FULL
        if state is BlockState.FULL:
            self.blocks.mark_failing(chip_id, block)

    def _bind_host_pages(
        self, chip_id: int, allocation: Allocation, entries: List[BufferEntry]
    ) -> None:
        base_ppn = self.geometry.wl_ppn(
            chip_id,
            allocation.block,
            allocation.address.layer,
            allocation.address.wl,
        )
        for page_index, entry in enumerate(entries):
            if entry.version != self.buffer.latest_version(entry.lpn):
                continue  # a newer write of this LPN exists or is staged
            self.mapper.bind(entry.lpn, base_ppn + page_index)

    def _bind_gc_pages(
        self,
        chip_id: int,
        allocation: Allocation,
        gc_payload: List[Tuple[int, object, int]],
    ) -> None:
        base_ppn = self.geometry.wl_ppn(
            chip_id,
            allocation.block,
            allocation.address.layer,
            allocation.address.wl,
        )
        for page_index, (lpn, _tag, old_ppn) in enumerate(gc_payload):
            if self.mapper.lookup(lpn) != old_ppn:
                continue  # host rewrote the page during migration
            if self.buffer.contains(lpn):
                # a fresher copy is staged/in flight; it will bind when it
                # lands -- drop the victim's stale mapping now so the
                # erase finds the block clean
                self.mapper.invalidate_lpn(lpn)
                continue
            self.mapper.bind(lpn, base_ppn + page_index)

    def _program_submitted(self, chip_id: int, block: int) -> None:
        key = (chip_id, block)
        self._block_programs[key] = self._block_programs.get(key, 0) + 1

    def _program_landed(self, chip_id: int, block: int) -> None:
        key = (chip_id, block)
        left = self._block_programs[key] - 1
        if left:
            self._block_programs[key] = left
        else:
            del self._block_programs[key]

    def _maybe_mark_full(self, chip_id: int, block: int) -> None:
        """A block leaves the active set once its cursor is exhausted; the
        cursor structures drop exhausted blocks themselves, so here we
        only flip the lifecycle state when all WLs are programmed.

        A program into the block that is still outstanding defers the
        flip to its own landing: the die may start a queued program
        (counting its WL as programmed) inside another program's
        completion, and a FULL block is a GC candidate whose valid pages
        would be snapshotted before that program's pages are bound."""
        if self.blocks.state(chip_id, block) is not BlockState.ACTIVE:
            return
        if (chip_id, block) in self._block_programs:
            return
        chip = self.controller.chip(chip_id)
        if chip.programmed_wl_count(block) == self.geometry.block.wls_per_block:
            self.blocks.mark_full(chip_id, block)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def _start_read(self, active: _ActiveRequest) -> None:
        spec = active.spec
        self.counters.host_read_pages += spec.n_pages
        for offset in range(spec.n_pages):
            self._read_lpn(spec.lpn + offset, active)

    def _read_lpn(self, lpn: int, active: _ActiveRequest) -> None:
        if self.buffer.contains(lpn):
            self._buffer_read(lpn, active)
            return
        if self.mapper.lookup(lpn) == UNMAPPED:
            self._unmapped_read(lpn, active)
            return
        self._translate_read(lpn, active)

    def _controller_read(self, lpn: int, active: _ActiveRequest) -> None:
        """Serve a read from controller RAM (buffer hit / unmapped)."""
        tracer = self.tracer

        def buffer_done() -> None:
            now = self.controller.now
            if tracer is not None:
                tracer.span(
                    active.req_id, lpn, "buffer_read",
                    now - self.config.buffer_read_us, now,
                )
            active.page_done(now)

        self.controller.engine.schedule(self.config.buffer_read_us, buffer_done)

    def _buffer_read(self, lpn: int, active: _ActiveRequest) -> None:
        self.counters.buffer_read_hits += 1
        if self.checker is not None:
            self.checker.on_buffer_read(lpn, self.buffer.latest_data(lpn))
        self._controller_read(lpn, active)

    def _unmapped_read(self, lpn: int, active: _ActiveRequest) -> None:
        # never-written page: served from the mapping table directly
        if self.checker is not None:
            self.checker.on_unmapped_read(lpn)
        self._controller_read(lpn, active)

    def _translate_read(self, lpn: int, active: _ActiveRequest) -> None:
        """Resolve the LPN's physical location, then issue the flash
        read.  The RAM-resident FTLs resolve for free and immediately;
        demand-paged variants override this to consult their cached
        mapping table first (a miss costs a translation-page flash read
        before :meth:`_mapped_read` proceeds)."""
        self._mapped_read(lpn, active)

    def _mapped_read(self, lpn: int, active: _ActiveRequest) -> None:
        tracer = self.tracer
        checker = self.checker
        # translation may have taken simulated time: re-resolve against
        # anything that landed meanwhile (a newer buffered copy, a moved
        # or dropped mapping).  On the synchronous path these re-checks
        # see exactly the state _read_lpn already saw.
        if self.buffer.contains(lpn):
            self._buffer_read(lpn, active)
            return
        ppn = self.mapper.lookup(lpn)
        if ppn == UNMAPPED:
            self._unmapped_read(lpn, active)
            return
        chip_id, address = self.geometry.ppn_to_address(ppn)
        # the expected content is pinned at issue time: a concurrent
        # overwrite may legally land after the flash read was issued
        expected = checker.pin_read(lpn) if checker is not None else None

        def on_data(result: ReadResult, lpn: int = lpn, ppn: int = ppn) -> None:
            if checker is not None:
                checker.on_flash_read(lpn, ppn, expected, result)
            if self.faults is not None:
                self._maybe_scrub(lpn, ppn, result)
            active.page_done(self.controller.now)

        trace_ctx = (active.req_id, lpn) if tracer is not None else None
        if tracer is not None:
            # exemplar side channel only: never emits a span
            tracer.annotate(active.req_id, lpn, layer=address.layer)
        self._flash_read(
            chip_id, address, is_gc=False, on_data=on_data, trace_ctx=trace_ctx
        )

    def _maybe_scrub(self, lpn: int, ppn: int, result: ReadResult) -> None:
        """Background scrub: a read that decoded with little ECC margin
        left gets its page migrated (re-admitted through the write
        buffer) before it degrades into an uncorrectable read.

        Each LPN is scrubbed at most once per run: the device model ties
        retention to the baseline aging state, so a refreshed copy can
        land in a region with the same marginal BER and re-trigger."""
        if not result.correctable:
            return
        if self.controller.ecc.margin(result.ber) >= self.config.scrub_margin_threshold:
            return
        if lpn in self._scrubbed_lpns:
            return
        if self.mapper.lookup(lpn) != ppn:
            return  # the host rewrote the page while the read was in flight
        if self.buffer.contains(lpn) or not self.buffer.can_admit(lpn):
            return
        self._scrubbed_lpns.add(lpn)
        if self._store_oob:
            # the refreshed copy keeps the read-back content but gets a
            # fresh sequence number: after SPOR, recovery must prefer it
            # over the marginal original
            self._write_seq += 1
            data = result.data
            self.buffer.admit(lpn, data=data, waiter=None, seq=self._write_seq)
        else:
            data = lpn
            self.buffer.admit(lpn, data=lpn, waiter=None)
        if self.checker is not None:
            self.checker.on_host_write(lpn, data)
        self.recovery.scrubs += 1
        self._maybe_flush()

    def _flash_read(
        self,
        chip_id: int,
        address: PageAddress,
        is_gc: bool,
        on_data: Callable[[ReadResult], None],
        trace_ctx: Optional[Tuple[Optional[int], int]] = None,
    ) -> None:
        """One page read: die sense (with retries) then, for host reads,
        the channel transfer out."""
        tracer = self.tracer
        t_submit = self.controller.now if tracer is not None else 0.0

        def job():
            params = self.read_params(chip_id, address.block, address.layer)
            result = self.controller.chip(chip_id).read_page(
                address.block, address.layer, address.wl, address.page, params
            )
            return result.t_read_us, result

        def on_done(result: ReadResult) -> None:
            if tracer is not None:
                end = self.controller.now
                start = max(end - result.t_read_us, t_submit)
                if trace_ctx is not None:
                    req, lpn = trace_ctx
                    tracer.span(req, lpn, "chip_queue", t_submit, start, chip=chip_id)
                    tracer.span(
                        req, lpn, "nand_read", start, end - result.t_retry_us,
                        chip=chip_id, retries=result.num_retry,
                    )
                    if result.t_retry_us:
                        tracer.span(
                            req, lpn, "read_retry", end - result.t_retry_us, end,
                            chip=chip_id, retries=result.num_retry,
                        )
                elif is_gc:
                    tracer.span(None, None, "gc_read", start, end, chip=chip_id)
            self._account_read(result, is_gc)
            if self.faults is not None and not result.correctable:
                self._recover_read(
                    chip_id, address, is_gc, on_data,
                    self.config.read_recovery_attempts,
                    trace_ctx=trace_ctx,
                )
                return
            self.after_read(chip_id, address.block, address.layer, result)
            self._deliver_read(chip_id, result, is_gc, on_data, trace_ctx=trace_ctx)

        self.controller.chip_resource(chip_id).submit(job, on_done)

    def _account_read(self, result: ReadResult, is_gc: bool) -> None:
        self.counters.read_time_us += result.t_read_us
        if is_gc:
            self.counters.gc_reads += 1
        else:
            self.counters.flash_reads += 1
        if result.num_retry:
            self.counters.read_retries += result.num_retry
            self.counters.retried_reads += 1

    def _deliver_read(
        self,
        chip_id: int,
        result: Optional[ReadResult],
        is_gc: bool,
        on_data: Callable[[Optional[ReadResult]], None],
        trace_ctx: Optional[Tuple[Optional[int], int]] = None,
    ) -> None:
        """Hand a sensed page to ``on_data``: GC reads stay on-chip,
        every other read crosses the channel first.  ``result`` is
        ``None`` for a translation page that stayed unreadable."""
        if is_gc:
            on_data(result)
            return
        tracer = self.tracer
        if tracer is not None and trace_ctx is not None:
            t_submit = self.controller.now

            def after_bus(_ignored) -> None:
                end = self.controller.now
                mid = max(end - self._page_transfer_us, t_submit)
                req, lpn = trace_ctx
                tracer.span(req, lpn, "bus_queue", t_submit, mid, chip=chip_id)
                tracer.span(req, lpn, "bus_xfer", mid, end, chip=chip_id)
                on_data(result)

            self.controller.bus_resource(chip_id).submit(
                self._page_transfer_job, after_bus
            )
        else:
            self.controller.bus_resource(chip_id).submit(
                self._page_transfer_job, lambda _ignored: on_data(result)
            )

    def _recover_read(
        self,
        chip_id: int,
        address: PageAddress,
        is_gc: bool,
        on_data: Callable[[ReadResult], None],
        attempts_left: int,
        trace_ctx: Optional[Tuple[Optional[int], int]] = None,
    ) -> None:
        """Bounded re-read with conservative nominal parameters after an
        uncorrectable read.

        Any cached read hint for the h-layer is dropped first (the hint
        may be why the retry sweep never reached the optimum -- graceful
        ORT degradation), then the page is re-sensed starting from the
        paper-default references with the full retry search available."""
        if self.on_uncorrectable(chip_id, address.block, address.layer):
            self.recovery.ort_invalidations += 1
        tracer = self.tracer
        t_submit = self.controller.now if tracer is not None else 0.0

        def job():
            result = self.controller.chip(chip_id).read_page(
                address.block,
                address.layer,
                address.wl,
                address.page,
                NOMINAL_READ,
            )
            return result.t_read_us, result

        def on_done(result: ReadResult) -> None:
            if tracer is not None:
                end = self.controller.now
                start = max(end - result.t_read_us, t_submit)
                if trace_ctx is not None:
                    req, lpn = trace_ctx
                    tracer.span(req, lpn, "chip_queue", t_submit, start, chip=chip_id)
                    tracer.span(
                        req, lpn, "recovery_read", start, end, chip=chip_id,
                        retries=result.num_retry, correctable=result.correctable,
                    )
                elif is_gc:
                    tracer.span(None, None, "gc_read", start, end, chip=chip_id)
            self._account_read(result, is_gc)
            if result.correctable:
                self.recovery.recovered_reads += 1
                self.after_read(chip_id, address.block, address.layer, result)
                self._deliver_read(chip_id, result, is_gc, on_data, trace_ctx=trace_ctx)
            elif attempts_left > 1:
                self._recover_read(
                    chip_id, address, is_gc, on_data, attempts_left - 1,
                    trace_ctx=trace_ctx,
                )
            else:
                # data loss in a real device; the simulation completes the
                # request and records the escape
                self.recovery.uncorrectable_after_recovery += 1
                self._deliver_read(chip_id, result, is_gc, on_data, trace_ctx=trace_ctx)

        self.controller.chip_resource(chip_id).submit(job, on_done)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def _maybe_gc(self, chip_id: int) -> None:
        if self._gc_jobs[chip_id] is not None:
            return
        free = self.blocks.free_count(chip_id)
        if (
            free >= self.config.gc_trigger_blocks
            and not self.blocks.failing_of_kind(chip_id, DATA_KIND)
        ):
            return
        # data GC only: translation blocks are accounted in a different
        # mapper, so a demand-paged FTL reclaims them through its own
        # translation-GC state machine
        full = self.blocks.full_blocks(chip_id, kind=DATA_KIND)
        if not full:
            return
        victim = self.blocks.select_victim(chip_id, self.mapper, kind=DATA_KIND)
        if not self.blocks.is_failing(chip_id, victim):
            pages_per_block = self.geometry.block.pages_per_block
            invalid = pages_per_block - self.mapper.valid_count(chip_id, victim)
            min_invalid = int(pages_per_block * self.config.gc_min_invalid_fraction)
            # migrating a nearly-full-valid block reclaims almost nothing
            # while consuming a free block for the migrated copies; wait for
            # the host to invalidate more pages first -- unless the pool is
            # critical (failing victims skip this: they must leave service)
            if invalid < max(1, min_invalid) and free > 1:
                return
            # the migration's final partial WL is padded with dead pages;
            # unless the victim's invalid count exceeds that padding the
            # move reclaims nothing net, and with no host writes arriving
            # to invalidate pages (e.g. at a drain barrier) the
            # erase -> _maybe_gc chain would ping-pong forever
            valid = pages_per_block - invalid
            waste = (-valid) % self.geometry.block.pages_per_wl
            if invalid <= waste:
                return
        job = _GCJob(victim, self.mapper.valid_pages_of_block(chip_id, victim))
        self._gc_jobs[chip_id] = job
        self._gc_continue(chip_id)

    def _gc_continue(self, chip_id: int) -> None:
        """Advance the chip's GC state machine by one batch."""
        job = self._gc_jobs[chip_id]
        if job is None:
            return
        if job.staged:
            payload, job.staged = job.staged, []
            self._program_entries(chip_id, [], is_gc=True, gc_payload=payload)
            return
        start = job.next
        if start >= len(job.pending):
            self._gc_erase(chip_id, job)
            return
        batch = job.pending[start:start + self.geometry.block.pages_per_wl]
        job.next = start + len(batch)

        def make_on_data(ppn: int, lpn: int):
            def on_data(result: ReadResult) -> None:
                staged = job.staged
                staged.append((lpn, result.data, ppn))
                # the batch is staged once its last read lands
                if len(staged) == len(batch):
                    self._gc_continue(chip_id)

            return on_data

        for ppn, lpn in batch:
            _chip, address = self.geometry.ppn_to_address(ppn)
            self._flash_read(chip_id, address, is_gc=True, on_data=make_on_data(ppn, lpn))

    def rearm_gc(self) -> None:
        """Re-evaluate GC on every chip.

        GC on a chip is otherwise re-evaluated only when that chip's own
        operations complete, so a chip that went idle below its trigger
        (e.g. with the event queue drained) stays idle until this runs."""
        for chip_id in range(self.geometry.n_chips):
            self._maybe_gc(chip_id)

    def _gc_erase(self, chip_id: int, job: _GCJob) -> None:
        self._erase_victim(chip_id, job.victim, self.mapper, self._gc_jobs)

    def _erase_victim(
        self,
        chip_id: int,
        victim: int,
        mapper: PageMapper,
        jobs: Dict[int, Optional[_GCJob]],
        on_erased: Optional[Callable[[], None]] = None,
    ) -> None:
        """Erase a migrated GC victim -- or retire it -- then free the
        chip's job slot in ``jobs`` and re-arm GC.  ``mapper`` is the one
        accounting the victim's kind; ``on_erased`` runs on a successful
        erase."""
        failing = self.blocks.is_failing(chip_id, victim)

        def erase_job():
            if failing:
                # a program already failed on this block: skip the erase
                # attempt and send it straight to the grown-bad table
                return 0.0, ("program_fail", 0.0)
            try:
                t_erase = self.controller.chip(chip_id).erase_block(victim)
                return t_erase, ("erased", t_erase)
            except WearOutError:
                # worn out: the block's data is already migrated; retire
                # it instead of returning it to the free pool
                return 0.0, ("wear", 0.0)
            except EraseFailError as fail:
                # erase reported a FAIL status: grown bad block
                return fail.t_us, ("erase_fail", fail.t_us)

        def on_done(payload: Tuple[str, float]) -> None:
            outcome, t_us = payload
            if self.tracer is not None and t_us:
                end = self.controller.now
                self.tracer.span(
                    None, None, "erase", end - t_us, end, chip=chip_id,
                    block=victim, outcome=outcome,
                )
            mapper.clear_block(chip_id, victim)
            if outcome == "erased":
                self.counters.erases += 1
                if on_erased is not None:
                    on_erased()
                self.blocks.mark_free(chip_id, victim)
            else:
                if outcome == "erase_fail":
                    self.recovery.erase_fails += 1
                if outcome != "wear":
                    # wear retirement is normal endurance, not recovery
                    self.recovery.blocks_retired += 1
                self.counters.retired_blocks += 1
                self.blocks.retire(chip_id, victim, reason=outcome)
            self.on_block_erased(chip_id, victim)
            jobs[chip_id] = None
            self._maybe_gc(chip_id)
            self._drain_pending_writes()
            self._maybe_flush()

        self.controller.chip_resource(chip_id).submit(erase_job, on_done)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def _oob_seq_of(self, ppn: int) -> int:
        """Sequence number stamped in a physical page's OOB record (0
        when the page carries none, e.g. programmed before OOB support
        was enabled)."""
        chip_id, address = self.geometry.ppn_to_address(ppn)
        record = self.controller.chip(chip_id).peek_oob(
            address.block, address.layer, address.wl, address.page
        )
        return record[1] if record is not None else 0

    def variant_state_dict(self) -> dict:
        """Serializable policy-specific state (allocation cursors,
        monitored parameters); overridden by the FTL variants."""
        return {}

    def load_variant_state(self, state: dict) -> None:
        """Restore :meth:`variant_state_dict` output."""

    def state_dict(self) -> dict:
        """Serializable FTL state at a quiescent barrier.

        Requires that no request is mid-flight: no pending host-write
        admissions, no in-flight WL programs, no active GC job (the
        component ``state_dict`` calls below additionally assert the
        buffer and resource barriers).  The driver in
        :mod:`repro.persist` only checkpoints at event-queue drain, where
        all of this holds by construction.
        """
        if self._pending_writes:
            raise RuntimeError(
                f"FTL not quiescent: {len(self._pending_writes)} host "
                "writes awaiting buffer admission"
            )
        inflight = sum(self._inflight_programs.values())
        if inflight:
            raise RuntimeError(
                f"FTL not quiescent: {inflight} WL programs in flight"
            )
        active_gc = sorted(
            chip for chip, job in self._gc_jobs.items() if job is not None
        )
        if active_gc:
            raise RuntimeError(
                f"FTL not quiescent: GC active on chips {active_gc}"
            )
        return {
            "mapper": self.mapper.state_dict(),
            "blocks": self.blocks.state_dict(),
            "buffer": self.buffer.state_dict(),
            "counters": asdict(self.counters),
            "recovery": asdict(self.recovery),
            "scrubbed_lpns": sorted(self._scrubbed_lpns),
            "gc_cursors": {
                chip: (cursor.state_dict() if cursor is not None else None)
                for chip, cursor in self._gc_cursors.items()
            },
            "rr_chip": self._rr_chip,
            "write_seq": self._write_seq,
            "variant": self.variant_state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.mapper.load_state_dict(state["mapper"])
        self.blocks.load_state_dict(state["blocks"])
        self.buffer.load_state_dict(state["buffer"])
        self.counters = FTLCounters(**state["counters"])
        self.recovery = RecoveryCounters(**state["recovery"])
        self._scrubbed_lpns = set(state["scrubbed_lpns"])
        self._gc_cursors = {
            chip: (
                SequentialCursor.from_state(cursor_state, self.geometry.block)
                if cursor_state is not None
                else None
            )
            for chip, cursor_state in state["gc_cursors"].items()
        }
        self._rr_chip = state["rr_chip"]
        self._write_seq = state["write_seq"]
        self.load_variant_state(state["variant"])

    # ------------------------------------------------------------------
    # SPOR recovery
    # ------------------------------------------------------------------

    def _post_spor_reset(self) -> None:
        """Clear every volatile allocation structure after recovery (all
        blocks come back sealed FULL or FREE, so no cursor survives).
        Variants extend this for their own cursor structures."""
        for chip_id in self._gc_cursors:
            self._gc_cursors[chip_id] = None
        self._rr_chip = 0
        self._scrubbed_lpns = set()

    def spor_recover(self) -> dict:
        """Rebuild the volatile FTL state from chip-durable contents
        after a sudden power-off.

        Called on a freshly constructed FTL whose chips were restored to
        their at-the-cut state.  Controller RAM (mapping tables, block
        lifecycle, write buffer, monitored parameters) is lost; the only
        durable inputs are the per-page OOB records ``(lpn, seq)`` and
        the programmed/wear arrays of the chip model.

        Rebuild rules:

        - **L2P**: for every LPN the surviving copy with the highest
          sequence number wins; ties (GC duplicates of the same write,
          which hold identical content) break to the lowest PPN;
        - **blocks**: a block with any programmed WL is sealed FULL --
          conservatively, a half-written active block is never appended
          to after recovery -- and all others are FREE.  Failing/retired
          status is rediscovered operationally: a bad block's next erase
          fails again and re-retires it;
        - cursors, buffer, and monitored parameters restart empty, and
          the write sequence resumes above the highest recovered value.

        Returns a summary dict (``oob_records``, ``mapped_lpns``,
        ``full_blocks``, ``max_seq``).
        """
        return self._spor_scan()[0]

    def _spor_scan(self) -> Tuple[dict, Dict[str, Tuple[int, int, int]]]:
        """The media scan behind :meth:`spor_recover`: every OOB record
        rebuilds the mapper of its block kind (:attr:`kind_mappers`),
        then the block table and the write sequence are restored.

        Returns the summary and, per block kind, ``(records, pages
        recovered, highest sequence number)``.
        """
        if not self._store_oob:
            raise RuntimeError("SPOR recovery requires store_oob=True")
        mappers = self.kind_mappers
        if any(mapper.mapped_lpn_count() for mapper in mappers.values()):
            raise RuntimeError("spor_recover requires a freshly built FTL")
        geometry = self.geometry
        # per kind: key -> (seq, ppn) of the winning copy, records seen
        # and the highest sequence number
        winners: Dict[str, Dict[int, Tuple[int, int]]] = {k: {} for k in mappers}
        records = dict.fromkeys(mappers, 0)
        max_seq = dict.fromkeys(mappers, 0)
        kinds: Dict[int, List[str]] = {}
        for chip_id in range(geometry.n_chips):
            chip = self.controller.chip(chip_id)
            chip_kinds = kinds[chip_id] = [DATA_KIND] * geometry.blocks_per_chip
            for (block, wl_index, page), (key, seq) in chip.iter_oob():
                # translation pages record (-(tvpn + 1), seq), sign-
                # disjoint from the (lpn, seq) of data pages
                kind = DATA_KIND if key >= 0 else TRANS_KIND
                if key < 0:
                    key = -key - 1
                chip_kinds[block] = kind
                records[kind] += 1
                if seq > max_seq[kind]:
                    max_seq[kind] = seq
                address = geometry.block.wl_from_index(wl_index)
                ppn = geometry.ppn(
                    chip_id,
                    PageAddress(block, address.layer, address.wl, page),
                )
                best = winners[kind].get(key)
                if best is None or (seq, -ppn) > (best[0], -best[1]):
                    winners[kind][key] = (seq, ppn)
        for kind, mapper in mappers.items():
            for key, (_seq, ppn) in sorted(winners[kind].items()):
                mapper.bind(key, ppn)
        free: Dict[int, List[int]] = {}
        states: Dict[int, List[str]] = {}
        full_blocks = 0
        for chip_id in range(geometry.n_chips):
            chip = self.controller.chip(chip_id)
            chip_states: List[str] = []
            chip_free: List[int] = []
            for block in range(geometry.blocks_per_chip):
                if chip.programmed_wl_count(block) > 0:
                    chip_states.append(BlockState.FULL.value)
                    full_blocks += 1
                else:
                    chip_states.append(BlockState.FREE.value)
                    chip_free.append(block)
            states[chip_id] = chip_states
            free[chip_id] = chip_free
        self.blocks.load_state_dict(
            {
                "free": free,
                "state": states,
                "failing": {chip: [] for chip in free},
                "retired_reasons": {chip: {} for chip in free},
                "kind": kinds,
            }
        )
        self._post_spor_reset()
        self._write_seq = max_seq[DATA_KIND]
        summary = {
            "oob_records": sum(records.values()),
            "mapped_lpns": len(winners[DATA_KIND]),
            "full_blocks": full_blocks,
            "max_seq": max_seq[DATA_KIND],
        }
        tallies = {
            kind: (records[kind], len(winners[kind]), max_seq[kind])
            for kind in mappers
        }
        return summary, tallies
