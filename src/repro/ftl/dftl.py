"""DFTL: demand-paged page mapping with a bounded cached mapping table.

All other FTLs in the reproduction hold the full L2P table in
controller RAM, which is dishonest at TB-class capacities -- a 4 TB
drive needs ~4 GB of mapping table.  :class:`DFTL` models the classic
demand-paging design (Gupta et al., ASPLOS'09) on top of the pageFTL
allocation policy:

- a **CMT** (cached mapping table) holds at most ``cmt_capacity``
  per-LPN entries under LRU replacement, each carrying a dirty bit;
- the full table lives in **translation pages** on flash, one page per
  ``mappings_per_tpage`` consecutive LPNs, kept in dedicated
  translation blocks (``BlockManager`` kind ``"trans"``);
- the **GTD** (global translation directory) maps each translation
  virtual page number (TVPN) to the flash page currently holding it --
  here a second :class:`~repro.ftl.mapping.PageMapper` instance, which
  also provides valid-page accounting and the bijection audit for
  translation blocks;
- a CMT **miss** on a host read costs a translation-page flash read
  before the data read can issue; a **dirty eviction** writes the
  evicted entry's translation page back (read-modify-write), marking
  every co-resident dirty entry of the same TVPN clean (batched
  writeback);
- translation blocks fill up with superseded pages and are reclaimed
  by **translation GC**: its own trigger and migration step on the base
  FTL's GC job type and erase step.

The *authoritative* L2P state is :attr:`~repro.ftl.base.BaseFTL.mapper`
(the union of CMT and flash-resident entries a real controller can
reconstruct); the CMT determines only *when* translation flash traffic
occurs.  Flash translation pages therefore carry marker content, not
serialized entries -- exactly like data pages carry content tags rather
than bytes -- and SPOR recovery rebuilds both tables from per-page OOB
records (data pages record ``(lpn, seq)`` with ``lpn >= 0``, translation
pages record ``(-(tvpn+1), tseq)``).  This makes the CMT a *pure cache*
by construction: changing ``cmt_capacity`` changes latency and
translation traffic, never any read result -- a property the
metamorphic suite in ``tests/ftl/test_dftl_properties.py`` enforces.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.wam import Allocation, SequentialCursor
from repro.ftl.base import _GCJob
from repro.ftl.blockmgr import DATA_KIND, TRANS_KIND, OutOfSpaceError
from repro.ftl.mapping import UNMAPPED, PageMapper
from repro.ftl.pageftl import PageFTL
from repro.nand.errors import ProgramFailError
from repro.nand.geometry import PageAddress
from repro.nand.read_retry import NOMINAL_READ
from repro.ssd.config import SSDConfig
from repro.ssd.write_buffer import BufferEntry


@dataclass
class DftlStats:
    """Translation-path counters (kept apart from
    :class:`~repro.ftl.base.FTLCounters` so the shared result schema is
    untouched for the RAM-resident FTLs)."""

    cmt_hits: int = 0
    cmt_misses: int = 0
    cmt_evictions_clean: int = 0
    cmt_evictions_dirty: int = 0
    trans_reads: int = 0
    trans_read_retries: int = 0
    trans_recovered_pages: int = 0
    trans_programs: int = 0
    trans_program_fails: int = 0
    trans_gc_reads: int = 0
    trans_gc_programs: int = 0
    trans_gc_erases: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class DFTL(PageFTL):
    """Demand-paged mapping FTL (bounded CMT + flash translation pages)."""

    name = "dftl"

    def __init__(
        self,
        config: SSDConfig,
        controller,
        *,
        cmt_capacity: int = 64,
        mappings_per_tpage: int = 64,
    ) -> None:
        super().__init__(config, controller)
        if cmt_capacity < 1:
            raise ValueError("cmt_capacity must be >= 1")
        if mappings_per_tpage < 1:
            raise ValueError("mappings_per_tpage must be >= 1")
        self.cmt_capacity = cmt_capacity
        self.mappings_per_tpage = mappings_per_tpage
        logical = config.logical_pages
        self.n_tpages = (logical + mappings_per_tpage - 1) // mappings_per_tpage
        #: GTD + translation-block valid-page accounting: TVPN -> PPN of
        #: the current flash copy of that translation page
        self.tmapper = PageMapper(config.geometry, self.n_tpages)
        self.kind_mappers[TRANS_KIND] = self.tmapper
        #: LPN -> dirty flag, LRU order (oldest first)
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        #: TVPN -> its dirty CMT LPNs, so a dirty eviction's batched
        #: writeback cleans them without scanning the whole CMT
        self._cmt_dirty: Dict[int, Set[int]] = {}
        self._trans_cursors: Dict[int, Optional[SequentialCursor]] = {
            chip: None for chip in range(config.geometry.n_chips)
        }
        #: translation-GC jobs; their ``pending`` pairs are (ppn, tvpn)
        self._trans_gc: Dict[int, Optional[_GCJob]] = {
            chip: None for chip in range(config.geometry.n_chips)
        }
        #: TVPN -> writebacks not yet landed (covers the audit window
        #: between a dirty eviction and its translation-page bind)
        self._inflight_trans: Dict[int, int] = {}
        self._inflight_trans_programs = 0
        #: translation work waiting for a free WL (retried after erases)
        self._trans_pending: Deque[Callable[[], None]] = deque()
        #: TVPNs with a *deferred* writeback queued; later writebacks of
        #: the same TVPN coalesce onto it (the page is rebuilt from the
        #: authoritative table when the program finally issues, so one
        #: deferred writeback serves any number of evictions)
        self._deferred_wb: set = set()
        #: OOB ordering for translation pages; deliberately separate from
        #: ``_write_seq`` -- data-page sequence numbers double as content
        #: tags, so sharing one counter would make dftl's data content
        #: diverge from the RAM-resident FTLs on identical traces
        self._trans_seq = 0
        self.dftl_stats = DftlStats()

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _tvpn_of(self, lpn: int) -> int:
        return lpn // self.mappings_per_tpage

    def _home_chip(self, tvpn: int) -> int:
        return tvpn % self.geometry.n_chips

    def cmt_occupancy(self) -> int:
        return len(self._cmt)

    # ------------------------------------------------------------------
    # checker introspection (kind-aware dispatch)
    # ------------------------------------------------------------------

    def mappers(self) -> Dict[str, PageMapper]:
        return {"l2p": self.mapper, "translation": self.tmapper}

    def audit_variant(self) -> Optional[dict]:
        """DFTL deep invariants.

        1. the CMT never exceeds its configured capacity;
        2. kind segregation: data blocks hold no valid translation
           pages and translation blocks hold no valid data pages;
        3. lookup completeness: every mapped LPN is resolvable -- its
           entry is CMT-resident, or its translation page is flash
           resident, or that page's writeback is in flight.
        """
        if len(self._cmt) > self.cmt_capacity:
            return {
                "message": (
                    f"CMT holds {len(self._cmt)} entries but capacity is "
                    f"{self.cmt_capacity}"
                ),
                "occupancy": len(self._cmt),
                "capacity": self.cmt_capacity,
            }
        geometry = self.geometry
        for chip_id in range(geometry.n_chips):
            for block in range(geometry.blocks_per_chip):
                kind = self.blocks.kind_of(chip_id, block)
                other = self.tmapper if kind == DATA_KIND else self.mapper
                leaked = other.valid_count(chip_id, block)
                if leaked:
                    held = "translation" if kind == DATA_KIND else "data"
                    return {
                        "message": (
                            f"{kind} block holds {leaked} valid {held} "
                            "pages (kind segregation broken)"
                        ),
                        "chip": chip_id,
                        "block": block,
                        "valid_pages": leaked,
                    }
        per_tpage = self.mappings_per_tpage
        logical = self.config.logical_pages
        cmt = self._cmt
        for tvpn in set(
            int(lpn) // per_tpage for lpn in self.mapper.mapped_lpns()
        ):
            if self.tmapper.lookup(tvpn) != UNMAPPED:
                continue
            if tvpn in self._inflight_trans:
                continue
            for lpn in range(
                tvpn * per_tpage, min((tvpn + 1) * per_tpage, logical)
            ):
                if self.mapper.lookup(lpn) != UNMAPPED and lpn not in cmt:
                    return {
                        "message": (
                            f"mapped LPN {lpn} is neither CMT-resident nor "
                            f"covered by a flash translation page "
                            f"(TVPN {tvpn})"
                        ),
                        "lpn": lpn,
                        "tvpn": tvpn,
                    }
        return None

    # ------------------------------------------------------------------
    # CMT maintenance
    # ------------------------------------------------------------------

    def _cmt_note_update(self, lpn: int) -> None:
        """The LPN's mapping changed (host write landing or GC rebind):
        its CMT entry becomes/remains dirty and most-recently-used."""
        cmt = self._cmt
        cmt[lpn] = True
        cmt.move_to_end(lpn)
        tvpn = lpn // self.mappings_per_tpage
        dirty = self._cmt_dirty.get(tvpn)
        if dirty is None:
            self._cmt_dirty[tvpn] = {lpn}
        else:
            dirty.add(lpn)
        self._cmt_evict_overflow()

    def _cmt_fill(self, lpn: int) -> None:
        """Install the entry a read miss fetched (clean unless a write
        raced the fetch and already re-dirtied it)."""
        cmt = self._cmt
        if lpn in cmt:
            cmt.move_to_end(lpn)
            return
        cmt[lpn] = False
        self._cmt_evict_overflow()

    def _cmt_drop(self, lpn: int) -> None:
        """Remove the LPN's CMT entry, if any, without a writeback."""
        if self._cmt.pop(lpn, False):
            tvpn = lpn // self.mappings_per_tpage
            dirty = self._cmt_dirty[tvpn]
            dirty.discard(lpn)
            if not dirty:
                del self._cmt_dirty[tvpn]

    def _cmt_evict_overflow(self) -> None:
        cmt = self._cmt
        stats = self.dftl_stats
        while len(cmt) > self.cmt_capacity:
            victim, dirty = cmt.popitem(last=False)
            if not dirty:
                stats.cmt_evictions_clean += 1
                continue
            stats.cmt_evictions_dirty += 1
            tvpn = victim // self.mappings_per_tpage
            # batched writeback: the new translation page carries every
            # dirty co-resident entry of the same TVPN, so those entries
            # become clean without their own future writeback
            for other in self._cmt_dirty.pop(tvpn):
                if other != victim:
                    cmt[other] = False
            self._writeback(tvpn)

    # ------------------------------------------------------------------
    # write path: every mapping change dirties the CMT
    # ------------------------------------------------------------------

    def _bind_host_pages(
        self, chip_id: int, allocation: Allocation, entries: List[BufferEntry]
    ) -> None:
        super()._bind_host_pages(chip_id, allocation, entries)
        latest = self.buffer.latest_version
        for entry in entries:
            if entry.version == latest(entry.lpn):
                self._cmt_note_update(entry.lpn)

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
                self.mapper.invalidate_lpn(lpn)
                # the fresher buffered copy re-enters the CMT (dirty)
                # when it binds; until then the LPN is unmapped
                self._cmt_drop(lpn)
                continue
            self.mapper.bind(lpn, base_ppn + page_index)
            self._cmt_note_update(lpn)

    # ------------------------------------------------------------------
    # read path: demand paging
    # ------------------------------------------------------------------

    def _translate_read(self, lpn: int, active) -> None:
        cmt = self._cmt
        stats = self.dftl_stats
        if lpn in cmt:
            stats.cmt_hits += 1
            cmt.move_to_end(lpn)
            self._mapped_read(lpn, active)
            return
        stats.cmt_misses += 1
        tvpn = self._tvpn_of(lpn)
        tppn = self.tmapper.lookup(tvpn)
        if tppn == UNMAPPED:
            # only reachable while this TVPN's first writeback is in
            # flight (lookup completeness): the entry still lives in
            # controller RAM, so resolution is free
            self._cmt_fill(lpn)
            self._mapped_read(lpn, active)
            return
        chip_id, address = self.geometry.ppn_to_address(tppn)
        tracer = self.tracer
        missed_us = self.controller.now if tracer is not None else 0.0

        def on_result(result) -> None:
            if tracer is not None:
                # the page's chain starts here: one span from the miss
                # to the resolved mapping
                tracer.span(
                    active.req_id, lpn, "translation_read", missed_us,
                    self.controller.now, chip=chip_id,
                )
            if result is None:
                # unrecoverable translation page: rewrite it from the
                # authoritative table rather than serving stale mappings
                self._recover_tpage(tvpn, tppn)
            self._cmt_fill(lpn)
            self._mapped_read(lpn, active)

        self._trans_flash_read(
            chip_id,
            address,
            on_result,
            attempts_left=self.config.read_recovery_attempts,
            is_gc=False,
        )

    def _trans_flash_read(
        self,
        chip_id: int,
        address: PageAddress,
        on_result: Callable[[Optional[object]], None],
        attempts_left: int,
        is_gc: bool,
        conservative: bool = False,
    ) -> None:
        """One translation-page read: die sense (with retries), then
        :meth:`_deliver_read` -- the channel transfer, except for GC
        migrations (on-chip).  Uncorrectable results under a fault
        campaign get the same bounded conservative re-reads as data
        pages; a page that stays unreadable reports ``None`` (the caller
        rewrites it from the authoritative table -- never a silent stale
        mapping)."""
        stats = self.dftl_stats

        def job():
            params = (
                NOMINAL_READ
                if conservative
                else self.read_params(chip_id, address.block, address.layer)
            )
            result = self.controller.chip(chip_id).read_page(
                address.block, address.layer, address.wl, address.page, params
            )
            return result.t_read_us, result

        def on_done(result) -> None:
            stats.trans_reads += 1
            stats.trans_read_retries += result.num_retry
            if self.faults is not None and not result.correctable:
                if attempts_left > 0:
                    self._trans_flash_read(
                        chip_id, address, on_result,
                        attempts_left - 1, is_gc, conservative=True,
                    )
                    return
                result = None
            self._deliver_read(chip_id, result, is_gc, on_result)

        self.controller.chip_resource(chip_id).submit(job, on_done)

    def _recover_tpage(self, tvpn: int, tppn: int) -> None:
        """A translation page is unreadable: persist a fresh copy from
        the authoritative mapping table."""
        self.dftl_stats.trans_recovered_pages += 1
        if self.tmapper.lookup(tvpn) != tppn:
            return  # a concurrent writeback already replaced it
        self._writeback(tvpn)

    # ------------------------------------------------------------------
    # translation-page writeback
    # ------------------------------------------------------------------

    def _writeback(self, tvpn: int) -> None:
        """Persist a translation page (dirty eviction or recovery).

        The TVPN is marked in flight immediately -- lookup completeness
        holds through allocation deferrals and program-fail retries --
        and unmarked only when a copy lands and binds."""
        self._inflight_trans[tvpn] = self._inflight_trans.get(tvpn, 0) + 1
        self._issue_writeback(self._home_chip(tvpn), tvpn)

    def _unmark_inflight(self, tvpn: int) -> None:
        count = self._inflight_trans[tvpn] - 1
        if count:
            self._inflight_trans[tvpn] = count
        else:
            del self._inflight_trans[tvpn]

    def _issue_writeback(self, chip_id: int, tvpn: int) -> None:
        allocation = self._trans_allocate(chip_id)
        if allocation is None:
            if tvpn in self._deferred_wb:
                # a deferred writeback of this TVPN is already queued;
                # it will persist the (authoritative) latest state
                self._unmark_inflight(tvpn)
            else:
                self._deferred_wb.add(tvpn)

                def retry() -> None:
                    self._deferred_wb.discard(tvpn)
                    self._issue_writeback(chip_id, tvpn)

                self._trans_pending.append(retry)
            self._maybe_gc(chip_id)
            return
        old_ppn = self.tmapper.lookup(tvpn)
        if old_ppn == UNMAPPED:
            self._program_tpage(chip_id, allocation, tvpn)
            return
        # read-modify-write: the page's entries outside the CMT must be
        # carried over, so the old copy is fetched before the program
        old_chip, old_address = self.geometry.ppn_to_address(old_ppn)

        def after_read(_result) -> None:
            self._program_tpage(chip_id, allocation, tvpn)

        self._trans_flash_read(
            old_chip, old_address, after_read,
            attempts_left=0, is_gc=False,
        )

    def _tpage_payload(self, tvpn: int) -> Tuple[list, Optional[list]]:
        """Content and OOB records of a fresh copy of translation page
        ``tvpn``: page 0 of a WL, the rest padding.  Every copy takes
        the next translation sequence number."""
        pad = [None] * (self.geometry.block.pages_per_wl - 1)
        self._trans_seq += 1
        seq = self._trans_seq
        oob = [(-(tvpn + 1), seq), *pad] if self._store_oob else None
        return [("tpage", tvpn, seq), *pad], oob

    def _program_tpage(
        self,
        chip_id: int,
        allocation: Allocation,
        tvpn: int,
        is_gc: bool = False,
        old_ppn: int = UNMAPPED,
    ) -> None:
        """Program one translation page and bind it in the GTD when it
        lands.

        A writeback crosses the channel, is retried through
        :meth:`_issue_writeback` and unmarks its TVPN in flight.  A GC
        migration (``is_gc``) stays on-chip, is retried through
        :meth:`_migrate_tpage`, binds only while the TVPN still lives at
        ``old_ppn`` and then continues the collection."""
        data, oob = self._tpage_payload(tvpn)
        self._inflight_trans_programs += 1
        self._program_submitted(chip_id, allocation.block)

        def job():
            params, _squeeze = self.program_params(chip_id, allocation)
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
                return fail.t_us, None
            return result.t_prog_us, result

        def retry() -> None:
            if is_gc:
                self._migrate_tpage(chip_id, tvpn, old_ppn)
            else:
                self._issue_writeback(chip_id, tvpn)

        def on_done(result) -> None:
            self._inflight_trans_programs -= 1
            self._program_landed(chip_id, allocation.block)
            if result is None:
                self.dftl_stats.trans_program_fails += 1
                self.note_program_fail(chip_id, allocation.block)
                retry()
                self._maybe_gc(chip_id)
                return
            if self.blocks.is_failing(chip_id, allocation.block):
                # a sibling program on this block failed while ours was
                # in flight; the block is leaving service
                retry()
                return
            ppn = self.geometry.wl_ppn(
                chip_id,
                allocation.block,
                allocation.address.layer,
                allocation.address.wl,
            )
            if is_gc:
                self.dftl_stats.trans_gc_programs += 1
                # a writeback may have superseded the page meanwhile
                if self.tmapper.lookup(tvpn) == old_ppn:
                    self.tmapper.bind(tvpn, ppn)
                self._maybe_mark_full(chip_id, allocation.block)
                self._trans_gc_continue(chip_id)
                return
            self.dftl_stats.trans_programs += 1
            self.tmapper.bind(tvpn, ppn)
            self._unmark_inflight(tvpn)
            self._maybe_mark_full(chip_id, allocation.block)
            self._maybe_gc(chip_id)

        chip = self.controller.chip_resource(chip_id)
        if is_gc:
            # migrations stay on-chip (copyback style), like data GC
            chip.submit(job, on_done)
            return
        self.controller.bus_resource(chip_id).submit(
            self._page_transfer_job, lambda _ignored: chip.submit(job, on_done)
        )

    def _trans_allocate(
        self, chip_id: int, for_gc: bool = False
    ) -> Optional[Allocation]:
        """A WL in the chip's translation block, or ``None`` when taking
        a block now would drain the pool GC needs (the caller defers).

        Writebacks leave the last free block for GC; a translation-GC
        migration may take it (same rule as data GC: the erase it leads
        to frees a whole block right back) -- unless a data-GC job is
        mid-flight on this chip, in which case that last block is spoken
        for (base ``_gc_allocate`` takes it unconditionally)."""
        cursor = self._trans_cursors[chip_id]
        if cursor is None or cursor.exhausted:
            if for_gc:
                reserve = 1 if self._gc_jobs[chip_id] is not None else 0
            else:
                reserve = 1
            if self.blocks.free_count(chip_id) <= reserve:
                return None
            block = self._take_free_block(chip_id, kind=TRANS_KIND)
            cursor = SequentialCursor(block, self.geometry.block)
            self._trans_cursors[chip_id] = cursor
        return cursor.take()

    def _drain_trans_pending(self) -> None:
        pending, self._trans_pending = self._trans_pending, deque()
        for thunk in pending:
            thunk()

    def discard_block(self, chip_id: int, block: int) -> None:
        super().discard_block(chip_id, block)
        cursor = self._trans_cursors[chip_id]
        if cursor is not None and cursor.block == block:
            self._trans_cursors[chip_id] = None

    def on_block_erased(self, chip_id: int, block: int) -> None:
        super().on_block_erased(chip_id, block)
        self._drain_trans_pending()

    # ------------------------------------------------------------------
    # translation-block garbage collection
    # ------------------------------------------------------------------

    def _maybe_gc(self, chip_id: int) -> None:
        self._maybe_trans_gc(chip_id)
        if self.blocks.free_count(chip_id) == 0:
            # translation GC holds the pool's last block; starting a
            # data-GC job now would have no block to migrate into.  The
            # pending translation erase calls back in here.
            return
        super()._maybe_gc(chip_id)

    def _maybe_trans_gc(self, chip_id: int) -> None:
        if self._trans_gc[chip_id] is not None:
            return
        free = self.blocks.free_count(chip_id)
        failing = self.blocks.failing_of_kind(chip_id, TRANS_KIND)
        if free >= self.config.gc_trigger_blocks and not failing:
            return
        full = self.blocks.full_blocks(chip_id, kind=TRANS_KIND)
        if not full:
            return
        victim = self.blocks.select_victim(chip_id, self.tmapper, kind=TRANS_KIND)
        if not self.blocks.is_failing(chip_id, victim):
            # each migrated translation page consumes a whole WL, so a
            # victim keeping >= wls_per_block live pages reclaims nothing
            valid = self.tmapper.valid_count(chip_id, victim)
            if valid >= self.geometry.block.wls_per_block and free > 1:
                return
        job = _GCJob(victim, self.tmapper.valid_pages_of_block(chip_id, victim))
        self._trans_gc[chip_id] = job
        self._trans_gc_continue(chip_id)

    def _trans_gc_continue(self, chip_id: int) -> None:
        job = self._trans_gc[chip_id]
        if job is None:
            return
        pending = job.pending
        while job.next < len(pending):
            ppn, tvpn = pending[job.next]
            job.next += 1
            if self.tmapper.lookup(tvpn) != ppn:
                continue  # superseded by a writeback during migration
            _chip, address = self.geometry.ppn_to_address(ppn)

            def on_read(_result, tvpn: int = tvpn, ppn: int = ppn) -> None:
                # content authority is the RAM table; even an
                # uncorrectable copy migrates as a fresh marker page
                self.dftl_stats.trans_gc_reads += 1
                self._migrate_tpage(chip_id, tvpn, ppn)

            # copyback-style: the migration read stays on-chip
            self._trans_flash_read(
                chip_id, address, on_read, attempts_left=0, is_gc=True
            )
            return
        self._trans_gc_erase(chip_id, job)

    def _migrate_tpage(self, chip_id: int, tvpn: int, old_ppn: int) -> None:
        if self.tmapper.lookup(tvpn) != old_ppn:
            self._trans_gc_continue(chip_id)
            return
        allocation = self._trans_allocate(chip_id, for_gc=True)
        if allocation is None:
            self._trans_pending.append(
                lambda: self._migrate_tpage(chip_id, tvpn, old_ppn)
            )
            super()._maybe_gc(chip_id)
            return
        self._program_tpage(chip_id, allocation, tvpn, is_gc=True, old_ppn=old_ppn)

    def _trans_gc_erase(self, chip_id: int, job: _GCJob) -> None:
        def count() -> None:
            self.dftl_stats.trans_gc_erases += 1

        self._erase_victim(chip_id, job.victim, self.tmapper, self._trans_gc, count)

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------

    def after_prefill(self, n_pages: int) -> None:
        """Persist translation pages for the prefilled range (untimed,
        like the prefill itself).  The CMT starts cold: the first timed
        accesses pay real translation reads."""
        if n_pages == 0:
            return
        for tvpn in range((n_pages - 1) // self.mappings_per_tpage + 1):
            self._program_tpage_untimed(tvpn)

    def _program_tpage_untimed(self, tvpn: int) -> None:
        """Synchronous, zero-time translation-page program (prefill and
        SPOR rebuild); retries program failures on fresh WLs."""
        geometry = self.geometry
        n_chips = geometry.n_chips
        home = self._home_chip(tvpn)
        while True:
            allocation = None
            chip_id = home
            for offset in range(n_chips):
                chip_id = (home + offset) % n_chips
                allocation = self._trans_allocate(chip_id)
                if allocation is not None:
                    break
            if allocation is None:
                raise OutOfSpaceError(
                    f"no free WL for translation page {tvpn}"
                )
            data, oob = self._tpage_payload(tvpn)
            params, _squeeze = self.program_params(chip_id, allocation)
            try:
                self.controller.chip(chip_id).program_wl(
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                    params=params,
                    data=data,
                    oob=oob,
                )
            except ProgramFailError:
                self.note_program_fail(chip_id, allocation.block)
                continue
            self.tmapper.bind(
                tvpn,
                geometry.wl_ppn(
                    chip_id,
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                ),
            )
            self._maybe_mark_full(chip_id, allocation.block)
            return

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def variant_state_dict(self) -> dict:
        if self._inflight_trans_programs or self._inflight_trans:
            raise RuntimeError(
                "DFTL not quiescent: translation writebacks in flight"
            )
        if self._trans_pending:
            raise RuntimeError(
                "DFTL not quiescent: deferred translation work pending"
            )
        active = sorted(
            chip for chip, job in self._trans_gc.items() if job is not None
        )
        if active:
            raise RuntimeError(
                f"DFTL not quiescent: translation GC active on chips {active}"
            )
        state = super().variant_state_dict()
        state["dftl"] = {
            "cmt": [[lpn, dirty] for lpn, dirty in self._cmt.items()],
            "tmapper": self.tmapper.state_dict(),
            "trans_cursors": {
                chip: (cursor.state_dict() if cursor is not None else None)
                for chip, cursor in self._trans_cursors.items()
            },
            "trans_seq": self._trans_seq,
            "stats": asdict(self.dftl_stats),
        }
        return state

    def load_variant_state(self, state: dict) -> None:
        super().load_variant_state(state)
        dftl = state["dftl"]
        self._cmt = OrderedDict(
            (int(lpn), bool(dirty)) for lpn, dirty in dftl["cmt"]
        )
        self._cmt_dirty = {}
        for lpn, dirty in self._cmt.items():
            if dirty:
                self._cmt_dirty.setdefault(
                    lpn // self.mappings_per_tpage, set()
                ).add(lpn)
        self.tmapper.load_state_dict(dftl["tmapper"])
        self._trans_cursors = {
            chip: (
                SequentialCursor.from_state(cursor_state, self.geometry.block)
                if cursor_state is not None
                else None
            )
            for chip, cursor_state in dftl["trans_cursors"].items()
        }
        self._trans_seq = dftl["trans_seq"]
        self.dftl_stats = DftlStats(**dftl["stats"])
        self._inflight_trans = {}
        self._inflight_trans_programs = 0
        self._trans_pending = deque()
        self._trans_gc = {
            chip: None for chip in range(self.geometry.n_chips)
        }

    # ------------------------------------------------------------------
    # SPOR recovery
    # ------------------------------------------------------------------

    def _post_spor_reset(self) -> None:
        super()._post_spor_reset()
        self._cmt = OrderedDict()
        self._cmt_dirty = {}
        self._trans_cursors = {
            chip: None for chip in range(self.geometry.n_chips)
        }
        self._trans_gc = {
            chip: None for chip in range(self.geometry.n_chips)
        }
        self._inflight_trans = {}
        self._inflight_trans_programs = 0
        self._trans_pending = deque()

    def spor_recover(self) -> dict:
        """Rebuild both translation tables from per-page OOB records.

        The base scan routes data records ``(lpn, seq)`` to the L2P and
        translation records ``(-(tvpn+1), tseq)`` to the GTD (highest
        sequence wins, lowest PPN on ties) and rediscovers block kinds.
        Then any TVPN whose mapped LPNs survived but whose translation
        page did not (e.g. writes acknowledged with dirty CMT entries at
        the cut) gets a fresh translation page written during recovery,
        so lookup completeness holds with the CMT starting empty.
        """
        summary, tallies = self._spor_scan()
        trans_records, trans_pages, max_tseq = tallies[TRANS_KIND]
        self._trans_seq = max_tseq
        per_tpage = self.mappings_per_tpage
        synthesized = 0
        for tvpn in sorted(
            set(int(lpn) // per_tpage for lpn in self.mapper.mapped_lpns())
        ):
            if self.tmapper.lookup(tvpn) == UNMAPPED:
                self._program_tpage_untimed(tvpn)
                synthesized += 1
        # a recovered device can come up with every chip flush-ineligible
        # (one free block, no active cursor) -- on a RAM-table FTL that
        # slack block is enough, here the translation blocks consumed
        # it.  Kick GC now so the first replayed write has somewhere to
        # go; on a healthy pool this is a no-op.
        self.rearm_gc()
        summary.update(
            trans_records=trans_records,
            trans_pages=trans_pages,
            synthesized_tpages=synthesized,
            max_trans_seq=max_tseq,
        )
        return summary
