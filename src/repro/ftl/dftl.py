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
  by a dedicated **translation GC** state machine.

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
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.wam import Allocation, SequentialCursor
from repro.ftl.blockmgr import DATA_KIND, TRANS_KIND, OutOfSpaceError
from repro.ftl.mapping import UNMAPPED, PageMapper
from repro.ftl.pageftl import PageFTL
from repro.nand.errors import EraseFailError, ProgramFailError, WearOutError
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


class _TransGCJob:
    """State of one in-progress translation-block collection."""

    __slots__ = ("victim", "pending", "next")

    def __init__(self, victim: int, pending: List[Tuple[int, int]]) -> None:
        self.victim = victim
        #: the victim's valid (ppn, tvpn) pairs, in page order
        self.pending = pending
        #: index in ``pending`` of the next pair to migrate
        self.next = 0


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
        #: LPN -> dirty flag, LRU order (oldest first)
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        self._trans_cursors: Dict[int, Optional[SequentialCursor]] = {
            chip: None for chip in range(config.geometry.n_chips)
        }
        self._trans_gc: Dict[int, Optional[_TransGCJob]] = {
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

    def block_valid_count(self, chip_id: int, block: int) -> int:
        if self.blocks.kind_of(chip_id, block) == TRANS_KIND:
            return self.tmapper.valid_count(chip_id, block)
        return self.mapper.valid_count(chip_id, block)

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

    def _cmt_evict_overflow(self) -> None:
        cmt = self._cmt
        stats = self.dftl_stats
        per_tpage = self.mappings_per_tpage
        while len(cmt) > self.cmt_capacity:
            victim, dirty = cmt.popitem(last=False)
            if not dirty:
                stats.cmt_evictions_clean += 1
                continue
            stats.cmt_evictions_dirty += 1
            tvpn = victim // per_tpage
            # batched writeback: the new translation page carries every
            # dirty co-resident entry of the same TVPN, so those entries
            # become clean without their own future writeback
            for other, other_dirty in cmt.items():
                if other_dirty and other // per_tpage == tvpn:
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
                self._cmt.pop(lpn, None)
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

        def on_result(result) -> None:
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
            use_bus=True,
        )

    def _trans_flash_read(
        self,
        chip_id: int,
        address: PageAddress,
        on_result: Callable[[Optional[object]], None],
        attempts_left: int,
        use_bus: bool,
        conservative: bool = False,
    ) -> None:
        """One translation-page read: die sense (with retries), then the
        channel transfer for demand fetches (GC migrations stay
        on-chip).  Uncorrectable results under a fault campaign get the
        same bounded conservative re-reads as data pages; a page that
        stays unreadable reports ``None`` (the caller rewrites it from
        the authoritative table -- never a silent stale mapping)."""
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
                        attempts_left - 1, use_bus, conservative=True,
                    )
                else:
                    self._finish_trans_read(chip_id, None, on_result, use_bus)
                return
            self._finish_trans_read(chip_id, result, on_result, use_bus)

        self.controller.chip_resource(chip_id).submit(job, on_done)

    def _finish_trans_read(
        self, chip_id: int, result, on_result, use_bus: bool
    ) -> None:
        if not use_bus:
            on_result(result)
            return
        transfer = self.config.timing.transfer_us(
            self.geometry.block.page_size_bytes
        )
        self.controller.bus_resource(chip_id).submit(
            lambda: (transfer, None), lambda _ignored: on_result(result)
        )

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
            attempts_left=0, use_bus=True,
        )

    def _program_tpage(
        self, chip_id: int, allocation: Allocation, tvpn: int
    ) -> None:
        """Program one translation page (page 0 of a WL, padded) and
        bind it in the GTD when it lands."""
        pages_per_wl = self.geometry.block.pages_per_wl
        self._trans_seq += 1
        seq = self._trans_seq
        data: List[Optional[object]] = [("tpage", tvpn, seq)]
        data += [None] * (pages_per_wl - 1)
        oob = None
        if self._store_oob:
            oob = [(-(tvpn + 1), seq)]
            oob += [None] * (pages_per_wl - 1)
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

        def on_done(result) -> None:
            self._inflight_trans_programs -= 1
            self._program_landed(chip_id, allocation.block)
            if result is None:
                self.dftl_stats.trans_program_fails += 1
                self.note_program_fail(chip_id, allocation.block)
                self._issue_writeback(chip_id, tvpn)
                self._maybe_gc(chip_id)
                return
            if self.blocks.is_failing(chip_id, allocation.block):
                # a sibling program on this block failed while ours was
                # in flight; the block is leaving service
                self._issue_writeback(chip_id, tvpn)
                return
            self.dftl_stats.trans_programs += 1
            ppn = self.geometry.wl_ppn(
                chip_id,
                allocation.block,
                allocation.address.layer,
                allocation.address.wl,
            )
            self.tmapper.bind(tvpn, ppn)
            self._unmark_inflight(tvpn)
            self._maybe_mark_full(chip_id, allocation.block)
            self._maybe_gc(chip_id)

        transfer = self.config.timing.transfer_us(
            self.geometry.block.page_size_bytes
        )
        bus = self.controller.bus_resource(chip_id)
        bus.submit(
            lambda: (transfer, None),
            lambda _ignored: self.controller.chip_resource(chip_id).submit(
                job, on_done
            ),
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
        job = _TransGCJob(
            victim, self.tmapper.valid_pages_of_block(chip_id, victim)
        )
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
                chip_id, address, on_read, attempts_left=0, use_bus=False
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
        pages_per_wl = self.geometry.block.pages_per_wl
        self._trans_seq += 1
        seq = self._trans_seq
        data: List[Optional[object]] = [("tpage", tvpn, seq)]
        data += [None] * (pages_per_wl - 1)
        oob = None
        if self._store_oob:
            oob = [(-(tvpn + 1), seq)]
            oob += [None] * (pages_per_wl - 1)
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

        def on_done(result) -> None:
            self._inflight_trans_programs -= 1
            self._program_landed(chip_id, allocation.block)
            if result is None:
                self.dftl_stats.trans_program_fails += 1
                self.note_program_fail(chip_id, allocation.block)
                self._migrate_tpage(chip_id, tvpn, old_ppn)
                self._maybe_gc(chip_id)
                return
            if self.blocks.is_failing(chip_id, allocation.block):
                self._migrate_tpage(chip_id, tvpn, old_ppn)
                return
            self.dftl_stats.trans_gc_programs += 1
            if self.tmapper.lookup(tvpn) == old_ppn:
                ppn = self.geometry.wl_ppn(
                    chip_id,
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                )
                self.tmapper.bind(tvpn, ppn)
            self._maybe_mark_full(chip_id, allocation.block)
            self._trans_gc_continue(chip_id)

        # migrations stay on-chip (copyback style), like data GC
        self.controller.chip_resource(chip_id).submit(job, on_done)

    def _trans_gc_erase(self, chip_id: int, job: _TransGCJob) -> None:
        victim = job.victim
        failing = self.blocks.is_failing(chip_id, victim)

        def erase_job():
            if failing:
                return 0.0, ("program_fail", 0.0)
            try:
                t_erase = self.controller.chip(chip_id).erase_block(victim)
                return t_erase, ("erased", t_erase)
            except WearOutError:
                return 0.0, ("wear", 0.0)
            except EraseFailError as fail:
                return fail.t_us, ("erase_fail", fail.t_us)

        def on_done(payload) -> None:
            outcome, _t_us = payload
            self.tmapper.clear_block(chip_id, victim)
            if outcome == "erased":
                self.counters.erases += 1
                self.dftl_stats.trans_gc_erases += 1
                self.blocks.mark_free(chip_id, victim)
            else:
                if outcome == "erase_fail":
                    self.recovery.erase_fails += 1
                if outcome != "wear":
                    self.recovery.blocks_retired += 1
                self.counters.retired_blocks += 1
                self.blocks.retire(chip_id, victim, reason=outcome)
            self.on_block_erased(chip_id, victim)
            self._trans_gc[chip_id] = None
            self._maybe_gc(chip_id)
            self._drain_pending_writes()
            self._maybe_flush()

        self.controller.chip_resource(chip_id).submit(erase_job, on_done)

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
        pages_per_wl = geometry.block.pages_per_wl
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
            self._trans_seq += 1
            seq = self._trans_seq
            data: List[Optional[object]] = [("tpage", tvpn, seq)]
            data += [None] * (pages_per_wl - 1)
            oob = None
            if self._store_oob:
                oob = [(-(tvpn + 1), seq)]
                oob += [None] * (pages_per_wl - 1)
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

        Data pages carry ``(lpn, seq)`` with ``lpn >= 0`` and rebuild
        the L2P exactly as in :meth:`BaseFTL.spor_recover`; translation
        pages carry ``(-(tvpn+1), tseq)`` and rebuild the GTD the same
        way (highest sequence wins, lowest PPN on ties).  Block kinds
        are rediscovered from the records each block holds.  Finally,
        any TVPN whose mapped LPNs survived but whose translation page
        did not (e.g. writes acknowledged with dirty CMT entries at the
        cut) gets a fresh translation page written during recovery, so
        lookup completeness holds with the CMT starting empty.
        """
        if not self._store_oob:
            raise RuntimeError("SPOR recovery requires store_oob=True")
        if self.mapper.mapped_lpn_count() or self.tmapper.mapped_lpn_count():
            raise RuntimeError("spor_recover requires a freshly built FTL")
        from repro.ftl.blockmgr import BlockState

        geometry = self.geometry
        winners: Dict[int, Tuple[int, int]] = {}
        twinners: Dict[int, Tuple[int, int]] = {}
        kind_of_block: Dict[Tuple[int, int], str] = {}
        records = 0
        trans_records = 0
        max_seq = 0
        max_tseq = 0
        for chip_id in range(geometry.n_chips):
            chip = self.controller.chip(chip_id)
            for (block, wl_index, page), (lpn, seq) in chip.iter_oob():
                records += 1
                address = geometry.block.wl_from_index(wl_index)
                ppn = geometry.ppn(
                    chip_id,
                    PageAddress(block, address.layer, address.wl, page),
                )
                if lpn < 0:
                    tvpn = -lpn - 1
                    trans_records += 1
                    kind_of_block[(chip_id, block)] = TRANS_KIND
                    if seq > max_tseq:
                        max_tseq = seq
                    best = twinners.get(tvpn)
                    if best is None or (seq, -ppn) > (best[0], -best[1]):
                        twinners[tvpn] = (seq, ppn)
                else:
                    kind_of_block[(chip_id, block)] = DATA_KIND
                    if seq > max_seq:
                        max_seq = seq
                    best = winners.get(lpn)
                    if best is None or (seq, -ppn) > (best[0], -best[1]):
                        winners[lpn] = (seq, ppn)
        for lpn in sorted(winners):
            self.mapper.bind(lpn, winners[lpn][1])
        for tvpn in sorted(twinners):
            self.tmapper.bind(tvpn, twinners[tvpn][1])
        free: Dict[int, List[int]] = {}
        states: Dict[int, List[str]] = {}
        kinds: Dict[int, List[str]] = {}
        full_blocks = 0
        for chip_id in range(geometry.n_chips):
            chip = self.controller.chip(chip_id)
            chip_states: List[str] = []
            chip_free: List[int] = []
            chip_kinds: List[str] = []
            for block in range(geometry.blocks_per_chip):
                if chip.programmed_wl_count(block) > 0:
                    chip_states.append(BlockState.FULL.value)
                    chip_kinds.append(
                        kind_of_block.get((chip_id, block), DATA_KIND)
                    )
                    full_blocks += 1
                else:
                    chip_states.append(BlockState.FREE.value)
                    chip_kinds.append(DATA_KIND)
                    chip_free.append(block)
            states[chip_id] = chip_states
            free[chip_id] = chip_free
            kinds[chip_id] = chip_kinds
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
        self._write_seq = max_seq
        self._trans_seq = max_tseq
        per_tpage = self.mappings_per_tpage
        synthesized = 0
        for tvpn in sorted(
            set(int(lpn) // per_tpage for lpn in self.mapper.mapped_lpns())
        ):
            if self.tmapper.lookup(tvpn) == UNMAPPED:
                self._program_tpage_untimed(tvpn)
                synthesized += 1
        # GC is normally (re)armed by program/erase completions, but a
        # recovered device can come up with every chip flush-ineligible
        # (one free block, no active cursor) -- on a RAM-table FTL that
        # slack block is enough, here the translation blocks consumed
        # it.  Kick GC now so the first replayed write has somewhere to
        # go; on a healthy pool this is a no-op.
        for chip_id in range(geometry.n_chips):
            self._maybe_gc(chip_id)
        return {
            "oob_records": records,
            "mapped_lpns": len(winners),
            "full_blocks": full_blocks,
            "max_seq": max_seq,
            "trans_records": trans_records,
            "trans_pages": len(twinners),
            "synthesized_tpages": synthesized,
            "max_trans_seq": max_tseq,
        }
