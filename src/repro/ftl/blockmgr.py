"""Per-chip block lifecycle: free pool, active blocks, full blocks,
failing blocks, GC victim selection, and the grown-bad-block table."""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Set

from repro.ftl.mapping import PageMapper
from repro.nand.geometry import SSDGeometry


class OutOfSpaceError(RuntimeError):
    """A chip ran out of free blocks (GC could not keep up)."""


class BlockState(enum.Enum):
    FREE = "free"
    ACTIVE = "active"
    FULL = "full"
    RETIRED = "retired"


class _FreePool:
    """FIFO pool of free blocks with O(1) amortized take, O(1) removal,
    and single-scan keyed selection.

    Blocks live in an append-only order list with a position index;
    removals tombstone their slot (``None``) and the list compacts once
    tombstones dominate.  Iteration order (oldest first) matches the
    original deque semantics, including the first-minimum tie-break of
    keyed selection.
    """

    __slots__ = ("_order", "_head", "_pos")

    def __init__(self, blocks) -> None:
        self._order: List[Optional[int]] = list(blocks)
        self._head = 0
        self._pos: Dict[int, int] = {
            block: index for index, block in enumerate(self._order)
        }

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, block: int) -> bool:
        return block in self._pos

    def __iter__(self):
        """Live blocks, oldest first."""
        for index in range(self._head, len(self._order)):
            block = self._order[index]
            if block is not None:
                yield block

    def append(self, block: int) -> None:
        if block in self._pos:
            raise ValueError(f"block {block} is already in the free pool")
        self._pos[block] = len(self._order)
        self._order.append(block)

    def remove(self, block: int) -> None:
        index = self._pos.pop(block)
        self._order[index] = None
        self._maybe_compact()

    def take_fifo(self) -> int:
        """Pop the oldest free block."""
        while True:
            block = self._order[self._head]
            self._head += 1
            if block is not None:
                del self._pos[block]
                self._maybe_compact()
                return block

    def take_min(self, key: Callable[[int], int]) -> int:
        """Pop the block minimizing ``key`` (oldest wins ties)."""
        best: Optional[int] = None
        best_key = None
        for block in self:
            block_key = key(block)
            if best is None or block_key < best_key:
                best, best_key = block, block_key
        assert best is not None
        self.remove(best)
        return best

    def _maybe_compact(self) -> None:
        """Rebuild once dead slots (tombstones + consumed head prefix)
        outnumber live entries."""
        if len(self._order) - len(self._pos) <= max(8, len(self._pos)):
            return
        self._order = [block for block in self]
        self._head = 0
        self._pos = {block: index for index, block in enumerate(self._order)}

    def check_invariants(self) -> None:
        live = [block for block in self]
        assert len(live) == len(self._pos)
        for block in live:
            assert self._order[self._pos[block]] == block


#: block kinds -- what an in-service block holds.  FREE blocks are
#: kindless (reported as DATA_KIND until taken); the kind is assigned at
#: ``take_free`` time and reset when the block returns to the pool.
DATA_KIND = "data"
TRANS_KIND = "trans"


class BlockManager:
    """Tracks every block's lifecycle state per chip.

    Beyond the FREE/ACTIVE/FULL cycle the manager keeps two fault-
    related structures:

    - the **failing set**: FULL blocks flagged for prioritized GC and
      retirement (e.g. after a program-status failure) -- they still
      hold valid data, so they are migrated before being retired;
    - the **grown-bad table**: retired blocks with the reason they left
      service (``"wear"``, ``"erase_fail"``, ``"program_fail"``).

    Blocks additionally carry an explicit **kind** (``"data"`` vs
    ``"trans"``): demand-paged FTLs keep translation pages in dedicated
    blocks whose valid-page accounting lives in a *different* mapper, so
    GC victim selection and lifecycle auditing must never infer "all
    open blocks hold host data" from the lifecycle state alone.
    """

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        #: optional lifecycle observer (the runtime invariant checker).
        #: Called with (chip_id, block, old_state, new_state) after every
        #: transition; ``None`` (the default) costs one pointer test.
        self.observer = None
        self._free: Dict[int, _FreePool] = {}
        self._state: Dict[int, List[BlockState]] = {}
        self._failing: Dict[int, Set[int]] = {}
        self._retired_reasons: Dict[int, Dict[int, str]] = {}
        self._kind: Dict[int, List[str]] = {}
        for chip_id in range(geometry.n_chips):
            self._free[chip_id] = _FreePool(range(geometry.blocks_per_chip))
            self._state[chip_id] = [BlockState.FREE] * geometry.blocks_per_chip
            self._failing[chip_id] = set()
            self._retired_reasons[chip_id] = {}
            self._kind[chip_id] = [DATA_KIND] * geometry.blocks_per_chip

    def state(self, chip_id: int, block: int) -> BlockState:
        return self._state[chip_id][block]

    def kind_of(self, chip_id: int, block: int) -> str:
        """The block's assigned kind (``"data"`` for free blocks)."""
        return self._kind[chip_id][block]

    def free_count(self, chip_id: int) -> int:
        return len(self._free[chip_id])

    def take_free(
        self,
        chip_id: int,
        key: Optional[Callable[[int], int]] = None,
        kind: str = DATA_KIND,
    ) -> int:
        """Pop a free block and mark it active with the given ``kind``.

        Without ``key`` blocks recycle FIFO; with a ``key`` (e.g. the
        erase count, for dynamic wear leveling) the free block minimizing
        it is chosen, oldest first on ties.
        """
        if kind not in (DATA_KIND, TRANS_KIND):
            raise ValueError(f"unknown block kind {kind!r}")
        free = self._free[chip_id]
        if not free:
            raise OutOfSpaceError(f"chip {chip_id} has no free blocks")
        if key is None:
            block = free.take_fifo()
        else:
            block = free.take_min(key)
        self._state[chip_id][block] = BlockState.ACTIVE
        self._kind[chip_id][block] = kind
        if self.observer is not None:
            self.observer.on_block_transition(
                chip_id, block, BlockState.FREE, BlockState.ACTIVE
            )
        return block

    def mark_full(self, chip_id: int, block: int) -> None:
        if self._state[chip_id][block] is not BlockState.ACTIVE:
            raise ValueError(f"block {block} is not active")
        self._state[chip_id][block] = BlockState.FULL
        if self.observer is not None:
            self.observer.on_block_transition(
                chip_id, block, BlockState.ACTIVE, BlockState.FULL
            )

    def mark_free(self, chip_id: int, block: int) -> None:
        """Return an erased block to the free pool."""
        state = self._state[chip_id][block]
        if state is BlockState.FREE:
            raise ValueError(f"block {block} is already free")
        if state is BlockState.RETIRED:
            raise ValueError(f"block {block} is retired")
        self._state[chip_id][block] = BlockState.FREE
        self._failing[chip_id].discard(block)
        self._free[chip_id].append(block)
        if self.observer is not None:
            # the observer audits against the *outgoing* kind's mapper
            # (the block must be empty in it), so the kind resets after
            self.observer.on_block_transition(
                chip_id, block, state, BlockState.FREE
            )
        self._kind[chip_id][block] = DATA_KIND

    # ------------------------------------------------------------------
    # failing blocks and retirement
    # ------------------------------------------------------------------

    def mark_failing(self, chip_id: int, block: int) -> None:
        """Flag a FULL block for prioritized migration and retirement.

        Used when an operation on the block reported a failure status
        while it still holds valid data: GC migrates the data first,
        then retires the block instead of erasing it.
        """
        if self._state[chip_id][block] is not BlockState.FULL:
            raise ValueError(f"block {block} is not full")
        self._failing[chip_id].add(block)
        if self.observer is not None:
            self.observer.on_block_failing(chip_id, block)

    def is_failing(self, chip_id: int, block: int) -> bool:
        return block in self._failing[chip_id]

    def failing_count(self, chip_id: int) -> int:
        return len(self._failing[chip_id])

    def failing_blocks(self, chip_id: int) -> List[int]:
        return sorted(self._failing[chip_id])

    def retire(self, chip_id: int, block: int, reason: str = "wear") -> None:
        """Permanently remove a block from service.

        The block must hold no valid data (it is retired after its
        contents were migrated and its final erase failed or its
        endurance limit was reached).  Retiring an ACTIVE block is an
        error: active blocks are still wired into allocation cursors and
        must be discarded from them (and marked full) first.
        """
        state = self._state[chip_id][block]
        if state is BlockState.RETIRED:
            return
        if state is BlockState.ACTIVE:
            raise ValueError(
                f"block {block} is active; discard it from the allocation "
                "cursors and mark it full before retiring"
            )
        if state is BlockState.FREE:
            self._free[chip_id].remove(block)
        self._failing[chip_id].discard(block)
        self._state[chip_id][block] = BlockState.RETIRED
        self._retired_reasons[chip_id][block] = reason
        if self.observer is not None:
            self.observer.on_block_transition(
                chip_id, block, state, BlockState.RETIRED
            )

    def retired_count(self, chip_id: int) -> int:
        return sum(
            1 for state in self._state[chip_id] if state is BlockState.RETIRED
        )

    def grown_bad_table(self, chip_id: int) -> Dict[int, str]:
        """Retired blocks and why they left service (the bad-block table
        a production FTL persists)."""
        return dict(self._retired_reasons[chip_id])

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable lifecycle state.

        Free pools serialize as their live iteration order (oldest
        first): rebuilding a fresh pool from that list reproduces FIFO
        take order and keyed tie-breaks exactly, without persisting the
        tombstone/compaction internals.  The ``observer`` hook is wiring,
        not state, and is re-attached by the owning simulation.
        """
        return {
            "free": {
                chip_id: list(pool) for chip_id, pool in self._free.items()
            },
            "state": {
                chip_id: [state.value for state in states]
                for chip_id, states in self._state.items()
            },
            "failing": {
                chip_id: sorted(blocks)
                for chip_id, blocks in self._failing.items()
            },
            "retired_reasons": {
                chip_id: dict(reasons)
                for chip_id, reasons in self._retired_reasons.items()
            },
            "kind": {
                chip_id: list(kinds) for chip_id, kinds in self._kind.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        for chip_id in range(self.geometry.n_chips):
            self._free[chip_id] = _FreePool(state["free"][chip_id])
            self._state[chip_id] = [
                BlockState(value) for value in state["state"][chip_id]
            ]
            self._failing[chip_id] = set(state["failing"][chip_id])
            self._retired_reasons[chip_id] = dict(
                state["retired_reasons"][chip_id]
            )
            self._kind[chip_id] = list(state["kind"][chip_id])

    # ------------------------------------------------------------------
    # GC victim selection
    # ------------------------------------------------------------------

    def full_blocks(self, chip_id: int, kind: Optional[str] = None) -> List[int]:
        """FULL blocks of a chip, optionally restricted to one kind."""
        kinds = self._kind[chip_id]
        return [
            block
            for block, state in enumerate(self._state[chip_id])
            if state is BlockState.FULL
            and (kind is None or kinds[block] == kind)
        ]

    def failing_of_kind(self, chip_id: int, kind: str) -> List[int]:
        """Failing blocks of one kind, sorted."""
        kinds = self._kind[chip_id]
        return sorted(
            block for block in self._failing[chip_id] if kinds[block] == kind
        )

    def select_victim(
        self, chip_id: int, mapper: PageMapper, kind: Optional[str] = None
    ) -> int:
        """Greedy GC victim: the full block with the fewest valid pages.

        Failing blocks take absolute priority -- they must leave service
        as soon as their data can be moved, regardless of how many valid
        pages they still hold.  ``kind`` restricts selection to blocks of
        one kind; ``mapper`` must be the mapper accounting that kind's
        valid pages (a block of another kind counts zero there, which
        would make it look like a free win).
        """
        kinds = self._kind[chip_id]
        failing = [
            block
            for block in sorted(self._failing[chip_id])
            if kind is None or kinds[block] == kind
        ]
        if failing:
            return min(
                failing,
                key=lambda block: mapper.valid_count(chip_id, block),
            )
        candidates = self.full_blocks(chip_id, kind=kind)
        if not candidates:
            raise OutOfSpaceError(f"chip {chip_id} has no GC victim")
        return min(candidates, key=lambda block: mapper.valid_count(chip_id, block))

    def counts(self, chip_id: int) -> Dict[BlockState, int]:
        result = {state: 0 for state in BlockState}
        for state in self._state[chip_id]:
            result[state] += 1
        return result

    def totals(self) -> Dict[BlockState, int]:
        """Lifecycle-state counts summed over every chip (the
        metrics timeline's free-block / retirement gauges)."""
        result = {state: 0 for state in BlockState}
        for chip_id in self._state:
            for state, count in self.counts(chip_id).items():
                result[state] += count
        return result
