"""WL Allocation Manager (WAM) -- Section 5.2 and Fig. 16.

The WAM chooses which WL serves each incoming write.  It monitors the
write-buffer utilization ``mu``; above the threshold ``mu_TH`` it judges
that high write bandwidth is needed and allocates *fast follower* WLs,
otherwise it prefers *slow leader* WLs, preserving followers for future
bursts.

To allow that freedom the WAM manages its active blocks in a fully mixed
fashion based on the MOS: per active block it keeps two h-layer pointers,
``i_Leader`` (next h-layer with a free leader WL) and ``i_Follower``
(next h-layer with a free follower WL), with followers only allocatable
on h-layers whose leader has already been programmed
(``i_Follower < i_Leader``).

The module also provides :class:`SequentialAllocator`, plain
horizontal-first allocation through :class:`SequentialCursor` objects:
the PS-unaware FTLs and cubeFTL- (WAM disabled) allocate host WLs with
it, and every FTL its GC and translation WLs.  Both allocators keep
each chip's open blocks as a list of cursors, in the order the blocks
were opened, behind one interface (:class:`BlockAllocator`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.nand.geometry import BlockGeometry, WLAddress


class Allocation(NamedTuple):
    """One allocated WL: where to program and whether it is a leader.

    Built once per program, so a named tuple rather than a frozen
    dataclass (same fields, equality, hash and repr; much cheaper to
    construct).
    """

    block: int
    address: WLAddress
    is_leader: bool


class ActiveBlockCursor:
    """MOS two-pointer cursor over one active block (Fig. 16).

    Leaders are, by convention, WL 0 of each h-layer; followers are
    WLs 1..k of h-layers whose leader is already programmed.
    """

    def __init__(self, block: int, geometry: BlockGeometry) -> None:
        self.block = block
        self.geometry = geometry
        # the block shape as plain ints: the availability tests run
        # several times per allocation
        self._n_layers = geometry.n_layers
        self._wls_per_layer = geometry.wls_per_layer
        self._leader_layer = 0  # i_Leader: next h-layer with a free leader
        self._follower_layer = 0  # i_Follower: h-layer of the next free follower
        self._follower_wl = 1

    # -- queries -------------------------------------------------------

    def leader_available(self) -> bool:
        return self._leader_layer < self._n_layers

    def follower_available(self) -> bool:
        """Followers exist only behind the leader pointer."""
        return (
            self._follower_layer < self._leader_layer
            and self._follower_layer < self._n_layers
        )

    @property
    def exhausted(self) -> bool:
        # not leader_available() and not follower_available(), inline:
        # tested after every allocation
        follower_layer = self._follower_layer
        return self._leader_layer >= self._n_layers and not (
            follower_layer < self._leader_layer and follower_layer < self._n_layers
        )

    def free_wls(self) -> int:
        """All WLs not yet programmed through this cursor."""
        total = self._n_layers * self._wls_per_layer
        leaders_used = self._leader_layer
        followers_used = self._follower_layer * (self._wls_per_layer - 1) + (
            self._follower_wl - 1
        )
        return total - leaders_used - followers_used

    # -- allocation ----------------------------------------------------

    def take_leader(self) -> Allocation:
        if not self.leader_available():
            raise LookupError(f"block {self.block}: no free leader WL")
        address = WLAddress(self._leader_layer, 0)
        self._leader_layer += 1
        return Allocation(self.block, address, is_leader=True)

    def take_follower(self) -> Allocation:
        if not self.follower_available():
            raise LookupError(f"block {self.block}: no allocatable follower WL")
        address = WLAddress(self._follower_layer, self._follower_wl)
        self._follower_wl += 1
        if self._follower_wl >= self._wls_per_layer:
            self._follower_wl = 1
            self._follower_layer += 1
        return Allocation(self.block, address, is_leader=False)

    def take(self, prefer_follower: bool) -> Allocation:
        """Allocate with preference, falling back to the other group."""
        if prefer_follower:
            if self.follower_available():
                return self.take_follower()
            return self.take_leader()
        if self.leader_available():
            return self.take_leader()
        return self.take_follower()

    # -- checkpointing -------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "block": self.block,
            "leader_layer": self._leader_layer,
            "follower_layer": self._follower_layer,
            "follower_wl": self._follower_wl,
        }

    @classmethod
    def from_state(cls, state: dict, geometry: BlockGeometry) -> "ActiveBlockCursor":
        cursor = cls(state["block"], geometry)
        cursor._leader_layer = state["leader_layer"]
        cursor._follower_layer = state["follower_layer"]
        cursor._follower_wl = state["follower_wl"]
        return cursor


class SequentialCursor:
    """Horizontal-first allocation (conventional FTLs and cubeFTL-).

    WLs are handed out in the Fig. 12(a) order; the first WL of each
    h-layer is the layer's leader.
    """

    def __init__(self, block: int, geometry: BlockGeometry) -> None:
        self.block = block
        self.geometry = geometry
        # the block shape as plain ints, read on every allocation
        self._wls_per_block = geometry.wls_per_block
        self._wls_per_layer = geometry.wls_per_layer
        self._next = 0

    @property
    def exhausted(self) -> bool:
        return self._next >= self._wls_per_block

    def free_wls(self) -> int:
        return self._wls_per_block - self._next

    def take(self) -> Allocation:
        """Allocate the next WL in order."""
        index = self._next
        if index >= self._wls_per_block:
            raise LookupError(f"block {self.block}: exhausted")
        self._next = index + 1
        layer, wl = divmod(index, self._wls_per_layer)
        return Allocation(self.block, WLAddress(layer, wl), wl == 0)

    # -- checkpointing -------------------------------------------------

    def state_dict(self) -> dict:
        return {"block": self.block, "next": self._next}

    @classmethod
    def from_state(cls, state: dict, geometry: BlockGeometry) -> "SequentialCursor":
        cursor = cls(state["block"], geometry)
        cursor._next = state["next"]
        return cursor


class BlockAllocator:
    """A chip's open blocks as cursors, in the order they were opened.

    The interface every FTL allocates WLs through: blocks come in
    through :meth:`install_block` (``BaseFTL._open_wl`` opens them), WLs
    go out through :meth:`allocate`, and a cursor is dropped as soon as
    its block is exhausted.  Subclasses set :attr:`cursor_type` and the
    choice :meth:`allocate` makes among the open blocks.
    """

    cursor_type: type

    def __init__(self, geometry: BlockGeometry) -> None:
        self.geometry = geometry
        self._cursors: Dict[int, List] = {}

    def cursors(self, chip_id: int) -> List:
        return self._cursors.setdefault(chip_id, [])

    def install_block(self, chip_id: int, block: int) -> None:
        """Register an erased block as a new open block."""
        self.cursors(chip_id).append(self.cursor_type(block, self.geometry))

    def discard_block(self, chip_id: int, block: int) -> bool:
        """Drop a block's cursor without exhausting it (the block left
        service early, e.g. after a program-status failure).  Returns
        whether a cursor was removed."""
        cursors = self.cursors(chip_id)
        for index, cursor in enumerate(cursors):
            if cursor.block == block:
                del cursors[index]
                return True
        return False

    def free_wls(self, chip_id: int) -> int:
        return sum(cursor.free_wls() for cursor in self.cursors(chip_id))

    def allocate(self, chip_id: int, utilization: float) -> Optional[Allocation]:
        """The chip's next WL given the write-buffer ``utilization``, or
        ``None`` when no block is open."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Cursor order within a chip is allocation order and must be
        preserved exactly (the allocation scans depend on it)."""
        return {
            "cursors": {
                chip_id: [cursor.state_dict() for cursor in cursors]
                for chip_id, cursors in self._cursors.items()
            }
        }

    def load_state_dict(self, state: dict) -> None:
        self._cursors = {
            chip_id: [
                self.cursor_type.from_state(cursor_state, self.geometry)
                for cursor_state in cursor_states
            ]
            for chip_id, cursor_states in state["cursors"].items()
        }

    def reset(self) -> None:
        """Drop every cursor (SPOR: open blocks are sealed on recovery,
        so no cursor survives)."""
        self._cursors = {}


class SequentialAllocator(BlockAllocator):
    """Horizontal-first allocation: a chip's open blocks fill one at a
    time, oldest first, each in the Fig. 12(a) order."""

    cursor_type = SequentialCursor

    def allocate(self, chip_id: int, utilization: float) -> Optional[Allocation]:
        """The next WL of the chip's oldest open block.  The utilization
        is ignored -- that is exactly what cubeFTL- gives up."""
        cursors = self._cursors.get(chip_id)
        if not cursors:
            return None
        cursor = cursors[0]
        allocation = cursor.take()
        if cursor.exhausted:
            del cursors[0]
        return allocation


class WLAllocationManager(BlockAllocator):
    """Workload-aware WL allocation across a chip's active blocks.

    The FTL keeps ``config.active_blocks_per_chip`` blocks open per chip
    (the paper uses two as the memory/flexibility compromise; see
    ``BaseFTL._host_allocate``); the WAM allocates their WLs through MOS
    cursors.
    """

    cursor_type = ActiveBlockCursor

    def __init__(self, geometry: BlockGeometry, mu_threshold: float = 0.9) -> None:
        if not 0.0 < mu_threshold <= 1.0:
            raise ValueError("mu_threshold must be in (0, 1]")
        super().__init__(geometry)
        self.mu_threshold = mu_threshold
        self.leader_allocations = 0
        self.follower_allocations = 0

    def allocate(self, chip_id: int, utilization: float) -> Optional[Allocation]:
        """Pick the most appropriate WL for the next flush.

        Under pressure (``utilization > mu_TH``) followers are used as
        long as ``i_Follower < i_Leader``; otherwise leaders are used
        even if follower WLs of lower h-layers remain free (Fig. 16).
        Returns ``None`` when every active block is exhausted.
        """
        cursors = self.cursors(chip_id)
        prefer_follower = utilization > self.mu_threshold
        choice: Optional[ActiveBlockCursor] = None
        # first pass: a cursor offering the preferred WL group
        if prefer_follower:
            for cursor in cursors:
                if cursor.follower_available():
                    choice = cursor
                    break
        else:
            for cursor in cursors:
                if cursor.leader_available():
                    choice = cursor
                    break
        # second pass: anything non-exhausted
        if choice is None:
            for cursor in cursors:
                if not cursor.exhausted:
                    choice = cursor
                    break
        if choice is None:
            return None
        allocation = choice.take(prefer_follower)
        if allocation.is_leader:
            self.leader_allocations += 1
        else:
            self.follower_allocations += 1
        if choice.exhausted:
            cursors.remove(choice)
        return allocation

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["leader_allocations"] = self.leader_allocations
        state["follower_allocations"] = self.follower_allocations
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.leader_allocations = state["leader_allocations"]
        self.follower_allocations = state["follower_allocations"]
