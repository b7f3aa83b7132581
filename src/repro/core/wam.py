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

The module also provides the :class:`SequentialCursor` used by the
PS-unaware FTLs and by cubeFTL- (WAM disabled): plain horizontal-first
allocation.
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

    @property
    def i_leader(self) -> int:
        return self._leader_layer

    @property
    def i_follower(self) -> int:
        return self._follower_layer

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

    def leaders_remaining(self) -> int:
        return self._n_layers - self._leader_layer

    def followers_remaining(self) -> int:
        """Free follower WLs under h-layers already led (allocatable now)."""
        if not self.follower_available():
            return 0
        per_layer = self._wls_per_layer - 1
        full_layers = self._leader_layer - self._follower_layer - 1
        current = self._wls_per_layer - self._follower_wl
        return full_layers * per_layer + current

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

    def take(self, prefer_follower: bool = False) -> Allocation:
        """Allocate the next WL in order (the preference is ignored --
        that is exactly what cubeFTL- gives up)."""
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


class WLAllocationManager:
    """Workload-aware WL allocation across a chip's active blocks.

    Each chip keeps ``active_blocks_per_chip`` active blocks (the paper
    uses two as the memory/flexibility compromise) whose WLs are
    allocated through MOS cursors.
    """

    def __init__(
        self,
        geometry: BlockGeometry,
        active_blocks_per_chip: int = 2,
        mu_threshold: float = 0.9,
    ) -> None:
        if active_blocks_per_chip < 1:
            raise ValueError("active_blocks_per_chip must be >= 1")
        if not 0.0 < mu_threshold <= 1.0:
            raise ValueError("mu_threshold must be in (0, 1]")
        self.geometry = geometry
        self.active_blocks_per_chip = active_blocks_per_chip
        self.mu_threshold = mu_threshold
        self._cursors: Dict[int, List[ActiveBlockCursor]] = {}
        self.leader_allocations = 0
        self.follower_allocations = 0

    @property
    def follower_fraction(self) -> float:
        """Share of allocations that used fast follower WLs (the
        burst-absorption signal the metrics timeline tracks)."""
        total = self.leader_allocations + self.follower_allocations
        return self.follower_allocations / total if total else 0.0

    def cursors(self, chip_id: int) -> List[ActiveBlockCursor]:
        return self._cursors.setdefault(chip_id, [])

    def blocks_needed(self, chip_id: int) -> int:
        """How many fresh active blocks the chip should be given."""
        return self.active_blocks_per_chip - len(self.cursors(chip_id))

    def install_block(self, chip_id: int, block: int) -> None:
        """Register an erased block as a new active block."""
        self.cursors(chip_id).append(ActiveBlockCursor(block, self.geometry))

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
        """Cursor order within a chip is allocation order and must be
        preserved exactly (the first-match scans in :meth:`allocate`
        depend on it)."""
        return {
            "cursors": {
                chip_id: [cursor.state_dict() for cursor in cursors]
                for chip_id, cursors in self._cursors.items()
            },
            "leader_allocations": self.leader_allocations,
            "follower_allocations": self.follower_allocations,
        }

    def load_state_dict(self, state: dict) -> None:
        self._cursors = {
            chip_id: [
                ActiveBlockCursor.from_state(cursor_state, self.geometry)
                for cursor_state in cursor_states
            ]
            for chip_id, cursor_states in state["cursors"].items()
        }
        self.leader_allocations = state["leader_allocations"]
        self.follower_allocations = state["follower_allocations"]

    def reset(self) -> None:
        """Drop every cursor (SPOR: active blocks are sealed on recovery,
        so no cursor survives)."""
        self._cursors = {}
