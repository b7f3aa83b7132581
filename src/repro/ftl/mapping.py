"""Page-level address translation (L2P / P2L) with validity tracking.

Numpy-backed so the paper-scale device (about two million physical pages)
translates in O(1) per access with modest memory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nand.geometry import SSDGeometry

#: sentinel for "not mapped"
UNMAPPED = -1


class PageMapper:
    """L2P/P2L tables plus per-block valid-page accounting."""

    def __init__(self, geometry: SSDGeometry, logical_pages: int) -> None:
        if logical_pages < 1:
            raise ValueError("logical_pages must be >= 1")
        if logical_pages > geometry.total_pages:
            raise ValueError("logical space exceeds physical capacity")
        self.geometry = geometry
        self.logical_pages = logical_pages
        self._l2p = np.full(logical_pages, UNMAPPED, dtype=np.int64)
        self._p2l = np.full(geometry.total_pages, UNMAPPED, dtype=np.int64)
        self._valid = np.zeros(geometry.total_pages, dtype=bool)
        self._valid_count = np.zeros(
            (geometry.n_chips, geometry.blocks_per_chip), dtype=np.int32
        )
        self._bind_views()
        # plain-int geometry constants so the per-bind PPN decomposition
        # needs no attribute chains
        self._total_pages = int(geometry.total_pages)
        self._pages_per_chip = int(geometry.pages_per_chip)
        self._pages_per_block = int(geometry.block.pages_per_block)
        self._n_chips = int(geometry.n_chips)
        self._blocks_per_chip = int(geometry.blocks_per_chip)

    def _bind_views(self) -> None:
        """Memoryviews over the tables, for single-entry access.

        Reading or writing one entry through a memoryview moves a plain
        Python int or bool, about half the cost of numpy scalar indexing
        (a 2-D ``+= 1`` costs three times as much).  The views share the
        arrays' storage, so whole-table work (audit, block scans, the
        checkpoint format) stays on the arrays.  ``_valid_count`` is
        viewed flat: a PPN's entry is ``ppn // pages_per_block``.  Like
        numpy, a view wraps negative indices, so every entry point
        range-checks its index first.
        """
        self._l2p_view = memoryview(self._l2p)
        self._p2l_view = memoryview(self._p2l)
        self._valid_view = memoryview(self._valid)
        self._count_view = memoryview(self._valid_count.reshape(-1))

    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise IndexError(f"LPN {lpn} out of range [0, {self.logical_pages})")

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self._total_pages:
            raise IndexError(f"PPN {ppn} out of range [0, {self._total_pages})")

    def _check_block(self, chip_id: int, block: int) -> None:
        if not 0 <= chip_id < self._n_chips:
            raise IndexError(f"chip {chip_id} out of range [0, {self._n_chips})")
        if not 0 <= block < self._blocks_per_chip:
            raise IndexError(
                f"block {block} out of range [0, {self._blocks_per_chip})"
            )

    def _block_of_ppn(self, ppn: int) -> Tuple[int, int]:
        chip_id, rest = divmod(ppn, self._pages_per_chip)
        block = rest // self._pages_per_block
        return chip_id, block

    # ------------------------------------------------------------------

    def lookup(self, lpn: int) -> int:
        """PPN currently holding an LPN, or :data:`UNMAPPED`."""
        if 0 <= lpn < self.logical_pages:
            return self._l2p_view[lpn]
        raise IndexError(f"LPN {lpn} out of range [0, {self.logical_pages})")

    def lpn_of(self, ppn: int) -> int:
        """LPN stored at a PPN, or :data:`UNMAPPED`."""
        self._check_ppn(ppn)
        return self._p2l_view[ppn]

    def is_valid(self, ppn: int) -> bool:
        self._check_ppn(ppn)
        return self._valid_view[ppn]

    def bind(self, lpn: int, ppn: int) -> int:
        """Map an LPN to a newly programmed PPN.

        Any previous mapping of the LPN is invalidated.  Returns the old
        PPN (or :data:`UNMAPPED`).
        """
        if not 0 <= lpn < self.logical_pages:
            raise IndexError(
                f"LPN {lpn} out of range [0, {self.logical_pages})"
            )
        if not 0 <= ppn < self._total_pages:
            raise IndexError(f"PPN {ppn} out of range")
        valid = self._valid_view
        if valid[ppn]:
            raise ValueError(f"PPN {ppn} already holds valid data")
        l2p = self._l2p_view
        old = l2p[lpn]
        if old != UNMAPPED:
            self._invalidate_ppn(old)
        l2p[lpn] = ppn
        self._p2l_view[ppn] = lpn
        valid[ppn] = True
        self._count_view[ppn // self._pages_per_block] += 1
        return old

    def invalidate_lpn(self, lpn: int) -> None:
        """Drop an LPN's mapping (trim / overwrite-in-buffer)."""
        self._check_lpn(lpn)
        l2p = self._l2p_view
        old = l2p[lpn]
        if old != UNMAPPED:
            self._invalidate_ppn(old)
            l2p[lpn] = UNMAPPED

    def _invalidate_ppn(self, ppn: int) -> None:
        valid = self._valid_view
        if valid[ppn]:
            valid[ppn] = False
            self._count_view[ppn // self._pages_per_block] -= 1
        self._p2l_view[ppn] = UNMAPPED

    # ------------------------------------------------------------------
    # block-granular queries (GC support)
    # ------------------------------------------------------------------

    def valid_count(self, chip_id: int, block: int) -> int:
        self._check_block(chip_id, block)
        return self._count_view[chip_id * self._blocks_per_chip + block]

    def valid_counts_of_chip(self, chip_id: int) -> np.ndarray:
        return self._valid_count[chip_id].copy()

    def _block_page_range(self, chip_id: int, block: int) -> Tuple[int, int]:
        per_block = self.geometry.block.pages_per_block
        base = chip_id * self.geometry.pages_per_chip + block * per_block
        return base, base + per_block

    def valid_pages_of_block(self, chip_id: int, block: int) -> List[Tuple[int, int]]:
        """(ppn, lpn) pairs of the block's valid pages, in page order."""
        self._check_block(chip_id, block)
        lo, hi = self._block_page_range(chip_id, block)
        ppns = np.nonzero(self._valid[lo:hi])[0] + lo
        return [(int(ppn), int(self._p2l[ppn])) for ppn in ppns]

    def clear_block(self, chip_id: int, block: int) -> None:
        """Reset a block's physical state after erase.

        The block must contain no valid pages (GC migrates them first).
        """
        if self.valid_count(chip_id, block) != 0:
            raise ValueError(
                f"block (chip={chip_id}, block={block}) still has valid pages"
            )
        lo, hi = self._block_page_range(chip_id, block)
        self._p2l[lo:hi] = UNMAPPED
        self._valid[lo:hi] = False

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable copy of the translation tables (numpy arrays
        round-trip through the checkpoint pickle unchanged)."""
        return {
            "l2p": self._l2p.copy(),
            "p2l": self._p2l.copy(),
            "valid": self._valid.copy(),
            "valid_count": self._valid_count.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        if len(state["l2p"]) != self.logical_pages:
            raise ValueError(
                f"L2P table holds {len(state['l2p'])} entries, this device "
                f"exposes {self.logical_pages} logical pages"
            )
        self._l2p = np.array(state["l2p"], dtype=np.int64)
        self._p2l = np.array(state["p2l"], dtype=np.int64)
        self._valid = np.array(state["valid"], dtype=bool)
        self._valid_count = np.array(state["valid_count"], dtype=np.int32)
        # the views still point at the *old* arrays; re-bind
        self._bind_views()

    # ------------------------------------------------------------------
    # invariants (exercised by property-based tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if the tables are inconsistent."""
        mapped = self._l2p[self._l2p != UNMAPPED]
        assert len(np.unique(mapped)) == len(mapped), "two LPNs share a PPN"
        for lpn in np.nonzero(self._l2p != UNMAPPED)[0]:
            ppn = self._l2p[lpn]
            assert self._p2l[ppn] == lpn, f"P2L mismatch at LPN {lpn}"
            assert self._valid[ppn], f"mapped PPN {ppn} not marked valid"
        assert int(self._valid.sum()) == int(self._valid_count.sum()), (
            "valid-count accounting drifted"
        )

    def mapped_lpn_count(self) -> int:
        return int((self._l2p != UNMAPPED).sum())

    def mapped_lpns(self) -> np.ndarray:
        """All currently mapped LPNs, ascending."""
        return np.nonzero(self._l2p != UNMAPPED)[0]

    def audit(self) -> Optional[dict]:
        """Structured full-table audit for the runtime checker.

        Returns ``None`` when the tables are consistent, else a dict
        naming the first inconsistency found (``message`` plus the
        offending ``lpn`` / ``ppn`` / ``chip`` / ``block`` where
        applicable).  The happy path is fully vectorized; offender
        localization only runs once an inconsistency exists.
        """
        l2p, p2l, valid = self._l2p, self._p2l, self._valid
        mapped_lpns = np.nonzero(l2p != UNMAPPED)[0]
        mapped_ppns = l2p[mapped_lpns]

        # two LPNs sharing a PPN
        if len(np.unique(mapped_ppns)) != len(mapped_ppns):
            order = np.argsort(mapped_ppns, kind="stable")
            sorted_ppns = mapped_ppns[order]
            where = np.nonzero(sorted_ppns[1:] == sorted_ppns[:-1])[0][0]
            ppn = int(sorted_ppns[where])
            first = int(mapped_lpns[order[where]])
            second = int(mapped_lpns[order[where + 1]])
            chip_id, block = self._block_of_ppn(ppn)
            return {
                "message": f"LPNs {first} and {second} both map to PPN {ppn}",
                "lpn": second,
                "ppn": ppn,
                "chip": chip_id,
                "block": block,
                "other_lpn": first,
            }

        # L2P -> P2L round trip + validity of mapped PPNs
        bad = np.nonzero(
            (p2l[mapped_ppns] != mapped_lpns) | ~valid[mapped_ppns]
        )[0]
        if len(bad):
            lpn = int(mapped_lpns[bad[0]])
            ppn = int(l2p[lpn])
            chip_id, block = self._block_of_ppn(ppn)
            if not valid[ppn]:
                message = f"LPN {lpn} maps to PPN {ppn} which is not valid"
            else:
                message = (
                    f"L2P[{lpn}] = {ppn} but P2L[{ppn}] = {int(p2l[ppn])}"
                )
            return {
                "message": message,
                "lpn": lpn,
                "ppn": ppn,
                "chip": chip_id,
                "block": block,
            }

        # every valid PPN must round-trip through P2L back to itself
        valid_ppns = np.nonzero(valid)[0]
        bad = np.nonzero(
            (p2l[valid_ppns] == UNMAPPED)
            | (l2p[np.clip(p2l[valid_ppns], 0, self.logical_pages - 1)]
               != valid_ppns)
        )[0]
        if len(bad):
            ppn = int(valid_ppns[bad[0]])
            lpn = int(p2l[ppn])
            chip_id, block = self._block_of_ppn(ppn)
            return {
                "message": (
                    f"valid PPN {ppn} is orphaned: P2L says LPN {lpn} but "
                    "no L2P entry points back"
                ),
                "lpn": lpn if lpn != UNMAPPED else None,
                "ppn": ppn,
                "chip": chip_id,
                "block": block,
            }

        # per-block valid-page accounting
        per_block = valid.reshape(
            self.geometry.n_chips,
            self.geometry.blocks_per_chip,
            self.geometry.block.pages_per_block,
        ).sum(axis=2)
        if not np.array_equal(per_block, self._valid_count):
            drifted = np.nonzero(per_block != self._valid_count)
            chip_id = int(drifted[0][0])
            block = int(drifted[1][0])
            return {
                "message": (
                    f"valid-count drift: counter says "
                    f"{int(self._valid_count[chip_id, block])} valid pages "
                    f"but {int(per_block[chip_id, block])} are marked valid"
                ),
                "chip": chip_id,
                "block": block,
                "counter": int(self._valid_count[chip_id, block]),
                "actual": int(per_block[chip_id, block]),
            }

        return None
