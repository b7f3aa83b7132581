"""Geometry of the 3D NAND cubic organization.

The paper's device (Section 3.1 and Section 6.1) is a 3D TLC chip whose
blocks have 48 horizontal layers (h-layers) with 4 word lines (WLs) per
h-layer; each WL holds three 16-KB logical pages (TLC).  The WLs of a block
can equivalently be grouped into *vertical layers* (v-layers): v-layer *j*
is the set of WLs with intra-layer index *j* across all h-layers
(Fig. 1(a) of the paper).

Addressing conventions used throughout the package:

- an **h-layer index** counts from the *top* of the stack (``0`` = topmost
  layer, first to be etched widest) down to ``n_layers - 1`` (bottom);
- a **WL index** within an h-layer runs ``0 .. wls_per_layer - 1``; index
  ``0`` is, by convention, the *leading* WL of the h-layer under the
  horizontal-first program order (the actual leader is whichever WL of the
  h-layer happens to be programmed first -- see :mod:`repro.core.opm`);
- a **page index** within a WL runs ``0 .. pages_per_wl - 1`` (LSB, CSB,
  MSB for TLC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Tuple

from repro.nand.errors import AddressError


# The two address records are built once per flash operation (every GC
# migration read decodes a PPN), so they are named tuples: immutable,
# with the fields, equality, hash and repr a frozen dataclass would
# have, at a fraction of the construction cost.  Unlike a dataclass they
# also compare equal to a plain tuple of the same values.


class WLAddress(NamedTuple):
    """Address of a word line within a block: (h-layer, wl-in-layer)."""

    layer: int
    wl: int

    def as_tuple(self) -> Tuple[int, int]:
        return (self.layer, self.wl)


class PageAddress(NamedTuple):
    """Fully qualified physical page address within one chip."""

    block: int
    layer: int
    wl: int
    page: int

    @property
    def wl_address(self) -> WLAddress:
        return WLAddress(self.layer, self.wl)


@dataclass(frozen=True)
class BlockGeometry:
    """Shape of one 3D NAND block.

    Defaults match the paper's evaluated chip: 48 h-layers x 4 WLs,
    TLC (3 pages per WL), 16-KB pages.
    """

    n_layers: int = 48
    wls_per_layer: int = 4
    pages_per_wl: int = 3
    page_size_bytes: int = 16 * 1024

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.wls_per_layer < 1:
            raise ValueError("wls_per_layer must be >= 1")
        if self.pages_per_wl < 1:
            raise ValueError("pages_per_wl must be >= 1")
        if self.page_size_bytes < 1:
            raise ValueError("page_size_bytes must be >= 1")
        # hot-path derived sizes, precomputed (frozen dataclass)
        object.__setattr__(self, "_wls_per_block", self.n_layers * self.wls_per_layer)
        object.__setattr__(
            self, "_pages_per_block", self.n_layers * self.wls_per_layer * self.pages_per_wl
        )

    @property
    def wls_per_block(self) -> int:
        return self._wls_per_block

    @property
    def pages_per_block(self) -> int:
        return self._pages_per_block

    @property
    def block_bytes(self) -> int:
        return self.pages_per_block * self.page_size_bytes

    @property
    def n_vlayers(self) -> int:
        """Number of vertical layers (one per WL slot of an h-layer)."""
        return self.wls_per_layer

    def wl_index(self, layer: int, wl: int) -> int:
        """Flatten an (h-layer, wl) pair into a block-local WL index."""
        self.check_wl(layer, wl)
        return layer * self.wls_per_layer + wl

    def wl_from_index(self, index: int) -> WLAddress:
        """Inverse of :meth:`wl_index`."""
        if not 0 <= index < self.wls_per_block:
            raise AddressError(f"WL index {index} out of range")
        return WLAddress(index // self.wls_per_layer, index % self.wls_per_layer)

    def page_index(self, layer: int, wl: int, page: int) -> int:
        """Flatten (h-layer, wl, page) into a block-local page index."""
        self.check_page(layer, wl, page)
        return self.wl_index(layer, wl) * self.pages_per_wl + page

    def page_from_index(self, index: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`page_index`: return (layer, wl, page)."""
        if not 0 <= index < self.pages_per_block:
            raise AddressError(f"page index {index} out of range")
        wl_index, page = divmod(index, self.pages_per_wl)
        addr = self.wl_from_index(wl_index)
        return (addr.layer, addr.wl, page)

    def check_wl(self, layer: int, wl: int) -> None:
        if not 0 <= layer < self.n_layers:
            raise AddressError(f"h-layer {layer} out of range [0, {self.n_layers})")
        if not 0 <= wl < self.wls_per_layer:
            raise AddressError(f"WL {wl} out of range [0, {self.wls_per_layer})")

    def check_page(self, layer: int, wl: int, page: int) -> None:
        self.check_wl(layer, wl)
        if not 0 <= page < self.pages_per_wl:
            raise AddressError(f"page {page} out of range [0, {self.pages_per_wl})")

    def iter_wls(self) -> Iterator[WLAddress]:
        """Iterate over all WLs in horizontal-first order."""
        for layer in range(self.n_layers):
            for wl in range(self.wls_per_layer):
                yield WLAddress(layer, wl)

    def iter_vlayer(self, vlayer: int) -> Iterator[WLAddress]:
        """Iterate over the WLs of one vertical layer, top to bottom."""
        if not 0 <= vlayer < self.n_vlayers:
            raise AddressError(f"v-layer {vlayer} out of range")
        for layer in range(self.n_layers):
            yield WLAddress(layer, vlayer)


@dataclass(frozen=True)
class SSDGeometry:
    """Shape of the whole SSD: channels (buses), chips, blocks, block shape.

    Defaults match the paper's evaluation platform: 2 buses x 4 chips,
    428 blocks per chip (about 32 GB usable with the default block shape).
    """

    n_channels: int = 2
    chips_per_channel: int = 4
    blocks_per_chip: int = 428
    block: BlockGeometry = BlockGeometry()

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        if self.chips_per_channel < 1:
            raise ValueError("chips_per_channel must be >= 1")
        if self.blocks_per_chip < 1:
            raise ValueError("blocks_per_chip must be >= 1")
        n_chips = self.n_channels * self.chips_per_channel
        pages_per_chip = self.blocks_per_chip * self.block.pages_per_block
        object.__setattr__(self, "_n_chips", n_chips)
        object.__setattr__(self, "_pages_per_chip", pages_per_chip)
        object.__setattr__(self, "_total_pages", n_chips * pages_per_chip)
        # the block shape as plain ints, for the per-page PPN arithmetic
        object.__setattr__(self, "_pages_per_block", self.block.pages_per_block)
        object.__setattr__(self, "_pages_per_wl", self.block.pages_per_wl)
        object.__setattr__(self, "_wls_per_layer", self.block.wls_per_layer)

    @property
    def n_chips(self) -> int:
        return self._n_chips

    @property
    def pages_per_chip(self) -> int:
        return self._pages_per_chip

    @property
    def total_pages(self) -> int:
        return self._total_pages

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.block.page_size_bytes

    def chip_id(self, channel: int, chip: int) -> int:
        """Flatten a (channel, chip-on-channel) pair into a global chip id."""
        if not 0 <= channel < self.n_channels:
            raise AddressError(f"channel {channel} out of range")
        if not 0 <= chip < self.chips_per_channel:
            raise AddressError(f"chip {chip} out of range")
        return channel * self.chips_per_channel + chip

    def channel_of_chip(self, chip_id: int) -> int:
        """Channel (bus) that a global chip id is attached to."""
        if not 0 <= chip_id < self.n_chips:
            raise AddressError(f"chip id {chip_id} out of range")
        return chip_id // self.chips_per_channel

    def ppn(self, chip_id: int, addr: PageAddress) -> int:
        """Flatten a (chip, page-address) pair into a global physical page
        number (PPN)."""
        if not 0 <= chip_id < self.n_chips:
            raise AddressError(f"chip id {chip_id} out of range")
        if not 0 <= addr.block < self.blocks_per_chip:
            raise AddressError(f"block {addr.block} out of range")
        block_page = self.block.page_index(addr.layer, addr.wl, addr.page)
        return (
            chip_id * self.pages_per_chip
            + addr.block * self.block.pages_per_block
            + block_page
        )

    def wl_ppn(self, chip_id: int, block: int, layer: int, wl: int) -> int:
        """PPN of page 0 of a WL; the WL's pages are contiguous after it.

        ``wl_ppn(...) + page == ppn(chip_id, PageAddress(block, layer,
        wl, page))`` by the flattening formula, so a caller binding every
        page of a WL computes the base once instead of re-flattening the
        full address per page.
        """
        if not 0 <= chip_id < self._n_chips:
            raise AddressError(f"chip id {chip_id} out of range")
        if not 0 <= block < self.blocks_per_chip:
            raise AddressError(f"block {block} out of range")
        self.block.check_wl(layer, wl)
        return (
            chip_id * self._pages_per_chip
            + block * self._pages_per_block
            + (layer * self._wls_per_layer + wl) * self._pages_per_wl
        )

    def ppn_to_address(self, ppn: int) -> Tuple[int, PageAddress]:
        """Inverse of :meth:`ppn`: return (chip_id, page address)."""
        if not 0 <= ppn < self._total_pages:
            raise AddressError(f"PPN {ppn} out of range")
        chip_id, rest = divmod(ppn, self._pages_per_chip)
        block, rest = divmod(rest, self._pages_per_block)
        wl_index, page = divmod(rest, self._pages_per_wl)
        layer, wl = divmod(wl_index, self._wls_per_layer)
        return chip_id, PageAddress(block, layer, wl, page)
