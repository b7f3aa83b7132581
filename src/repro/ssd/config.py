"""SSD configuration.

Bundles the device geometry, timing, buffering, garbage-collection and
aging knobs of a simulated SSD.  The default values reproduce the paper's
evaluation platform (Section 6.1) scaled down in *capacity only* (fewer
blocks per chip) so simulations complete quickly; the block shape -- the
part that matters for process similarity -- is exactly the paper's
48-layer x 4-WL TLC geometry.  Use :meth:`SSDConfig.paper_scale` for the
full 32-GB configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.faults.campaign import FaultCampaign
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.nand.reliability import AgingState
from repro.nand.timing import NandTiming


@dataclass(frozen=True)
class SSDConfig:
    """All knobs of a simulated SSD."""

    geometry: SSDGeometry = field(
        default_factory=lambda: SSDGeometry(
            n_channels=2,
            chips_per_channel=4,
            blocks_per_chip=48,
            block=BlockGeometry(),
        )
    )
    timing: NandTiming = field(default_factory=NandTiming)
    #: write buffer capacity in pages (sized so write bursts can drive
    #: utilization past mu_TH, activating the WAM's follower allocation)
    buffer_capacity_pages: int = 24
    #: latency of serving a read hit from the write buffer
    buffer_read_us: float = 5.0
    #: write-buffer utilization threshold mu_TH of the WAM
    mu_threshold: float = 0.9
    #: active blocks per chip (the paper uses two)
    active_blocks_per_chip: int = 2
    #: maximum WL programs in flight per chip
    max_inflight_programs: int = 2
    #: GC starts when a chip's free-block pool falls below this
    gc_trigger_blocks: int = 4
    #: pick the least-worn free block on allocation (dynamic wear
    #: leveling); False recycles blocks FIFO
    wear_aware_allocation: bool = True
    #: GC only takes a victim whose invalid-page fraction is at least
    #: this (migrating a ~fully-valid block consumes as much space as it
    #: frees -- a livelock).  Ignored when the free pool is critical.
    gc_min_invalid_fraction: float = 0.05
    #: fraction of physical capacity exposed as logical space
    logical_fraction: float = 0.80
    #: baseline aging applied to every chip before the run
    aging: AgingState = field(default_factory=AgingState)
    #: probability of a sudden operating-condition shift per WL program
    env_shift_prob: float = 2e-4
    #: store per-page data tags for functional verification
    store_tags: bool = False
    #: store per-page OOB metadata ``(lpn, seq)`` in the chip model --
    #: the durable spare-area records the SPOR recovery path rebuilds
    #: the mapping from (see ``docs/PERSISTENCE.md``).  Off by default:
    #: page data stays the LPN and runs are bit-identical to builds
    #: without OOB support.
    store_oob: bool = False
    #: chip-model seed
    seed: int = 0
    #: fault-injection campaign; ``None`` disables injection entirely and
    #: keeps every recovery path dormant (bit-for-bit fault-free runs)
    faults: Optional[FaultCampaign] = None
    #: conservative re-reads attempted after an uncorrectable read before
    #: declaring the data lost
    read_recovery_attempts: int = 2
    #: reads decoding with less than this fraction of ECC margin left
    #: trigger a background scrub of the page
    scrub_margin_threshold: float = 0.1

    def __post_init__(self) -> None:
        # every test is written so that NaN fails it (a spec file can
        # carry one: JSON NaN, TOML nan)
        if not self.buffer_capacity_pages >= self.geometry.block.pages_per_wl:
            raise ValueError(
                "buffer_capacity_pages must hold at least one WL group"
            )
        if not 0.0 <= self.buffer_read_us < math.inf:
            raise ValueError("buffer_read_us must be finite and >= 0")
        if not 0.0 < self.mu_threshold <= 1.0:
            raise ValueError("mu_threshold must be in (0, 1]")
        if not self.active_blocks_per_chip >= 1:
            raise ValueError("active_blocks_per_chip must be >= 1")
        if not 0.0 <= self.gc_min_invalid_fraction <= 1.0:
            raise ValueError("gc_min_invalid_fraction must be in [0, 1]")
        if not 0.0 < self.logical_fraction < 1.0:
            raise ValueError("logical_fraction must be in (0, 1)")
        if not self.gc_trigger_blocks >= 2:
            raise ValueError("gc_trigger_blocks must be >= 2")
        if not self.max_inflight_programs >= 1:
            raise ValueError("max_inflight_programs must be >= 1")
        if not self.read_recovery_attempts >= 1:
            raise ValueError("read_recovery_attempts must be >= 1")
        if not 0.0 <= self.scrub_margin_threshold < 1.0:
            raise ValueError("scrub_margin_threshold must be in [0, 1)")

    @property
    def logical_pages(self) -> int:
        """Number of logical pages exposed to the host."""
        return int(self.geometry.total_pages * self.logical_fraction)

    @property
    def logical_bytes(self) -> int:
        return self.logical_pages * self.geometry.block.page_size_bytes

    def with_aging(self, aging: AgingState) -> "SSDConfig":
        """A copy of this config pre-conditioned to an aging state."""
        return replace(self, aging=aging)

    def with_seed(self, seed: int) -> "SSDConfig":
        return replace(self, seed=seed)

    def with_faults(self, faults: Optional[FaultCampaign]) -> "SSDConfig":
        """A copy of this config running under a fault campaign."""
        return replace(self, faults=faults)

    @classmethod
    def paper_scale(cls, **overrides) -> "SSDConfig":
        """The paper's full 32-GB platform: 2 buses x 4 chips x 428
        blocks, 48 h-layers x 4 WLs, 16-KB TLC pages."""
        geometry = SSDGeometry(
            n_channels=2,
            chips_per_channel=4,
            blocks_per_chip=428,
            block=BlockGeometry(),
        )
        return cls(geometry=geometry, **overrides)

    @classmethod
    def small(cls, **overrides) -> "SSDConfig":
        """A small configuration for unit tests (single channel)."""
        geometry = SSDGeometry(
            n_channels=1,
            chips_per_channel=2,
            blocks_per_chip=12,
            block=BlockGeometry(n_layers=8, wls_per_layer=4, pages_per_wl=3),
        )
        defaults = dict(geometry=geometry, buffer_capacity_pages=24)
        defaults.update(overrides)
        return cls(**defaults)
