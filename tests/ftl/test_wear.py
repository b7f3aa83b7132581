"""Tests for wear tracking and wear-aware allocation."""


import pytest

from repro.ftl.blockmgr import BlockManager
from repro.ftl.wear import chip_wear_stats, min_wear_selector, wear_imbalance
from repro.nand.chip import NandChip
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace


class TestWearStats:
    def test_fresh_chip_no_spread(self):
        chip = NandChip(n_blocks=8, env_shift_prob=0.0)
        stats = chip_wear_stats(chip)
        assert stats.min_pe == stats.max_pe == 0
        assert stats.spread == 0

    def test_spread_after_skewed_erases(self):
        chip = NandChip(n_blocks=8, env_shift_prob=0.0)
        for _ in range(5):
            chip.erase_block(0)
        stats = chip_wear_stats(chip)
        assert stats.max_pe == 5
        assert stats.spread == 5
        assert stats.mean_pe == pytest.approx(5 / 8)

    def test_imbalance_over_chips(self):
        a = NandChip(chip_id=0, n_blocks=4, env_shift_prob=0.0)
        b = NandChip(chip_id=1, n_blocks=4, env_shift_prob=0.0)
        b.erase_block(2)
        b.erase_block(2)
        assert wear_imbalance([a, b]) == 2

    def test_imbalance_requires_chips(self):
        with pytest.raises(ValueError):
            wear_imbalance([])


class TestWearAwareSelection:
    def test_selector_prefers_least_worn(self, ssd_geometry):
        chip = NandChip(n_blocks=ssd_geometry.blocks_per_chip, env_shift_prob=0.0)
        manager = BlockManager(ssd_geometry)
        # wear block 0 heavily, block 1 lightly
        for _ in range(4):
            chip.erase_block(0)
        chip.erase_block(1)
        taken = manager.take_free(0, key=min_wear_selector(chip))
        assert chip.block_pe(taken) == 0  # an unworn block wins

    def test_fifo_without_key(self, ssd_geometry):
        manager = BlockManager(ssd_geometry)
        assert manager.take_free(0) == 0
        assert manager.take_free(0) == 1

    def test_wear_leveling_reduces_spread_end_to_end(self):
        """Under GC-heavy overwrites, wear-aware allocation keeps the
        per-chip erase spread lower than FIFO recycling."""
        spreads = {}
        for wear_aware in (True, False):
            config = SSDConfig.small(
                logical_fraction=0.6,
                gc_trigger_blocks=3,
                wear_aware_allocation=wear_aware,
            )
            sim = SSDSimulation(config, ftl="page")
            sim.prefill(1.0)
            trace = uniform_random_trace(
                config.logical_pages, 2500, read_fraction=0.1, seed=5
            )
            stats = replay(sim, trace, queue_depth=8)
            assert stats.counters.erases > 0
            spreads[wear_aware] = wear_imbalance(sim.controller.chips)
        assert spreads[True] <= spreads[False]
