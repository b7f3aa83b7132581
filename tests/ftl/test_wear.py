"""Tests for wear-aware allocation."""


from repro.ftl.blockmgr import BlockManager
from repro.nand.chip import NandChip
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace


def _erase_spread(chip: NandChip) -> int:
    """The max-min erase gap over a chip's blocks: what wear leveling
    minimizes."""
    counts = [chip.block_pe(block) for block in range(chip.n_blocks)]
    return max(counts) - min(counts)


class TestWearAwareSelection:
    def test_selector_prefers_least_worn(self, ssd_geometry):
        chip = NandChip(n_blocks=ssd_geometry.blocks_per_chip, env_shift_prob=0.0)
        manager = BlockManager(ssd_geometry)
        # wear block 0 heavily, block 1 lightly
        for _ in range(4):
            chip.erase_block(0)
        chip.erase_block(1)
        taken = manager.take_free(0, key=chip.block_pe)
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
            spreads[wear_aware] = max(
                _erase_spread(chip) for chip in sim.controller.chips
            )
        assert spreads[True] <= spreads[False]
