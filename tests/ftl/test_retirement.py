"""Tests for bad-block retirement."""


from repro.ftl.blockmgr import BlockManager, BlockState
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace


class TestBlockManagerRetirement:
    def test_retire_free_block(self, ssd_geometry):
        manager = BlockManager(ssd_geometry)
        manager.retire(0, 3)
        assert manager.state(0, 3) is BlockState.RETIRED
        assert manager.retired_count(0) == 1
        assert manager.free_count(0) == ssd_geometry.blocks_per_chip - 1
        # a retired block is never handed out again
        seen = {manager.take_free(0) for _ in range(ssd_geometry.blocks_per_chip - 1)}
        assert 3 not in seen

    def test_retire_full_block(self, ssd_geometry):
        manager = BlockManager(ssd_geometry)
        block = manager.take_free(0)
        manager.mark_full(0, block)
        manager.retire(0, block)
        assert manager.state(0, block) is BlockState.RETIRED
        assert block not in manager.full_blocks(0)

    def test_retire_idempotent(self, ssd_geometry):
        manager = BlockManager(ssd_geometry)
        manager.retire(0, 3)
        manager.retire(0, 3)
        assert manager.retired_count(0) == 1


class TestEndToEndRetirement:
    def test_worn_blocks_retire_during_gc(self):
        """With a tiny endurance limit, GC erases start failing and the
        FTL retires blocks instead of crashing."""
        config = SSDConfig.small(
            logical_fraction=0.45,
            gc_trigger_blocks=3,
            # FIFO recycling concentrates erases so the limit is reached
            # within a short run
            wear_aware_allocation=False,
        )
        sim = SSDSimulation(config, ftl="page")
        # endurance so low that GC victims wear out quickly; the ample
        # over-provisioning (55 %) absorbs the retired blocks
        for chip in sim.controller.chips:
            chip.erase_limit = 1  # any re-erase wears the block out
        sim.prefill(1.0)
        trace = uniform_random_trace(
            config.logical_pages, 2400, read_fraction=0.1, seed=9
        )
        # with a 1-erase endurance the device eventually runs out of
        # usable blocks entirely -- retiring along the way is the point
        from repro.ftl.blockmgr import OutOfSpaceError

        try:
            replay(sim, trace, queue_depth=8)
        except OutOfSpaceError:
            pass
        counters = sim.ftl.counters
        assert counters.retired_blocks > 0
        total_retired = sum(
            sim.ftl.blocks.retired_count(chip)
            for chip in range(config.geometry.n_chips)
        )
        assert total_retired == counters.retired_blocks
        # every retirement here came from the endurance limit, and wear
        # is normal aging, not fault recovery
        for chip in range(config.geometry.n_chips):
            table = sim.ftl.blocks.grown_bad_table(chip)
            assert all(reason == "wear" for reason in table.values())
        assert sim.ftl.recovery.blocks_retired == 0
        sim.ftl.mapper.check_invariants()
