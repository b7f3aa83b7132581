"""Unit-level tests of the GC policy (trigger, victim guard, accounting)."""

import pytest

from repro.ftl.blockmgr import DATA_KIND, TRANS_KIND
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload
from repro.workloads.base import IORequest, Trace
from repro.workloads.synthetic import uniform_random_trace


def gc_config(**overrides):
    defaults = dict(logical_fraction=0.6, gc_trigger_blocks=3)
    defaults.update(overrides)
    return SSDConfig.small(**defaults)


class TestGCTriggering:
    def test_no_gc_with_plentiful_free_blocks(self):
        sim = SSDSimulation(gc_config(), ftl="page")
        trace = uniform_random_trace(
            sim.config.logical_pages, 300, read_fraction=0.5, seed=1
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.counters.erases == 0

    def test_gc_starts_when_pool_shrinks(self):
        sim = SSDSimulation(gc_config(), ftl="page")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            sim.config.logical_pages, 2500, read_fraction=0.1, seed=2
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.counters.erases > 0
        # the pool recovered to (at least near) the trigger level
        for chip in range(sim.config.geometry.n_chips):
            assert sim.ftl.blocks.free_count(chip) >= 1

    def test_min_invalid_guard_avoids_full_valid_victims(self):
        """With cold 100 %-valid blocks and a healthy pool, GC waits
        rather than migrating blocks with nothing to reclaim."""
        sim = SSDSimulation(gc_config(gc_min_invalid_fraction=0.10), ftl="page")
        sim.prefill(1.0)
        # write only a few pages: not enough invalidation anywhere
        trace = Trace("w", sim.config.logical_pages,
                      [IORequest("W", lpn, 1) for lpn in range(24)])
        stats = replay(sim, trace, queue_depth=4)
        assert stats.counters.gc_programs == 0


class TestGCAccounting:
    def test_gc_counters_consistent(self):
        sim = SSDSimulation(gc_config(), ftl="cube")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            sim.config.logical_pages, 2500, read_fraction=0.1, seed=3
        )
        stats = replay(sim, trace, queue_depth=8)
        counters = stats.counters
        assert counters.erases > 0
        assert counters.gc_reads > 0
        assert counters.gc_programs > 0
        # each GC program carries at most pages_per_wl migrated reads
        pages_per_wl = sim.config.geometry.block.pages_per_wl
        assert counters.gc_reads <= counters.gc_programs * pages_per_wl

    def test_write_amplification_bounded(self):
        sim = SSDSimulation(gc_config(), ftl="page")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            sim.config.logical_pages, 2500, read_fraction=0.1, seed=4
        )
        stats = replay(sim, trace, queue_depth=8)
        counters = stats.counters
        wa = (counters.flash_programs + counters.gc_programs) / max(
            1, counters.flash_programs
        )
        assert 1.0 <= wa < 25.0


class TestFullBlockWaitsForItsPrograms:
    def test_gc_never_takes_a_block_with_a_program_in_flight(self):
        """A host request completing inside one program's completion can
        let the die start a queued program into the block's last WL.
        The block must stay ACTIVE until that program lands: marked FULL
        earlier, GC took it as a victim, snapshotted its valid pages
        before the new ones were bound, and the erase raised 'still has
        valid pages' (after the 6,900-request barrier of this run)."""
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.9)
        trace = build_workload("OLTP", config.logical_pages, 8000, seed=7)
        stats = replay(sim, trace, queue_depth=32, segment_requests=100)
        assert stats.completed_requests == 8000
        assert stats.counters.erases > 0
        assert sim.ftl.mapper.audit() is None


def _data_rule_before_merge(config, valid, free):
    """The data reclaim rule as it stood before both block kinds shared
    one: a minimum-invalid test and a padding-waste test."""
    block = config.geometry.block
    pages_per_block = block.pages_per_block
    invalid = pages_per_block - valid
    min_invalid = int(pages_per_block * config.gc_min_invalid_fraction)
    if invalid < max(1, min_invalid) and free > 1:
        return False
    waste = (-valid) % block.pages_per_wl
    return invalid > waste


#: SSDConfig.small(), and one chip of the default block
RULE_CONFIGS = {
    "small": SSDConfig.small(),
    "default-block": SSDConfig(
        geometry=SSDGeometry(
            n_channels=1, chips_per_channel=1, blocks_per_chip=8,
            block=BlockGeometry(),
        )
    ),
}


class TestReclaimRule:
    @pytest.mark.parametrize("name", sorted(RULE_CONFIGS))
    def test_one_rule_serves_both_kinds(self, name):
        """Data victims keep the rule they had; a translation victim
        (one live page per WL, the rest padding) is worth migrating
        exactly when its live pages fill fewer WLs than it has."""
        config = RULE_CONFIGS[name]
        ftl = SSDSimulation(config, ftl="dftl").ftl
        block = config.geometry.block
        data_units = ftl._gc_units[DATA_KIND]
        trans_units = ftl._gc_units[TRANS_KIND]
        for free in (0, 1, 2, config.gc_trigger_blocks):
            for valid in range(block.pages_per_block + 1):
                assert ftl._gc_reclaims(valid, free, data_units) == (
                    _data_rule_before_merge(config, valid, free)
                ), (valid, free)
            for valid in range(block.wls_per_block + 1):
                assert ftl._gc_reclaims(valid, free, trans_units) == (
                    valid < block.wls_per_block
                ), (valid, free)


class TestDemandPagedUnderSpacePressure:
    def test_gc_dftl_spec_completes_at_09_fill(self):
        """perfbench's gc-dftl spec at 0.9 fill, trace seed 1066: a
        translation migration waiting for a free block started data GC
        on a chip with none, which raised OutOfSpaceError when it needed
        a block to migrate into (after 6,653 of the 7,000 measured
        requests).  Data GC now waits for a free block there as
        everywhere else on dftl."""
        spec = SimulationSpec(
            config=SSDConfig(
                geometry=SSDGeometry(
                    n_channels=2, chips_per_channel=4, blocks_per_chip=16,
                    block=BlockGeometry(),
                )
            ),
            workload=WorkloadSpec("OLTP", n_requests=8000),
            ftl="dftl",
            host=HostSpec(queue_depth=16),
            warmup_requests=1000,
            prefill=0.9,
            seed=1066,
        )
        sim = SSDSimulation(spec.config, ftl=spec.ftl)
        sim.prefill(spec.prefill)
        stats = replay(
            sim,
            spec.build_trace(),
            queue_depth=spec.host.queue_depth,
            warmup_requests=spec.warmup_requests,
        )
        ftl = sim.ftl
        assert stats.completed_requests == 8000 - 1000
        assert ftl.dftl_stats.trans_gc_erases > 0
        assert ftl.counters.erases > ftl.dftl_stats.trans_gc_erases
        assert ftl.mapper.audit() is None
        assert ftl.tmapper.audit() is None
