"""End-to-end integration tests of the full SSD simulation stack."""

import dataclasses

import pytest

from repro.nand.reliability import AgingState
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import WRITE, IORequest, Trace
from repro.workloads.synthetic import uniform_random_trace


def small_config(**overrides):
    return SSDConfig.small(**overrides)


ALL_FTLS = ["page", "vert", "cube", "cube-"]


class TestBasicLifecycle:
    @pytest.mark.parametrize("ftl", ALL_FTLS)
    def test_trace_completes(self, ftl):
        sim = SSDSimulation(small_config(), ftl=ftl)
        trace = uniform_random_trace(
            sim.config.logical_pages, 300, read_fraction=0.5, seed=1
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 300
        assert stats.duration_us > 0
        assert stats.iops > 0

    def test_ftl_names(self):
        config = small_config()
        for name, expected in [
            ("page", "pageFTL"),
            ("vert", "vertFTL"),
            ("cube", "cubeFTL"),
            ("cube-", "cubeFTL-"),
        ]:
            sim = SSDSimulation(config, ftl=name)
            assert sim.ftl.name == expected

    def test_unknown_ftl_rejected(self):
        with pytest.raises(ValueError):
            SSDSimulation(small_config(), ftl="bogus")

    def test_prefill_binds_logical_space(self):
        sim = SSDSimulation(small_config(), ftl="page")
        written = sim.prefill(0.5)
        assert written == int(sim.config.logical_pages * 0.5)
        assert sim.ftl.mapper.mapped_lpn_count() == written
        sim.ftl.mapper.check_invariants()

    def test_prefill_resets_counters(self):
        sim = SSDSimulation(small_config(), ftl="cube")
        sim.prefill(0.3)
        assert sim.ftl.counters.flash_programs == 0


class TestDataIntegrity:
    @pytest.mark.parametrize("ftl", ALL_FTLS)
    def test_read_back_returns_latest_write(self, ftl):
        """Functional correctness: with tag storage on, every flash read
        of an LPN must return that LPN's tag (the FTL wrote the right
        data to the right place)."""
        config = small_config(store_tags=True)
        sim = SSDSimulation(config, ftl=ftl)
        n = 60
        writes = Trace("w", config.logical_pages,
                       [IORequest(WRITE, lpn, 1) for lpn in range(n)])
        replay(sim, writes, queue_depth=4)

        checked = {"count": 0}
        original_after_read = sim.ftl.after_read

        def checking_after_read(chip_id, block, layer, result):
            original_after_read(chip_id, block, layer, result)
            checked["count"] += 1

        sim.ftl.after_read = checking_after_read
        mapper = sim.ftl.mapper
        for lpn in range(n):
            ppn = mapper.lookup(lpn)
            assert ppn != -1
            chip_id, address = config.geometry.ppn_to_address(ppn)
            read = sim.controller.chip(chip_id).read_page(
                address.block, address.layer, address.wl, address.page
            )
            assert read.data == lpn

    def test_overwrite_invalidates_old_mapping(self):
        config = small_config(store_tags=True)
        sim = SSDSimulation(config, ftl="cube")
        trace = Trace("w", config.logical_pages, [
            IORequest(WRITE, 5, 1),
            IORequest(WRITE, 5, 1),
            IORequest(WRITE, 5, 1),
        ])
        replay(sim, trace, queue_depth=1)
        sim.ftl.mapper.check_invariants()
        assert sim.ftl.mapper.lookup(5) != -1


class TestGarbageCollection:
    def _gc_config(self):
        return small_config(logical_fraction=0.6, gc_trigger_blocks=3)

    @pytest.mark.parametrize("ftl", ["page", "cube"])
    def test_gc_reclaims_blocks(self, ftl):
        config = self._gc_config()
        sim = SSDSimulation(config, ftl=ftl)
        sim.prefill(1.0)
        # overwrite a hot region repeatedly to force GC
        trace = uniform_random_trace(
            config.logical_pages, 2500, read_fraction=0.1, seed=3
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.counters.erases > 0
        assert stats.counters.gc_programs > 0
        sim.ftl.mapper.check_invariants()

    def test_gc_preserves_all_live_data(self):
        """After heavy GC, every written LPN still maps somewhere valid."""
        config = self._gc_config()
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            config.logical_pages, 2000, read_fraction=0.0, seed=4
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.counters.erases > 0
        mapper = sim.ftl.mapper
        mapper.check_invariants()
        assert mapper.mapped_lpn_count() == config.logical_pages
        # free-block accounting survives
        for chip in range(config.geometry.n_chips):
            assert sim.ftl.blocks.free_count(chip) >= 1


class TestAgedBehaviour:
    def test_aged_runs_slower_than_fresh(self):
        fresh_sim = SSDSimulation(small_config(), ftl="page")
        aged_sim = SSDSimulation(
            small_config().with_aging(AgingState(2000, 12.0)), ftl="page"
        )
        for sim in (fresh_sim, aged_sim):
            sim.prefill(0.5)
        trace_args = dict(read_fraction=0.8, seed=5)
        fresh = replay(
            fresh_sim,
            uniform_random_trace(fresh_sim.config.logical_pages, 600, **trace_args),
            queue_depth=8,
        )
        aged = replay(
            aged_sim,
            uniform_random_trace(aged_sim.config.logical_pages, 600, **trace_args),
            queue_depth=8,
        )
        assert aged.iops < fresh.iops
        assert aged.counters.read_retries > 0
        assert fresh.counters.read_retries == 0

    def test_cube_beats_page_on_aged_reads(self):
        aging = AgingState(2000, 12.0)
        results = {}
        for ftl in ("page", "cube"):
            sim = SSDSimulation(small_config().with_aging(aging), ftl=ftl)
            sim.prefill(0.5)
            trace = uniform_random_trace(
                sim.config.logical_pages, 800, read_fraction=0.7, n_pages=3, seed=6
            )
            results[ftl] = replay(sim, trace, queue_depth=8)
        assert results["cube"].iops > results["page"].iops
        assert (
            results["cube"].counters.mean_num_retry
            < results["page"].counters.mean_num_retry
        )


class TestSafetyPath:
    def test_env_shifts_cause_reprograms_not_failures(self):
        config = dataclasses.replace(small_config(), env_shift_prob=0.05)
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 800, read_fraction=0.2, seed=7
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 800
        assert stats.counters.reprograms > 0
        sim.ftl.mapper.check_invariants()


class TestWarmup:
    def test_warmup_excluded_from_stats(self):
        sim = SSDSimulation(small_config(), ftl="page")
        trace = uniform_random_trace(sim.config.logical_pages, 400, seed=8)
        stats = replay(sim, trace, queue_depth=4, warmup_requests=100)
        assert stats.completed_requests == 300
        assert len(stats.read_latency) + len(stats.write_latency) == 300

    def test_warmup_validation(self):
        sim = SSDSimulation(small_config(), ftl="page")
        trace = uniform_random_trace(sim.config.logical_pages, 10, seed=8)
        with pytest.raises(ValueError):
            replay(sim, trace, warmup_requests=10)


class TestFollowerAccounting:
    def test_cube_uses_followers_page_does_not(self):
        results = {}
        for ftl in ("page", "cube"):
            sim = SSDSimulation(small_config(), ftl=ftl)
            trace = uniform_random_trace(
                sim.config.logical_pages, 600, read_fraction=0.0, seed=9
            )
            results[ftl] = replay(sim, trace, queue_depth=8)
        assert results["page"].counters.follower_programs == 0
        assert results["cube"].counters.follower_programs > 0
        assert (
            results["cube"].counters.mean_t_prog_us
            < results["page"].counters.mean_t_prog_us
        )

    def test_vert_reduction_is_small(self):
        results = {}
        for ftl in ("page", "vert"):
            sim = SSDSimulation(small_config(), ftl=ftl)
            trace = uniform_random_trace(
                sim.config.logical_pages, 500, read_fraction=0.0, seed=10
            )
            results[ftl] = replay(sim, trace, queue_depth=8)
        page_t = results["page"].counters.mean_t_prog_us
        vert_t = results["vert"].counters.mean_t_prog_us
        reduction = 1.0 - vert_t / page_t
        assert 0.03 <= reduction <= 0.12
