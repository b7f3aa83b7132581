"""Failure-injection and edge-condition integration tests."""



from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import IORequest, Trace
from repro.workloads.synthetic import sequential_trace, uniform_random_trace


class TestEnvironmentalStress:
    def test_heavy_shift_storm_still_completes(self):
        """Even with 20 % of programs hit by environmental shifts, the
        safety-check/reprogram loop converges and data stays intact."""
        config = SSDConfig.small(store_tags=True, env_shift_prob=0.20)
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 500, read_fraction=0.2, seed=31
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 500
        assert stats.counters.reprograms > 10
        sim.ftl.mapper.check_invariants()

    def test_reprogram_never_loops_forever(self):
        """Reprograms use default (monitoring) parameters, which cannot
        over-skip, so one retry always settles a WL."""
        config = SSDConfig.small(env_shift_prob=0.5)
        sim = SSDSimulation(config, ftl="cube")
        trace = sequential_trace(config.logical_pages, 150, n_pages=3, seed=1)
        stats = replay(sim, trace, queue_depth=4)
        total_programs = stats.counters.flash_programs
        # every reprogram is one extra program; bounded well below 2x
        assert stats.counters.reprograms < total_programs


class TestTinyResources:
    def test_minimal_buffer(self):
        """Buffer exactly one WL group wide still makes progress."""
        config = SSDConfig.small(
            buffer_capacity_pages=SSDConfig.small().geometry.block.pages_per_wl
        )
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 300, read_fraction=0.0, seed=2
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 300

    def test_queue_depth_one(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 120, read_fraction=0.5, seed=3
        )
        stats = replay(sim, trace, queue_depth=1)
        assert stats.completed_requests == 120

    def test_single_inflight_program(self):
        config = SSDConfig.small(max_inflight_programs=1)
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 200, read_fraction=0.3, seed=4
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 200

    def test_one_active_block_per_chip(self):
        config = SSDConfig.small(active_blocks_per_chip=1)
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 200, read_fraction=0.0, seed=5
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 200


class TestWorkloadEdges:
    def test_pure_write_workload(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 300, read_fraction=0.0, seed=6
        )
        stats = replay(sim, trace, queue_depth=8)
        assert len(stats.read_latency) == 0
        assert len(stats.write_latency) == 300

    def test_pure_read_of_unwritten_space(self):
        """Reads of never-written LPNs complete from the mapping table."""
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="page")
        trace = uniform_random_trace(
            config.logical_pages, 200, read_fraction=1.0, seed=7
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.completed_requests == 200
        assert stats.counters.flash_reads == 0

    def test_repeated_overwrites_of_one_page(self):
        config = SSDConfig.small(store_tags=True)
        sim = SSDSimulation(config, ftl="cube")
        trace = Trace("hammer", config.logical_pages,
                      [IORequest("W", 7, 1)] * 100)
        stats = replay(sim, trace, queue_depth=16)
        assert stats.completed_requests == 100
        assert sim.ftl.buffer.coalesced_writes > 0
        sim.ftl.mapper.check_invariants()

    def test_giant_requests(self):
        config = SSDConfig.small()
        sim = SSDSimulation(config, ftl="cube")
        trace = Trace("big", config.logical_pages, [
            IORequest("W", 0, 64),
            IORequest("R", 0, 64),
            IORequest("W", 64, 64),
        ])
        stats = replay(sim, trace, queue_depth=2)
        assert stats.completed_requests == 3
