"""Paper-scale configuration sanity: the full 32-GB device."""


from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace


class TestPaperScale:
    def test_geometry_matches_section_6_1(self):
        config = SSDConfig.paper_scale()
        geometry = config.geometry
        assert geometry.n_channels == 2
        assert geometry.chips_per_channel == 4
        assert geometry.blocks_per_chip == 428
        assert geometry.block.n_layers == 48
        assert geometry.block.wls_per_layer == 4
        assert geometry.block.pages_per_wl == 3
        assert geometry.block.page_size_bytes == 16 * 1024
        assert 30 <= geometry.total_bytes / 2**30 <= 34

    def test_paper_scale_simulation_runs(self):
        """A short trace on the full device (no prefill -- construction
        plus the hot path must scale to ~2 M physical pages)."""
        config = SSDConfig.paper_scale()
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 400, read_fraction=0.3, seed=3
        )
        stats = replay(sim, trace, queue_depth=16)
        assert stats.completed_requests == 400
        assert stats.iops > 0
        sim.ftl.mapper.check_invariants()

    def test_mapping_tables_fit_in_memory(self):
        config = SSDConfig.paper_scale()
        sim = SSDSimulation(config, ftl="page")
        mapper = sim.ftl.mapper
        # int64 L2P + P2L + bool valid: well under 100 MB at 2 M pages
        total_bytes = (
            mapper._l2p.nbytes + mapper._p2l.nbytes + mapper._valid.nbytes
        )
        assert total_bytes < 100 * 2**20
