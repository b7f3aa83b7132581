"""Cross-FTL consistency: different FTLs, same logical behaviour.

Whatever latency tricks an FTL plays, the logical storage contract is
identical: after the same trace, every FTL must expose the same
logical-to-data view.  These tests replay identical traces against all
FTLs and compare the mapped state.
"""

import pytest

from repro.nand.reliability import AgingState
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload
from repro.workloads.base import IORequest, Trace
from repro.workloads.synthetic import uniform_random_trace

ALL_FTLS = ["page", "vert", "cube", "cube-", "oracle"]


def _final_data_view(sim):
    """LPN -> stored tag for every mapped page (reads the flash)."""
    view = {}
    mapper = sim.ftl.mapper
    geometry = sim.config.geometry
    for lpn in range(sim.config.logical_pages):
        ppn = mapper.lookup(lpn)
        if ppn == -1:
            continue
        chip_id, address = geometry.ppn_to_address(ppn)
        result = sim.controller.chip(chip_id).read_page(
            address.block, address.layer, address.wl, address.page
        )
        view[lpn] = result.data
    return view


class TestLogicalEquivalence:
    @pytest.mark.parametrize("workload", ["Mail", "Rocks"])
    def test_all_ftls_store_identical_logical_state(self, workload):
        views = {}
        for ftl in ALL_FTLS:
            config = SSDConfig.small(store_tags=True, env_shift_prob=0.0)
            sim = SSDSimulation(config, ftl=ftl)
            trace = build_workload(workload, config.logical_pages, 400, seed=13)
            replay(sim, trace, queue_depth=8)
            sim.ftl.mapper.check_invariants()
            views[ftl] = _final_data_view(sim)
        reference = views["page"]
        for ftl, view in views.items():
            assert view == reference, f"{ftl} diverged from pageFTL"

    def test_every_stored_tag_is_its_own_lpn(self):
        """The data tag convention: each flash page stores its LPN."""
        config = SSDConfig.small(store_tags=True, env_shift_prob=0.0)
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 400, read_fraction=0.3, seed=17
        )
        replay(sim, trace, queue_depth=8)
        for lpn, tag in _final_data_view(sim).items():
            assert tag == lpn

    def test_equivalence_survives_gc(self):
        config = SSDConfig.small(
            store_tags=True,
            env_shift_prob=0.0,
            logical_fraction=0.6,
            gc_trigger_blocks=3,
        )
        views = {}
        erased = {}
        for ftl in ("page", "cube"):
            sim = SSDSimulation(config, ftl=ftl)
            sim.prefill(1.0)
            trace = uniform_random_trace(
                config.logical_pages, 2200, read_fraction=0.1, seed=19
            )
            stats = replay(sim, trace, queue_depth=8)
            views[ftl] = _final_data_view(sim)
            erased[ftl] = stats.counters.erases
        assert erased["page"] > 0 and erased["cube"] > 0
        assert views["page"] == views["cube"]

    def test_equivalence_survives_safety_reprograms(self):
        config = SSDConfig.small(store_tags=True, env_shift_prob=0.05)
        sim = SSDSimulation(config, ftl="cube")
        trace = uniform_random_trace(
            config.logical_pages, 600, read_fraction=0.2, seed=23
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.counters.reprograms > 0
        for lpn, tag in _final_data_view(sim).items():
            assert tag == lpn


class TestAgedEquivalence:
    def test_aging_changes_latency_not_data(self):
        views = {}
        for retention in (0.0, 12.0):
            config = SSDConfig.small(
                store_tags=True, env_shift_prob=0.0
            ).with_aging(AgingState(2000, retention))
            sim = SSDSimulation(config, ftl="cube")
            trace = Trace("w", config.logical_pages, [
                IORequest("W", lpn, 1) for lpn in range(120)
            ])
            replay(sim, trace, queue_depth=4)
            views[retention] = _final_data_view(sim)
        assert views[0.0] == views[12.0]
