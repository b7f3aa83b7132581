"""Unit tests of the per-FTL policies (allocation, parameters, reads)."""

import pytest

from repro.ftl import CubeFTL, PageFTL, VertFTL, make_ftl
from repro.nand.ispp import V_FINAL_DEFAULT_MV, V_START_DEFAULT_MV
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController


@pytest.fixture
def config():
    return SSDConfig.small()


@pytest.fixture
def controller(config):
    return SSDController(config)


class TestMakeFTL:
    def test_aliases(self, config, controller):
        assert isinstance(make_ftl("pageftl", config, controller), PageFTL)
        assert isinstance(make_ftl("VERT", config, controller), VertFTL)
        assert isinstance(make_ftl("cubeFTL", config, controller), CubeFTL)

    def test_cube_minus(self, config, controller):
        ftl = make_ftl("cube-", config, controller)
        assert isinstance(ftl, CubeFTL)
        assert not ftl.wam_enabled
        assert ftl.name == "cubeFTL-"

    def test_unknown(self, config, controller):
        with pytest.raises(ValueError):
            make_ftl("nope", config, controller)


class TestPageFTLPolicy:
    def test_horizontal_first_allocation(self, config, controller):
        ftl = PageFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        addresses = [ftl.allocator.allocate(0, 0.0).address for _ in range(5)]
        assert [(a.layer, a.wl) for a in addresses] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
        ]

    def test_default_params_everywhere(self, config, controller):
        ftl = PageFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        allocation = ftl.allocator.allocate(0, 0.0)
        params, squeeze = ftl.program_params(0, allocation)
        assert squeeze == 0.0
        assert params.v_start_mv == V_START_DEFAULT_MV
        assert params.v_final_mv == V_FINAL_DEFAULT_MV
        assert all(s == 1 for s in params.verify_plan.start_loops)

    def test_default_read_params(self, config, controller):
        ftl = PageFTL(config, controller)
        assert ftl.read_params(0, 0, 0).offset_hint == 0

    def test_exhausted_cursor_dropped(self, config, controller):
        ftl = PageFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        for _ in range(config.geometry.block.wls_per_block):
            ftl.allocator.allocate(0, 0.0)
        assert ftl.allocator.cursors(0) == []
        assert ftl.allocator.allocate(0, 0.0) is None


class TestVertFTLPolicy:
    def test_static_v_final_only(self, config, controller):
        ftl = VertFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        params, squeeze = ftl.program_params(0, ftl.allocator.allocate(0, 0.0))
        assert params.v_start_mv == V_START_DEFAULT_MV  # V_start untouched
        assert params.v_final_mv < V_FINAL_DEFAULT_MV
        assert squeeze == ftl.static_margin_mv
        assert all(s == 1 for s in params.verify_plan.start_loops)  # no skips

    def test_margin_quantized_to_ispp_steps(self, config, controller):
        ftl = VertFTL(config, controller, static_margin_mv=130.0)
        assert ftl.static_margin_mv == 120  # one 120-mV step

    def test_negative_margin_rejected(self, config, controller):
        with pytest.raises(ValueError):
            VertFTL(config, controller, static_margin_mv=-10)


class TestCubeFTLPolicy:
    def test_first_program_on_layer_is_monitoring_leader(self, config, controller):
        ftl = CubeFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        allocation = ftl.allocator.allocate(0, ftl.buffer.utilization)
        params, squeeze = ftl.program_params(0, allocation)
        assert squeeze == 0.0  # no observation yet -> default parameters

    def test_follower_after_leader_recorded(self, config, controller):
        ftl = CubeFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        leader_alloc = ftl.allocator.allocate(0, ftl.buffer.utilization)
        params, squeeze = ftl.program_params(0, leader_alloc)
        result = controller.chip(0).program_wl(
            leader_alloc.block,
            leader_alloc.address.layer,
            leader_alloc.address.wl,
            params=params,
        )
        assert ftl.after_program(0, leader_alloc, result, squeeze)
        assert ftl.opm.has_leader(0, leader_alloc.block, leader_alloc.address.layer)
        # now a follower on the same layer gets accelerated parameters
        from repro.core.wam import Allocation
        from repro.nand.geometry import WLAddress

        follower_alloc = Allocation(
            leader_alloc.block,
            WLAddress(leader_alloc.address.layer, 1),
            is_leader=False,
        )
        params2, squeeze2 = ftl.program_params(0, follower_alloc)
        assert squeeze2 > 0
        assert any(s > 1 for s in params2.verify_plan.start_loops)

    def test_read_side_uses_ort(self, config, controller):
        ftl = CubeFTL(config, controller)
        ftl.opm.ort.update(0, 2, 1, 4)
        assert ftl.read_params(0, 2, 1).offset_hint == 4
        assert ftl.read_params(0, 2, 2).offset_hint == 0

    def test_erase_invalidates_opm_state(self, config, controller):
        ftl = CubeFTL(config, controller)
        ftl.opm.ort.update(0, 2, 1, 4)
        ftl.on_block_erased(0, 2)
        assert ftl.read_params(0, 2, 1).offset_hint == 0

    def test_wam_disabled_uses_sequential_cursors(self, config, controller):
        ftl = CubeFTL(config, controller, wam_enabled=False)
        ftl.allocator.install_block(0, 3)
        addresses = [ftl.allocator.allocate(0, 0.0).address for _ in range(4)]
        assert [(a.layer, a.wl) for a in addresses] == [
            (0, 0), (0, 1), (0, 2), (0, 3),
        ]

    def test_wam_enabled_low_utilization_walks_leaders(self, config, controller):
        ftl = CubeFTL(config, controller)
        ftl.allocator.install_block(0, 3)
        # empty buffer -> utilization 0 -> leaders first
        first = ftl.allocator.allocate(0, ftl.buffer.utilization)
        second = ftl.allocator.allocate(0, ftl.buffer.utilization)
        assert first.is_leader and second.is_leader
        assert (first.address.layer, second.address.layer) == (0, 1)
