"""Tests for the perfect-knowledge oracle FTL."""

import pytest

from repro.ftl import OracleFTL, make_ftl
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController, SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace


@pytest.fixture
def config():
    return SSDConfig.small(env_shift_prob=0.0)


class TestOracleFTL:
    def test_registry(self, config):
        controller = SSDController(config)
        assert isinstance(make_ftl("oracle", config, controller), OracleFTL)

    def test_every_wl_gets_fast_params(self, config):
        controller = SSDController(config)
        ftl = OracleFTL(config, controller)
        ftl.install_block(0, 3)
        for _ in range(8):
            allocation = ftl.allocate_wl(0)
            params, squeeze = ftl.program_params(0, allocation)
            assert squeeze > 0
            assert any(start > 1 for start in params.verify_plan.start_loops)

    def test_params_clean_on_device(self, config):
        """Oracle parameters never over- or under-program (it knows the
        truth)."""
        controller = SSDController(config)
        ftl = OracleFTL(config, controller)
        ftl.install_block(0, 3)
        chip = controller.chip(0)
        for _ in range(12):
            allocation = ftl.allocate_wl(0)
            params, _squeeze = ftl.program_params(0, allocation)
            result = chip.program_wl(
                allocation.block,
                allocation.address.layer,
                allocation.address.wl,
                params=params,
            )
            assert result.ispp.clean

    def test_bounds_cube_from_above(self, config):
        """On a pure-write workload the oracle is at least as fast as
        cubeFTL (it pays no leader monitoring)."""
        results = {}
        for ftl in ("cube", "oracle"):
            sim = SSDSimulation(config, ftl=ftl)
            trace = uniform_random_trace(
                sim.config.logical_pages, 500, read_fraction=0.0, seed=3
            )
            results[ftl] = replay(sim, trace, queue_depth=8)
        assert (
            results["oracle"].counters.mean_t_prog_us
            <= results["cube"].counters.mean_t_prog_us + 1.0
        )
        assert results["oracle"].counters.leader_programs == 0

    def test_erase_clears_cache(self, config):
        controller = SSDController(config)
        ftl = OracleFTL(config, controller)
        ftl.install_block(0, 3)
        allocation = ftl.allocate_wl(0)
        ftl.program_params(0, allocation)
        assert ftl._params_cache
        ftl.on_block_erased(0, 3)
        assert not ftl._params_cache
