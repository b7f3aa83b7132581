"""Tests for the SSD controller wiring."""

import pytest

from repro.nand.reliability import AgingState
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController, SSDSimulation


@pytest.fixture
def controller():
    return SSDController(SSDConfig.small())


class TestWiring:
    def test_one_chip_per_die(self, controller):
        geometry = controller.config.geometry
        assert len(controller.chips) == geometry.n_chips
        for chip_id, chip in enumerate(controller.chips):
            assert chip.chip_id == chip_id
            assert chip.n_blocks == geometry.blocks_per_chip

    def test_chips_share_one_device_model(self, controller):
        """Every FTL must see the same silicon: one reliability surface,
        one ISPP engine, one retry model, one ECC engine."""
        first = controller.chips[0]
        for chip in controller.chips[1:]:
            assert chip.reliability is first.reliability
            assert chip.ispp is first.ispp
            assert chip.retry_model is first.retry_model
            assert chip.ecc is first.ecc

    def test_chips_on_same_channel_share_bus(self):
        config = SSDConfig()  # 2 channels x 4 chips
        controller = SSDController(config)
        assert controller.bus_resource(0) is controller.bus_resource(3)
        assert controller.bus_resource(0) is not controller.bus_resource(4)

    def test_each_chip_has_own_die_resource(self, controller):
        assert controller.chip_resource(0) is not controller.chip_resource(1)

    def test_baseline_aging_applied_to_all_chips(self):
        config = SSDConfig.small().with_aging(AgingState(1500, 3.0))
        controller = SSDController(config)
        for chip in controller.chips:
            assert chip.baseline_aging.pe_cycles == 1500
            assert chip.baseline_aging.retention_months == 3.0

    def test_clock_starts_at_zero(self, controller):
        assert controller.now == 0.0


class TestStallDiagnostics:
    @pytest.mark.parametrize(
        "mode", ["closed", "ncq", "unbounded", "segmented"]
    )
    def test_stalled_run_reports_pending_requests(self, mode):
        """When the event queue drains with host requests still pending,
        the error names how many -- and which -- never completed."""
        from repro.ssd.controller import SimulationStalledError, _stall_message
        from repro.ssd.host import replay
        from repro.workloads.base import with_arrivals
        from repro.workloads.synthetic import uniform_random_trace

        sim = SSDSimulation(SSDConfig.small(), ftl="page")
        sim.prefill(0.2)
        # swallow every submission: nothing ever completes
        sim.ftl.submit = lambda request, on_complete: None
        trace = with_arrivals(
            uniform_random_trace(sim.config.logical_pages, 10, seed=1),
            rate_iops=10_000,
            seed=2,
        )
        kwargs = {"mode": mode}
        if mode == "segmented":
            kwargs = {"mode": "closed", "segment_requests": 3}
        with pytest.raises(SimulationStalledError) as excinfo:
            replay(sim, trace, queue_depth=4, **kwargs)
        # closed: the 4 issued; NCQ: 4 issued plus 6 waiting for a slot;
        # unbounded: all 10 arrivals; segmented: the first segment's 3
        stalled = {"closed": 4, "ncq": 10, "unbounded": 10, "segmented": 3}
        expected = trace.requests[: stalled[mode]]
        message = str(excinfo.value)
        assert message == _stall_message(0, {id(r): r for r in expected})
        assert f"{len(expected)} host requests never completed" in message
        assert "(0 done)" in message
        assert "lpn=" in message
        assert "n_pages=" in message

    def test_stall_message_elides_long_pending_lists(self):
        from repro.ssd.controller import _stall_message
        from repro.workloads.base import IORequest

        pending = {
            index: IORequest(op="R", lpn=index, n_pages=1)
            for index in range(12)
        }
        message = _stall_message(3, pending)
        assert "12 host requests never completed (3 done)" in message
        assert "... 4 more" in message
        assert message.count("lpn=") == 8


class TestDeterminism:
    def test_same_seed_same_simulation(self):
        """Two identical simulations produce identical results."""
        results = []
        from repro.ssd.host import replay
        from repro.workloads.synthetic import uniform_random_trace

        for _ in range(2):
            sim = SSDSimulation(SSDConfig.small(seed=42), ftl="cube")
            sim.prefill(0.4)
            trace = uniform_random_trace(
                sim.config.logical_pages, 300, read_fraction=0.5, seed=9
            )
            stats = replay(sim, trace, queue_depth=8)
            results.append((stats.duration_us, stats.iops,
                            stats.counters.flash_programs,
                            stats.counters.read_retries))
        assert results[0] == results[1]

    def test_different_seed_different_chips(self):
        a = SSDController(SSDConfig.small(seed=1))
        b = SSDController(SSDConfig.small(seed=2))
        aging = AgingState(2000, 12.0)
        ber_a = a.chips[0].reliability.layer_ber(0, 0, 5, aging)
        ber_b = b.chips[0].reliability.layer_ber(0, 0, 5, aging)
        assert ber_a != ber_b
