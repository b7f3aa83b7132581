"""End-to-end fault-injection and recovery tests.

Every scenario runs a real simulation under a seeded
:class:`~repro.faults.campaign.FaultCampaign` and asserts on the FTL's
:class:`~repro.faults.counters.RecoveryCounters` and the block manager's
grown-bad table.  All campaigns are deterministic, so the exact fault
sequence -- and therefore the exact recovery work -- replays on every
run.
"""

import json

import pytest

from repro.faults import CAMPAIGNS, FaultCampaign
from repro.nand.errors import EraseFailError
from repro.nand.reliability import AgingState
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace


def _retire_reasons(sim):
    reasons = {}
    for chip_id in range(sim.config.geometry.n_chips):
        for _block, reason in sim.ftl.blocks.grown_bad_table(chip_id).items():
            reasons[reason] = reasons.get(reason, 0) + 1
    return reasons


class TestProgramFailRecovery:
    def test_program_fail_retires_block_and_rewrites_data(self):
        campaign = FaultCampaign(name="pf", program_fail_prob=0.01)
        config = SSDConfig.small(logical_fraction=0.4).with_faults(campaign)
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.9)
        trace = uniform_random_trace(
            config.logical_pages, 400, read_fraction=0.2, seed=5
        )
        stats = replay(sim, trace, queue_depth=8)
        recovery = sim.ftl.recovery
        assert recovery.program_fails >= 1
        assert recovery.blocks_retired >= 1
        assert _retire_reasons(sim).get("program_fail", 0) >= 1
        # the in-flight data was rewritten, not lost: every request
        # completed and the mapping stayed consistent
        assert stats.completed_requests == len(trace)
        sim.ftl.mapper.check_invariants()

    def test_retired_blocks_reported_in_stats(self):
        campaign = FaultCampaign(name="pf", program_fail_prob=0.01)
        config = SSDConfig.small(logical_fraction=0.4).with_faults(campaign)
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.9)
        trace = uniform_random_trace(
            config.logical_pages, 400, read_fraction=0.2, seed=5
        )
        stats = replay(sim, trace, queue_depth=8)
        assert stats.recovery is sim.ftl.recovery
        assert "recovery" in stats.to_dict()
        assert "recovery" in stats.summary()


class TestEraseFailRecovery:
    def test_transient_erase_fail_retires_block(self):
        campaign = FaultCampaign(name="ef", erase_fail_prob=0.1)
        config = SSDConfig.small(
            logical_fraction=0.6, gc_trigger_blocks=3
        ).with_faults(campaign)
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            config.logical_pages, 1200, read_fraction=0.2, seed=5
        )
        stats = replay(sim, trace, queue_depth=8)
        recovery = sim.ftl.recovery
        assert stats.counters.erases > 0
        assert recovery.erase_fails >= 1
        assert recovery.blocks_retired >= recovery.erase_fails
        assert _retire_reasons(sim).get("erase_fail", 0) >= 1
        sim.ftl.mapper.check_invariants()

    def test_grown_bad_block_fails_from_onset(self):
        """A grown-bad block erases fine before its onset count and
        reports FAIL status from then on (chip-level contract)."""
        campaign = FaultCampaign(
            name="gb", grown_bad_per_chip=1, grown_bad_onset_erases=1
        )
        config = SSDConfig.small().with_faults(campaign)
        sim = SSDSimulation(config, ftl="page")
        chip = sim.controller.chip(0)
        (bad,) = sim.controller.faults.grown_bad_blocks(0, chip.n_blocks)
        chip.erase_block(bad)  # first dynamic erase is still fine
        with pytest.raises(EraseFailError):
            chip.erase_block(bad)


class TestReadRecovery:
    def test_ber_spikes_trigger_scrubs_and_recovered_reads(self):
        campaign = FaultCampaign(
            name="spike", ber_spike_prob=0.5, ber_spike_factor=4.4
        )
        config = (
            SSDConfig.small(logical_fraction=0.8)
            .with_aging(AgingState(2000, 12.0))
            .with_faults(campaign)
        )
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.9)
        trace = uniform_random_trace(
            config.logical_pages, 400, read_fraction=0.8, seed=5
        )
        stats = replay(sim, trace, queue_depth=8)
        recovery = sim.ftl.recovery
        # low-margin reads were refreshed in the background ...
        assert recovery.scrubs >= 1
        # ... and uncorrectable spiked reads were rescued by the
        # conservative nominal re-read
        assert recovery.recovered_reads >= 1
        assert stats.completed_requests == len(trace)

    def test_forced_stale_ort_recovered_without_data_loss(self):
        """Plant stale offsets (>= 3 steps) under every learned ORT
        entry: every hint-started sweep fails, the entry is invalidated,
        and the conservative nominal-start re-read recovers the data --
        no uncorrectable read escapes."""
        campaign = FaultCampaign(name="quiet")  # injector only, no rates
        config = (
            SSDConfig.small(logical_fraction=0.6)
            .with_aging(AgingState(2000, 12.0))
            .with_faults(campaign)
        )
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.9)
        warmup = uniform_random_trace(
            config.logical_pages, 300, read_fraction=1.0, seed=2
        )
        replay(sim, warmup, queue_depth=8)
        entries = dict(sim.ftl.opm.ort._entries)
        assert entries, "warmup must learn ORT entries"
        for chip_id, block, layer in entries:
            sim.controller.faults.force_ort_skew(chip_id, block, layer, steps=4)
        trace = uniform_random_trace(
            config.logical_pages, 300, read_fraction=1.0, seed=4
        )
        stats = replay(sim, trace, queue_depth=8)
        recovery = sim.ftl.recovery
        assert recovery.ort_invalidations >= 1
        assert recovery.recovered_reads >= recovery.ort_invalidations
        assert recovery.uncorrectable_after_recovery == 0
        assert stats.completed_requests == len(trace)


class TestAcceptanceCampaign:
    def test_default_campaign_completes_with_recovery_activity(self):
        """cubeFTL under the default campaign: the run completes without
        raising, failed blocks are retired, and the recovery counters
        are nonzero."""
        config = SSDConfig.small(
            logical_fraction=0.45, gc_trigger_blocks=3
        ).with_faults(CAMPAIGNS["default"])
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            config.logical_pages, 3000, read_fraction=0.3, seed=3
        )
        stats = replay(sim, trace, queue_depth=8)
        recovery = sim.ftl.recovery
        assert recovery.any()
        assert recovery.blocks_retired >= 1
        assert _retire_reasons(sim)
        assert stats.completed_requests == len(trace)
        sim.ftl.mapper.check_invariants()


class TestDeterminismAndEquivalence:
    def _run(self, campaign):
        config = SSDConfig.small(
            logical_fraction=0.45, gc_trigger_blocks=3
        )
        if campaign is not None:
            config = config.with_faults(campaign)
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(1.0)
        trace = uniform_random_trace(
            config.logical_pages, 1000, read_fraction=0.3, seed=3
        )
        stats = replay(sim, trace, queue_depth=8)
        return json.dumps(stats.to_dict(), sort_keys=True)

    def test_identical_campaign_runs_are_byte_identical(self):
        """Seeded-determinism regression: two runs of the same config --
        campaign included -- produce byte-identical statistics."""
        campaign = CAMPAIGNS["default"]
        assert self._run(campaign) == self._run(campaign)

    def test_zero_rate_campaign_matches_fault_free(self):
        """A campaign with every rate at zero is behaviorally identical
        to running without fault injection."""
        assert self._run(FaultCampaign(name="quiet")) == self._run(None)

    def test_campaign_seed_changes_fault_sequence(self):
        default = CAMPAIGNS["default"]
        reseeded = FaultCampaign(
            name="default",
            seed=99,
            program_fail_prob=default.program_fail_prob,
            erase_fail_prob=default.erase_fail_prob,
            grown_bad_per_chip=default.grown_bad_per_chip,
            ber_spike_prob=default.ber_spike_prob,
            ort_skew_prob=default.ort_skew_prob,
            stuck_die_prob=default.stuck_die_prob,
        )
        assert self._run(default) != self._run(reseeded)
