"""Tests for the Optimal Parameter Manager (Section 5.1)."""

import pytest

from repro.core.opm import OptimalParameterManager
from repro.core.ort import OptimalReadTable
from repro.core.safety import SafetyVerdict
from repro.nand.chip import NandChip
from repro.nand.read_retry import MAX_OFFSET
from repro.nand.reliability import AgingState


@pytest.fixture
def opm(quiet_chip):
    return OptimalParameterManager(quiet_chip.ispp)


class TestLeaderRecording:
    def test_record_and_query(self, quiet_chip, opm):
        result = quiet_chip.program_wl(0, 10, 0)
        assert not opm.has_leader(0, 0, 10)
        observation = opm.record_leader(0, 0, 10, result)
        assert opm.has_leader(0, 0, 10)
        assert observation.s_m > 0
        assert observation.margin_mv > 0
        assert opm.leader_observation(0, 0, 10) is observation

    def test_margin_zero_when_window_adjust_disabled(self, quiet_chip):
        opm = OptimalParameterManager(quiet_chip.ispp, enable_window_adjust=False)
        result = quiet_chip.program_wl(0, 10, 0)
        observation = opm.record_leader(0, 0, 10, result)
        assert observation.margin_mv == 0.0

    def test_aged_leader_smaller_margin(self, opm):
        chip_fresh = NandChip(chip_id=0, n_blocks=2, env_shift_prob=0.0)
        chip_aged = NandChip(chip_id=0, n_blocks=2, env_shift_prob=0.0)
        chip_aged.set_baseline_aging(AgingState(2000, 12.0))
        layer = chip_fresh.reliability.layer_kappa
        fresh_obs = opm.record_leader(0, 0, layer, chip_fresh.program_wl(0, layer, 0))
        aged_obs = opm.record_leader(0, 1, layer, chip_aged.program_wl(1, layer, 0))
        assert aged_obs.margin_mv < fresh_obs.margin_mv


class TestFollowerParams:
    def test_follower_faster_than_leader(self, quiet_chip, opm):
        leader = quiet_chip.program_wl(0, 10, 0)
        opm.record_leader(0, 0, 10, leader)
        params = opm.follower_params(0, 0, 10)
        follower = quiet_chip.program_wl(0, 10, 1, params=params)
        assert follower.ispp.clean
        assert follower.t_prog_us < leader.t_prog_us
        reduction = 1.0 - follower.t_prog_us / leader.t_prog_us
        assert 0.2 <= reduction <= 0.42

    def test_missing_leader_raises(self, opm):
        with pytest.raises(KeyError):
            opm.follower_params(0, 0, 10)

    def test_params_cached(self, quiet_chip, opm):
        opm.record_leader(0, 0, 10, quiet_chip.program_wl(0, 10, 0))
        assert opm.follower_params(0, 0, 10) is opm.follower_params(0, 0, 10)

    def test_vfy_skip_can_be_disabled(self, quiet_chip):
        opm = OptimalParameterManager(quiet_chip.ispp, enable_vfy_skip=False)
        opm.record_leader(0, 0, 10, quiet_chip.program_wl(0, 10, 0))
        params = opm.follower_params(0, 0, 10)
        assert all(start == 1 for start in params.verify_plan.start_loops)
        assert params.window_squeeze_mv > 0

    def test_follower_count_tracked(self, quiet_chip, opm):
        opm.record_leader(0, 0, 10, quiet_chip.program_wl(0, 10, 0))
        opm.follower_params(0, 0, 10)
        opm.follower_params(0, 0, 10)
        assert opm.follower_program_count == 2


class TestSafetyIntegration:
    def test_clean_follower_passes(self, quiet_chip, opm):
        opm.record_leader(0, 0, 10, quiet_chip.program_wl(0, 10, 0))
        params = opm.follower_params(0, 0, 10)
        follower = quiet_chip.program_wl(0, 10, 1, params=params)
        verdict = opm.check_program(0, 0, 10, follower, params.window_squeeze_mv)
        assert verdict is SafetyVerdict.OK

    def test_env_shift_triggers_reprogram_and_invalidation(self, opm):
        quiet = NandChip(chip_id=0, n_blocks=2, env_shift_prob=0.0)
        shifty = NandChip(chip_id=0, n_blocks=2, env_shift_prob=1.0)
        leader = quiet.program_wl(0, 10, 0)
        opm.record_leader(0, 0, 10, leader)
        params = opm.follower_params(0, 0, 10)
        # the follower program hits a sudden environmental shift
        follower = shifty.program_wl(0, 10, 1, params=params)
        verdict = opm.check_program(0, 0, 10, follower, params.window_squeeze_mv)
        assert verdict is SafetyVerdict.REPROGRAM
        assert not opm.has_leader(0, 0, 10)
        assert opm.reprogram_count == 1

    def test_unknown_layer_check_is_ok(self, quiet_chip, opm):
        result = quiet_chip.program_wl(0, 10, 0)
        assert opm.check_program(0, 0, 10, result, 0) is SafetyVerdict.OK


class TestReadSide:
    def test_read_params_default_then_learned(self, opm):
        assert opm.read_params(0, 0, 5).offset_hint == 0

    def test_note_read_updates_ort(self, quiet_chip, opm):
        quiet_chip.set_baseline_aging(AgingState(2000, 12.0))
        quiet_chip.program_wl(0, 30, 0)
        first = quiet_chip.read_page(0, 30, 0, 0, opm.read_params(0, 0, 30))
        opm.note_read(0, 0, 30, first)
        hint = opm.read_params(0, 0, 30).offset_hint
        assert hint == first.final_offset
        second = quiet_chip.read_page(0, 30, 0, 1, opm.read_params(0, 0, 30))
        assert second.num_retry <= first.num_retry

    def test_every_learned_offset_is_served(self, opm):
        for offset in range(MAX_OFFSET + 1):
            opm.ort.update(0, 0, 5, offset)
            assert opm.read_params(0, 0, 5).offset_hint == offset

    @pytest.mark.parametrize("default_offset", [-1, MAX_OFFSET + 1])
    def test_out_of_range_hint_raises(self, quiet_chip, default_offset):
        # a negative hint must not index the shared per-offset params
        # from the end: it is refused like any invalid ReadParams
        opm = OptimalParameterManager(
            quiet_chip.ispp, ort=OptimalReadTable(default_offset=default_offset)
        )
        with pytest.raises(ValueError, match="offset_hint"):
            opm.read_params(0, 0, 5)


class TestInvalidation:
    def test_invalidate_block_clears_everything(self, quiet_chip, opm):
        opm.record_leader(0, 0, 10, quiet_chip.program_wl(0, 10, 0))
        opm.ort.update(0, 0, 10, 3)
        opm.invalidate_block(0, 0, 48)
        assert not opm.has_leader(0, 0, 10)
        assert opm.ort.get(0, 0, 10) == 0
