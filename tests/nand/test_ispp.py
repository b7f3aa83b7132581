"""Tests for the ISPP program engine (Section 2.2 / 4.1 mechanics)."""

import pytest
from hypothesis import given, strategies as st

from repro.nand.errors import ProgramWindowError
from repro.nand.ispp import (
    DV_ISPP_DEFAULT_MV,
    IsppEngine,
    LoopInterval,
    MAXLOOP_DEFAULT,
    ProgramParams,
    TLC_STATES,
    V_FINAL_DEFAULT_MV,
    V_START_DEFAULT_MV,
    VerifyPlan,
    WLProgramProfile,
    default_state_intervals,
    require_valid_window,
    t_prog_equation_1,
    t_prog_equation_2,
    window_squeeze_ber_multiplier,
)
from repro.nand.timing import NandTiming


class TestLoopInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoopInterval(0, 1)
        with pytest.raises(ValueError):
            LoopInterval(3, 2)

    def test_shift_clamps_at_one(self):
        assert LoopInterval(1, 2).shifted(-5) == LoopInterval(1, 1)

    def test_width(self):
        assert LoopInterval(2, 6).width == 4


class TestWLProgramProfile:
    def test_default_intervals_match_paper_skips(self):
        """State Ps completes in [s+1, s+5]: P1 skips 1 VFY, P7 skips 7."""
        intervals = default_state_intervals()
        assert len(intervals) == TLC_STATES
        for s, interval in enumerate(intervals, start=1):
            assert interval.l_min == s + 1
            assert interval.l_max == s + 5

    def test_loops_needed(self):
        profile = WLProgramProfile(default_state_intervals())
        assert profile.loops_needed == TLC_STATES + 5

    def test_monotone_completion_enforced(self):
        with pytest.raises(ValueError):
            WLProgramProfile((LoopInterval(5, 9), LoopInterval(1, 2)))

    def test_interval_bounds_check(self):
        profile = WLProgramProfile(default_state_intervals())
        with pytest.raises(ValueError):
            profile.interval(0)
        with pytest.raises(ValueError):
            profile.interval(TLC_STATES + 1)


class TestVerifyPlan:
    def test_default_plan_starts_at_loop_one(self):
        plan = VerifyPlan.default()
        assert plan.start_loops == (1,) * TLC_STATES
        assert all(plan.skipped_before(s) == 0 for s in range(1, TLC_STATES + 1))

    def test_from_profile_skips_up_to_l_min(self):
        profile = WLProgramProfile(default_state_intervals())
        plan = VerifyPlan.from_profile(profile)
        for s in range(1, TLC_STATES + 1):
            assert plan.skipped_before(s) == profile.interval(s).l_min - 1

    def test_guard_keeps_early_verifies(self):
        profile = WLProgramProfile(default_state_intervals())
        plan = VerifyPlan.from_profile(profile, guard=2)
        for s in range(1, TLC_STATES + 1):
            assert plan.start_loops[s - 1] == max(1, profile.interval(s).l_min - 2)

    def test_guard_validation(self):
        profile = WLProgramProfile(default_state_intervals())
        with pytest.raises(ValueError):
            VerifyPlan.from_profile(profile, guard=-1)


class TestProgramParams:
    def test_default_window(self):
        params = ProgramParams.default()
        assert params.max_loop == MAXLOOP_DEFAULT
        assert params.window_squeeze_mv == 0
        assert params.start_shift_loops == 0
        assert params.final_shift_loops == 0

    def test_window_validation(self):
        with pytest.raises(ProgramWindowError):
            ProgramParams(v_start_mv=16_000, v_final_mv=16_000)
        with pytest.raises(ProgramWindowError):
            ProgramParams(dv_ispp_mv=0)
        with pytest.raises(ProgramWindowError):
            require_valid_window(1000, 1000, 100)

    def test_shift_accounting(self):
        params = ProgramParams(
            v_start_mv=V_START_DEFAULT_MV + 2 * DV_ISPP_DEFAULT_MV,
            v_final_mv=V_FINAL_DEFAULT_MV - DV_ISPP_DEFAULT_MV,
        )
        assert params.start_shift_loops == 2
        assert params.final_shift_loops == 1
        assert params.window_squeeze_mv == 3 * DV_ISPP_DEFAULT_MV
        assert params.max_loop == MAXLOOP_DEFAULT - 3


class TestSimulate:
    def test_default_program_anchors(self, ispp):
        """12 executed loops, 63 verifies, tPROG ~= 700 us."""
        profile = ispp.wl_profile(0.0)
        result = ispp.simulate(profile, ProgramParams.default())
        assert result.executed_loops == 12
        assert result.vfy_count == 63
        assert result.vfy_skipped == 0
        assert result.clean
        assert result.ber_penalty == pytest.approx(1.0)
        assert 650 <= result.t_prog_us <= 760

    def test_equation_1_consistency(self, ispp, timing):
        """tPROG equals Eq. 1 evaluated on the per-loop verify counts."""
        profile = ispp.wl_profile(0.0)
        result = ispp.simulate(profile, ProgramParams.default())
        # reconstruct k_i: state s is verified in loops 1..l_max(s)
        k = []
        for i in range(1, result.executed_loops + 1):
            k.append(sum(1 for s in profile.intervals if i <= s.l_max))
        assert result.t_prog_us == pytest.approx(t_prog_equation_1(timing, k))

    def test_equation_2_equals_equation_1(self, timing):
        """Eq. 2 is a phase-grouped rewrite of Eq. 1 (the paper's MLC
        example: L = (3, 2, 2), V = (3, 2, 1))."""
        phase_loops = (3, 2, 2)
        phase_vfys = (3, 2, 1)
        k = [3, 3, 3, 2, 2, 1, 1]
        assert t_prog_equation_2(timing, phase_loops, phase_vfys) == pytest.approx(
            t_prog_equation_1(timing, k)
        )

    def test_full_skip_saves_about_16_percent(self, ispp):
        """Section 4.1.1: skipped VFYs cut tPROG by ~16.2 %."""
        profile = ispp.wl_profile(0.0)
        default = ispp.simulate(profile, ProgramParams.default())
        plan = VerifyPlan.from_profile(profile)
        skipped = ispp.simulate(profile, ProgramParams(verify_plan=plan))
        reduction = 1.0 - skipped.t_prog_us / default.t_prog_us
        assert 0.13 <= reduction <= 0.19
        assert skipped.vfy_skipped == sum(range(1, TLC_STATES + 1))
        assert skipped.clean

    def test_window_squeeze_reduces_loops(self, ispp):
        profile = ispp.wl_profile(0.0)
        params = ispp.follower_params(profile, window_squeeze_mv=320)
        result = ispp.simulate(profile, params)
        default = ispp.simulate(profile, ProgramParams.default())
        assert result.executed_loops < default.executed_loops
        assert result.clean

    def test_follower_reduction_up_to_paper_bound(self, ispp):
        """Combined skips + window: up to ~35.9 % tPROG reduction."""
        profile = ispp.wl_profile(0.0)
        default = ispp.simulate(profile, ProgramParams.default())
        params = ispp.follower_params(profile, window_squeeze_mv=420)
        result = ispp.simulate(profile, params)
        reduction = 1.0 - result.t_prog_us / default.t_prog_us
        assert 0.30 <= reduction <= 0.42
        assert result.clean

    def test_over_skip_penalty(self, ispp):
        """Verifying later than the true L_min over-programs fast cells."""
        profile = ispp.wl_profile(0.0)
        starts = list(VerifyPlan.from_profile(profile).start_loops)
        starts[6] += 2  # skip two extra verifies for P7
        result = ispp.simulate(profile, ProgramParams(verify_plan=VerifyPlan(tuple(starts))))
        assert not result.clean
        assert result.over_skips[6] == 2
        assert result.ber_penalty > 2.0

    def test_stale_leader_profile_detected_as_over_skip(self, ispp):
        """A follower programmed with a slower leader's plan over-skips."""
        slow_leader = ispp.wl_profile(1.0)  # +2 loops
        normal_wl = ispp.wl_profile(0.0)
        plan = VerifyPlan.from_profile(slow_leader)
        result = ispp.simulate(normal_wl, ProgramParams(verify_plan=plan))
        assert not result.clean
        assert all(over == 2 for over in result.over_skips)

    def test_under_program_when_window_too_short(self, ispp):
        """A window too short for a slow layer under-programs top states."""
        profile = ispp.wl_profile(1.0)  # needs 14 loops
        # note: v_final below default shrinks BOTH the window and the
        # targets; build an artificially narrow window at default targets
        result = ispp.simulate(
            profile,
            ProgramParams(
                v_start_mv=V_START_DEFAULT_MV,
                v_final_mv=V_START_DEFAULT_MV + 4 * DV_ISPP_DEFAULT_MV,
                verify_plan=VerifyPlan.default(),
            ),
        )
        assert not result.clean
        assert any(under > 0 for under in result.under_loops)
        assert result.ber_penalty > 3.0

    def test_slow_layer_needs_more_loops(self, ispp):
        fast = ispp.simulate(ispp.wl_profile(0.0), ProgramParams.default())
        slow = ispp.simulate(ispp.wl_profile(1.0), ProgramParams.default())
        assert slow.executed_loops == fast.executed_loops + 2
        assert slow.t_prog_us > fast.t_prog_us

    def test_simulate_is_cached_and_consistent(self, ispp):
        profile = ispp.wl_profile(0.0)
        a = ispp.simulate(profile, ProgramParams.default())
        b = ispp.simulate(profile, ProgramParams.default())
        assert a is b  # memoized

    def test_plan_profile_mismatch_rejected(self, ispp):
        profile = ispp.wl_profile(0.0)
        with pytest.raises(ValueError):
            ispp.simulate(profile, ProgramParams(verify_plan=VerifyPlan((1, 1))))


class TestFollowerParams:
    def test_zero_margin_keeps_default_window(self, ispp):
        profile = ispp.wl_profile(0.0)
        params = ispp.follower_params(profile, window_squeeze_mv=0)
        assert params.v_start_mv == V_START_DEFAULT_MV
        assert params.v_final_mv == V_FINAL_DEFAULT_MV

    def test_margin_split(self, ispp):
        profile = ispp.wl_profile(0.0)
        params = ispp.follower_params(
            profile, window_squeeze_mv=240, start_fraction=0.5
        )
        assert params.v_start_mv == V_START_DEFAULT_MV + DV_ISPP_DEFAULT_MV
        assert params.v_final_mv == V_FINAL_DEFAULT_MV - DV_ISPP_DEFAULT_MV

    def test_negative_margin_rejected(self, ispp):
        with pytest.raises(ValueError):
            ispp.follower_params(ispp.wl_profile(0.0), window_squeeze_mv=-1)

    def test_follower_plan_aligned_with_squeezed_window(self, ispp):
        """Verify starts are derived from the shifted completion loops, so
        a clean follower program results even under a tight window."""
        profile = ispp.wl_profile(0.5)
        params = ispp.follower_params(profile, window_squeeze_mv=400)
        result = ispp.simulate(profile, params)
        assert result.clean


class TestSqueezeMultiplier:
    def test_identity_at_zero(self):
        assert window_squeeze_ber_multiplier(0) == 1.0

    def test_monotone(self):
        values = [window_squeeze_ber_multiplier(m) for m in (0, 100, 200, 400)]
        assert values == sorted(values)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            window_squeeze_ber_multiplier(-1)


@given(
    slowdown=st.floats(min_value=0.0, max_value=1.0),
    squeeze=st.integers(min_value=0, max_value=420),
)
def test_follower_program_always_clean_property(slowdown, squeeze):
    """For any layer speed and granted margin, the OPM-style follower
    parameters never over- or under-program (the plan tracks the shifted
    completion loops)."""
    engine = IsppEngine(NandTiming())
    profile = engine.wl_profile(slowdown)
    params = engine.follower_params(profile, window_squeeze_mv=squeeze)
    result = engine.simulate(profile, params)
    assert result.clean
    assert result.t_prog_us <= engine.simulate(profile, ProgramParams.default()).t_prog_us


@given(slowdown=st.floats(min_value=0.0, max_value=1.0))
def test_t_prog_positive_and_bounded(slowdown):
    engine = IsppEngine(NandTiming())
    result = engine.simulate(engine.wl_profile(slowdown), ProgramParams.default())
    assert 0 < result.t_prog_us < 2000
