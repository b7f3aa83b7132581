"""Incremental step pulse programming (ISPP) engine.

Implements the program-operation model of Section 2.2 at the
micro-operation (PGM / VFY) level, including everything the paper's
optimizations manipulate:

- per-state completion-loop intervals ``[L_min, L_max]`` (fast vs. slow
  cells of a WL),
- the verify schedule and its per-loop verify counts ``k_i`` (Eq. 1),
- the program-voltage window ``(V_start, V_final)`` whose width divided by
  ``dV_ISPP`` bounds ``MaxLoop``,
- verify skipping for follower WLs (Section 4.1.1),
- window tightening from the spare BER margin (Section 4.1.2), and
- the resulting over-/under-program reliability penalties.

Loop indices are 1-based absolute ISPP loop numbers.  With the default
calibration a TLC WL programs in 12 executed loops with 63 verifies, i.e.
``tPROG = 12 x 38.75 us + 63 x 3.75 us ~= 701 us`` -- the paper's nominal
700 us.  A follower WL that skips every safe verify saves
``sum_s (A_min(s) - 1) = 28`` verifies (105 us, ~16 % -- the paper reports
16.2 %), and each 120-mV window reduction removes roughly one loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.nand.errors import ProgramWindowError
from repro.nand.timing import NandTiming

#: number of programmed states for TLC (P1..P7; E is not programmed)
TLC_STATES = 7

#: default ISPP voltage step (mV)
DV_ISPP_DEFAULT_MV = 120

#: default (conservative) program start voltage (mV)
V_START_DEFAULT_MV = 15_000

#: default (conservative) MaxLoop -- sized for the slowest layer under the
#: worst aging condition (2 extra loops over the nominal 12)
MAXLOOP_DEFAULT = 14

#: default (conservative) final program voltage (mV)
V_FINAL_DEFAULT_MV = V_START_DEFAULT_MV + MAXLOOP_DEFAULT * DV_ISPP_DEFAULT_MV

#: BER growth scale of window tightening: squeezing the (V_start, V_final)
#: window by ``x`` mV compresses the V_th state separation and multiplies
#: the raw BER by ``exp(x / WINDOW_SQUEEZE_TAU_MV)`` (the error-balancing
#: trade-off of Fig. 9)
WINDOW_SQUEEZE_TAU_MV = 400.0


def window_squeeze_ber_multiplier(squeeze_mv: float) -> float:
    """BER multiplier caused by tightening the program window."""
    if squeeze_mv < 0:
        raise ValueError("squeeze_mv must be >= 0")
    return math.exp(squeeze_mv / WINDOW_SQUEEZE_TAU_MV)


@dataclass(frozen=True)
class LoopInterval:
    """Completion-loop interval ``[l_min, l_max]`` for one program state.

    Fast cells of the state reach their target window at loop ``l_min``;
    the slowest cells need ``l_max`` loops.
    """

    l_min: int
    l_max: int

    def __post_init__(self) -> None:
        if self.l_min < 1:
            raise ValueError("l_min must be >= 1")
        if self.l_max < self.l_min:
            raise ValueError("l_max must be >= l_min")

    def shifted(self, delta: int) -> "LoopInterval":
        """Shift both bounds by ``delta`` loops, clamping at loop 1."""
        return LoopInterval(max(1, self.l_min + delta), max(1, self.l_max + delta))

    @property
    def width(self) -> int:
        return self.l_max - self.l_min


@dataclass(frozen=True)
class WLProgramProfile:
    """Ground-truth ISPP behaviour of one WL: per-state loop intervals.

    Because of the intra-layer similarity, all WLs of an h-layer share the
    same profile (barring rare environmental shifts); this is exactly what
    makes leader-WL monitoring safe to reuse.
    """

    intervals: Tuple[LoopInterval, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("profile must cover at least one state")
        previous = 0
        for interval in self.intervals:
            if interval.l_max < previous:
                raise ValueError("state completion must be non-decreasing")
            previous = interval.l_max
        # profiles key the ISPP memo tables, so they are hashed on every
        # program operation; hashing the interval tuple lazily per lookup
        # dominated the cache-hit cost
        object.__setattr__(self, "_hash", hash(self.intervals))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_states(self) -> int:
        return len(self.intervals)

    @property
    def loops_needed(self) -> int:
        """Number of ISPP loops needed to finish the slowest state."""
        return max(interval.l_max for interval in self.intervals)

    def interval(self, state: int) -> LoopInterval:
        """Interval of program state ``state`` (1-based: P1..Pm)."""
        if not 1 <= state <= self.n_states:
            raise ValueError(f"state {state} out of range")
        return self.intervals[state - 1]


@dataclass(frozen=True)
class VerifyPlan:
    """Per-state loop at which verify operations begin.

    ``start_loops[s-1] = k`` means state ``Ps`` is not verified before
    loop ``k``; the PS-unaware default is ``k = 1`` for every state
    (verify from the first loop, as in Fig. 3(a)).  A follower plan built
    from leader monitoring starts each state's verifies at the leader's
    observed ``l_min``, skipping ``l_min - 1`` verifies per state.
    """

    start_loops: Tuple[int, ...]

    def __post_init__(self) -> None:
        for start in self.start_loops:
            if start < 1:
                raise ValueError("verify start loops must be >= 1")
        # read on every program; the plan is frozen, so decide it once
        object.__setattr__(
            self, "_skips_verifies", any(start > 1 for start in self.start_loops)
        )

    @classmethod
    def default(cls, n_states: int = TLC_STATES) -> "VerifyPlan":
        return cls(tuple([1] * n_states))

    @classmethod
    def from_profile(cls, profile: WLProgramProfile, guard: int = 0) -> "VerifyPlan":
        """Build the skip plan of Section 4.1.1 from a monitored profile.

        ``guard`` extra early loops may be kept as a safety cushion
        (``guard = 0`` reproduces the paper's scheme where verification
        begins exactly at the monitored ``L_min``).
        """
        if guard < 0:
            raise ValueError("guard must be >= 0")
        return cls(
            tuple(max(1, interval.l_min - guard) for interval in profile.intervals)
        )

    @property
    def n_states(self) -> int:
        return len(self.start_loops)

    @property
    def skips_verifies(self) -> bool:
        """Whether any state starts verifying after loop 1 (a follower
        plan; the PS-unaware default skips nothing)."""
        return self._skips_verifies

    def skipped_before(self, state: int) -> int:
        """Number of verifies skipped for ``state`` relative to the
        PS-unaware plan (the paper's N_skip)."""
        if not 1 <= state <= self.n_states:
            raise ValueError(f"state {state} out of range")
        return self.start_loops[state - 1] - 1


@dataclass(frozen=True)
class ProgramParams:
    """Operating parameters of one WL program operation.

    ``window_squeeze_mv`` -- the total window tightening relative to
    the conservative default -- is set at construction: the parameters
    are frozen and every program reads it.
    """

    v_start_mv: int = V_START_DEFAULT_MV
    v_final_mv: int = V_FINAL_DEFAULT_MV
    dv_ispp_mv: int = DV_ISPP_DEFAULT_MV
    verify_plan: VerifyPlan = field(default_factory=VerifyPlan.default)

    def __post_init__(self) -> None:
        if self.dv_ispp_mv <= 0:
            raise ProgramWindowError("dV_ISPP must be positive")
        if self.v_final_mv - self.v_start_mv < self.dv_ispp_mv:
            raise ProgramWindowError(
                "program window narrower than one ISPP step: "
                f"[{self.v_start_mv}, {self.v_final_mv}] mV"
            )
        object.__setattr__(
            self,
            "window_squeeze_mv",
            (V_FINAL_DEFAULT_MV - self.v_final_mv)
            + (self.v_start_mv - V_START_DEFAULT_MV),
        )

    @classmethod
    def default(cls, n_states: int = TLC_STATES) -> "ProgramParams":
        """The conservative PS-unaware parameters.  Immutable, so one
        instance per cell type is shared by every leader program."""
        if 0 < n_states <= len(_DEFAULT_PARAMS):
            return _DEFAULT_PARAMS[n_states - 1]
        return cls(verify_plan=VerifyPlan.default(n_states))

    @property
    def max_loop(self) -> int:
        """MaxLoop = (V_final - V_start) / dV_ISPP (Section 2.2)."""
        return (self.v_final_mv - self.v_start_mv) // self.dv_ispp_mv

    @property
    def start_shift_loops(self) -> int:
        """Loops removed at the front by raising V_start."""
        return round((self.v_start_mv - V_START_DEFAULT_MV) / self.dv_ispp_mv)

    @property
    def final_shift_loops(self) -> int:
        """Loops removed at the back by lowering V_final."""
        return round((V_FINAL_DEFAULT_MV - self.v_final_mv) / self.dv_ispp_mv)


#: the shared :meth:`ProgramParams.default` of 1..15 programmed states
#: (SLC to QLC); an immutable tuple, built once at import
_DEFAULT_PARAMS: Tuple[ProgramParams, ...] = tuple(
    ProgramParams(verify_plan=VerifyPlan.default(n_states))
    for n_states in range(1, 16)
)


@dataclass(frozen=True)
class IsppResult:
    """Outcome of simulating one WL program operation."""

    #: total program latency (Eq. 1)
    t_prog_us: float
    #: number of executed ISPP loops
    executed_loops: int
    #: number of verify operations performed
    vfy_count: int
    #: number of verify operations skipped vs. the PS-unaware schedule
    vfy_skipped: int
    #: per-state count of verifies skipped *beyond* the safe point --
    #: each over-skip leaves fast cells unprotected for one extra loop
    over_skips: Tuple[int, ...]
    #: per-state count of loops the window was too short to execute --
    #: slow cells of these states end under-programmed
    under_loops: Tuple[int, ...]
    #: multiplicative reliability penalty (1.0 = clean program)
    ber_penalty: float
    #: monitored completion intervals, as observable via Get-Features
    monitored: WLProgramProfile

    @property
    def clean(self) -> bool:
        """True when no state was over- or under-programmed."""
        return all(o == 0 for o in self.over_skips) and all(
            u == 0 for u in self.under_loops
        )


def default_state_intervals(n_states: int = TLC_STATES) -> Tuple[LoopInterval, ...]:
    """Nominal per-state completion intervals of the modelled chip.

    State ``Ps`` completes between loops ``s + 1`` and ``s + 5``; thus the
    nominal WL needs 12 loops and, verified PS-unaware from loop 1, costs
    ``sum_s (s + 5) = 63`` verifies.  A full skip plan removes
    ``sum_s s = 28`` of them, and states skip ``1, 2, ..., 7`` verifies
    respectively -- matching Fig. 8 where P1 can skip 1 VFY and P7 can
    skip 7.
    """
    return tuple(LoopInterval(s + 1, s + 5) for s in range(1, n_states + 1))


class IsppEngine:
    """Mechanistic ISPP program simulator.

    The engine maps a WL's physical condition (its h-layer's program
    slowdown plus any transient environmental shift) to a
    :class:`WLProgramProfile`, then executes a program operation under
    given :class:`ProgramParams`, producing latency (Eq. 1/2) and
    reliability outcomes.
    """

    def __init__(
        self,
        timing: NandTiming = NandTiming(),
        n_states: int = TLC_STATES,
        base_intervals: Optional[Sequence[LoopInterval]] = None,
        over_skip_penalty: float = 0.8,
        under_loop_penalty: float = 3.0,
    ) -> None:
        self.timing = timing
        self.n_states = n_states
        if base_intervals is None:
            base_intervals = default_state_intervals(n_states)
        if len(base_intervals) != n_states:
            raise ValueError("base_intervals must cover every state")
        self.base_intervals = tuple(base_intervals)
        self.over_skip_penalty = over_skip_penalty
        self.under_loop_penalty = under_loop_penalty
        # profiles and program outcomes are pure functions of small
        # discrete inputs -- memoize aggressively
        self._profile_cache: dict = {}
        self._effective_cache: dict = {}
        self._simulate_cache: dict = {}
        self._follower_cache: dict = {}

    # ------------------------------------------------------------------
    # profiles
    # ------------------------------------------------------------------

    def wl_profile(self, slowdown: float, env_shift: int = 0) -> WLProgramProfile:
        """Ground-truth profile of a WL.

        ``slowdown`` in [0, 1] is the h-layer's program-speed handicap
        (from :meth:`repro.nand.reliability.ReliabilityModel.program_slowdown`);
        it adds up to 2 extra loops.  ``env_shift`` models a sudden change
        in operating conditions (Section 4.1.4) that moves the whole
        profile by a loop or two, invalidating previously monitored
        parameters.
        """
        if not 0.0 <= slowdown <= 1.0:
            raise ValueError("slowdown must be in [0, 1]")
        delta = round(2.0 * slowdown) + env_shift
        cached = self._profile_cache.get(delta)
        if cached is None:
            cached = WLProgramProfile(
                tuple(interval.shifted(delta) for interval in self.base_intervals)
            )
            self._profile_cache[delta] = cached
        return cached

    def effective_profile(
        self, profile: WLProgramProfile, params: ProgramParams
    ) -> WLProgramProfile:
        """Profile as seen under a shifted/tightened program window.

        Raising ``V_start`` by *k* steps makes every state complete *k*
        loops earlier; lowering ``V_final`` compresses the upper states
        proportionally (state ``Ps`` saves ``round(k_final * s / m)``
        loops).
        """
        k_start = params.start_shift_loops
        k_final = params.final_shift_loops
        if k_start == 0 and k_final == 0:
            return profile
        # two equal-intervals profiles are equal, so keying on the
        # profile (with its precomputed hash) memoizes exactly as the
        # interval tuple did, without re-hashing every LoopInterval
        key = (profile, k_start, k_final)
        cached = self._effective_cache.get(key)
        if cached is not None:
            return cached
        m = profile.n_states
        shifted = []
        prev_min = 1
        prev_max = 1
        for s, interval in enumerate(profile.intervals, start=1):
            reduction = k_start + round(k_final * s / m)
            moved = interval.shifted(-reduction)
            # states may merge into the same loop under extreme squeezes
            # but can never complete before a lower state
            l_min = max(moved.l_min, prev_min)
            l_max = max(moved.l_max, prev_max, l_min)
            shifted.append(LoopInterval(l_min, l_max))
            prev_min, prev_max = l_min, l_max
        result = WLProgramProfile(tuple(shifted))
        self._effective_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # program simulation
    # ------------------------------------------------------------------

    def simulate(
        self, profile: WLProgramProfile, params: ProgramParams
    ) -> IsppResult:
        """Execute one WL program operation.

        Returns the latency per Eq. 1 -- the sum over executed loops of
        ``tPGM + k_i * tVFY`` -- along with reliability outcomes.
        """
        cache_key = (
            profile,
            params.v_start_mv,
            params.v_final_mv,
            params.dv_ispp_mv,
            params.verify_plan.start_loops,
        )
        cached = self._simulate_cache.get(cache_key)
        if cached is not None:
            # the key holds the profile and the plan's start loops, so a
            # hit passed the state-count check below when it was stored
            return cached
        if profile.n_states != params.verify_plan.n_states:
            raise ValueError("verify plan does not match profile states")
        effective = self.effective_profile(profile, params)
        max_loop = params.max_loop
        needed = effective.loops_needed
        executed = min(needed, max_loop)

        vfy_count = 0
        vfy_skipped = 0
        over_skips = []
        under_loops = []
        for s in range(1, effective.n_states + 1):
            interval = effective.interval(s)
            start = params.verify_plan.start_loops[s - 1]
            # the state is verified in loops [start, min(l_max, executed)]
            last = min(interval.l_max, executed)
            performed = max(0, last - start + 1)
            baseline = last  # PS-unaware: verified in loops 1..last
            vfy_count += performed
            vfy_skipped += baseline - performed
            # verifies skipped past the state's true l_min leave fast cells
            # pulsed while unverified -> over-program errors
            over_skips.append(max(0, start - interval.l_min))
            # loops the window could not supply -> under-program errors
            under_loops.append(max(0, interval.l_max - max_loop))

        penalty = window_squeeze_ber_multiplier(max(0, params.window_squeeze_mv))
        for over in over_skips:
            penalty *= 1.0 + self.over_skip_penalty * over
        for under in under_loops:
            penalty *= 1.0 + self.under_loop_penalty * under

        t_prog = executed * self.timing.t_pgm_us + vfy_count * self.timing.t_vfy_us
        result = IsppResult(
            t_prog_us=t_prog,
            executed_loops=executed,
            vfy_count=vfy_count,
            vfy_skipped=vfy_skipped,
            over_skips=tuple(over_skips),
            under_loops=tuple(under_loops),
            ber_penalty=penalty,
            monitored=effective,
        )
        self._simulate_cache[cache_key] = result
        return result

    # ------------------------------------------------------------------
    # closed-form helpers used by benchmarks and the OPM
    # ------------------------------------------------------------------

    def default_t_prog_us(self, slowdown: float = 0.0) -> float:
        """tPROG of a PS-unaware (leader) program on a layer."""
        profile = self.wl_profile(slowdown)
        return self.simulate(profile, ProgramParams.default(self.n_states)).t_prog_us

    def follower_params(
        self,
        monitored: WLProgramProfile,
        window_squeeze_mv: int = 0,
        start_fraction: float = 0.6,
        guard: int = 0,
        dv_ispp_mv: int = DV_ISPP_DEFAULT_MV,
    ) -> ProgramParams:
        """Build follower-WL parameters from a leader's monitored profile.

        ``window_squeeze_mv`` is the total (V_start, V_final) adjustment
        margin granted by the spare BER margin S_M (Section 4.1.2); it is
        split ``start_fraction`` : ``1 - start_fraction`` between raising
        V_start and lowering V_final, quantized to ISPP steps.  The verify
        plan is derived from the monitored profile *after* translating it
        into the tightened window, so skips stay aligned with the shifted
        completion loops.
        """
        if window_squeeze_mv < 0:
            raise ValueError("window_squeeze_mv must be >= 0")
        # called once per monitored h-layer, but the (profile, squeeze)
        # inputs repeat across h-layers: share the frozen result
        key = (monitored, window_squeeze_mv, start_fraction, guard, dv_ispp_mv)
        cached = self._follower_cache.get(key)
        if cached is not None:
            return cached
        start_mv = int(round(window_squeeze_mv * start_fraction / dv_ispp_mv)) * dv_ispp_mv
        final_mv = (
            int(round(window_squeeze_mv * (1.0 - start_fraction) / dv_ispp_mv))
            * dv_ispp_mv
        )
        params_window = ProgramParams(
            v_start_mv=V_START_DEFAULT_MV + start_mv,
            v_final_mv=V_FINAL_DEFAULT_MV - final_mv,
            dv_ispp_mv=dv_ispp_mv,
            verify_plan=VerifyPlan.default(monitored.n_states),
        )
        expected = self.effective_profile(monitored, params_window)
        params = ProgramParams(
            v_start_mv=params_window.v_start_mv,
            v_final_mv=params_window.v_final_mv,
            dv_ispp_mv=dv_ispp_mv,
            verify_plan=VerifyPlan.from_profile(expected, guard=guard),
        )
        self._follower_cache[key] = params
        return params


def require_valid_window(v_start_mv: int, v_final_mv: int, dv_ispp_mv: int) -> None:
    """Validate a program window, raising :class:`ProgramWindowError`."""
    if dv_ispp_mv <= 0:
        raise ProgramWindowError("dV_ISPP must be positive")
    if v_final_mv - v_start_mv < dv_ispp_mv:
        raise ProgramWindowError("window narrower than one ISPP step")


def t_prog_equation_1(
    timing: NandTiming, loop_vfy_counts: Sequence[int]
) -> float:
    """Direct evaluation of the paper's Eq. 1:
    ``tPROG = sum_i (tPGM + k_i * tVFY)``."""
    return sum(timing.t_pgm_us + k * timing.t_vfy_us for k in loop_vfy_counts)


def t_prog_equation_2(
    timing: NandTiming,
    phase_loops: Sequence[int],
    phase_vfys: Sequence[int],
) -> float:
    """Direct evaluation of the paper's Eq. 2:
    ``tPROG = sum_s L_s * (tPGM + V_s * tVFY)``."""
    if len(phase_loops) != len(phase_vfys):
        raise ValueError("phase_loops and phase_vfys must align")
    return sum(
        loops * (timing.t_pgm_us + vfys * timing.t_vfy_us)
        for loops, vfys in zip(phase_loops, phase_vfys)
    )
