"""Optimal Parameter Manager (OPM) -- Section 5.1.

The OPM is the module of cubeFTL that makes program and read operations
finish faster by exploiting the intra-layer process similarity:

- when a *leader* WL (the first WL programmed on an h-layer) completes,
  the OPM records the monitored per-state loop intervals and the E<->P1
  BER, converts the latter into the spare margin S_M and a window
  adjustment, and keeps everything until the h-layer's followers are
  written;
- when a *follower* WL is about to be programmed, the OPM hands the FTL
  a :class:`~repro.nand.ispp.ProgramParams` with the verify-skip plan and
  the tightened (V_start, V_final) window;
- after every program it runs the Section 4.1.4 safety check;
- for reads it maintains the ORT and supplies per-h-layer offset hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.maxloop import (
    DEFAULT_BER_EP1_MAX,
    DEFAULT_MARGIN_TABLE,
    MarginTable,
    spare_margin,
)
from repro.core.ort import OptimalReadTable
from repro.core.safety import SafetyChecker, SafetyVerdict
from repro.nand.chip import ProgramResult, ReadResult
from repro.nand.ispp import IsppEngine, ProgramParams, WLProgramProfile
from repro.nand.read_retry import MAX_OFFSET, ReadParams

#: device-memory cost of one leader observation: 7 states x [L_min, L_max]
#: in nibbles (7 bytes), plus quantized margin (2 bytes) and the safety
#: reference (4 bytes) -- rounded up to 16 bytes
LEADER_OBSERVATION_BYTES = 16


@dataclass(frozen=True)
class LeaderObservation:
    """Everything monitored from a leader-WL program."""

    monitored: WLProgramProfile
    ber_ep1: float
    s_m: float
    margin_mv: float
    #: squeeze-normalized post-program BER, the h-layer's safety reference
    reference_ber: float


class OptimalParameterManager:
    """Per-h-layer parameter monitoring, reuse, and safety checking."""

    def __init__(
        self,
        ispp: IsppEngine,
        margin_table: MarginTable = DEFAULT_MARGIN_TABLE,
        ber_ep1_max: float = DEFAULT_BER_EP1_MAX,
        safety: SafetyChecker = SafetyChecker(),
        ort: Optional[OptimalReadTable] = None,
        guard: int = 0,
        enable_window_adjust: bool = True,
        enable_vfy_skip: bool = True,
    ) -> None:
        self.ispp = ispp
        self.margin_table = margin_table
        self.ber_ep1_max = ber_ep1_max
        self.safety = safety
        self.ort = ort if ort is not None else OptimalReadTable()
        self.guard = guard
        self.enable_window_adjust = enable_window_adjust
        self.enable_vfy_skip = enable_vfy_skip
        self._leaders: Dict[Tuple[int, int, int], LeaderObservation] = {}
        self._params_cache: Dict[Tuple[int, int, int], ProgramParams] = {}
        # ReadParams is immutable: every read shares the one per offset
        self._read_params = tuple(
            ReadParams(offset_hint=offset) for offset in range(MAX_OFFSET + 1)
        )
        # running counters for evaluation
        self.reprogram_count = 0
        self.follower_program_count = 0
        self.leader_program_count = 0

    # ------------------------------------------------------------------
    # program-side
    # ------------------------------------------------------------------

    def has_leader(self, chip_id: int, block: int, layer: int) -> bool:
        return (chip_id, block, layer) in self._leaders

    def leader_observation(
        self, chip_id: int, block: int, layer: int
    ) -> LeaderObservation:
        return self._leaders[(chip_id, block, layer)]

    def record_leader(
        self, chip_id: int, block: int, layer: int, result: ProgramResult
    ) -> LeaderObservation:
        """Store the parameters monitored from a leader-WL program."""
        s_m = spare_margin(result.ber_ep1, self.ber_ep1_max)
        margin = self.margin_table.margin_mv(s_m) if self.enable_window_adjust else 0.0
        observation = LeaderObservation(
            monitored=result.monitored,
            ber_ep1=result.ber_ep1,
            s_m=s_m,
            margin_mv=margin,
            reference_ber=result.post_program_ber,
        )
        self._leaders[(chip_id, block, layer)] = observation
        self._params_cache.pop((chip_id, block, layer), None)
        self.leader_program_count += 1
        return observation

    def follower_params(self, chip_id: int, block: int, layer: int) -> ProgramParams:
        """Program parameters for a follower WL of a monitored h-layer."""
        key = (chip_id, block, layer)
        observation = self._leaders[key]
        self.follower_program_count += 1
        cached = self._params_cache.get(key)
        if cached is not None:
            return cached
        squeeze = int(round(observation.margin_mv))
        params = self.ispp.follower_params(
            observation.monitored,
            window_squeeze_mv=squeeze,
            start_fraction=self.margin_table.start_fraction,
            guard=self.guard,
        )
        if not self.enable_vfy_skip:
            params = ProgramParams(
                v_start_mv=params.v_start_mv,
                v_final_mv=params.v_final_mv,
                dv_ispp_mv=params.dv_ispp_mv,
            )
        self._params_cache[key] = params
        return params

    def check_program(
        self,
        chip_id: int,
        block: int,
        layer: int,
        result: ProgramResult,
        window_squeeze_mv: float,
    ) -> SafetyVerdict:
        """Section 4.1.4 safety check on a just-completed WL program.

        Compares the measured post-program BER against the h-layer's
        stored reference (squeeze-normalized).  On OK the reference is
        refreshed; on REPROGRAM the caller must re-write the data on
        another WL and re-monitor.
        """
        key = (chip_id, block, layer)
        observation = self._leaders.get(key)
        if observation is None:
            return SafetyVerdict.OK
        verdict = self.safety.check(
            observation.reference_ber, result.post_program_ber, window_squeeze_mv
        )
        if verdict is SafetyVerdict.REPROGRAM:
            self.reprogram_count += 1
            # stale parameters must not be reused
            del self._leaders[key]
            self._params_cache.pop(key, None)
        return verdict

    @property
    def ort_hit_rate(self) -> float:
        """Fraction of read-offset lookups served by a learned entry
        (the Fig. 14 signal, exposed for the metrics timeline)."""
        return self.ort.hit_rate

    def memory_bytes(self) -> int:
        """Controller-memory footprint of the monitored state.

        Section 5.2 notes the memory/flexibility trade-off of keeping
        more active blocks: each active block can hold one observation
        per h-layer awaiting its followers, plus the ORT entries.
        """
        from repro.core.ort import BYTES_PER_ENTRY

        return (
            len(self._leaders) * LEADER_OBSERVATION_BYTES
            + len(self.ort) * BYTES_PER_ENTRY
        )

    def invalidate_block(self, chip_id: int, block: int, n_layers: int) -> None:
        """Forget a block's monitored parameters and ORT entries (erase)."""
        for layer in range(n_layers):
            self._leaders.pop((chip_id, block, layer), None)
            self._params_cache.pop((chip_id, block, layer), None)
        self.ort.invalidate_block(chip_id, block, n_layers)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable monitored state.

        ``_params_cache`` is a pure derivation of the leader observations
        and is rebuilt on demand, so it is not serialized (and must be
        cleared on load).  Observations are frozen dataclasses, so a
        shallow dict copy suffices.
        """
        return {
            "leaders": dict(self._leaders),
            "ort": self.ort.state_dict(),
            "reprogram_count": self.reprogram_count,
            "follower_program_count": self.follower_program_count,
            "leader_program_count": self.leader_program_count,
        }

    def load_state_dict(self, state: dict) -> None:
        self._leaders = dict(state["leaders"])
        self._params_cache = {}
        self.ort.load_state_dict(state["ort"])
        self.reprogram_count = state["reprogram_count"]
        self.follower_program_count = state["follower_program_count"]
        self.leader_program_count = state["leader_program_count"]

    def reset_monitored(self) -> None:
        """Drop every monitored observation and cached parameter (SPOR:
        the OPM state lives in controller RAM and does not survive a
        power cut; the ORT is dropped too and relearns from reads)."""
        self._leaders = {}
        self._params_cache = {}
        self.ort._entries = {}

    # ------------------------------------------------------------------
    # read-side
    # ------------------------------------------------------------------

    def read_params(self, chip_id: int, block: int, layer: int) -> ReadParams:
        """Offset hint for a read, from the ORT (Section 4.2)."""
        hint = self.ort.get(chip_id, block, layer)
        if 0 <= hint <= MAX_OFFSET:
            return self._read_params[hint]
        return ReadParams(offset_hint=hint)  # raises: out of range

    def invalidate_read_entry(self, chip_id: int, block: int, layer: int) -> bool:
        """Drop one h-layer's ORT entry after its offset hint failed to
        decode a read (graceful ORT degradation: the next read of the
        h-layer starts from the paper-default references and relearns).
        Returns whether an entry existed."""
        return self.ort.invalidate_entry(chip_id, block, layer)

    def note_read(
        self, chip_id: int, block: int, layer: int, result: ReadResult
    ) -> None:
        """Feed a completed read back into the ORT.

        The ORT always tracks the most recent offsets that decoded
        successfully -- both after retries (learning) and after clean
        reads (keeping the entry fresh)."""
        self.ort.update(chip_id, block, layer, result.final_offset)
