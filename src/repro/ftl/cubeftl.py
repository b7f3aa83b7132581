"""cubeFTL: the paper's process-similarity-aware FTL (Section 5).

cubeFTL extends the page-mapping baseline with two modules:

- the **OPM** (Optimal Parameter Manager) monitors every h-layer's leader
  WL, derives verify-skip plans and (V_start, V_final) windows for the
  followers, runs the post-program safety check, and maintains the ORT of
  per-h-layer read offsets;
- the **WAM** (WL Allocation Manager) watches the write-buffer
  utilization and allocates fast follower WLs under write-bandwidth
  pressure while preserving them (using slow leaders) when the normal
  program speed suffices, over MOS-managed active blocks.

``wam_enabled=False`` gives the paper's **cubeFTL-** ablation: the OPM
still accelerates followers and reads, but WLs are consumed in plain
horizontal-first order with no workload awareness (Section 6.3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.opm import OptimalParameterManager
from repro.core.safety import SafetyVerdict
from repro.core.wam import Allocation, SequentialCursor, WLAllocationManager
from repro.ftl.base import BaseFTL
from repro.nand.chip import ProgramResult, ReadResult
from repro.nand.ispp import ProgramParams
from repro.nand.read_retry import NOMINAL_READ, ReadParams
from repro.ssd.config import SSDConfig


class CubeFTL(BaseFTL):
    """PS-aware FTL: OPM + WAM + mixed-order WL allocation."""

    name = "cubeFTL"

    def __init__(
        self,
        config: SSDConfig,
        controller,
        wam_enabled: bool = True,
        opm: OptimalParameterManager = None,
        enable_vfy_skip: bool = True,
        enable_window_adjust: bool = True,
        enable_ort: bool = True,
    ) -> None:
        super().__init__(config, controller)
        self.wam_enabled = wam_enabled
        if not wam_enabled:
            self.name = "cubeFTL-"
        self.opm = opm or OptimalParameterManager(
            controller.ispp,
            enable_vfy_skip=enable_vfy_skip,
            enable_window_adjust=enable_window_adjust,
        )
        self.enable_ort = enable_ort
        self.wam = WLAllocationManager(
            config.geometry.block,
            active_blocks_per_chip=config.active_blocks_per_chip,
            mu_threshold=config.mu_threshold,
        )
        # horizontal-first cursors for the WAM-disabled ablation
        self._seq_cursors: Dict[int, List[SequentialCursor]] = {
            chip: [] for chip in range(config.geometry.n_chips)
        }

    # ------------------------------------------------------------------
    # allocation policy
    # ------------------------------------------------------------------

    def install_block(self, chip_id: int, block: int) -> None:
        if self.wam_enabled:
            self.wam.install_block(chip_id, block)
        else:
            self._seq_cursors[chip_id].append(
                SequentialCursor(block, self.geometry.block)
            )

    def cursor_count(self, chip_id: int) -> int:
        if self.wam_enabled:
            return len(self.wam.cursors(chip_id))
        return len(self._seq_cursors[chip_id])

    def active_cursor_space(self, chip_id: int) -> int:
        if self.wam_enabled:
            return self.wam.free_wls(chip_id)
        return sum(cursor.free_wls() for cursor in self._seq_cursors[chip_id])

    def allocate_wl(self, chip_id: int) -> Allocation:
        if self.wam_enabled:
            allocation = self.wam.allocate(chip_id, self.buffer.utilization)
            if allocation is None:
                raise LookupError(f"chip {chip_id}: no active cursor space")
            return allocation
        cursors = self._seq_cursors[chip_id]
        for cursor in cursors:
            if not cursor.exhausted:
                allocation = cursor.take()
                if cursor.exhausted:
                    cursors.remove(cursor)
                return allocation
        raise LookupError(f"chip {chip_id}: no active cursor space")

    # ------------------------------------------------------------------
    # PS-aware program parameters
    # ------------------------------------------------------------------

    def program_params(
        self, chip_id: int, allocation: Allocation
    ) -> Tuple[ProgramParams, float]:
        layer = allocation.address.layer
        if self.opm.has_leader(chip_id, allocation.block, layer):
            params = self.opm.follower_params(chip_id, allocation.block, layer)
            return params, float(params.window_squeeze_mv)
        # no monitored parameters yet: program as a (monitoring) leader
        return ProgramParams.default(self.controller.ispp.n_states), 0.0

    def after_program(
        self,
        chip_id: int,
        allocation: Allocation,
        result: ProgramResult,
        squeeze_mv: float,
    ) -> bool:
        layer = allocation.address.layer
        if not self.opm.has_leader(chip_id, allocation.block, layer):
            self.opm.record_leader(chip_id, allocation.block, layer, result)
            return True
        verdict = self.opm.check_program(
            chip_id, allocation.block, layer, result, squeeze_mv
        )
        return verdict is SafetyVerdict.OK

    # ------------------------------------------------------------------
    # PS-aware reads
    # ------------------------------------------------------------------

    def read_params(self, chip_id: int, block: int, layer: int) -> ReadParams:
        if not self.enable_ort:
            return NOMINAL_READ
        return self.opm.read_params(chip_id, block, layer)

    def after_read(
        self, chip_id: int, block: int, layer: int, result: ReadResult
    ) -> None:
        if self.enable_ort:
            self.opm.note_read(chip_id, block, layer, result)

    def on_block_erased(self, chip_id: int, block: int) -> None:
        self.opm.invalidate_block(chip_id, block, self.geometry.block.n_layers)

    def discard_block(self, chip_id: int, block: int) -> None:
        super().discard_block(chip_id, block)
        if self.wam_enabled:
            self.wam.discard_block(chip_id, block)
        else:
            self._seq_cursors[chip_id] = [
                cursor
                for cursor in self._seq_cursors[chip_id]
                if cursor.block != block
            ]

    def on_uncorrectable(self, chip_id: int, block: int, layer: int) -> bool:
        if not self.enable_ort:
            return False
        return self.opm.invalidate_read_entry(chip_id, block, layer)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def variant_state_dict(self) -> dict:
        return {
            "wam": self.wam.state_dict(),
            "opm": self.opm.state_dict(),
            "seq_cursors": {
                chip_id: [cursor.state_dict() for cursor in cursors]
                for chip_id, cursors in self._seq_cursors.items()
            },
        }

    def load_variant_state(self, state: dict) -> None:
        self.wam.load_state_dict(state["wam"])
        self.opm.load_state_dict(state["opm"])
        self._seq_cursors = {
            chip_id: [
                SequentialCursor.from_state(cursor_state, self.geometry.block)
                for cursor_state in cursor_states
            ]
            for chip_id, cursor_states in state["seq_cursors"].items()
        }

    def _post_spor_reset(self) -> None:
        super()._post_spor_reset()
        self.wam.reset()
        self._seq_cursors = {
            chip: [] for chip in range(self.geometry.n_chips)
        }
        # monitored parameters and the ORT live in controller RAM: gone
        self.opm.reset_monitored()
