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

from typing import Tuple

from repro.core.opm import OptimalParameterManager
from repro.core.safety import SafetyVerdict
from repro.core.wam import Allocation, WLAllocationManager
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
        if wam_enabled:
            self.wam = self.allocator = WLAllocationManager(
                config.geometry.block, mu_threshold=config.mu_threshold
            )
        else:
            # the base FTL's horizontal-first allocator stays
            self.wam = None
            self.name = "cubeFTL-"
        self.opm = opm or OptimalParameterManager(
            controller.ispp,
            enable_vfy_skip=enable_vfy_skip,
            enable_window_adjust=enable_window_adjust,
        )
        self.enable_ort = enable_ort
        #: the (monitoring) leader program's parameters: immutable, so
        #: fetched once
        self._leader_params = ProgramParams.default(controller.ispp.n_states)

    # ------------------------------------------------------------------
    # PS-aware program parameters
    # ------------------------------------------------------------------

    def program_params(
        self, chip_id: int, allocation: Allocation
    ) -> Tuple[ProgramParams, float]:
        opm = self.opm
        block = allocation.block
        layer = allocation.address.layer
        if opm.has_leader(chip_id, block, layer):
            params = opm.follower_params(chip_id, block, layer)
            return params, float(params.window_squeeze_mv)
        # no monitored parameters yet: program as a (monitoring) leader
        return self._leader_params, 0.0

    def after_program(
        self,
        chip_id: int,
        allocation: Allocation,
        result: ProgramResult,
        squeeze_mv: float,
    ) -> bool:
        opm = self.opm
        block = allocation.block
        layer = allocation.address.layer
        if not opm.has_leader(chip_id, block, layer):
            opm.record_leader(chip_id, block, layer, result)
            return True
        verdict = opm.check_program(chip_id, block, layer, result, squeeze_mv)
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

    def on_uncorrectable(self, chip_id: int, block: int, layer: int) -> bool:
        if not self.enable_ort:
            return False
        return self.opm.invalidate_read_entry(chip_id, block, layer)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def variant_state_dict(self) -> dict:
        return {"opm": self.opm.state_dict()}

    def load_variant_state(self, state: dict) -> None:
        self.opm.load_state_dict(state["opm"])

    def _post_spor_reset(self) -> None:
        super()._post_spor_reset()
        # monitored parameters and the ORT live in controller RAM: gone
        self.opm.reset_monitored()
