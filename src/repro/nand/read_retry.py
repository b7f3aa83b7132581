"""Read-retry model: optimal read-reference-voltage offsets and retries.

Section 2.3 of the paper: when a read returns uncorrectable errors, the
controller retries with shifted read reference voltages
:math:`V^{Read}_{Ref(i)} + \\Delta V^{Read}_{Ref(i)}` until the page
decodes; ``tREAD`` grows linearly with the number of retries.

The model aggregates the per-threshold offset vector :math:`\\mathbb{D}`
into a single integer *offset level* in ``[0, MAX_OFFSET]``:

- each (block, h-layer, aging) has a **stable optimal offset** -- the
  retention-induced :math:`V_{th}` shift, which grows with P/E cycles,
  retention time and layer severity.  All WLs of an h-layer share it
  (intra-layer similarity), while different h-layers differ (Sec. 4.2:
  "each h-layer in a block has different D");
- each individual read adds a small **transient deviation** (temperature,
  read disturb), which is what occasionally invalidates a cached offset.

A PS-unaware controller starts every failed read sweep from the default
references (offset 0), paying ``optimal`` retries.  A PS-aware controller
starts from a cached per-h-layer hint, paying ``|optimal - hint|``.

Calibration targets (Section 6.1): with offset-0 starts, no reads retry in
the fresh state, ~30 % retry at 2 K P/E + 1 month and ~90 % at 2 K P/E +
1 year; the PS-aware scheme cuts mean NumRetry by ~66 % (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.nand.reliability import (
    AgingState,
    ReliabilityModel,
    hash_fold,
    hash_state,
    hash_unit,
    hash_unit_tail,
)

#: number of adjustable offset levels per direction (the paper's example
#: uses 7 representable offsets per threshold)
MAX_OFFSET = 7


@dataclass(frozen=True)
class ReadParams:
    """Operating parameters of one page read.

    ``offset_hint`` is the offset level used for the *first* sense.  The
    PS-unaware default is 0 (nominal references); a PS-aware controller
    passes the ORT entry of the target h-layer.
    """

    offset_hint: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.offset_hint <= MAX_OFFSET:
            raise ValueError(f"offset_hint must be in [0, {MAX_OFFSET}]")


#: the nominal (offset 0) read, shared by every read that passes no hint
NOMINAL_READ = ReadParams()


class ReadRetryModel:
    """Maps (location, aging, read instance) to required retry counts."""

    def __init__(
        self,
        reliability: ReliabilityModel,
        drift_sqrt_coeff: float = 0.5,
        drift_linear_coeff: float = 2.5,
        transient_prob: float = 0.25,
        fresh_pe_threshold: int = 100,
    ) -> None:
        self.reliability = reliability
        self.drift_sqrt_coeff = drift_sqrt_coeff
        self.drift_linear_coeff = drift_linear_coeff
        if not 0.0 <= transient_prob <= 1.0:
            raise ValueError("transient_prob must be in [0, 1]")
        self.transient_prob = transient_prob
        self.fresh_pe_threshold = fresh_pe_threshold
        # premixed (seed, 0x7EAD, chip_id) prefixes of the per-read
        # transient draw, one per chip seen
        self._transient_states: dict = {}

    def transient_state(self, chip_id: int) -> int:
        """Premixed ``(seed, 0x7EAD, chip_id)`` chain of the per-read
        transient draw; a chip's fast-path tables fold each h-layer's
        ``(block, layer)`` onto it."""
        state = self._transient_states.get(chip_id)
        if state is None:
            state = hash_state(self.reliability.seed, 0x7EAD, chip_id)
            self._transient_states[chip_id] = state
        return state

    # ------------------------------------------------------------------

    def _drift_continuous(self, severity: float, aging: AgingState) -> float:
        """Continuous V_th drift in offset-level units."""
        if aging.pe_cycles < self.fresh_pe_threshold and aging.ret_frac == 0.0:
            return 0.0
        ret = aging.ret_frac
        pe = min(aging.pe_frac, 1.5)
        ret_term = self.drift_sqrt_coeff * ret**0.45 + self.drift_linear_coeff * ret
        layer_factor = 0.2 + 1.7 * severity
        return pe**1.2 * ret_term * layer_factor

    def stable_optimal(
        self, chip_id: int, block: int, layer: int, aging: AgingState
    ) -> int:
        """Stable optimal offset level of an h-layer under an aging state.

        Identical for every WL of the h-layer; deterministic per die
        location (the rounding noise models per-layer idiosyncrasy).
        """
        severity = float(self.reliability._severity[layer])
        drift = self._drift_continuous(severity, aging)
        if drift == 0.0:
            return 0
        u = hash_unit(self.reliability.seed, 0x0FF5, chip_id, block, layer)
        return max(0, min(MAX_OFFSET, int(round(drift + (u - 0.5)))))

    def read_optimal(
        self, chip_id: int, block: int, layer: int, aging: AgingState, nonce: int
    ) -> int:
        """Optimal offset for one specific read: stable part + transient.

        ``nonce`` is a per-read counter; with probability
        ``transient_prob`` the read sees a +/-1 deviation (temperature or
        disturb transients).  The fresh state has no transients -- reads
        never retry on fresh blocks (Section 6.2).
        """
        stable = self.stable_optimal(chip_id, block, layer, aging)
        return self.transient_optimal(chip_id, block, layer, stable, aging, nonce)

    def transient_optimal(
        self,
        chip_id: int,
        block: int,
        layer: int,
        stable: int,
        aging: AgingState,
        nonce: int,
        prefix: Optional[int] = None,
    ) -> int:
        """Per-read transient step on top of a known ``stable`` offset.

        Split out of :meth:`read_optimal` so callers that already hold
        the (precomputed) stable offset of the h-layer skip re-deriving
        it per read; the fresh-state short-circuit is preserved exactly.
        ``prefix`` is the h-layer's premixed ``(block, layer)`` chain
        (:meth:`transient_state` folded with :func:`hash_fold`) when the
        caller holds it, so only ``nonce`` is folded per read; the draw
        is the same either way.
        """
        if stable == 0 and aging.pe_cycles < self.fresh_pe_threshold:
            return 0
        if prefix is None:
            prefix = hash_fold(self.transient_state(chip_id), block, layer)
        u = hash_unit_tail(prefix, nonce)
        if u < self.transient_prob / 2.0:
            return max(0, stable - 1)
        if u < self.transient_prob:
            return min(MAX_OFFSET, stable + 1)
        return stable

    @staticmethod
    def retries_needed(hint: int, optimal: int) -> int:
        """Number of retries to reach ``optimal`` when sensing starts at
        ``hint``.

        Retention shifts are directional, so the controller sweeps from
        the starting point toward the optimum; each step is one retry.
        """
        if not 0 <= hint <= MAX_OFFSET:
            raise ValueError("hint out of range")
        if not 0 <= optimal <= MAX_OFFSET:
            raise ValueError("optimal out of range")
        return abs(optimal - hint)
