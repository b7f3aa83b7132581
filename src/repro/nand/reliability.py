"""Process-variability and aging model of the 3D NAND chip.

This module encodes, as a deterministic parametric surface, the empirical
findings of the paper's Section 3 characterization study:

**Intra-layer similarity (Sec. 3.2).**  WLs on the same h-layer of a block
are *virtually equivalent*: their retention-BER ratio :math:`\\Delta H` is
1 up to RTN-scale noise (< 3 %, footnote 2 of the paper), for every aging
condition.  The model realizes this by computing all per-WL quantities from
the (block, h-layer) pair and adding only a small deterministic
pseudo-random RTN term per WL.

**Inter-layer variability (Sec. 3.3).**  Layer-to-layer BER differences are
large and grow nonlinearly with aging: :math:`\\Delta V` is about 1.6 for a
fresh block and about 2.3 after 2 K P/E cycles and 1 year of retention,
with the less reliable layers (the block edges ``alpha``/``omega`` and the
near-bottom worst layer ``kappa``) degrading *faster* than the most
reliable layer ``beta``.  Per-block differences add a further ~18 % spread
in :math:`\\Delta V` (Fig. 6(d)).

The absolute BER scale is arbitrary (the paper normalizes all BER plots);
it is calibrated so that end-of-life worst-case raw BER stays within reach
of a typical LDPC/BCH correction strength (see :mod:`repro.nand.ecc`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nand.geometry import BlockGeometry

#: rated endurance used to normalize P/E cycles (the paper's "end of
#: lifetime" condition is 2 K P/E cycles).
RATED_PE_CYCLES = 2000

#: rated retention window in months (the paper sweeps 0..12 months).
RATED_RETENTION_MONTHS = 12.0


@dataclass(frozen=True)
class AgingState:
    """NAND aging condition: accumulated P/E cycles and retention time."""

    pe_cycles: int = 0
    retention_months: float = 0.0

    def __post_init__(self) -> None:
        if self.pe_cycles < 0:
            raise ValueError("pe_cycles must be >= 0")
        if self.retention_months < 0:
            raise ValueError("retention_months must be >= 0")

    @property
    def pe_frac(self) -> float:
        """P/E cycles as a fraction of rated endurance."""
        return self.pe_cycles / RATED_PE_CYCLES

    @property
    def ret_frac(self) -> float:
        """Retention time as a fraction of the rated window."""
        return self.retention_months / RATED_RETENTION_MONTHS


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (deterministic hash)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def hash_unit(seed: int, *keys: int) -> float:
    """Deterministic hash of integer keys to a float in ``[0, 1)``.

    Used everywhere the device model needs "random-looking" but perfectly
    reproducible per-location variation (block factors, RTN noise, read
    jitter).  The :func:`_splitmix64` rounds are inlined: this is the
    hottest scalar on the device-model path and the per-key call
    overhead dominated its cost.
    """
    x = ((seed & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    h = x ^ (x >> 31)
    for key in keys:
        x = ((h ^ (key & 0xFFFFFFFFFFFFFFFF)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = x ^ (x >> 31)
    return h / 2.0**64


def hash_state(seed: int, *keys: int) -> int:
    """Premixed :func:`hash_unit` chain state after folding ``keys``.

    ``hash_unit_tail(hash_state(seed, *p), *q)`` is bitwise identical to
    ``hash_unit(seed, *p, *q)`` -- callers with a constant key prefix
    (e.g. a chip's ``(tag, chip_id)``) premix it once instead of
    re-folding it on every operation.
    """
    return hash_fold(_splitmix64(seed & 0xFFFFFFFFFFFFFFFF), *keys)


def hash_fold(state: int, *keys: int) -> int:
    """Continue a premixed :func:`hash_state` chain over ``keys``.

    ``hash_unit_tail(hash_fold(s, *p), *q)`` is bitwise identical to
    ``hash_unit_tail(s, *p, *q)``: the fold is the same splitmix round
    per key, stopped before the final division.  A caller premixes a
    location prefix once (an h-layer's, a WL's) and folds only the
    per-operation keys after it.
    """
    h = state
    for key in keys:
        h = _splitmix64(h ^ (key & 0xFFFFFFFFFFFFFFFF))
    return h


def hash_unit_tail(state: int, *keys: int) -> float:
    """Continue a premixed :func:`hash_state` chain to a unit float."""
    h = state
    for key in keys:
        x = ((h ^ (key & 0xFFFFFFFFFFFFFFFF)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = x ^ (x >> 31)
    return h / 2.0**64


@dataclass(frozen=True)
class BlockFactor:
    """Per-block process factors (die-location effects, Fig. 6(d)).

    ``scale`` multiplies the whole BER surface of the block; ``spread``
    exponentiates the layer profile, widening or narrowing the block's
    inter-layer variability (so two blocks can differ in
    :math:`\\Delta V` by ~18 % as in the paper).
    """

    scale: float
    spread: float


class ReliabilityModel:
    """Deterministic BER surface over (block, h-layer, WL, aging).

    Parameters
    ----------
    geometry:
        Block shape (number of h-layers and WLs per layer).
    seed:
        Chip-level seed; two model instances with the same seed are
        identical, different seeds give different (but statistically
        equivalent) chips.
    ber_fresh_best:
        Absolute raw BER of the most reliable h-layer of a nominal block
        in the fresh state.
    delta_v_fresh / delta_v_aged:
        Calibration targets for the inter-layer variability ratio
        :math:`\\Delta V` in the fresh state and at rated end of life
        (2 K P/E + 12 months).  Paper values: 1.6 and 2.3.
    rtn_noise:
        Half-width of the multiplicative RTN-scale noise applied per WL.
        The paper bounds intra-layer differences by < 3 %, i.e. the
        max/min ratio stays below ``(1 + rtn) / (1 - rtn)``.
    block_scale_sigma / block_spread_halfwidth:
        Magnitude of per-block factors.
    """

    def __init__(
        self,
        geometry: BlockGeometry = BlockGeometry(),
        seed: int = 0,
        ber_fresh_best: float = 2.0e-5,
        delta_v_fresh: float = 1.6,
        delta_v_aged: float = 2.3,
        rtn_noise: float = 0.012,
        pe_growth: float = 8.0,
        retention_growth: float = 20.0,
        block_scale_sigma: float = 0.05,
        block_spread_halfwidth: float = 0.22,
        ep1_fraction: float = 0.30,
    ) -> None:
        if delta_v_fresh <= 1.0:
            raise ValueError("delta_v_fresh must exceed 1")
        if delta_v_aged < delta_v_fresh:
            raise ValueError("delta_v_aged must be >= delta_v_fresh")
        if not 0 <= rtn_noise < 0.03:
            raise ValueError("rtn_noise must be in [0, 0.03)")
        self.geometry = geometry
        self.seed = seed
        self.ber_fresh_best = ber_fresh_best
        self.delta_v_fresh = delta_v_fresh
        self.delta_v_aged = delta_v_aged
        self.rtn_noise = rtn_noise
        self.pe_growth = pe_growth
        self.retention_growth = retention_growth
        self.block_scale_sigma = block_scale_sigma
        self.block_spread_halfwidth = block_spread_halfwidth
        self.ep1_fraction = ep1_fraction
        # Extra end-of-life acceleration of the *worst* layer needed to move
        # Delta-V from its fresh value to its aged value.
        self._aging_coupling = delta_v_aged / delta_v_fresh - 1.0
        self._profile = self._build_layer_profile(geometry.n_layers)
        self._severity = (self._profile - self._profile.min()) / (
            self._profile.max() - self._profile.min()
        )
        # hot-path memoization (all keys are deterministic)
        self._block_cache: dict = {}
        self._layer_mult_cache: dict = {}
        self._aging_cache: dict = {}
        self._slowdown_cache: dict = {}
        self._layer_ber_cache: dict = {}

    # ------------------------------------------------------------------
    # layer profile
    # ------------------------------------------------------------------

    def _build_layer_profile(self, n_layers: int) -> np.ndarray:
        """Fresh per-layer BER multipliers, normalized to [1, delta_v_fresh].

        The shape follows the etching physics described in Section 2.1 and
        the measurements of Fig. 6(a):

        - the channel-hole diameter shrinks toward the bottom of the stack
          (high aspect-ratio etching), degrading lower layers;
        - both block edges (the topmost layer ``alpha`` and the bottom
          layer ``omega``) are additionally degraded by edge effects;
        - the worst interior layer ``kappa`` sits near (but not at) the
          bottom; the best layer ``beta`` sits in the upper-middle region.
        """
        idx = np.arange(n_layers, dtype=float)
        frac = idx / max(n_layers - 1, 1)
        # degradation toward the bottom of the stack (narrowing channel
        # hole); the very last layers relax slightly toward the substrate,
        # so the worst interior layer (kappa) sits *near* the bottom
        bottom = 1.6 * frac**2.2 * (1.0 - 0.6 * np.exp(-(n_layers - 1 - idx) / 2.5))
        # edge elevation at the very top and very bottom of the block
        edge = 0.9 * np.exp(-idx / 1.2) + 0.35 * np.exp(-(n_layers - 1 - idx) / 1.2)
        # mild mid-stack ripple from etchant fluid dynamics
        ripple = 0.06 * np.sin(frac * math.pi * 3.0)
        raw = 1.0 + bottom + edge + ripple
        # normalize so min -> 1 and max -> delta_v_fresh
        raw = (raw - raw.min()) / (raw.max() - raw.min())
        return 1.0 + raw * (self.delta_v_fresh - 1.0)

    @property
    def layer_profile(self) -> np.ndarray:
        """Fresh BER multiplier per h-layer (copy)."""
        return self._profile.copy()

    @property
    def layer_severity(self) -> np.ndarray:
        """Severity in [0, 1] per h-layer (0 = best layer, 1 = worst)."""
        return self._severity.copy()

    # Representative layers used throughout the paper's figures.
    @property
    def layer_alpha(self) -> int:
        """Top-edge layer (h-layer_alpha of Fig. 6(a))."""
        return 0

    @property
    def layer_omega(self) -> int:
        """Bottom-edge layer (h-layer_omega)."""
        return self.geometry.n_layers - 1

    @property
    def layer_beta(self) -> int:
        """Most reliable layer (h-layer_beta)."""
        return int(np.argmin(self._profile))

    @property
    def layer_kappa(self) -> int:
        """Worst layer (h-layer_kappa)."""
        return int(np.argmax(self._profile))

    # ------------------------------------------------------------------
    # per-block factors
    # ------------------------------------------------------------------

    def block_factor(self, chip_id: int, block: int) -> BlockFactor:
        """Deterministic per-block process factor for a die location."""
        key = (chip_id, block)
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        u_scale = hash_unit(self.seed, 0xB10C, chip_id, block, 1)
        u_spread = hash_unit(self.seed, 0xB10C, chip_id, block, 2)
        # triangular-ish symmetric noise around 1.0 for the scale
        scale = math.exp(self.block_scale_sigma * (2.0 * u_scale - 1.0))
        spread = 1.0 + self.block_spread_halfwidth * (2.0 * u_spread - 1.0)
        factor = BlockFactor(scale=scale, spread=spread)
        self._block_cache[key] = factor
        return factor

    def _layer_multipliers(self, chip_id: int, block: int) -> np.ndarray:
        """Per-layer fresh BER multipliers of one block (cached)."""
        key = (chip_id, block)
        cached = self._layer_mult_cache.get(key)
        if cached is None:
            factor = self.block_factor(chip_id, block)
            cached = factor.scale * self._profile**factor.spread
            self._layer_mult_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # aging dynamics
    # ------------------------------------------------------------------

    def _aging_growth(self, aging: AgingState) -> float:
        """Layer-independent BER growth with P/E cycling and retention."""
        key = (aging.pe_cycles, aging.retention_months)
        cached = self._aging_cache.get(key)
        if cached is not None:
            return cached
        pe = aging.pe_frac
        ret = aging.ret_frac
        cycling = self.pe_growth * pe**1.3
        # retention loss accelerates with wear (charge-trap early loss is
        # steeper on cycled cells)
        retention = self.retention_growth * math.sqrt(ret) * (0.3 + pe)
        growth = 1.0 + cycling + retention
        self._aging_cache[key] = growth
        return growth

    def _layer_aging_accel(self, severity: float, aging: AgingState) -> float:
        """Extra growth applied to bad layers as the block ages.

        This produces the *nonlinear dynamic behaviour* of Fig. 6(c): near
        end of life with long retention, kappa/alpha/omega pull away from
        beta, raising Delta-V from 1.6 to about 2.3.
        """
        stress = aging.pe_frac * math.sqrt(aging.ret_frac)
        return 1.0 + self._aging_coupling * severity * min(stress, 1.0)

    # ------------------------------------------------------------------
    # BER queries
    # ------------------------------------------------------------------

    def layer_ber(self, chip_id: int, block: int, layer: int, aging: AgingState) -> float:
        """Raw retention BER of h-layer ``layer`` (leading-WL value)."""
        key = (chip_id, block, layer, aging.pe_cycles, aging.retention_months)
        cached = self._layer_ber_cache.get(key)
        if cached is not None:
            return cached
        self.geometry.check_wl(layer, 0)
        severity = self._severity[layer]
        ber = (
            self.ber_fresh_best
            * float(self._layer_multipliers(chip_id, block)[layer])
            * self._aging_growth(aging)
            * self._layer_aging_accel(severity, aging)
        )
        self._layer_ber_cache[key] = ber
        return ber

    def rtn_factor(self, chip_id: int, block: int, layer: int, wl: int, aging: AgingState) -> float:
        """Multiplicative RTN-scale noise term for one WL (close to 1)."""
        pe_bucket = aging.pe_cycles // 100
        ret_bucket = int(aging.retention_months * 10)
        u = hash_unit(self.seed, 0x57A7, chip_id, block, layer, wl, pe_bucket, ret_bucket)
        return 1.0 + self.rtn_noise * (2.0 * u - 1.0)

    def wl_ber(
        self, chip_id: int, block: int, layer: int, wl: int, aging: AgingState
    ) -> float:
        """Raw retention BER of one WL.

        By construction this equals :meth:`layer_ber` up to the RTN term,
        realizing the paper's intra-layer similarity finding.
        """
        self.geometry.check_wl(layer, wl)
        return self.layer_ber(chip_id, block, layer, aging) * self.rtn_factor(
            chip_id, block, layer, wl, aging
        )

    def n_ret(
        self, chip_id: int, block: int, layer: int, wl: int, aging: AgingState
    ) -> int:
        """Number of retention bit errors on a WL: N_ret(w_ij, x, t).

        This is the reliability measure of Section 3.1 -- the expected
        number of raw bit errors across the WL's cells after the given
        aging condition.
        """
        bits = self.geometry.pages_per_wl * self.geometry.page_size_bytes * 8
        return int(round(self.wl_ber(chip_id, block, layer, wl, aging) * bits))

    def ber_ep1(
        self, chip_id: int, block: int, layer: int, wl: int, aging: AgingState
    ) -> float:
        """BER component between the erase state and the P1 state.

        The paper (Section 4.1.2, footnote 1) uses the E<->P1 error count as
        an accurate predictor of overall NAND health; here it is a fixed
        fraction of the WL BER plus a small measurement-noise term.
        """
        base = self.wl_ber(chip_id, block, layer, wl, aging)
        u = hash_unit(self.seed, 0xE1B1, chip_id, block, layer, wl)
        noise = 1.0 + 0.05 * (2.0 * u - 1.0)
        return self.ep1_fraction * base * noise

    # ------------------------------------------------------------------
    # derived per-layer quantities used by other device-model components
    # ------------------------------------------------------------------

    def program_slowdown(self, chip_id: int, block: int, layer: int) -> float:
        """Relative cell program-speed handicap of an h-layer in [0, 1].

        Worse (higher-severity) layers have slower cells, so their states
        need extra ISPP loops; the ISPP engine converts this to integer
        loop offsets.  Identical for all WLs of the h-layer.
        """
        key = (chip_id, block, layer)
        cached = self._slowdown_cache.get(key)
        if cached is not None:
            return cached
        factor = self.block_factor(chip_id, block)
        severity = float(self._severity[layer])
        jitter = hash_unit(self.seed, 0x510, chip_id, block, layer)
        slowdown = min(1.0, severity * (0.8 + 0.4 * jitter) * factor.spread)
        self._slowdown_cache[key] = slowdown
        return slowdown

    def spare_margin(
        self, chip_id: int, block: int, layer: int, wl: int, aging: AgingState,
        ber_ep1_max: float,
    ) -> float:
        """Spare BER margin S_M = BER_EP1^Max - BER_EP1 (Section 4.1.2),
        normalized by BER_EP1^Max so it lies in (-inf, 1]."""
        measured = self.ber_ep1(chip_id, block, layer, wl, aging)
        return (ber_ep1_max - measured) / ber_ep1_max
