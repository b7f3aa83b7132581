"""Precomputed per-h-layer reliability tables, read by every chip operation.

The paper's central observation is that NAND behaviour is a function of a
*small discrete state*: h-layer group, aging epoch (P/E cycles plus
retention), and the per-WL RTN term drawn from a fixed per-location hash.
Evaluating the scalar device model in :mod:`repro.nand.reliability` per
page operation would recompute values drawn from a tiny domain millions
of times per run.  This module materializes that domain into lookup
tables once per (block, erase epoch), and :class:`~repro.nand.chip.NandChip`
serves every program and read from them:

- ``wl_ber[layer, wl]`` -- raw retention BER under the block's effective
  aging (the read path and the E<->P1 health base);
- ``wl_ber_fresh[layer, wl]`` -- BER under the zero-retention,
  current-P/E state (the immediate post-program read-back);
- ``ep1[layer, wl]`` -- the E<->P1 health indicator under block aging;
- ``stable_opt[layer]`` -- the stable optimal read-offset level shared
  by every WL of the h-layer;
- ``aging`` -- the block's effective aging state itself (the read
  path's transient draw reads its P/E count);
- ``read_prefix[layer]``, ``env_prefix[wl_index]`` and
  ``noise_prefix`` -- the premixed location prefixes of the per-read
  transient draw and of the two per-program draws (environment shift,
  program noise), so each operation folds only its nonce.

Tables are built lazily on first access, one live entry per block.  An
erase (which moves the block to the next aging epoch) drops that
block's entry; baseline-aging changes and checkpoint restores clear the
whole cache.

Bitwise identity with the scalar model is a hard contract: the hash is a
vectorized transliteration of :func:`repro.nand.reliability.hash_unit`
over ``uint64`` lanes, and every floating-point expression preserves the
scalar evaluation order, so table reads reproduce the scalar results
bit for bit.  The scalar model stays the reference: characterization
and oracleFTL evaluate it directly, and ``tests/nand/test_tables.py``
compares the tables and the chip's program and read results with it
over the whole (h-layer x WL x aging-epoch) domain.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nand.read_retry import MAX_OFFSET
from repro.nand.reliability import AgingState, _splitmix64, hash_fold, hash_state

_MASK = 0xFFFFFFFFFFFFFFFF
_ADD = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_TWO64 = 2.0**64


def _mix(x: np.ndarray) -> np.ndarray:
    """One splitmix64 round over uint64 lanes (wrapping arithmetic)."""
    x = x + _ADD
    x = (x ^ (x >> _S30)) * _MUL1
    x = (x ^ (x >> _S27)) * _MUL2
    return x ^ (x >> _S31)


def hash_fold_array(state: int, *keys):
    """Vectorized :func:`repro.nand.reliability.hash_fold`.

    ``keys`` are non-negative ints or uint64 arrays (broadcast
    together).  uint64 array arithmetic wraps exactly like the masked
    Python-int arithmetic of the scalar version, so every lane is the
    scalar chain state of the same keys.  The prefix of scalar keys is
    mixed with Python ints: numpy emits overflow warnings for *scalar*
    uint64 arithmetic (arrays wrap silently), and the scalar mixer is
    the ground truth anyway.  With no array key the result is the
    Python int :func:`~repro.nand.reliability.hash_fold` returns.
    """
    h = state
    split = len(keys)
    for index, key in enumerate(keys):
        if isinstance(key, np.ndarray):
            split = index
            break
        h = _splitmix64(h ^ (int(key) & _MASK))
    if split == len(keys):
        return h
    hv = np.uint64(h)
    for key in keys[split:]:
        if isinstance(key, np.ndarray):
            hv = _mix(hv ^ key.astype(np.uint64, copy=False))
        else:
            hv = _mix(hv ^ np.uint64(int(key) & _MASK))
    return hv


def hash_unit_array(seed: int, *keys) -> np.ndarray:
    """Vectorized :func:`repro.nand.reliability.hash_unit`.

    The chain is :func:`hash_fold_array` from the seed's state, and the
    final ``h / 2**64`` performs the same float64 rounding as the
    scalar, so every lane is bitwise identical to the scalar hash of
    the same keys.
    """
    h = hash_fold_array(_splitmix64(seed & _MASK), *keys)
    if isinstance(h, int):
        return np.float64(h / 2.0**64)
    return h / _TWO64


class BlockTables:
    """One block's precomputed surfaces for one erase epoch.

    The surfaces are built vectorized but stored as nested Python lists
    (``[layer][wl]``): the consumers read single scalars, where list
    indexing returns a ready Python float several times faster than
    numpy scalar extraction.  ``ndarray.tolist`` preserves every float64
    bit pattern, so the identity contract is unaffected.
    """

    __slots__ = (
        "wl_ber",
        "wl_ber_fresh",
        "ep1",
        "stable_opt",
        "aging",
        "read_prefix",
        "env_prefix",
        "noise_prefix",
    )

    def __init__(
        self,
        wl_ber: List[List[float]],
        wl_ber_fresh: List[List[float]],
        ep1: List[List[float]],
        stable_opt: List[int],
        aging: AgingState,
        read_prefix: List[int],
        env_prefix: List[int],
        noise_prefix: int,
    ) -> None:
        self.wl_ber = wl_ber
        self.wl_ber_fresh = wl_ber_fresh
        self.ep1 = ep1
        self.stable_opt = stable_opt
        #: the block's effective aging state the tables were built for
        self.aging = aging
        #: premixed (seed, 0x7EAD, chip_id, block, layer) chain of the
        #: per-read transient draw, per h-layer
        self.read_prefix = read_prefix
        #: premixed (seed, 0xE47, chip_id, block, layer, wl) chain of
        #: the per-program environment-shift draw, by WL index
        self.env_prefix = env_prefix
        #: premixed (seed, 0x9619, chip_id, block) chain of the
        #: per-program noise draw
        self.noise_prefix = noise_prefix


class FastPathTables:
    """Lazily built per-(block, erase-epoch) lookup tables of one chip.

    Holds a back-reference to the owning chip and derives everything
    from its reliability / retry models, so a table read is exactly the
    scalar model evaluated once and memoized in array form.
    """

    __slots__ = (
        "_chip", "_layer_keys", "_wl_keys", "_env_state", "_noise_state",
        "_cache",
    )

    def __init__(self, chip) -> None:
        self._chip = chip
        geometry = chip.geometry
        self._layer_keys = np.arange(geometry.n_layers, dtype=np.uint64)[:, None]
        self._wl_keys = np.arange(geometry.wls_per_layer, dtype=np.uint64)[None, :]
        # premixed (seed, tag, chip_id) chains of the two per-program
        # draws (environment shift, program noise); each block's tables
        # fold its location keys onto them
        seed = chip.reliability.seed
        self._env_state = hash_state(seed, 0xE47, chip.chip_id)
        self._noise_state = hash_state(seed, 0x9619, chip.chip_id)
        #: block -> tables for the block's current erase epoch
        self._cache: Dict[int, BlockTables] = {}

    def invalidate(self) -> None:
        """Drop every table (baseline-aging change, checkpoint restore)."""
        self._cache.clear()

    def invalidate_block(self, block: int) -> None:
        """Drop one block's tables (called by the chip on erase)."""
        self._cache.pop(block, None)

    def block(self, block: int) -> BlockTables:
        """Tables of ``block`` for its current erase epoch."""
        tables = self._cache.get(block)
        if tables is None:
            tables = self._build(block)
            self._cache[block] = tables
        return tables

    # ------------------------------------------------------------------

    def _rtn_factors(self, block: int, aging) -> np.ndarray:
        """Per-WL RTN factors of the whole block, one vectorized hash."""
        rel = self._chip.reliability
        pe_bucket = aging.pe_cycles // 100
        ret_bucket = int(aging.retention_months * 10)
        u = hash_unit_array(
            rel.seed, 0x57A7, self._chip.chip_id, block,
            self._layer_keys, self._wl_keys, pe_bucket, ret_bucket,
        )
        return 1.0 + rel.rtn_noise * (2.0 * u - 1.0)

    def _layer_ber(self, block: int, aging) -> np.ndarray:
        """``reliability.layer_ber`` of every h-layer, in one pass.

        The model's own per-block multipliers, aging growth and layer
        acceleration (which takes the severity vector as it takes one
        severity), multiplied left to right as the scalar does, so every
        lane is the scalar's float64 result.
        """
        rel = self._chip.reliability
        return (
            rel.ber_fresh_best
            * rel._layer_multipliers(self._chip.chip_id, block)
            * rel._aging_growth(aging)
            * rel._layer_aging_accel(rel._severity, aging)
        )

    def _wl_ber(self, block: int, aging) -> np.ndarray:
        """``reliability.wl_ber`` over every (layer, wl) of the block,
        keeping the scalar's ``layer_ber * rtn_factor`` order."""
        return self._layer_ber(block, aging)[:, None] * self._rtn_factors(
            block, aging
        )

    def _stable_optimal(self, block: int, aging) -> List[int]:
        """``retry_model.stable_optimal`` of every h-layer, in one pass.

        The drift takes the severity vector as it takes one severity.
        ``np.rint`` rounds half to even, as the scalar's ``round`` does,
        and a zero drift gives 0 whatever the hash, as in the scalar.
        """
        chip = self._chip
        rel = chip.reliability
        drift = chip.retry_model._drift_continuous(rel._severity, aging)
        u = hash_unit_array(
            rel.seed, 0x0FF5, chip.chip_id, block, self._layer_keys[:, 0]
        )
        level = np.clip(np.rint(drift + (u - 0.5)), 0, MAX_OFFSET)
        return np.where(drift == 0.0, 0, level).astype(np.int64).tolist()

    def _build(self, block: int) -> BlockTables:
        chip = self._chip
        rel = chip.reliability
        aging = chip.block_aging(block)
        fresh = AgingState(aging.pe_cycles, 0.0)
        wl_ber = self._wl_ber(block, aging)
        # without retention the read-back state is the block's own aging
        # (same P/E): the same inputs, so the same surface
        wl_ber_fresh = wl_ber if fresh == aging else self._wl_ber(block, fresh)
        # E<->P1 measurement noise is aging-independent by construction
        u = hash_unit_array(
            rel.seed, 0xE1B1, chip.chip_id, block,
            self._layer_keys, self._wl_keys,
        )
        noise = 1.0 + 0.05 * (2.0 * u - 1.0)
        ep1 = rel.ep1_fraction * wl_ber * noise
        stable_opt = self._stable_optimal(block, aging)
        # the hash prefixes are a pure function of the seed and the
        # location: rebuilt with the tables, never checkpointed
        read_prefix = hash_fold_array(
            chip.retry_model.transient_state(chip.chip_id), block,
            self._layer_keys[:, 0],
        )
        env_prefix = hash_fold_array(
            self._env_state, block, self._layer_keys, self._wl_keys
        )
        return BlockTables(
            wl_ber.tolist(), wl_ber_fresh.tolist(), ep1.tolist(), stable_opt,
            aging, read_prefix.tolist(), env_prefix.ravel().tolist(),
            hash_fold(self._noise_state, block),
        )
