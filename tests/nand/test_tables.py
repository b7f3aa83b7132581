"""Metamorphic suite: precomputed tables == direct scalar evaluation.

The fast path (:mod:`repro.nand.tables`) is only allowed to exist
because it is *bitwise identical* to the scalar device model.  These
tests assert that contract exhaustively over the full (h-layer x WL x
aging-epoch) domain, through every consumer surface: the vectorized
hash, the per-block tables (surfaces and premixed hash prefixes), and
the chip's program/read results across all retry offset hints,
erase-epoch transitions, baseline-aging changes and checkpoint
restores.
"""

import numpy as np
import pytest

from repro.nand.chip import NandChip
from repro.nand.geometry import BlockGeometry
from repro.nand.read_retry import MAX_OFFSET, ReadParams, ReadRetryModel
from repro.nand.reliability import (
    AgingState,
    ReliabilityModel,
    hash_state,
    hash_unit,
)
from repro.nand.tables import FastPathTables, hash_unit_array

#: the paper's aging sweep: fresh, end-of-life cycling, and end-of-life
#: cycling plus one year of retention; then the edges of the read
#: retry's zero-drift branch: P/E just below and at its fresh threshold
#: (100) without retention, and retention without P/E
AGING_EPOCHS = [
    AgingState(),
    AgingState(2000, 0.0),
    AgingState(2000, 1.0),
    AgingState(2000, 12.0),
    AgingState(99, 0.0),
    AgingState(100, 0.0),
    AgingState(0, 12.0),
]

GEOMETRY = BlockGeometry(n_layers=10, wls_per_layer=4, pages_per_wl=3)


class TestHashUnitArray:
    @pytest.mark.parametrize("seed", [0, 7, 0xDEADBEEF])
    def test_bitwise_identical_to_scalar_hash(self, seed):
        layers = np.arange(GEOMETRY.n_layers, dtype=np.uint64)[:, None]
        wls = np.arange(GEOMETRY.wls_per_layer, dtype=np.uint64)[None, :]
        grid = hash_unit_array(seed, 0x57A7, 3, 17, layers, wls, 20, 120)
        for layer in range(GEOMETRY.n_layers):
            for wl in range(GEOMETRY.wls_per_layer):
                scalar = hash_unit(seed, 0x57A7, 3, 17, layer, wl, 20, 120)
                assert grid[layer, wl] == scalar

    def test_scalar_only_keys_degenerate_to_scalar_hash(self):
        assert hash_unit_array(5, 1, 2, 3) == hash_unit(5, 1, 2, 3)

    def test_trailing_scalar_keys_after_arrays(self):
        keys = np.arange(6, dtype=np.uint64)
        grid = hash_unit_array(9, keys, 42)
        for i in range(6):
            assert grid[i] == hash_unit(9, i, 42)


class TestBlockTables:
    def _chip(self, aging, **kwargs):
        chip = NandChip(
            chip_id=2, n_blocks=3, geometry=GEOMETRY, store_tags=False,
            fast_path=True, **kwargs,
        )
        chip.set_baseline_aging(aging)
        return chip

    @pytest.mark.parametrize("aging", AGING_EPOCHS, ids=str)
    def test_tables_match_direct_evaluation(self, aging):
        chip = self._chip(aging)
        reliability = chip.reliability
        retry = chip.retry_model
        for block in range(chip.n_blocks):
            tables = chip._fast.block(block)
            block_aging = chip.block_aging(block)
            fresh = chip._fresh_aging(chip.block_pe(block))
            seed, chip_id = reliability.seed, chip.chip_id
            # the premixed hash prefixes of the per-operation draws
            assert tables.noise_prefix == hash_state(seed, 0x9619, chip_id, block)
            for layer in range(GEOMETRY.n_layers):
                stable = tables.stable_opt[layer]
                assert type(stable) is int
                assert stable == retry.stable_optimal(
                    chip.chip_id, block, layer, block_aging
                )
                assert tables.read_prefix[layer] == hash_state(
                    seed, 0x7EAD, chip_id, block, layer
                )
                for wl in range(GEOMETRY.wls_per_layer):
                    assert tables.env_prefix[GEOMETRY.wl_index(layer, wl)] == hash_state(
                        seed, 0xE47, chip_id, block, layer, wl
                    )
                    assert tables.wl_ber[layer][wl] == reliability.wl_ber(
                        chip.chip_id, block, layer, wl, block_aging
                    )
                    assert tables.wl_ber_fresh[layer][wl] == reliability.wl_ber(
                        chip.chip_id, block, layer, wl, fresh
                    )
                    assert tables.ep1[layer][wl] == reliability.ber_ep1(
                        chip.chip_id, block, layer, wl, block_aging
                    )

    def test_erase_epoch_transition_invalidates(self):
        chip = self._chip(AgingState(2000, 1.0))
        before = chip._fast.block(0)
        chip.erase_block(0)
        after = chip._fast.block(0)
        assert after is not before
        # and the rebuilt surface matches the new epoch's direct values
        new_aging = chip.block_aging(0)
        assert after.wl_ber[1][1] == chip.reliability.wl_ber(
            chip.chip_id, 0, 1, 1, new_aging
        )

    def test_set_baseline_aging_invalidates(self):
        chip = self._chip(AgingState())
        chip._fast.block(1)
        chip.set_baseline_aging(AgingState(2000, 12.0))
        assert chip._fast._cache == {}
        tables = chip._fast.block(1)
        assert tables.wl_ber[0][0] == chip.reliability.wl_ber(
            chip.chip_id, 1, 0, 0, chip.block_aging(1)
        )

    def test_load_state_dict_invalidates(self):
        chip = self._chip(AgingState(2000, 1.0))
        chip.program_wl(0, 0, 0)
        chip._fast.block(0)
        state = chip.state_dict()
        chip.erase_block(0)
        chip.load_state_dict(state)
        assert chip._fast._cache == {}
        assert chip.programmed_wl_count(0) == 1


class TestChipFastSlowEquivalence:
    """End-to-end: a fast-path chip and a scalar chip produce identical
    program/read results over every (h-layer x WL x aging x offset-hint)
    combination, including across erase epochs."""

    def _pair(self, aging):
        chips = []
        for fast in (True, False):
            chip = NandChip(
                chip_id=1, n_blocks=2, geometry=GEOMETRY, store_tags=False,
                fast_path=fast,
            )
            chip.set_baseline_aging(aging)
            chips.append(chip)
        return chips

    @pytest.mark.parametrize("aging", AGING_EPOCHS, ids=str)
    def test_program_and_read_identical(self, aging):
        fast, slow = self._pair(aging)
        for chip in (fast, slow):
            results = []
            for layer in range(GEOMETRY.n_layers):
                for wl in range(GEOMETRY.wls_per_layer):
                    pr = chip.program_wl(0, layer, wl)
                    results.append(
                        (pr.t_prog_us, pr.post_program_ber, pr.ber_ep1,
                         pr.env_shift)
                    )
                    for hint in range(MAX_OFFSET + 1):
                        rr = chip.read_page(
                            0, layer, wl, 0, ReadParams(offset_hint=hint)
                        )
                        results.append(
                            (rr.t_read_us, rr.num_retry, rr.final_offset,
                             rr.ber, rr.correctable, rr.t_retry_us)
                        )
            chip.results = results
        assert fast.results == slow.results

    def test_identical_across_erase_epochs(self):
        fast, slow = self._pair(AgingState(2000, 1.0))
        for chip in (fast, slow):
            results = []
            for _ in range(3):  # three erase epochs of block 0
                pr = chip.program_wl(0, 2, 1)
                rr = chip.read_page(0, 2, 1, 0)
                results.append(
                    (pr.post_program_ber, pr.ber_ep1, rr.ber, rr.num_retry,
                     rr.final_offset)
                )
                chip.erase_block(0)
            chip.results = results
        assert fast.results == slow.results

    def test_env_default_enables_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
        chip = NandChip(geometry=GEOMETRY)
        assert isinstance(chip._fast, FastPathTables)
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        chip = NandChip(geometry=GEOMETRY)
        assert chip._fast is None


class TestTransientOptimal:
    def test_read_optimal_delegates_to_transient_optimal(self):
        reliability = ReliabilityModel(GEOMETRY, seed=3)
        model = ReadRetryModel(reliability)
        aging = AgingState(2000, 6.0)
        for layer in range(GEOMETRY.n_layers):
            stable = model.stable_optimal(0, 1, layer, aging)
            for nonce in range(50):
                assert model.read_optimal(0, 1, layer, aging, nonce) == (
                    model.transient_optimal(0, 1, layer, stable, aging, nonce)
                )

    def test_fresh_short_circuit_preserved(self):
        reliability = ReliabilityModel(GEOMETRY, seed=3)
        model = ReadRetryModel(reliability)
        fresh = AgingState()
        for nonce in range(20):
            assert model.transient_optimal(0, 0, 0, 0, fresh, nonce) == 0
