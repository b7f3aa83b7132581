"""Metamorphic suite: precomputed tables == direct scalar evaluation.

The chip serves every program and read from the per-block tables
(:mod:`repro.nand.tables`), which must be *bitwise identical* to the
scalar device model.  These tests assert that contract exhaustively
over the full (h-layer x WL x aging-epoch) domain, through every
consumer surface: the vectorized hash, the per-block tables (surfaces
and premixed hash prefixes), and the chip's program/read results
against the scalar model evaluated in the test, across all retry
offset hints, erase-epoch transitions, baseline-aging changes and
checkpoint restores.
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
from repro.nand.tables import hash_unit_array

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
            **kwargs,
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
            fresh = AgingState(chip.block_pe(block), 0.0)
            seed, chip_id = reliability.seed, chip.chip_id
            assert tables.aging == block_aging
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
    """End-to-end: every program and read result the chip serves from
    its tables (the fast path) equals the scalar model evaluated here
    (the slow path), over every (h-layer x WL x aging x offset-hint)
    combination, including across erase epochs."""

    @staticmethod
    def _assert_matches_scalar_model(aging, n_epochs):
        # frequent environment shifts, so both sides of the per-program
        # draw are taken
        chip = NandChip(
            chip_id=1, n_blocks=2, geometry=GEOMETRY, store_tags=False,
            env_shift_prob=0.1,
        )
        chip.set_baseline_aging(aging)
        reliability, retry = chip.reliability, chip.retry_model
        seed, chip_id = reliability.seed, chip.chip_id
        program_nonce = read_nonce = 0
        for epoch in range(n_epochs):
            block_aging = AgingState(
                aging.pe_cycles + epoch, aging.retention_months
            )
            fresh = AgingState(block_aging.pe_cycles, 0.0)
            for layer in range(GEOMETRY.n_layers):
                for wl in range(GEOMETRY.wls_per_layer):
                    program = chip.program_wl(0, layer, wl)
                    program_nonce += 1
                    env_shift = 0
                    if hash_unit(
                        seed, 0xE47, chip_id, 0, layer, wl, program_nonce
                    ) < chip.env_shift_prob:
                        env_shift = (
                            1 if hash_unit(seed, 0xD17, 0, layer, wl) < 0.5
                            else -1
                        )
                    assert program.env_shift == env_shift
                    penalty = program.ispp.ber_penalty
                    assert program.post_program_ber == reliability.wl_ber(
                        chip_id, 0, layer, wl, fresh
                    ) * penalty
                    assert program.ber_ep1 == reliability.ber_ep1(
                        chip_id, 0, layer, wl, block_aging
                    )
                    noise_u = hash_unit(
                        seed, 0x9619, chip_id, 0, GEOMETRY.wl_index(layer, wl),
                        program_nonce,
                    )
                    ber = (
                        reliability.wl_ber(chip_id, 0, layer, wl, block_aging)
                        * penalty
                        * (1.0 + 0.01 * (2.0 * noise_u - 1.0))
                    )
                    for hint in range(MAX_OFFSET + 1):
                        read = chip.read_page(
                            0, layer, wl, 0, ReadParams(offset_hint=hint)
                        )
                        optimal = retry.read_optimal(
                            chip_id, 0, layer, block_aging, read_nonce
                        )
                        read_nonce += 1
                        assert read.ber == ber
                        assert read.final_offset == optimal
                        assert read.num_retry == abs(optimal - hint)
            chip.erase_block(0)

    @pytest.mark.parametrize("aging", AGING_EPOCHS, ids=str)
    def test_program_and_read_identical(self, aging):
        self._assert_matches_scalar_model(aging, n_epochs=1)

    def test_identical_across_erase_epochs(self):
        for aging in AGING_EPOCHS:  # three erase epochs of block 0 each
            self._assert_matches_scalar_model(aging, n_epochs=3)


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
