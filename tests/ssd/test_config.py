"""Tests for SSD configuration."""

import dataclasses
import math

import pytest

from repro.nand.reliability import AgingState
from repro.ssd.config import SSDConfig

NAN = float("nan")


class TestSSDConfig:
    def test_default_block_shape_is_papers(self):
        config = SSDConfig()
        assert config.geometry.block.n_layers == 48
        assert config.geometry.block.wls_per_layer == 4
        assert config.geometry.n_channels == 2
        assert config.geometry.chips_per_channel == 4

    def test_paper_scale_is_32gb(self):
        config = SSDConfig.paper_scale()
        assert config.geometry.blocks_per_chip == 428
        assert 30 <= config.geometry.total_bytes / 2**30 <= 34

    def test_logical_space_smaller_than_physical(self):
        config = SSDConfig()
        assert config.logical_pages < config.geometry.total_pages
        assert config.logical_bytes == (
            config.logical_pages * config.geometry.block.page_size_bytes
        )

    def test_with_aging(self):
        config = SSDConfig().with_aging(AgingState(2000, 12.0))
        assert config.aging.pe_cycles == 2000
        assert config.geometry == SSDConfig().geometry

    def test_with_seed(self):
        assert SSDConfig().with_seed(7).seed == 7

    def test_small_config_valid(self):
        config = SSDConfig.small()
        assert config.geometry.n_chips == 2
        assert config.logical_pages > 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("buffer_capacity_pages", 2),
            ("buffer_capacity_pages", NAN),
            ("buffer_read_us", -5.0),
            ("buffer_read_us", NAN),
            ("buffer_read_us", math.inf),
            ("mu_threshold", 0.0),
            ("mu_threshold", 7.0),
            ("mu_threshold", NAN),
            ("active_blocks_per_chip", 0),
            ("active_blocks_per_chip", -3),
            ("active_blocks_per_chip", NAN),
            ("gc_min_invalid_fraction", -0.1),
            ("gc_min_invalid_fraction", 2.0),
            ("gc_min_invalid_fraction", NAN),
            ("logical_fraction", 1.5),
            ("gc_trigger_blocks", 1),
            ("gc_trigger_blocks", NAN),
            ("max_inflight_programs", 0),
            ("max_inflight_programs", NAN),
            ("read_recovery_attempts", NAN),
        ],
    )
    def test_validation(self, field, value):
        """Each out-of-domain value (NaN included: a spec file can carry
        one) is refused by name when the config is built."""
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(SSDConfig(), **{field: value})
